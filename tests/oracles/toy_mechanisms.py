"""Toy mechanisms used as test fixtures: a counting analyzer and a leaky online echo."""

from panshuffle.mechanisms import Analyzer, PanPrivateAlgorithm


def one_count_analyzer() -> Analyzer:
    """Output the number of 1-messages (binary alphabet)."""
    return Analyzer(
        fn=lambda counts: int(counts[1]),
        name="one-count",
    )


def last_element_echo(name: str = "last-echo") -> PanPrivateAlgorithm:
    """State = most recent element (maximally leaky; certificate stress case)."""
    return PanPrivateAlgorithm(
        name=name,
        init_kernel={None: 1.0},
        update_kernel=lambda i, x, s: {x: 1.0},
        output_kernel=lambda s: {s: 1.0},
    )
