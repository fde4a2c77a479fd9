"""Toy mechanisms used as test fixtures: a counting analyzer, a fixed-kernel randomizer and a
leaky online echo."""

from panshuffle.mechanisms import Analyzer, PanPrivateAlgorithm, Randomizer


def one_count_analyzer() -> Analyzer:
    """Output the number of 1-messages (binary alphabet)."""
    return Analyzer(
        fn=lambda counts: int(counts[1]),
        name="one-count",
    )


def kernel_randomizer(kernel: dict, width: int) -> Randomizer:
    """Every input's messages add a count vector drawn from ``kernel``; for exact laws only."""
    def batch(xs, u):
        raise NotImplementedError("kernel_randomizer has no sampler")

    return Randomizer(alphabet=tuple(range(width)), kernel_fn=lambda x: kernel, batch_fn=batch,
                      uniforms=0, name="kernel")


def last_element_echo(name: str = "last-echo") -> PanPrivateAlgorithm:
    """State = most recent element (maximally leaky; certificate stress case)."""
    return PanPrivateAlgorithm(
        name=name,
        init_kernel={None: 1.0},
        update_kernel=lambda i, x, s: {x: 1.0},
        output_kernel=lambda s: {s: 1.0},
    )
