"""Reductions: shuffle-to-online wrapper, stream augmentation, learner harness."""

import ast
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

import panshuffle
from panshuffle.baselines import ProblemInstance, _binomial_rows, plug_in_solve
from panshuffle.distributions import ParityIndex
from panshuffle.errors import GuardError
from panshuffle.exact import (
    exact_pan_output,
    exact_shuffle_counts,
    push_through_analyzer,
    tv_dicts,
)
from panshuffle.mechanisms import (
    PrivacyBudget,
    ShuffleProtocol,
    asymmetric_binary_randomizer,
    binary_randomized_response,
    echo_randomizer,
    histogram_analyzer,
    run_pan,
    threshold_analyzer,
)
from panshuffle.reductions import (
    LearnerDistinguisher,
    PlantedLearner,
    PlugInParityLearner,
    ShuffleToPanWrapper,
    threshold_distinguisher,
    wrapper_escape_mass,
)
from panshuffle.rng import laplace, make_generator

from oracles.distinguisher_oracle import run_batch_loop
from oracles.sign_matrix_oracle import (
    generator_probe,
    sample_by_expression,
    uniform_rows_by_expression,
)
from oracles.wrapper_oracle import FROZEN_ESCAPE, step_loop_algorithm

REF = {1: 0.3, 0: 0.7}


def _rr_protocol(n: int, cutoff: int, gamma: float = 1.0 / 3.0) -> ShuffleProtocol:
    return ShuffleProtocol(
        randomizer=binary_randomized_response(0.25),
        analyzer=threshold_analyzer(cutoff),
        n=n,
        budget=PrivacyBudget(epsilon=math.log(3), delta=0.0, gamma=gamma),
    )


def test_wrapper_escape_mass_matches_frozen_oracle():
    for n, expected in sorted(FROZEN_ESCAPE.items()):
        assert wrapper_escape_mass(n) == pytest.approx(expected, rel=1e-12)
    assert wrapper_escape_mass(6) == FROZEN_ESCAPE[6]
    assert wrapper_escape_mass(240) == FROZEN_ESCAPE[240]


def test_wrapper_escape_mass_is_the_correctly_rounded_tail():
    p = Fraction(2, 9)
    for n in range(301):
        below = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n // 3 + 1))
        assert wrapper_escape_mass(n) == float(1 - below), n


def test_wrapper_escape_mass_agrees_with_scipy_binomial_tail():
    # scipy is an independent oracle here, with rounding error of its own
    for n in [*range(1, 1500, 7), 1500]:
        assert wrapper_escape_mass(n) == pytest.approx(binom.sf(n // 3, n, 2.0 / 9.0), rel=1e-11)


@pytest.mark.parametrize("n", [-3, -1, 2.5, 6.0, "6", True, None])
def test_wrapper_escape_mass_refuses_a_bad_cohort_size(n):
    with pytest.raises(ValueError, match=f"n={n!r}"):
        wrapper_escape_mass(n)


def _run_on_src(args: list, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this checkout's ``src`` first on the path."""
    src = str(Path(panshuffle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, **kwargs)


# prints, as its last stdout line, the scipy modules loaded so far
_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_package_import_leaves_scipy_stats_unloaded():
    """No module of the scipy package is loaded by importing the package and its CLI."""
    out = _run_on_src(["-c", f"import sys, panshuffle, panshuffle.cli; {_SCIPY_LOADED}"])
    assert out.stdout.strip() == "[]"


def test_package_import_leaves_numpy_random_unloaded():
    """Random streams load ``numpy.random`` on first use, not with the package."""
    out = _run_on_src(["-c", "import sys, panshuffle; print('numpy.random' in sys.modules)"])
    assert out.stdout.strip() == "False"


def test_package_import_leaves_numpy_fft_unloaded():
    """The composed privacy bound loads ``numpy.fft`` on first use, not with the package."""
    out = _run_on_src(["-c", "import sys, panshuffle; print('numpy.fft' in sys.modules)"])
    assert out.stdout.strip() == "False"


def test_audit_reduce_check_and_norm_load_no_scipy(tmp_path):
    argvs = [
        ["audit", "--mechanism", '{"type": "binary_rr", "flip_p": 0.2}',
         "--neighbors", '{"a": [1], "b": [0]}', "--eps", "0.0,0.5,1.0", "--out", "curve.csv"],
        ["reduce-check", "--n", "6"],
        ["norm", "--d", "3", "--k", "1", "--alpha", "0.1"],
    ]
    probe = ("import json, sys\nfrom panshuffle.cli import main\n"
             "print([main(a) for a in json.loads(sys.argv[1])])\n" + _SCIPY_LOADED)
    out = _run_on_src(["-c", probe, json.dumps(argvs)], cwd=tmp_path)
    codes, loaded = out.stdout.splitlines()[-2:]
    assert (codes, loaded) == ("[0, 0, 0]", "[]")
    assert (tmp_path / "curve.csv").exists()


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def _module_level_nodes(node: ast.AST):
    """Nodes run when the module is imported: everything outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level_nodes(child)


def test_no_package_module_imports_scipy_at_module_level():
    modules = sorted(Path(panshuffle.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in _module_level_nodes(ast.parse(path.read_text()))
             if _imports_scipy(node)]
    assert found == []


def test_wrapper_rejects_bad_configurations():
    with pytest.raises(ValueError, match="divisible by 3"):
        ShuffleToPanWrapper(protocol=_rr_protocol(7, 3), reference=REF)
    with pytest.raises(ValueError, match="floor"):
        ShuffleToPanWrapper(protocol=_rr_protocol(6, 3, gamma=0.5), reference=REF)
    with pytest.raises(ValueError, match="sum to 1"):
        ShuffleToPanWrapper(protocol=_rr_protocol(6, 3), reference={1: 0.5, 0: 0.4})
    with pytest.raises(ValueError, match="non-negative"):
        ShuffleToPanWrapper(protocol=_rr_protocol(6, 3), reference={0: 1.5, 1: -0.5})
    with pytest.raises(ValueError, match="non-negative"):
        ShuffleToPanWrapper(protocol=_rr_protocol(6, 3), reference={0: float("nan"), 1: 1.0})


def test_wrapper_lengths():
    w = ShuffleToPanWrapper(protocol=_rr_protocol(12, 5), reference=REF)
    assert w.n == 12
    assert w.stream_len == 4


def test_budget_distribution_caps_binomial():
    w = ShuffleToPanWrapper(protocol=_rr_protocol(6, 3), reference=REF)
    law = w.budget_distribution
    assert set(law) == {0, 1, 2}
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    for b in (0, 1):
        assert law[b] == pytest.approx(float(binom.pmf(b, 6, 2 / 9)), abs=1e-12)
    assert law[2] == pytest.approx(
        float(binom.pmf(2, 6, 2 / 9) + binom.sf(2, 6, 2 / 9)), abs=1e-12
    )


@pytest.mark.parametrize("n", [3, 6, 30, 300, 999])
def test_budget_law_is_the_binomial_tables_last_row_bit_for_bit(n):
    law = ShuffleToPanWrapper(protocol=_rr_protocol(n, 1), reference=REF).budget_distribution
    pmf = _binomial_rows(n, 2.0 / 9.0)[n]
    cap = n // 3
    assert list(law) == list(range(cap + 1))
    assert [law[k].hex() for k in range(cap)] == [float(p).hex() for p in pmf[:cap]]
    assert law[cap].hex() == float(pmf[cap:].sum()).hex()


def test_budget_law_builds_one_row_not_the_table():
    # the (n + 1) x (n + 1) table is 72 MB at n = 3,000
    wrapper = ShuffleToPanWrapper(protocol=_rr_protocol(3000, 1), reference=REF)
    tracemalloc.start()
    try:
        law = wrapper.budget_distribution
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(law) == 1001 and abs(sum(law.values()) - 1.0) <= 1e-12
    assert peak <= 1e6, peak


def test_null_identity_is_exact():
    proto = _rr_protocol(6, 3)
    wrapper = ShuffleToPanWrapper(protocol=proto, reference=REF)
    honest = push_through_analyzer(
        exact_shuffle_counts(proto.randomizer, [REF] * 6), proto.analyzer
    )
    via_mixture = wrapper.exact_output_distribution(REF)
    via_state = exact_pan_output(wrapper.as_pan_algorithm(), [REF] * 2)
    assert tv_dicts(via_mixture, honest) == pytest.approx(0.0, abs=1e-12)
    assert tv_dicts(via_state, honest) == pytest.approx(0.0, abs=1e-12)


def test_mixture_path_agrees_with_state_enumeration():
    wrapper = ShuffleToPanWrapper(protocol=_rr_protocol(6, 2), reference=REF)
    planted = {1: 0.9, 0: 0.1}
    fast = wrapper.exact_output_distribution(planted)
    slow = exact_pan_output(wrapper.as_pan_algorithm(), [planted] * 2)
    assert tv_dicts(fast, slow) == pytest.approx(0.0, abs=1e-12)


def test_dilution_gap_bounded_by_escape_mass():
    proto = _rr_protocol(6, 3)
    wrapper = ShuffleToPanWrapper(protocol=proto, reference=REF)
    planted = {1: 0.95, 0: 0.05}
    diluted = {x: (2 / 9) * planted.get(x, 0.0) + (7 / 9) * REF[x] for x in REF}
    honest = push_through_analyzer(
        exact_shuffle_counts(proto.randomizer, [diluted] * 6), proto.analyzer
    )
    gap = tv_dicts(wrapper.exact_output_distribution(planted), honest)
    assert gap <= wrapper_escape_mass(6) + 1e-12


def test_echo_protocol_attains_escape_mass_exactly():
    proto = ShuffleProtocol(
        randomizer=echo_randomizer((0, 1)),
        analyzer=threshold_analyzer(2),
        n=6,
    )
    wrapper = ShuffleToPanWrapper(protocol=proto, reference={0: 1.0})
    planted = {1: 1.0}
    assert wrapper.exact_output_distribution(planted) == pytest.approx({0: 1.0})
    diluted = {1: 2 / 9, 0: 7 / 9}
    honest = push_through_analyzer(
        exact_shuffle_counts(proto.randomizer, [diluted] * 6), proto.analyzer
    )
    gap = tv_dicts(wrapper.exact_output_distribution(planted), honest)
    assert gap == pytest.approx(wrapper_escape_mass(6), abs=1e-12)


@pytest.mark.parametrize("rz, ref, other", [
    (binary_randomized_response(0.3), {1: 0.6, 0: 0.4}, {1: 0.9, 0: 0.1}),
    (asymmetric_binary_randomizer(0.8, 0.25), {0: 0.6, 1: 0.4}, {1: 1.0}),
    (echo_randomizer((0, 1, 2)), {0: 0.5, 2: 0.2, 1: 0.3}, {2: 0.7, 0: 0.3}),
], ids=["rr", "channel", "echo3"])
def test_wrapper_law_builds_its_reference_kernel_once(rz, ref, other, monkeypatch):
    """Every wrapper law reads one reference kernel law, with the bytes a per-call build gives."""
    import panshuffle.exact as ex

    built = []
    kernel_for = ex.randomizer_kernel_for
    monkeypatch.setattr(ex, "randomizer_kernel_for",
                        lambda r, dist: built.append(dist) or kernel_for(r, dist))
    proto = ShuffleProtocol(randomizer=rz, analyzer=histogram_analyzer(), n=12)
    wrapper = ShuffleToPanWrapper(protocol=proto, reference=ref)
    laws = [wrapper.exact_output_distribution(law) for law in (other, other, ref)]
    # the reference once for the wrapper, then each call's input
    assert [id(dist) for dist in built] == [id(ref), id(other), id(other), id(ref)]
    assert laws[0] == laws[1] and sum(laws[2].values()) == pytest.approx(1.0, abs=1e-12)
    fresh = ex.CountLaw.of(kernel_for(rz, ref), len(rz.alphabet))
    for field in ("codes", "probs", "lo", "places"):
        assert getattr(wrapper._reference_law, field).tobytes() == getattr(fresh, field).tobytes()


def test_wrapper_sampling_matches_exact_law():
    wrapper = ShuffleToPanWrapper(protocol=_rr_protocol(6, 3), reference=REF)
    alg = wrapper.as_pan_algorithm()
    law = exact_pan_output(alg, [1, 0])
    rng = make_generator(404, "wrapper-sampling")
    hits = sum(run_pan(alg, [1, 0], t=1, rng=rng).output for _ in range(20_000))
    assert hits / 20_000 == pytest.approx(law.get(1, 0.0), abs=0.015)


def test_wrapper_sampling_matches_recorded_draws():
    """50 seeded views per wrapper, recorded when each message was drawn one call at a time.

    Sampling through ``emit_batch`` and inverse-CDF reference picks must
    consume the generator as ``rng.choice`` and per-message draws did, so the
    views and the generator's final state are unchanged.
    """
    golden = json.loads((Path(__file__).parent / "wrapper_golden.json").read_text())
    budget = PrivacyBudget(epsilon=1.0, delta=0.0, gamma=1.0 / 3.0)
    cases = {
        "rr": (binary_randomized_response(0.3), {1: 0.3, 0: 0.7}),
        "channel": (asymmetric_binary_randomizer(0.8, 0.25), {0: 0.6, 1: 0.4}),
        "echo3": (echo_randomizer((0, 1, 2)), {0: 0.5, 2: 0.2, 1: 0.3}),
    }
    gen = make_generator(7, "wrapper-golden")
    for name, (rz, ref) in cases.items():
        proto = ShuffleProtocol(randomizer=rz, analyzer=histogram_analyzer(), n=24, budget=budget)
        alg = ShuffleToPanWrapper(protocol=proto, reference=ref).as_pan_algorithm()
        views = []
        for j in range(50):
            stream = gen.integers(0, len(rz.alphabet), size=8).tolist()
            view = run_pan(alg, stream, t=1 + j % 8, rng=gen)
            views.append([view.t, view.state[0], list(view.state[1]), list(view.output)])
        assert views == golden[name]
    assert int(gen.integers(0, 2**62)) == golden["probe"]


@pytest.mark.parametrize("rz, ref", [
    (binary_randomized_response(0.3), {1: 0.6, 0: 0.4}),
    (asymmetric_binary_randomizer(0.8, 0.25), {0: 0.6, 1: 0.4}),
    (echo_randomizer((0, 1, 2)), {0: 0.5, 2: 0.2, 1: 0.3}),
], ids=["rr", "channel", "echo3"])
def test_wrapper_view_matches_the_step_loop(rz, ref):
    """One view's two generator calls give the message-by-message loop's view and position.

    Streams run short of, at and past n/3, and every intrusion time is looked
    at, so budgets fall both inside and beyond each stream. The RR reference
    puts 0.6 on its first key: at 0.3, the flip rate, a message would be the
    same function of its pick and its flip uniform swapped.
    """
    proto = ShuffleProtocol(randomizer=rz, analyzer=histogram_analyzer(), n=24)
    wrapper = ShuffleToPanWrapper(protocol=proto, reference=ref)
    alg, oracle = wrapper.as_pan_algorithm(), step_loop_algorithm(wrapper)
    streams = make_generator(3, "view-streams", rz.name)
    for m in (wrapper.stream_len - 2, wrapper.stream_len, wrapper.stream_len + 3):
        for t in range(1, m + 1):
            for rep in range(4):
                stream = streams.integers(0, len(rz.alphabet), size=m).tolist()
                gen, want_gen = (make_generator(11, rz.name, m, t, rep) for _ in range(2))
                view, want = run_pan(alg, stream, t, gen), run_pan(oracle, stream, t, want_gen)
                assert view == want, (m, t, rep)
                assert gen.bit_generator.random_raw() == want_gen.bit_generator.random_raw()


@pytest.mark.parametrize("rz", [binary_randomized_response(0.3), echo_randomizer((0, 1, 2))],
                         ids=["rr", "echo3"])
def test_a_view_joins_no_empty_message_uniforms(rz, monkeypatch):
    """An echo message takes no uniform, so a view joins no four empty slices for them."""
    wrapper = ShuffleToPanWrapper(ShuffleProtocol(rz, histogram_analyzer(), 24), {0: 0.5, 1: 0.5})
    want = [wrapper.sample_view([1, 0, 1], t, make_generator(5, t)) for t in (1, 2, 3)]
    empty_joins = []
    concatenate = np.concatenate

    def spy(parts, *args, **kwargs):
        parts = list(parts)
        empty_joins.append(all(len(p) == 0 for p in parts))
        return concatenate(parts, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", spy)
    assert [wrapper.sample_view([1, 0, 1], t, make_generator(5, t)) for t in (1, 2, 3)] == want
    assert empty_joins and not any(empty_joins)


def test_shuffle_to_pan_factory_sets_metadata():
    alg = ShuffleToPanWrapper(protocol=_rr_protocol(6, 3), reference=REF).as_pan_algorithm()
    assert alg.meta == {"n": 6, "stream_len": 2}
    assert alg.name == "shuffle-to-pan"


def test_planted_learner_is_constant():
    idx = ParityIndex(subset=(2,), sign=-1)
    learner = PlantedLearner(index=idx)
    assert learner.fit(np.zeros((5, 4))) == idx


def test_plugin_learner_recovers_planted_parity():
    d, alpha = 4, 0.45
    planted = ParityIndex(subset=(1, 3), sign=-1)
    dist = LearnerDistinguisher(
        learner=PlugInParityLearner(d=d, k=2),
        d=d,
        alpha=alpha,
        epsilon=1.0,
        n_learn=4000,
    )
    rows = dist._draw_rows(dist._member(planted), 4000, make_generator(11, "plugin"))
    guess = PlugInParityLearner(d=d, k=2).fit(rows)
    assert guess == planted


def _learning_instance(d: int, k: int) -> ProblemInstance:
    return ProblemInstance(
        problem="parity-learning", model="central", d=d, k=k, alpha=0.0, n=0,
        epsilon=math.inf, delta=0.0, truth={"family": "uniform", "d": d + 1},
    )


def test_plugin_learner_tie_break_prefers_smaller_subset():
    # labels equal x1 and x2 simultaneously on this dataset: exact tie
    rows = np.array([[1, 1, 1], [-1, -1, -1]], dtype=np.int64)
    guess = PlugInParityLearner(d=2, k=2).fit(rows)
    assert guess == ParityIndex(subset=(1,), sign=1)
    assert guess == ParityIndex(*plug_in_solve(_learning_instance(2, 2), rows))


@pytest.mark.parametrize("d, k", [(1, 1), (3, 2), (6, 2), (10, 3)])
def test_plugin_learner_fit_equals_plug_in_solve(d, k):
    """The cached column table decides as ``plug_in_solve`` does.

    At n = 1 and 2 most candidates tie, so the earlier-candidate tie-break is
    exercised; n = 0 gives the empty subset with sign +1.
    """
    learner = PlugInParityLearner(d=d, k=k)
    inst = _learning_instance(d, k)
    rng = make_generator(12, "fit-vs-solve", d, k)
    for n in (0, 1, 2, 7, 200):
        for _ in range(20):
            rows = (rng.integers(0, 2, size=(n, d + 1)) * 2 - 1).astype(np.int8)
            assert learner.fit(rows) == ParityIndex(*plug_in_solve(inst, rows))
    assert learner.fit(np.empty((0, d + 1), dtype=np.int8)) == ParityIndex((), 1)


def test_plugin_learner_survives_a_pickle_round_trip():
    learner = PlugInParityLearner(d=4, k=2)
    rows = (make_generator(13, "pickle").integers(0, 2, size=(50, 5)) * 2 - 1)
    before = learner.fit(rows)  # builds the column table
    clone = pickle.loads(pickle.dumps(learner))
    assert clone.fit(rows) == before
    assert clone == learner == PlugInParityLearner(d=4, k=2)
    assert hash(clone) == hash(PlugInParityLearner(d=4, k=2))


def test_plugin_learner_validates_width():
    with pytest.raises(ValueError, match="width"):
        PlugInParityLearner(d=3, k=1).fit(np.ones((4, 3), dtype=np.int64))


def _distinguisher(learner, scale: float = 24.0) -> LearnerDistinguisher:
    return LearnerDistinguisher(
        learner=learner, d=3, alpha=0.2, epsilon=1.0, n_learn=40,
        test_phase_scale=scale,
    )


def test_distinguisher_rows_match_the_expression_oracles():
    """Both worlds' rows: the bytes, dtype and shape of the out-of-place expressions, and
    the generator left where they leave it."""
    for d in range(1, 13):
        planted = ParityIndex(tuple(range(1, min(d, 3) + 1)), -1)
        dist = LearnerDistinguisher(learner=PlantedLearner(index=planted), d=d, alpha=0.2,
                                    epsilon=1.0, n_learn=0)
        member = dist._member(planted)
        for m in (0, 1, 257):
            for world, oracle in ((None, lambda g: uniform_rows_by_expression(d, m, g)),
                                  (member, lambda g: sample_by_expression(member, m, g))):
                ours, theirs = make_generator(31, "rows", d, m), make_generator(31, "rows", d, m)
                got, want = dist._draw_rows(world, m, ours), oracle(theirs)
                assert got.dtype == want.dtype and got.shape == want.shape == (m, d + 1)
                assert got.tobytes() == want.tobytes(), (d, m, world)
                assert generator_probe(ours) == generator_probe(theirs)


def test_test_len_formula():
    dist = _distinguisher(PlugInParityLearner(d=3, k=1), scale=4.0)
    assert dist.test_len == math.ceil(4.0 / (0.2 * 1.0)) == 20
    assert _distinguisher(PlugInParityLearner(d=3, k=1)).test_len == 120
    assert dist.total_len == 40 + 20


def test_run_validates_stream_length():
    dist = _distinguisher(PlantedLearner(index=ParityIndex(subset=(1,), sign=1)))
    with pytest.raises(ValueError, match="stream length"):
        dist.run([(1, 1, 1, 1)] * 5, make_generator(0))


def test_run_and_run_batch_agree_in_law():
    planted = ParityIndex(subset=(2,), sign=1)
    dist = _distinguisher(PlugInParityLearner(d=3, k=1), scale=6.0)
    rng = make_generator(55, "run-vs-batch")
    trials = 1500
    streamed = np.empty(trials)
    for j in range(trials):
        stream = [tuple(r) for r in dist._draw_rows(dist._member(planted), dist.total_len, rng)]
        streamed[j] = dist.run(stream, rng)
    batched = dist.run_batch(planted, trials, rng)
    assert ks_2samp(streamed, batched).pvalue > 1e-3


def test_run_batch_uniform_world_centers_at_half_rate():
    dist = _distinguisher(PlantedLearner(index=ParityIndex(subset=(1,), sign=1)))
    z = dist.run_batch(None, 40_000, make_generator(56, "uniform-world"))
    assert float(z.mean()) == pytest.approx(dist.test_len / 2, abs=0.5)


def test_run_batch_planted_world_shifts_by_alpha():
    idx = ParityIndex(subset=(1,), sign=1)
    dist = _distinguisher(PlantedLearner(index=idx))
    z = dist.run_batch(idx, 40_000, make_generator(57, "planted-world"))
    expected = dist.test_len * (0.5 + dist.alpha)
    assert float(z.mean()) == pytest.approx(expected, abs=0.5)


@pytest.mark.parametrize("learner", ["planted", "plugin"])
def test_run_batch_rejects_a_planted_subset_outside_d_before_any_draw(learner):
    idx = ParityIndex(subset=(9,), sign=1)
    dist = _distinguisher(PlantedLearner(index=idx) if learner == "planted"
                          else PlugInParityLearner(d=3, k=1))
    rng = make_generator(58, "outside-d")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^subset \(9,\) has coordinates outside \[1, 3\]$"):
        dist.run_batch(idx, 10, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("d, k, alpha, epsilon, n_learn, trials", [
    (3, 1, 0.2, 1.0, 40, 1),
    (4, 2, 0.3, 0.5, 25, 7),
    (5, 1, 0.2, 2.0, 0, 12),
    (6, 2, 0.45, 1.0, 120, 33),
    (3, 1, 0.2, math.inf, 10, 5),  # Lap(0): no noise word is drawn
])
def test_run_batch_matches_the_per_trial_loop(d, k, alpha, epsilon, n_learn, trials):
    """Bit for bit, in both worlds, and the generator ends at the same word."""
    dist = LearnerDistinguisher(
        learner=PlugInParityLearner(d=d, k=k), d=d, alpha=alpha, epsilon=epsilon,
        n_learn=n_learn, test_phase_scale=6.0,
    )
    tag = ("batch-vs-loop", d, k, n_learn, trials)
    for planted in (ParityIndex((1,), 1), ParityIndex((2,) if k == 1 else (1, 2), -1), None):
        batch_rng, loop_rng = make_generator(62, *tag), make_generator(62, *tag)
        batched = dist.run_batch(planted, trials, batch_rng)
        looped = run_batch_loop(dist, planted, trials, loop_rng)
        assert batched.dtype == looped.dtype and batched.tobytes() == looped.tobytes()
        assert (batch_rng.integers(0, 2**64, dtype=np.uint64)
                == loop_rng.integers(0, 2**64, dtype=np.uint64))


@dataclass
class _CountingLearner:
    inner: PlugInParityLearner
    fits: int = 0

    def fit(self, samples: np.ndarray) -> ParityIndex:
        self.fits += 1
        return self.inner.fit(samples)


def test_run_batch_fits_only_in_the_planted_world():
    learner = _CountingLearner(PlugInParityLearner(d=3, k=1))
    dist = _distinguisher(learner, scale=4.0)
    rng = make_generator(63, "fit-count")
    dist.run_batch(ParityIndex((2,), 1), 9, rng)
    assert learner.fits == 9
    dist.run_batch(None, 9, rng)
    assert learner.fits == 9


def test_online_form_matches_direct_run_in_law():
    idx = ParityIndex(subset=(1,), sign=1)
    dist = _distinguisher(PlantedLearner(index=idx), scale=6.0)
    alg = dist.as_pan_algorithm()
    rng = make_generator(58, "online-form")
    trials = 1500
    online = np.empty(trials)
    for j in range(trials):
        stream = [tuple(r) for r in dist._draw_rows(dist._member(idx), dist.total_len, rng)]
        online[j] = run_pan(alg, stream, t=1, rng=rng).output
    batched = dist.run_batch(idx, trials, rng)
    assert ks_2samp(online, batched).pvalue > 1e-3


@pytest.mark.parametrize("n_learn", [0, 40])
@pytest.mark.parametrize("learner", ["planted", "plugin"])
def test_online_form_matches_direct_run_on_one_stream(learner, n_learn):
    """Same stream and seed: ``run`` reports the scalar computed by hand.

    The scalar is the first Laplace draw, plus the guessed parity's label
    agreements over every test element, plus a second Laplace draw. With no
    learning phase every stream element is scored and none reaches the learner.
    """
    idx = ParityIndex(subset=(1,), sign=1)
    fitter = PlantedLearner(index=idx) if learner == "planted" else PlugInParityLearner(d=3, k=1)
    dist = LearnerDistinguisher(
        learner=fitter, d=3, alpha=0.2, epsilon=1.0, n_learn=n_learn, test_phase_scale=2.0,
    )
    drawn = dist._draw_rows(dist._member(idx), dist.total_len, make_generator(61, "rows"))
    stream = [tuple(r) for r in drawn]
    stream[0] = (1, 1, 1, 1)  # agrees with the planted parity, so scoring it counts
    rows = np.array(stream, dtype=np.int64)
    guess = fitter.fit(rows[:n_learn])
    test = rows[n_learn:]
    parity = np.prod(test[:, [j - 1 for j in guess.subset]], axis=1)
    agreements = int(np.sum(guess.sign * parity == test[:, 3]))
    noise = make_generator(61, "noise")
    first = float(laplace(noise, 1.0))
    expected = first + agreements + float(laplace(noise, 1.0))
    assert abs(dist.run(stream, make_generator(61, "noise")) - expected) <= 1e-9


def test_online_form_guards_short_streams():
    dist = _distinguisher(PlantedLearner(index=ParityIndex(subset=(1,), sign=1)))
    alg = dist.as_pan_algorithm()
    stream = [(1, 1, 1, 1)] * 3  # shorter than the learning phase
    with pytest.raises(GuardError):
        run_pan(alg, stream, t=1, rng=make_generator(59))


def test_threshold_distinguisher_needs_enough_samples():
    with pytest.raises(GuardError):
        threshold_distinguisher(np.zeros(100), np.ones(100))


def test_threshold_distinguisher_separates_disjoint_samples():
    rng = make_generator(60, "threshold")
    zu = rng.normal(0.0, 1.0, size=20_000)
    zp = rng.normal(10.0, 1.0, size=20_000)
    report = threshold_distinguisher(zp, zu)
    assert report.advantage > 0.999
    assert report.ci_low <= report.advantage <= report.ci_high
    assert 2.0 < report.tau < 8.0
    parsed = report.to_json()
    assert set(parsed) == {"tau", "advantage", "ci_low", "ci_high"}


def test_threshold_distinguisher_near_zero_for_identical_laws():
    rng = make_generator(61, "threshold-null")
    za = rng.normal(0.0, 1.0, size=30_000)
    zb = rng.normal(0.0, 1.0, size=30_000)
    report = threshold_distinguisher(za, zb)
    assert report.advantage < 0.03


_DEMOS = Path(__file__).parents[1] / "demos"
_DEMOS_GOLDEN = json.loads((Path(__file__).parent / "demos_golden.json").read_text())


@pytest.mark.parametrize("demo", sorted(_DEMOS_GOLDEN))
def test_online_demo_prints_the_recorded_bytes(demo):
    """Demos 05 and 06 run the wrapper's and the distinguisher's online forms;
    a change to either that moves a draw changes their stdout from the recorded text.
    Neither draws a Gaussian, so neither loads any scipy module."""
    probe = ("import runpy, sys\nrunpy.run_path(sys.argv[1], run_name='__main__')\n"
             + _SCIPY_LOADED)
    out = _run_on_src(["-c", probe, str(_DEMOS / demo)])
    *printed, loaded = out.stdout.splitlines(keepends=True)
    assert "".join(printed) == _DEMOS_GOLDEN[demo]
    assert loaded == "[]\n"


@pytest.mark.parametrize("demo", sorted({p.name for p in _DEMOS.glob("*.py")} - set(_DEMOS_GOLDEN)))
def test_unpinned_demo_runs_to_the_end(demo):
    """Every demo without recorded bytes still runs on this checkout: exit 0, some output,
    and no traceback; its stdout may move with the laws it prints."""
    out = _run_on_src([str(_DEMOS / demo)])
    assert out.stdout.strip()
    assert "Traceback" not in out.stderr
