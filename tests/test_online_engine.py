"""The indexed online engine against the dict-walk oracle, its guards and its invariants."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panshuffle
import panshuffle.exact as exact_mod
from panshuffle.errors import GuardError
from panshuffle.exact import (
    audit_privacy,
    exact_pan_output,
    exact_pan_states,
    exact_pan_view,
    hybrid_tv_certificate,
)
from panshuffle.mechanisms import (
    PanPrivateAlgorithm,
    _ones,
    constant_mechanism,
    noisy_parity_chain,
    quantized_laplace_counter,
    saturating_counter,
)

from oracles import engine_oracle, pan_oracle
from oracles.toy_mechanisms import last_element_echo

GRID = [0.0, 0.25, 0.5, 1.0, 2.0]

# (mechanism, neighbouring streams, intrusion times)
CASES = {
    "noisy-parity": (noisy_parity_chain(0.15), ([1, 0, 1, 1], [1, 0, 0, 1]), None),
    "saturating": (saturating_counter(cap=2), ([1, 1, 0, 1], [1, 0, 0, 1]), None),
    "last-echo": (last_element_echo(), ([1, 0, 1], [1, 1, 1]), None),
    "coarse-qlap": (
        quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0),
        ([1, 0, 1, 0, 1], [1, 0, 0, 0, 1]),
        None,
    ),
    "dict-elements": (
        noisy_parity_chain(0.2),
        ([1, {1: 0.3, 0: 0.7}, {1: 0.6, 0: 0.4}], [0, {1: 0.3, 0: 0.7}, {1: 0.5, 0: 0.5}]),
        None,
    ),
    "zero-weight-inputs": (
        noisy_parity_chain(0.15),
        ([{0: 0.0, 1: 1.0}, 1, {1: 0.0, 0: 1.0}], [{0: 0.0, 1: 1.0}, 0, {1: 0.0, 0: 1.0}]),
        None,
    ),
    "saturating-dict-elements": (
        saturating_counter(cap=2),
        ([1, {1: 0.3, 0: 0.7}, 0], [0, {1: 0.3, 0: 0.7}, 0]),
        None,
    ),
    "explicit-times": (
        quantized_laplace_counter(1.0, 0.5, step=0.5, span=5.0),
        ([0, 1, 1, 0], [0, 1, 0, 0]),
        [3, 1],
    ),
}


def _assert_same_law(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, p in want.items():
        assert got[key] == pytest.approx(p, rel=0, abs=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_views_match_dict_walk_oracle(case):
    alg, (stream_a, stream_b), times = CASES[case]
    for stream in (stream_a, stream_b):
        _assert_same_law(exact_pan_states(alg, stream), pan_oracle.pan_states(alg, stream))
        _assert_same_law(exact_pan_output(alg, stream), pan_oracle.pan_output(alg, stream))
        for t in times or range(1, len(stream) + 1):
            _assert_same_law(exact_pan_view(alg, stream, t), pan_oracle.pan_view(alg, stream, t))


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_matches_dict_walk_oracle(case):
    alg, pair, times = CASES[case]
    curve = audit_privacy(alg, pair, GRID, intrusion_times=times)
    fwd, bwd = pan_oracle.audit_curve(alg, pair, GRID, intrusion_times=times)
    np.testing.assert_allclose(curve.delta_forward, fwd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve.delta_backward, bwd, rtol=0, atol=1e-12)


def test_empty_intrusion_times_are_refused_by_engine_and_oracle():
    alg, pair, _ = CASES["noisy-parity"]
    with pytest.raises(ValueError, match="no intrusion time"):
        audit_privacy(alg, pair, GRID, intrusion_times=[])
    with pytest.raises(ValueError, match="no intrusion time"):
        pan_oracle.audit_curve(alg, pair, GRID, intrusion_times=[])


def _engine_bytes(alg, streams, tails=()) -> list:
    """Every index order and array the engine builds for these streams, as bytes or reprs."""
    states, laws, kernels = exact_mod._propagate(alg, streams, tails)
    outputs, table = exact_mod._outputs(alg, states[-1], len(states[-1]), "tables")
    parts = [repr(states), repr(outputs), table.tobytes()]
    parts += [law.tobytes() for stream_laws in laws for law in stream_laws]
    for kern in (k for kerns in kernels for k in kerns):
        parts += [kern.rows.tobytes(), kern.cols.tobytes(), kern.weights.tobytes()]
    for _, _, tables in exact_mod._backward(alg, states, kernels, 0, "tables"):
        parts += [table.dense().tobytes() for table in tables]
    return parts


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_is_bit_identical_to_the_entry_by_entry_builders(case, monkeypatch):
    alg, pair, times = CASES[case]

    def run():
        curve = audit_privacy(alg, pair, GRID, intrusion_times=times)
        curves = curve.delta_forward.tobytes(), curve.delta_backward.tobytes()
        return _engine_bytes(alg, pair), curves

    got = run()
    engine_oracle.install(monkeypatch)
    assert got == run()


def test_hybrid_engine_is_bit_identical_to_the_entry_by_entry_builders(monkeypatch):
    alg = noisy_parity_chain(0.1)
    family = [{1: 0.7, 0: 0.3}, {0: 1.0, 1: 0.0}, {1: 0.45, 0: 0.55}]
    ref = {x: sum(mem[x] for mem in family) / 3 for x in (1, 0)}

    def run():
        # the certificate, and a reference prefix with member tails as it propagates them
        report = hybrid_tv_certificate(alg, family, 4)
        return _engine_bytes(alg, [[ref] * 4], [[mem] * 4 for mem in family]), report

    got = run()
    engine_oracle.install(monkeypatch)
    assert got == run()


# the criterion-07 counter and pair; two streams that reach different states,
# so each stream's partial maps leave the other's states out
DENSE_PATH = {
    **CASES,
    "criterion-07": (quantized_laplace_counter(0.5, 0.5, step=1.0 / 16, span=24.0),
                     ([1, 0, 1, 0], [1, 0, 0, 0]), None),
    "dead-rows": (quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0),
                  ([1, 1, 1, 0], [0, 0, 0, 0]), None),
}


@pytest.mark.parametrize("case", sorted(DENSE_PATH))
def test_indexed_tables_and_blocked_views_match_the_dense_path(case):
    alg, pair, times = DENSE_PATH[case]
    curve = audit_privacy(alg, pair, GRID, intrusion_times=times)
    want = engine_oracle.audit_curve(alg, pair, GRID, intrusion_times=times)
    assert curve.delta_forward.tobytes() == want.delta_forward.tobytes()
    assert curve.delta_backward.tobytes() == want.delta_backward.tobytes()
    states, _, kernels = exact_mod._propagate(alg, list(pair))
    walks = zip(exact_mod._backward(alg, states, kernels, 0, "tables"),
                engine_oracle.backward_tables(alg, states, kernels, 0))
    for (t, _, tables), (_, _, dense) in walks:
        assert [b.dense().tobytes() for b in tables] == [b.tobytes() for b in dense], t
    if case == "dead-rows":
        kern = kernels[0][1]
        assert kern.is_map and len(kern.rows) < len(states[1])


def _width(alg, pair) -> int:
    states, _, _ = exact_mod._propagate(alg, list(pair))
    return len(exact_mod._outputs(alg, states[-1], len(states[-1]), "outputs")[0])


@pytest.mark.parametrize("block", ["one", "width-1"])
@pytest.mark.parametrize("case", sorted(DENSE_PATH))
def test_view_and_table_blocks_of_any_size_match_the_dense_path(case, block, monkeypatch):
    # one row a block, and blocks one element short of a row, both for the
    # output table's codes and for the views; "last-echo" has more states at
    # time 2 than at the latest time, which the one view buffer must hold
    alg, pair, times = DENSE_PATH[case]
    width = _width(alg, pair)
    monkeypatch.setattr(exact_mod, "_VIEW_BLOCK", 1 if block == "one" else width - 1)
    curve = audit_privacy(alg, pair, GRID, intrusion_times=times)
    want = engine_oracle.audit_curve(alg, pair, GRID, intrusion_times=times)
    assert curve.delta_forward.tobytes() == want.delta_forward.tobytes()
    assert curve.delta_backward.tobytes() == want.delta_backward.tobytes()
    states, _, _ = exact_mod._propagate(alg, list(pair))
    got = exact_mod._outputs(alg, states[-1], len(states[-1]), "outputs")
    oracle = engine_oracle.outputs(alg, states[-1], len(states[-1]), "outputs")
    assert got[0] == oracle[0]
    assert got[1].tobytes() == oracle[1].tobytes()
    if case == "last-echo":
        assert max(len(s) for s in states[1:]) > len(states[-1])


ONE_OUTPUT = PanPrivateAlgorithm(
    name="one-output", init_kernel={s: (s + 1) / 210.0 for s in range(20)},
    update_kernel=lambda i, x, s: {(s + x) % 20: 0.7, (s + 3) % 20: 0.3},
    output_kernel=lambda s: {"done": 1.0})


@pytest.mark.parametrize("case", [*sorted(DENSE_PATH), "one-output"])
def test_output_law_is_the_output_kernels_push_bit_for_bit(case):
    # a one-column table summed pairwise would move the last bits of this law
    alg, pair, _ = DENSE_PATH.get(case) or (ONE_OUTPUT, ([1, 0, 1, 1], [0, 1, 1, 0]), None)
    for stream in pair:
        got, want = exact_pan_output(alg, stream), engine_oracle.output_law(alg, stream)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


def test_criterion07_audit_holds_one_table_and_one_view_buffer():
    # a 787 x 1,553 output table (9.8 MB) and a 2 x 786 x 1,553 view buffer
    # (19.5 MB) at most, with block-sized scratch; a fresh view pair per time
    # and three full-size hockey-stick temporaries peaked at 66 MB
    alg, pair, _ = DENSE_PATH["criterion-07"]
    tracemalloc.start()
    try:
        curve = audit_privacy(alg, pair, [1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve.delta_max[0] > 0.0
    assert peak <= 40e6, peak


def _dense_pan_view(alg, stream, t) -> dict:
    """The view built whole: one states x outputs product and one ``np.nonzero``."""
    states, outputs, (law,), (table,), _ = next(exact_mod._pan_views(alg, [stream], [t]))
    view = law[:, None] * table.dense()
    rows, cols = np.nonzero(view)
    return {(states[r], outputs[c]): p
            for r, c, p in zip(rows.tolist(), cols.tolist(), view[rows, cols].tolist())}


@pytest.mark.parametrize("block", ["one", "default"])
@pytest.mark.parametrize("case", sorted(DENSE_PATH))
def test_pan_view_blocks_match_the_dense_build(case, block, monkeypatch):
    alg, pair, times = DENSE_PATH[case]
    if block == "one":
        monkeypatch.setattr(exact_mod, "_VIEW_BLOCK", 1)
    # the first stream at the first time, the second at the latest (or the listed times)
    for stream, t in zip(pair, times or (1, len(pair[1]))):
        got, want = exact_pan_view(alg, stream, t), _dense_pan_view(alg, stream, t)
        # keys, their order and every probability's bits
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


def test_criterion07_view_is_built_a_block_at_a_time():
    # the dict holds 591,361 entries (68 MB); a whole view and its nonzero lists peaked at 141 MB
    alg, (stream, _), _ = DENSE_PATH["criterion-07"]
    tracemalloc.start()
    try:
        view = exact_pan_view(alg, stream, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(view) == 591_361
    assert peak <= 95e6, peak


def test_update_offset_engine_is_bit_identical_to_its_dict_kernel():
    ctr = quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0)
    as_dict = dataclasses.replace(ctr, update_offset=None,
                                  update_kernel=lambda i, x, s: {s + _ones(x) * 2: 1.0})
    assert as_dict.update_offset is None
    family = [{1: 0.7, 0: 0.3}, {0: 1.0, 1: 0.0}]
    ref = {1: 0.35, 0: 0.65}
    for streams, tails in [(([1, 0, 1, 1], [1, 0, 0, 1]), ()),
                           (([ref] * 3,), [[mem] * 3 for mem in family])]:
        assert _engine_bytes(ctr, streams, tails) == _engine_bytes(as_dict, streams, tails)


def test_step_guard_stops_at_the_update_kernel_that_crosses(monkeypatch):
    # ten states pass the preflight (10 sources) of a 10-path guard; three
    # targets per update kernel cross it at the fourth kernel, and no later
    # kernel is built
    calls = []

    def update_kernel(i, x, s):
        calls.append(s)
        return {s: 0.5, s + 1: 0.25, s + 2: 0.25}

    alg = PanPrivateAlgorithm(name="widening", init_kernel=dict.fromkeys(range(10), 0.1),
                              update_kernel=update_kernel, output_kernel=lambda s: {s: 1.0})
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 10)
    with pytest.raises(GuardError, match=r"widening: step 1 transitions: 12 paths exceed"):
        exact_pan_states(alg, [1])
    assert calls == [0, 1, 2, 3]


def test_criterion07_counter_preflight_raises_before_any_step(monkeypatch):
    calls = []
    ctr = quantized_laplace_counter(0.5, 0.5, step=1.0 / 16, span=24.0)
    offset = ctr.update_offset

    def counted(i, x):
        calls.append(i)
        return offset(i, x)

    ctr = dataclasses.replace(ctr, update_offset=counted)
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 500)
    with pytest.raises(GuardError, match="span.*step"):
        audit_privacy(ctr, ([1, 0, 1, 0], [1, 0, 0, 0]), [1.0])
    assert calls == []


WIDE_TABLE = ("qlap-counter: output kernel (6201 states x 6201 outputs): 38452401 paths "
              "exceed the 10000000 guard; lower span or raise step")


def test_output_kernel_guard_fires_after_one_kernel():
    # the dict path: 6,201 states x 6,201 outputs is above 10^7 paths, the first
    # state's kernel sizes the table, and no other kernel is built
    calls = []
    ctr = quantized_laplace_counter(1.0, 1.0, step=1.0 / 64, span=64.0)
    kernel = ctr.output_kernel

    def counted(s):
        calls.append(s)
        return kernel(s)

    ctr = dataclasses.replace(ctr, output_noise=None, output_kernel=counted)
    assert len(ctr.init_kernel) * len(kernel(0)) > exact_mod.MAX_PATHS
    with pytest.raises(GuardError) as err:
        exact_pan_output(ctr, [1])
    assert str(err.value) == WIDE_TABLE
    assert len(calls) == 1


def test_output_noise_guard_fires_before_any_output_kernel(monkeypatch):
    # the array path refuses the same table with the same message, sized from
    # the noise alone, and never calls the derived output kernel
    calls = []
    shift = PanPrivateAlgorithm._shift

    def counted(self, s):
        calls.append(s)
        return shift(self, s)

    monkeypatch.setattr(PanPrivateAlgorithm, "_shift", counted)
    ctr = quantized_laplace_counter(1.0, 1.0, step=1.0 / 64, span=64.0)
    assert ctr.output_noise is not None
    with pytest.raises(GuardError) as err:
        exact_pan_output(ctr, [1])
    assert str(err.value) == WIDE_TABLE
    assert calls == []


def test_output_noise_guard_refuses_a_sparse_code_range():
    # two states x one offset is a tiny table, but its codes span 10^8 + 1 values
    alg = PanPrivateAlgorithm(name="sparse", init_kernel={0: 0.5, 10**8: 0.5},
                              update_kernel=lambda i, x, s: {s: 1.0}, output_noise={0: 1.0})
    with pytest.raises(GuardError, match=r"sparse: output code range \(100000001 codes\)"):
        exact_pan_output(alg, [1])


def test_view_preflight_names_the_stream_length(monkeypatch):
    # one path per step passes, but the 2 states x 2 outputs view does not
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 3)
    with pytest.raises(GuardError, match="view.*shorten the stream"):
        audit_privacy(saturating_counter(cap=2), ([1, 1], [1, 0]), [0.5])


LABELED_AUDIT = """
import json
from panshuffle.exact import audit_privacy
from panshuffle.mechanisms import PanPrivateAlgorithm

LABELS = ("amber", "birch", "cedar", "dune", "ember", "fjord", "grove")
STEP = {0: (0.5, 0.3, 0.2), 1: (0.15, 0.35, 0.5)}


def update_kernel(i, x, s):
    j = LABELS.index(s)
    return {LABELS[(j + k * (x + 1)) % 7]: p for k, p in enumerate(STEP[x])}


def output_kernel(s):
    j = LABELS.index(s)
    return {LABELS[(j + k) % 7].upper(): p for k, p in enumerate((0.55, 0.3, 0.1, 0.05))}


alg = PanPrivateAlgorithm(name="labels", init_kernel={"amber": 0.7, "dune": 0.3},
                          update_kernel=update_kernel, output_kernel=output_kernel)
curve = audit_privacy(alg, ([1, 0, 1, 1, 0], [1, 0, 0, 1, 0]), [0.0, 0.1, 0.3])
print(json.dumps([curve.delta_forward.tolist(), curve.delta_backward.tolist()]))
"""


def test_string_outcome_audit_is_hash_seed_independent():
    src = str(Path(panshuffle.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", LABELED_AUDIT], env=env, check=True,
                              capture_output=True, text=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    forward, backward = json.loads(outputs[0])
    assert len(forward) == len(backward) == 3


MECHANISMS = st.one_of(
    st.floats(0.0, 0.5).map(noisy_parity_chain),
    st.integers(1, 3).map(lambda cap: saturating_counter(cap=cap)),
    st.just(last_element_echo()),
    st.sampled_from([0.5, 1.0]).map(
        lambda step: quantized_laplace_counter(0.7, 0.4, step=step, span=4.0)
    ),
)
ELEMENTS = st.one_of(
    st.integers(0, 1),
    st.floats(0.0, 1.0).map(lambda w: {1: w, 0: 1.0 - w}),
)


@settings(max_examples=40, deadline=None)
@given(
    alg=MECHANISMS,
    pair=st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.lists(ELEMENTS, min_size=n, max_size=n),
                            st.lists(ELEMENTS, min_size=n, max_size=n))
    ),
    eps=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5),
)
def test_laws_normalize_and_curves_decrease(alg, pair, eps):
    stream_a, stream_b = pair
    for stream in pair:
        laws = [exact_pan_states(alg, stream), exact_pan_output(alg, stream)]
        laws += [exact_pan_view(alg, stream, t) for t in range(1, len(stream) + 1)]
        for law in laws:
            assert math.fsum(law.values()) == pytest.approx(1.0, rel=0, abs=1e-12)
    grid = sorted(eps)
    curve = audit_privacy(alg, (stream_a, stream_b), grid)
    for deltas in (curve.delta_forward, curve.delta_backward):
        assert np.all(np.diff(deltas) <= 0.0)


def _pairs_built(monkeypatch, alg, pair, times) -> int:
    """The number of view pairs an audit builds, counted at ``_view_pairs``."""
    built = []
    view_pairs = exact_mod._view_pairs

    def counted(views):
        for a, b in view_pairs(views):
            built.append(len(a))
            yield a, b

    monkeypatch.setattr(exact_mod, "_view_pairs", counted)
    audit_privacy(alg, pair, GRID, intrusion_times=times)
    return len(built)


def test_an_identity_step_audits_its_earlier_view_once(monkeypatch):
    # criterion-07's steps 2 and 4 leave every state at its index on both
    # streams, so times 1 and 3 repeat times 2 and 4
    assert _pairs_built(monkeypatch, *DENSE_PATH["criterion-07"]) == 2
    assert _pairs_built(monkeypatch, *CASES["coarse-qlap"]) < 5
    # no noisy-parity step is a map, and times 3 and 1 are not adjacent
    assert _pairs_built(monkeypatch, *CASES["noisy-parity"]) == 4
    assert _pairs_built(monkeypatch, *CASES["explicit-times"]) == 2


PROPERTY_MECHANISMS = st.sampled_from([
    quantized_laplace_counter(0.7, 0.4, step=0.5, span=4.0),
    saturating_counter(cap=2),
    noisy_parity_chain(0.2),
    constant_mechanism(0),
])


@settings(max_examples=60, deadline=None)
@given(alg=PROPERTY_MECHANISMS, data=st.data())
def test_an_audit_is_the_bytewise_max_of_its_one_time_audits(alg, data):
    stream = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=7))
    flip = data.draw(st.integers(0, len(stream) - 1))
    other = [*stream[:flip], 1 - stream[flip], *stream[flip + 1:]]
    times = data.draw(st.sets(st.integers(1, len(stream)), min_size=1))
    full = audit_privacy(alg, (stream, other), GRID, intrusion_times=sorted(times))
    singles = [audit_privacy(alg, (stream, other), GRID, intrusion_times=[t]) for t in times]
    for side in ("delta_forward", "delta_backward"):
        stacked = np.max([getattr(c, side) for c in singles], axis=0)
        assert getattr(full, side).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("law", [
    {0: 1.0, -1: 1.0},
    {0: -0.25, 1: 1.25},
    {0: math.nan, 1: 1.0},
    {0: math.inf, 1: 0.0},
    {0: 0.5, 1: 0.5 - 1e-6},
    {},
], ids=["mass-2", "negative", "nan", "inf", "short", "empty"])
def test_an_element_law_is_refused_unless_its_weights_are_a_probability_law(law):
    # ``{0: 1.0, -1: 1.0}`` stepped a counter to ``{0: 2.0}``
    for alg in (saturating_counter(cap=3), quantized_laplace_counter(0.5, 0.5, step=0.5, span=3.0)):
        with pytest.raises(ValueError, match=r"^step 2: the element law .* summing to 1"):
            exact_pan_states(alg, [1, law, 0])
        with pytest.raises(ValueError, match=r"^step 1: the element law"):
            audit_privacy(alg, ([law, 1], [0, 1]), [0.0])


def test_element_laws_of_zero_weight_entries_and_mixtures_still_step():
    ctr = saturating_counter(cap=3)
    assert exact_pan_states(ctr, [{1: 1.0, 0: 0.0}, {0: 1.0, -1: 0.0}]) == {1: 1.0}
    # a certificate steps its members and their equal-weight mixture
    family = [{1: 0.7, 0: 0.3}, {0: 1.0, 1: 0.0}, {1: 0.45, 0: 0.55}]
    assert hybrid_tv_certificate(noisy_parity_chain(0.1), family, 4).ok
    assert exact_pan_states(ctr, [{1: 0.1, 0: 0.2, -1: 0.7 + 1e-12}]) == pytest.approx(
        {1: 0.1, 0: 0.9 + 1e-12})
