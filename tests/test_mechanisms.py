"""Randomizers, analyzers, pan-private algorithms, and their manifests."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from panshuffle.errors import GuardError
from panshuffle.exact import exact_pan_states, exact_shuffle_counts
from panshuffle.mechanisms import (
    PanPrivateAlgorithm,
    _draw,
    _ones,
    PrivacyBudget,
    ShuffleProtocol,
    asymmetric_binary_randomizer,
    binary_randomized_response,
    constant_mechanism,
    echo_randomizer,
    histogram_analyzer,
    mechanism_from_manifest,
    noisy_parity_chain,
    quantization_slack,
    quantized_laplace_counter,
    quantized_laplace_pmf,
    run_pan,
    run_shuffle,
    saturating_counter,
    threshold_analyzer,
)
from panshuffle.rng import make_generator

from oracles.toy_mechanisms import last_element_echo, one_count_analyzer


def fair_protocol(n=4, flip_p=0.3, gamma=1.0):
    return ShuffleProtocol(
        randomizer=binary_randomized_response(flip_p),
        analyzer=one_count_analyzer(),
        n=n,
        budget=PrivacyBudget(epsilon=1.0, delta=0.0, gamma=gamma),
    )


# ---------------------------------------------------------------------------
# randomizers


def test_binary_rr_kernel_probabilities():
    rz = binary_randomized_response(0.25)
    k1 = rz.kernel(1)
    k0 = rz.kernel(0)
    on, off = (0, 1), (1, 0)
    assert k1[on] == pytest.approx(0.75)
    assert k1[off] == pytest.approx(0.25)
    assert k0[off] == pytest.approx(0.75)
    assert sum(k1.values()) == pytest.approx(1.0)


def test_binary_rr_flip_bounds():
    with pytest.raises(ValueError):
        binary_randomized_response(-0.1)
    with pytest.raises(ValueError):
        binary_randomized_response(0.6)


def test_asymmetric_randomizer_kernel():
    rz = asymmetric_binary_randomizer(0.9, 0.2)
    one = (0, 1)
    assert rz.kernel(1)[one] == pytest.approx(0.9)
    assert rz.kernel(0)[one] == pytest.approx(0.2)


def test_echo_randomizer_is_deterministic():
    rz = echo_randomizer((0, 1, 2))
    for x in (0, 1, 2):
        k = rz.kernel(x)
        assert len(k) == 1
        assert next(iter(k.values())) == 1.0


def test_emit_batch_matches_law():
    """Each built-in's batch sampler draws its kernel's law, input by input."""
    per = 20_000
    for rz, domain in [
        (binary_randomized_response(0.2), (0, 1)),
        (asymmetric_binary_randomizer(0.9, 0.35), (0, 1)),
        (echo_randomizer(("a", (1, 2), 3)), ("a", (1, 2), 3)),
    ]:
        rng = make_generator(0, "batch", rz.name)
        counts = rz.emit_batch([x for x in domain for _ in range(per)], rng)
        assert counts.shape == (per * len(domain), len(rz.alphabet))
        for i, x in enumerate(domain):
            rows, freq = np.unique(counts[i * per:(i + 1) * per], axis=0, return_counts=True)
            seen = {tuple(int(c) for c in row): f / per for row, f in zip(rows, freq)}
            law = rz.kernel(x)
            assert set(seen) <= set(law)
            for vec, p in law.items():
                assert seen.get(vec, 0.0) == pytest.approx(p, abs=0.01)


@pytest.mark.parametrize("rz, domain, uniforms", [
    (binary_randomized_response(0.3), (0, 1), 1),
    (asymmetric_binary_randomizer(0.8, 0.25), (0, 1), 1),
    (echo_randomizer(("a", (1, 2), 3)), ("a", (1, 2), 3), 0),
], ids=["rr", "channel", "echo"])
def test_sampler_is_a_function_of_its_uniforms(rz, domain, uniforms):
    """A batch is its one-input calls in turn, and ``batch_fn`` reads only its uniforms.

    Each input consumes ``uniforms`` words of the generator, so echo leaves
    the generator where it was.
    """
    assert rz.uniforms == uniforms
    xs = [domain[i] for i in make_generator(1, "contract-xs").integers(0, len(domain), size=40)]
    batch_gen, step_gen, u_gen, moved = (make_generator(2, "contract", rz.name) for _ in range(4))
    batch = rz.emit_batch(xs, batch_gen)
    assert np.array_equal(batch, np.concatenate([rz.emit_batch([x], step_gen) for x in xs]))
    u = u_gen.random((len(xs), uniforms))
    assert np.array_equal(rz.batch_fn(xs, u), batch)
    assert np.array_equal(rz.batch_fn(xs[::-1], u[::-1]), batch[::-1])
    moved.bit_generator.random_raw(len(xs) * uniforms)
    assert len({g.bit_generator.random_raw() for g in (batch_gen, step_gen, moved)}) == 1


# ---------------------------------------------------------------------------
# analyzers and the shuffle runner


def test_analyzers_on_counts():
    counts = np.array([3, 1])
    assert one_count_analyzer().fn(counts) == 1
    assert threshold_analyzer(2).fn(counts) == 0
    assert threshold_analyzer(0).fn(counts) == 1
    assert tuple(histogram_analyzer().fn(counts)) == (3, 1)


def test_run_shuffle_output_and_count_invariance():
    proto = fair_protocol(n=6)
    counts, out = run_shuffle(proto, [1, 0, 1, 1, 0, 0], rng=make_generator(1, "rs"))
    assert counts.sum() == 6
    assert out == counts[1]


def test_run_shuffle_enforces_size_and_floor():
    proto = fair_protocol(n=4, gamma=0.75)
    with pytest.raises(ValueError):
        run_shuffle(proto, [1, 0, 1], rng=make_generator(2))


@pytest.mark.parametrize("rz, good, bad", [
    (binary_randomized_response(0.25), 1, -1),
    (binary_randomized_response(0.25), 0, 2),
    (asymmetric_binary_randomizer(0.8, 0.1), 1, -1),
    (asymmetric_binary_randomizer(0.8, 0.1), 0, 5),
    (echo_randomizer((0, 1, 2)), 2, 3),
    (echo_randomizer(("a", (1, 2))), (1, 2), (2, 1)),
], ids=["rr-negative", "rr-two", "channel-negative", "channel-five", "echo-int", "echo-tuple"])
def test_run_shuffle_rejects_inputs_outside_the_domain(rz, good, bad):
    proto = ShuffleProtocol(randomizer=rz, analyzer=histogram_analyzer(), n=4)
    with pytest.raises(ValueError, match="bit|outside alphabet") as refused:
        run_shuffle(proto, [good, bad, good, good], rng=make_generator(2, "domain"))
    assert repr(bad) in str(refused.value)
    with pytest.raises(ValueError, match="bit|outside alphabet"):
        rz.kernel(bad)


@pytest.mark.parametrize("rz", [binary_randomized_response(0.2),
                                asymmetric_binary_randomizer(0.8, 0.1)], ids=["rr", "channel"])
def test_a_bit_is_a_value_equal_to_zero_or_one(rz):
    # a value was truncated before the check: 1.5 ran as bit 1 and 0.2 as bit 0
    u = np.full((2, 1), 0.5)
    for bad in (1.5, 0.2, -0.5, math.nan, np.float64(1.7)):
        for run in (lambda: rz.kernel(bad), lambda: rz.batch_fn([1, bad], u),
                    lambda: rz.emit_batch([0, bad], make_generator(1, "bits"))):
            with pytest.raises(ValueError, match="input must be a bit"):
                run()
    with pytest.raises(ValueError, match="input must be a bit, got 1.5"):
        exact_shuffle_counts(rz, [1.5, 0.2])
    ones, zeros = (True, np.int64(1), 1.0, np.float64(1.0)), (False, np.int64(0), 0.0, -0.0)
    for one, zero in zip(ones, zeros):
        assert (rz.kernel(one), rz.kernel(zero)) == (rz.kernel(1), rz.kernel(0))
    u = make_generator(3, "bits").random((8, 1))
    assert np.array_equal(rz.batch_fn([*ones, *zeros], u), rz.batch_fn([1] * 4 + [0] * 4, u))


def test_a_counter_steps_only_whole_numbers_and_sign_tuples():
    # a scalar was truncated before the check: a counter stepped 1.5 as a 1
    ctr = quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0)
    for alg in (ctr, saturating_counter(cap=2), noisy_parity_chain(0.1)):
        for bad in (1.5, 0.5, -0.25, math.nan, math.inf):
            with pytest.raises(ValueError, match="element must be a whole number"):
                exact_pan_states(alg, [1, bad])
    with pytest.raises(ValueError, match="element must be a whole number or a sign tuple, got 1.5"):
        run_pan(ctr, [1, 1.5], t=1, rng=make_generator(1))
    # the sign rule holds: 1 counts one, any other whole number counts zero
    want = exact_pan_states(ctr, [1, 0, 0, 1, 0, (1, -1, 1)])
    assert exact_pan_states(ctr, [1.0, -1, 3, np.int64(1), -2.0, (1, -1, 1)]) == want
    assert [_ones(x) for x in (True, 1.0, np.float64(1.0), -1, 2, 0.0)] == [1, 1, 1, 0, 0, 0]


def test_a_sign_tuple_holds_only_signs():
    # ``(1.5, 7, 1)`` counted one and dropped its other two entries
    ctr = quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0)
    for bad in ((1.5, 7, 1), (1, 0, -1), (2,), (1, math.nan), (-1, -1.0, 0.5)):
        with pytest.raises(ValueError, match=r"sign-tuple element holds only \+-1 entries"):
            _ones(bad)
        for alg in (ctr, saturating_counter(cap=2), noisy_parity_chain(0.1)):
            with pytest.raises(ValueError, match="sign-tuple element"):
                exact_pan_states(alg, [1, bad])
    signs = [(1, -1, 1), (True, -1.0, np.int64(1)), (), (-1,)]
    assert [_ones(x) for x in signs] == [2, 2, 0, 0]


# ---------------------------------------------------------------------------
# quantized-Laplace machinery


def test_quantized_laplace_pmf_normalizes_and_reports_tail():
    pmf, tail = quantized_laplace_pmf(scale=2.0, step=0.25, span=8.0)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    grid = sorted(pmf)
    assert grid[0] == -grid[-1]
    # symmetric law on a symmetric grid
    assert pmf[grid[0]] == pytest.approx(pmf[grid[-1]], rel=1e-12)
    assert 0.0 < tail < 0.05


@pytest.mark.parametrize("key", ["scale", "step", "span"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_quantized_laplace_pmf_names_a_bad_parameter(key, value):
    params = {"scale": 2.0, "step": 0.25, "span": 8.0, key: value}
    with pytest.raises(ValueError) as err:
        quantized_laplace_pmf(**params)
    want = f"quantized_laplace_pmf: {key} must be positive and finite, got {value}"
    assert str(err.value) == want


def test_quantized_laplace_counter_meta_and_run():
    ctr = quantized_laplace_counter(eps_update=0.5, eps_output=0.5,
                                    step=1.0 / 8, span=12.0)
    assert ctr.has_exact
    assert ctr.meta["tail_mass"] >= 0.0
    view = run_pan(ctr, [1, 0, 1, 1], t=2, rng=make_generator(3, "ctr"))
    assert view.t == 2
    # states and outputs live on the integer quantization grid
    assert isinstance(view.output, (int, np.integer))
    slack = quantization_slack(ctr, 1.0)
    assert slack == pytest.approx((1.0 + math.e) * ctr.meta["tail_mass"])


def test_quantized_laplace_counter_default_span():
    ctr = quantized_laplace_counter(eps_update=2.0, eps_output=0.5, step=1.0 / 4, sensitivity=0.5)
    assert ctr.meta["span"] == 64.0 * 0.5 / 0.5
    assert ctr.meta["tail_mass"] <= math.exp(-60)


def test_counter_tracks_count_in_expectation():
    ctr = quantized_laplace_counter(eps_update=4.0, eps_output=4.0,
                                    step=1.0 / 8, span=16.0)
    rng = make_generator(4, "track")
    step = 1.0 / 8
    outs = [run_pan(ctr, [1, 1, 1, 0], t=1, rng=rng).output * step for _ in range(3000)]
    assert float(np.mean(outs)) == pytest.approx(3.0, abs=0.2)


# ---------------------------------------------------------------------------
# tiny pan mechanisms


def test_noisy_parity_chain_states():
    chain = noisy_parity_chain(0.0)
    view = run_pan(chain, [1, 1, 1], t=3, rng=make_generator(5))
    assert view.state == 1
    assert view.output == 1
    with pytest.raises(ValueError):
        noisy_parity_chain(0.9)


def test_saturating_counter_caps():
    alg = saturating_counter(2)
    view = run_pan(alg, [1, 1, 1, 1], t=4, rng=make_generator(6))
    assert view.state == 2
    assert view.output == 2


def test_constant_and_echo_mechanisms():
    const = constant_mechanism(7)
    assert run_pan(const, [1, 0], t=1, rng=make_generator(7)).output == 7
    echo = last_element_echo()
    assert run_pan(echo, [1, 0, 1], t=3, rng=make_generator(7)).output == 1


def test_run_pan_intrusion_time_bounds():
    alg = saturating_counter(5)
    with pytest.raises(ValueError):
        run_pan(alg, [1, 1], t=3, rng=make_generator(8))
    with pytest.raises(ValueError):
        run_pan(alg, [1, 1], t=0, rng=make_generator(8))


def test_kernel_sampling_fallback_agrees_with_kernels():
    # an algorithm defined only by kernels still samples, by drawing each step from them
    alg = PanPrivateAlgorithm(
        name="kernel-only",
        init_kernel={0: 1.0},
        update_kernel=lambda i, x, s: {s + int(x): 0.5, s: 0.5},
        output_kernel=lambda s: {s: 1.0},
    )
    assert alg.view_sample is None
    rng = make_generator(9, "fb")
    outs = np.array([run_pan(alg, [1, 1], t=1, rng=rng).output for _ in range(20_000)])
    # after two update steps the count is Bin(2, 1/2)
    assert float(np.mean(outs == 0)) == pytest.approx(0.25, abs=0.02)
    assert float(np.mean(outs == 1)) == pytest.approx(0.5, abs=0.02)


def test_kernel_sampling_fallback_picks_what_rng_choice_picks():
    # random laws with zeros, unnormalized and scaled from 1e-300 to 1e290: five
    # draws pick what rng.choice picks on the same seed, and the next word agrees
    laws = make_generator(3, "fallback-laws")
    for trial in range(500):
        size = int(laws.integers(1, 13))
        probs = laws.random(size) * (laws.random(size) < 0.8) * 10.0 ** laws.integers(-300, 290)
        probs[laws.integers(size)] += 1e-300
        law = dict(enumerate(probs.tolist()))
        ours, ref = make_generator(trial, "fallback"), make_generator(trial, "fallback")
        picks = [_draw(law, ours) for _ in range(5)]
        assert picks == [ref.choice(size, p=probs / probs.sum()) for _ in range(5)]
        assert ours.integers(1 << 63) == ref.integers(1 << 63)


def test_output_noise_derives_the_output_kernel_and_refuses_a_second_source():
    noise = {2: 0.25, -1: 0.5, 0: 0.0, 1: 0.25}
    alg = PanPrivateAlgorithm(name="noisy", init_kernel={0: 1.0},
                              update_kernel=lambda i, x, s: {s + int(x): 1.0}, output_noise=noise)
    assert alg.has_exact
    assert list(alg.output_kernel(5).items()) == [(7, 0.25), (4, 0.5), (5, 0.0), (6, 0.25)]
    # a replaced copy derives its kernel from its own noise
    moved = dataclasses.replace(alg, output_noise={3: 1.0})
    assert moved.output_kernel(5) == {8: 1.0}
    assert run_pan(moved, [1, 0], t=1, rng=make_generator(1)).output == 4
    with pytest.raises(ValueError, match="noisy: set output_kernel or output_noise, not both"):
        dataclasses.replace(alg, output_kernel=lambda s: {s: 1.0})


def test_update_offset_derives_the_update_and_refuses_a_second_source():
    alg = PanPrivateAlgorithm(name="shift", init_kernel={0: 1.0},
                              update_offset=lambda i, x: i * int(x), output_noise={0: 1.0})
    assert alg.has_exact
    assert alg.update_kernel(3, 1, 5) == {8: 1.0}
    rng, ref = make_generator(2), make_generator(2)
    view = run_pan(alg, [1, 0, 1], t=3, rng=rng)
    assert (view.state, view.output) == (4, 4)
    ref.random(2)  # the initial state and the output: a declared shift draws nothing
    assert rng.bit_generator.state == ref.bit_generator.state
    # a replaced copy derives its kernel from its own offset
    moved = dataclasses.replace(alg, update_offset=lambda i, x: -1)
    assert moved.update_kernel(3, 1, 5) == {4: 1.0}
    view = run_pan(moved, [1, 0], t=1, rng=make_generator(1))
    assert (view.state, view.output) == (-1, -2)
    with pytest.raises(ValueError, match="shift: set update_kernel or update_offset, not both"):
        dataclasses.replace(alg, update_kernel=lambda *args: {0: 1.0})


def test_counter_update_offset_matches_the_shift_kernel_it_replaced():
    # the counter's former update closure was {s + _ones(x) * per_unit: 1.0}
    for step, per_unit in ((1.0, 1), (0.5, 2), (1.0 / 16, 16)):
        ctr = quantized_laplace_counter(0.5, 0.5, step=step, span=6.0)
        for x in (0, 1, (1, -1, 1), (-1, -1), True):
            for s in (-7, 0, 3):
                assert ctr.update_kernel(2, x, s) == {s + _ones(x) * per_unit: 1.0}


def test_counter_views_and_next_word_match_the_recorded_ones():
    # 200 views of the counter through run_pan, recorded before the update was
    # declared as an offset: each view, and the generator word after them
    ctr = quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0)
    rng = make_generator(21, "offset-views")
    views = []
    for j in range(200):
        view = run_pan(ctr, [(j >> k) & 1 for k in range(5)], t=1 + j % 5, rng=rng)
        views.append([view.t, view.state, view.output])
    assert views[:4] == [[1, -6, -6], [2, 1, 4], [3, 3, 6], [4, 7, 1]]
    digest = hashlib.sha256(json.dumps(views).encode()).hexdigest()
    assert digest == "c952e46cb777cb4e428e116b6f766cb12ffda69258389048951176cad0e0eefa"
    assert int(rng.integers(1 << 63)) == 3632920399358091557


@pytest.mark.parametrize("law", [{0: -0.5, 1: 1.5}, {0: math.nan, 1: 1.0}, {0: 0.0, 1: 0.0},
                                 {0: math.inf, 1: 1.0}, {}],
                         ids=["negative", "nan", "all-zero", "infinite", "empty"])
def test_kernel_sampling_fallback_rejects_a_bad_law_before_any_draw(law):
    rng = make_generator(4, "fallback-bad")
    state = rng.bit_generator.state
    alg = PanPrivateAlgorithm(name="kernel-only", init_kernel=law,
                              update_kernel=lambda i, x, s: {s: 1.0},
                              output_kernel=lambda s: {s: 1.0})
    with pytest.raises(ValueError, match="non-negative with a positive finite sum"):
        run_pan(alg, [1], t=1, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("kernels", [{}, {"init_kernel": {0: 1.0}},
                                     {"init_kernel": {0: 1.0}, "update_offset": lambda i, x: 1}],
                         ids=["none", "init-only", "no-output"])
def test_run_pan_refuses_an_algorithm_with_no_sampling_form_before_any_draw(kernels):
    rng = make_generator(4, "no-form")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="bare: no view_sample and no kernels to sample from"):
        run_pan(PanPrivateAlgorithm(name="bare", **kernels), [1, 0], t=1, rng=rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# budgets and manifests


def test_privacy_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=-1.0, delta=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=1.5, gamma=1.0)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=0.0, gamma=0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=math.nan)
    assert PrivacyBudget(epsilon=math.inf).epsilon == math.inf


def test_mechanism_from_manifest_roundtrips():
    rr = mechanism_from_manifest({"type": "binary_rr", "flip_p": 0.3})
    assert rr.kernel(1)[(1, 0)] == pytest.approx(0.3)
    chan = mechanism_from_manifest(
        {"type": "channel", "p_one_given_one": 0.8, "p_one_given_zero": 0.1}
    )
    assert chan.kernel(0)[(0, 1)] == pytest.approx(0.1)
    ctr = mechanism_from_manifest(
        {"type": "qlap_counter", "eps_update": 1.0, "eps_output": 1.0, "step": 0.125,
         "span": 12.0}
    )
    assert isinstance(ctr, PanPrivateAlgorithm)
    parity = mechanism_from_manifest({"type": "noisy_parity", "flip_p": 0.1})
    assert isinstance(parity, PanPrivateAlgorithm)
    sat = mechanism_from_manifest({"type": "saturating_counter", "cap": 3})
    assert isinstance(sat, PanPrivateAlgorithm)
    with pytest.raises(ValueError):
        mechanism_from_manifest({"type": "nope"})


@pytest.mark.parametrize("manifest, named", [
    ({"type": "binary_rr", "flip": 0.2}, "missing keys ['flip_p'], unknown keys ['flip']"),
    ({"type": "noisy_parity", "flip_p": 0.1, "seed": 3}, "unknown keys ['seed']"),
    ({"type": "qlap_counter", "eps_update": 1.0}, "missing keys ['eps_output']"),
    ({"flip_p": 0.2}, "mechanism manifest: 'type' must be one of"),
    ([{"type": "binary_rr"}], "JSON object"),
], ids=["missing-and-unknown", "unknown", "missing", "no-type", "not-an-object"])
def test_mechanism_from_manifest_names_bad_keys(manifest, named):
    with pytest.raises(ValueError, match="accepted keys|one of|JSON object") as err:
        mechanism_from_manifest(manifest)
    assert named in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("eps_update", 0.0), ("eps_update", -1.0), ("eps_update", math.inf),
    ("eps_output", 0.0), ("eps_output", math.nan),
    ("sensitivity", 0.0), ("sensitivity", -2.0), ("sensitivity", math.inf),
    ("step", 0.0), ("step", -0.25), ("step", math.nan),
    ("span", 0.0), ("span", -6.0),
])
def test_qlap_counter_manifest_names_a_bad_value(key, value):
    manifest = {"type": "qlap_counter", "eps_update": 1.0, "eps_output": 1.0, key: value}
    with pytest.raises(ValueError) as err:
        mechanism_from_manifest(manifest)
    assert str(err.value) == f"qlap_counter: {key} must be positive and finite, got {value}"
