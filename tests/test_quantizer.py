"""Tests for the stochastic scalar quantizer and the context quantizer."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitbandit.codec import (BitBuffer, LatticeEnumerator, bit_budget, decode_unknown,
                            lattice_enumerator)
from bitbandit.env import (
    Bernoulli,
    BinarySupport,
    EnvironmentSpec,
    GaussianProjected,
    RegretTrace,
    TruncatedGaussian,
    reward_of,
)
from bitbandit.known import (
    ActionMap,
    LinUcb,
    estimate_xstar,
    misspecify_xstar,
    seed_streams,
    theta_net,
)
from bitbandit.quantizer import (
    AssumptionViolation,
    QuantizationRangeError,
    StochasticQuantizer,
    _enforce_l1_budget,
    magnitude_scale,
    quantize_context,
    reconstruct_context,
    reward_bit,
)
from bitbandit.unknown import new_learner_state


def random_unit_ball(n, d, rng):
    """n points drawn uniformly from the d-dimensional unit ball."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.random((n, 1)) ** (1.0 / d)


class TestStochasticQuantizer:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StochasticQuantizer(0)
        with pytest.raises(ValueError):
            StochasticQuantizer(4, lower=1.0, upper=1.0)
        with pytest.raises(ValueError):
            StochasticQuantizer(4, lower=2.0, upper=-2.0)

    def test_default_range_is_zero_to_levels(self):
        sq = StochasticQuantizer(7)
        assert sq.lower == 0.0
        assert sq.upper == 7.0
        assert sq.step == 1.0

    def test_levels_stay_in_range(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(5, lower=-2.0, upper=3.0)
        x = rng.uniform(-2.0, 3.0, size=20_000)
        levels = sq.encode(x, rng)
        assert levels.dtype == np.int64
        assert levels.min() >= 0
        assert levels.max() <= 5

    def test_error_bounded_by_one_step(self):
        rng = np.random.default_rng(42)
        for levels, lo, hi in [(1, 0.0, 1.0), (3, -1.0, 2.0), (10, -5.0, 5.0)]:
            sq = StochasticQuantizer(levels, lo, hi)
            x = rng.uniform(lo, hi, size=50_000)
            err = np.abs(sq.roundtrip(x, rng) - x)
            assert err.max() <= sq.step + 1e-12

    def test_unbiasedness(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(4, lower=-1.0, upper=1.0)
        n = 100_000
        for x in (-0.9, -1.0 / 3.0, 0.0, 0.123456, 0.77):
            vals = sq.roundtrip(np.full(n, x), rng)
            tol = 4.0 * (sq.upper - sq.lower) / (sq.levels * math.sqrt(n))
            assert abs(vals.mean() - x) <= tol

    def test_grid_points_are_exact(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(6, lower=-3.0, upper=3.0)
        grid = sq.lower + np.arange(7) * sq.step
        out = sq.roundtrip(grid, rng)
        np.testing.assert_array_equal(out, grid)

    def test_out_of_range_raises(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(2, 0.0, 1.0)
        with pytest.raises(QuantizationRangeError):
            sq.encode(1.001, rng)
        with pytest.raises(QuantizationRangeError):
            sq.encode(np.array([0.5, -0.1]), rng)
        with pytest.raises(QuantizationRangeError):
            sq.decode(3)
        with pytest.raises(QuantizationRangeError):
            sq.decode(-1)

    @pytest.mark.parametrize("level", [0.5, float("nan"), np.array([1.7]), 1.0, True])
    def test_decode_rejects_non_integer_levels(self, level):
        with pytest.raises(QuantizationRangeError):
            StochasticQuantizer(2, 0.0, 1.0).decode(level)

    def test_nan_raises(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(1, 0.0, 1.0)
        with pytest.raises(QuantizationRangeError):
            sq.encode(float("nan"), rng)
        with pytest.raises(QuantizationRangeError, match="position 1"):
            sq.encode(np.array([0.5, np.nan, 0.25]), rng)

    @pytest.mark.parametrize("levels, lo, hi", [(1, 0.0, 1.0), (3, -1.0, 2.0)])
    def test_scalar_matches_array_draw_for_draw(self, levels, lo, hi):
        """A float is a 0-d array: same level and rng state as a 1-array."""
        sq = StochasticQuantizer(levels, lo, hi)
        data_rng = np.random.default_rng(7)
        edges = [lo, hi, math.nextafter(hi, lo), lo - 5e-10, hi + 5e-10]
        xs = [*edges, *(float(x) for x in data_rng.uniform(lo, hi, 20_000)),
              *data_rng.uniform(lo, hi, 100)]  # np.float64 is a float too
        for i, x in enumerate(xs):
            ra, rb = np.random.default_rng(i), np.random.default_rng(i)
            level = sq.encode(x, ra)
            assert type(level) is int
            assert level == int(sq.encode(np.array([x]), rb)[0])
            assert ra.bit_generator.state == rb.bit_generator.state
        with pytest.raises(QuantizationRangeError):
            sq.encode(hi + 1e-8, rng=np.random.default_rng(0))
        with pytest.raises(QuantizationRangeError):
            sq.encode(lo - 1e-8, rng=np.random.default_rng(0))

    def test_boundary_fp_slack_is_absorbed(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(2, 0.0, 1.0)
        assert sq.encode(1.0 + 1e-10, rng) == 2
        assert sq.encode(-1e-10, rng) == 0

    def test_scalar_in_scalar_out(self):
        rng = np.random.default_rng(42)
        sq = StochasticQuantizer(3)
        assert isinstance(sq.encode(1.5, rng), int)
        assert isinstance(sq.decode(2), float)


class TestMagnitudeScale:
    def test_is_ceil_sqrt(self):
        for d in range(1, 200):
            assert magnitude_scale(d) == math.ceil(math.sqrt(d))

    def test_known_values(self):
        assert [magnitude_scale(d) for d in (1, 2, 4, 5, 16, 17, 25, 26)] == \
            [1, 2, 2, 3, 4, 5, 5, 6]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            magnitude_scale(0)


_D3_FRAME = BitBuffer(0, bit_budget(3))
_ONE_D = EnvironmentSpec(d=1, n_actions=2, theta_star=[1.0], noise_model=Bernoulli(),
                         context_model=BinarySupport(p_minus=(0.25, 0.5)), horizon=1)
_TRACE = RegretTrace(seed=0)
_TRACE.extend([0.5] * 5, [1] * 5)

# Each entry point that takes a count: the count's name in its errors, and a call
# that passes it v and returns what two equal counts must give alike.
_COUNTS = {
    "magnitude_scale": ("dimension", magnitude_scale),
    "LatticeEnumerator": ("dimension", lambda v: LatticeEnumerator(v).unrank(7)),
    "lattice_enumerator": ("dimension", lambda v: lattice_enumerator(v).unrank(7)),
    "bit_budget": ("dimension", bit_budget),
    "decode_unknown": ("dimension", lambda v: decode_unknown(_D3_FRAME, v).context),
    "new_learner_state": ("dimension", lambda v: new_learner_state(v).rhs),
    "solve_min_rounds": ("solve_min_rounds", lambda v: new_learner_state(3, v).solve_min_rounds),
    "theta_net.d": ("dimension", lambda v: theta_net(v, 4)),
    "theta_net.n": ("n", lambda v: theta_net(3, v)),
    "StochasticQuantizer": ("levels", StochasticQuantizer),
    "estimate_xstar": ("n_samples", lambda v: estimate_xstar(
        _ONE_D, [1.0], v, np.random.default_rng(0))),
    "seed_streams": ("seed", lambda v: [rng.random() for rng in seed_streams(v)]),
    "regret_at": ("round", _TRACE.regret_at),
    "RegretTrace": ("capacity", lambda v: RegretTrace(0, v)._inst.shape),
}


class TestCountContract:
    """A count is an integer at least its lower bound, checked by one rule: a bool, and
    anything operator.index refuses, is a ValueError naming the count, not a TypeError."""

    @pytest.mark.parametrize("entry, value", [
        (entry, value) for entry in sorted(_COUNTS)
        for value in (2.5, 3.0, "3", None, True, False)
        if (entry, value) != ("solve_min_rounds", None)])  # None asks for the default, d
    def test_a_non_integer_is_a_value_error_naming_the_count(self, entry, value):
        name, call = _COUNTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)

    @pytest.mark.parametrize("entry", sorted(_COUNTS))
    def test_a_python_or_numpy_integer_is_taken_alike(self, entry):
        _, call = _COUNTS[entry]
        np.testing.assert_equal(call(np.int64(3)), call(3))

    def test_a_float_dimension_finds_no_cached_enumerator(self):
        bit_budget(3)  # cached: the float must not find this entry
        for call in (bit_budget, lattice_enumerator):
            with pytest.raises(ValueError, match="dimension must be an integer, got 3.0"):
                call(3.0)
        with pytest.raises(ValueError, match="dimension must be an integer, got 1.5"):
            decode_unknown(_D3_FRAME, 1.5)

    def test_a_count_below_its_bound_names_both(self):
        with pytest.raises(ValueError, match=r"^levels must be >= 1, got 0$"):
            StochasticQuantizer(np.int64(0))
        with pytest.raises(ValueError, match=r"^solve_min_rounds must be >= 0, got -1$"):
            new_learner_state(3, np.int8(-1))


# Each entry point that takes a real: the real's name in its errors and a call passing it v.
_REALS = {
    "LinUcb": ("ridge parameter", lambda v: LinUcb([[1.0]], lam=v)),
    "misspecify_xstar": ("eps", lambda v: misspecify_xstar(
        ActionMap([[1.0]], [[0.5]], "test"), v, np.random.default_rng(0))),
    "TruncatedGaussian": ("sigma", lambda v: TruncatedGaussian(sigma=v)),
    "BinarySupport": ("p_minus[1]", lambda v: BinarySupport(p_minus=(0.5, v))),
    "GaussianProjected": ("scales[0]", lambda v: GaussianProjected(scales=(v, 0.5))),
    "StochasticQuantizer.lower": ("lower", lambda v: StochasticQuantizer(2, lower=v, upper=3.0)),
    "StochasticQuantizer.upper": ("upper", lambda v: StochasticQuantizer(2, upper=v)),
}


_NON_NUMBERS = (True, False, np.True_, "1", None, math.nan, math.inf, -math.inf, 10 ** 400,
                [1.0])


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in sorted(_REALS) for value in _NON_NUMBERS
    # upper=None is the default, the grid 0..levels (test_default_range_is_zero_to_levels)
    if (entry, value) != ("StochasticQuantizer.upper", None)])
def test_a_non_number_is_no_real(entry, value):
    """Each real an entry point takes refuses a bool, a string, None, a non-finite
    number, an int past the float range and a list by name, as a config leaf does."""
    name, call = _REALS[entry]
    message = f"{name} must be a number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry, value, message", [
    ("GaussianProjected", -0.5, "scales[0] must be >= 0.0, got -0.5"),
    ("BinarySupport", 1.5, "p_minus[1] must be <= 1.0, got 1.5"),
    ("TruncatedGaussian", -0.5, "sigma must be >= 0.0, got -0.5"),
    ("misspecify_xstar", -0.1, "eps must be >= 0.0, got -0.1"),
    ("LinUcb", 0.0, "ridge parameter must be > 0, got 0.0"),
])
def test_a_real_outside_its_bound_is_refused_by_name(entry, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _REALS[entry][1](value)


def _linucb_update(v):
    policy = LinUcb([[1.0]])
    policy.select()
    policy.update(v)


_ONE_D_GAUSSIAN_NOISE = dataclasses.replace(_ONE_D, noise_model=TruncatedGaussian(sigma=0.1))

# Each per-round call that takes a real: the error a non-number or NaN raises, its
# message with the value left to fill in, and a call passing it v.  apply_update's
# refusal is in tests/test_unknown.py, beside the state it must leave unchanged.
_PER_ROUND = {
    "LinUcb.update": (ValueError, "reward must be a number, got {!r}", _linucb_update),
    "reward_bit.r": (QuantizationRangeError, "input {} outside [0.0, 1.0]",
                     lambda v: reward_bit(v, 0.5)),
    "reward_bit.u": (ValueError, "u must be a number, got {!r}", lambda v: reward_bit(0.5, v)),
    "reward_of.bernoulli": (AssumptionViolation,
                            "<x, theta*> must be a number in [-1, 1], got {!r}",
                            lambda v: reward_of(_ONE_D, v, 0.3)),
    "reward_of.truncated_gaussian": (AssumptionViolation,
                                     "<x, theta*> must be a number in [-1, 1], got {!r}",
                                     lambda v: reward_of(_ONE_D_GAUSSIAN_NOISE, v, 0.3)),
    "reward_of.bernoulli.u": (ValueError, "u must be a number, got {!r}",
                              lambda v: reward_of(_ONE_D, 0.3, v)),
    "reward_of.truncated_gaussian.u": (ValueError, "u must be a number, got {!r}",
                                       lambda v: reward_of(_ONE_D_GAUSSIAN_NOISE, 0.3, v)),
}


# reward_bit refused a NaN reward already
_NOT_CHECKED_HERE = {("reward_bit.r", "nan")}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in sorted(_PER_ROUND) for value in ("x", None, math.nan)
    if (entry, repr(value)) not in _NOT_CHECKED_HERE])
def test_a_per_round_call_refuses_a_non_number_by_name(entry, value):
    """A string, None or NaN where a round wants a number is a typed error naming it,
    never a bare TypeError or a silent reward."""
    error, message, call = _PER_ROUND[entry]
    with pytest.raises(error, match=f"^{re.escape(message.format(value))}$"):
        call(value)


@pytest.mark.parametrize("entry", ["reward_bit.u", "reward_of.bernoulli.u",
                                   "reward_of.truncated_gaussian.u"])
@pytest.mark.parametrize("u, message", [
    (math.inf, "u must be a number, got inf"), (-math.inf, "u must be a number, got -inf"),
    (-0.5, "u must be >= 0.0, got -0.5"), (1.5, "u must be <= 1.0, got 1.5")])
def test_a_reward_uniform_outside_the_unit_interval_is_refused_by_name(entry, u, message):
    """A round's reward uniform is a number in [0, 1]; any other is no silent reward bit."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _PER_ROUND[entry][2](u)


class TestRewardBit:
    def test_equals_the_one_level_quantizer_draw_for_draw(self):
        rewards = [0.0, 1.0, 0.5, -1e-10, 1.0 + 1e-10] + np.random.default_rng(3).random(2000).tolist()
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        one_level = StochasticQuantizer(1, 0.0, 1.0)
        for r in rewards:
            bit = reward_bit(r, ours.random())
            assert type(bit) is int and bit == one_level.encode(r, ref)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("r", [-0.01, 1.01, math.nan])
    def test_refuses_a_reward_outside_the_unit_interval(self, r):
        with pytest.raises(QuantizationRangeError, match=f"input {r} outside"):
            reward_bit(r, 0.5)
        with pytest.raises(QuantizationRangeError, match=f"input {r} outside"):
            StochasticQuantizer(1, 0.0, 1.0).encode(r, np.random.default_rng(0))


class TestQuantizeContext:
    def test_rejects_norm_above_one(self):
        rng = np.random.default_rng(42)
        with pytest.raises(AssumptionViolation):
            quantize_context(np.array([0.8, 0.8]), rng.random(4))

    def test_rejects_matrix_input(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError):
            quantize_context(np.zeros((2, 2)), rng.random(4))

    def test_rejects_a_wrong_number_of_uniforms(self):
        with pytest.raises(ValueError, match="need 2d = 4 uniforms, got 5"):
            quantize_context(np.array([0.3, 0.4]), np.zeros(5))

    def test_rejects_nan(self):
        rng = np.random.default_rng(42)
        with pytest.raises(AssumptionViolation):
            quantize_context(np.array([np.nan, 0.0]), rng.random(4))

    def test_matches_scalar_quantizer_draw_for_draw(self):
        """Same levels, square bits and rng state as two StochasticQuantizers, and
        the reconstructed square errors are the second quantizer's values."""

        def reference(x, rng):
            m = magnitude_scale(x.size)
            scaled = m * np.abs(x)
            mags = StochasticQuantizer(m).encode(scaled, rng)
            assert mags.sum() <= 2 * x.size  # no demotion in this reference
            xhat = np.where(x < 0, -1, 1) * mags / m
            err_q = StochasticQuantizer(1, lower=-3.0 / m, upper=3.0 / m)
            levels = err_q.encode(x * x - xhat * xhat, rng)
            return mags, levels, xhat * xhat + err_q.decode(levels)

        data_rng = np.random.default_rng(7)
        for d in (1, 2, 5, 16, 64):
            for x in random_unit_ball(100, d, data_rng):
                seed = int(data_rng.integers(2**32))
                ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
                qc = quantize_context(x, ra.random(2 * d))
                mags, levels, xsq_hat = reference(x, rb)
                np.testing.assert_array_equal(qc.magnitudes, mags)
                np.testing.assert_array_equal(qc.square_bits, levels == 1)
                assert reconstruct_context(qc)[1].tobytes() == xsq_hat.tobytes()
                assert ra.random() == rb.random()

    def test_sign_of_zero_is_positive(self):
        rng = np.random.default_rng(42)
        qc = quantize_context(np.array([0.0, -0.0, -0.5, 0.5]), rng.random(8))
        np.testing.assert_array_equal(qc.sign_bits, [True, True, False, True])
        np.testing.assert_array_equal(qc.magnitudes[:2], np.zeros(2))
        np.testing.assert_array_equal(np.sign(reconstruct_context(qc)[0][2:]), [-1, 1])

    def test_fields_are_well_formed(self):
        rng = np.random.default_rng(42)
        for d in (1, 2, 3, 5, 8, 16):
            m = magnitude_scale(d)
            for x in random_unit_ball(200, d, rng):
                qc = quantize_context(x, rng.random(2 * d))
                assert qc.sign_bits.dtype == qc.square_bits.dtype == np.bool_
                assert qc.sign_bits.shape == qc.magnitudes.shape == qc.square_bits.shape == (d,)
                np.testing.assert_array_equal(qc.sign_bits, x >= 0)
                assert qc.magnitudes.min() >= 0
                assert qc.magnitudes.max() <= m
                xhat, xsq_hat = reconstruct_context(qc)
                assert np.all(np.isin(xsq_hat - xhat * xhat, (-3.0 / m, 3.0 / m)))

    def test_l1_budget_never_exceeded(self):
        rng = np.random.default_rng(42)
        for d in (1, 2, 3, 5, 7, 11, 16):
            x = random_unit_ball(2_000, d, rng)
            # push a share of the mass right onto the sphere, the worst case
            x[::4] /= np.maximum(np.linalg.norm(x[::4], axis=1, keepdims=True), 1e-12)
            for row in x:
                qc = quantize_context(row, rng.random(2 * d))
                assert qc.magnitudes.sum() <= 2 * d

    def test_forced_demotion_keeps_budget_and_floors(self):
        d = 5  # m = 3, all-ceil can overshoot the budget of 10
        x = np.array([0.7, 0.357, 0.357, 0.357, 0.357])
        assert np.linalg.norm(x) <= 1.0
        qc = quantize_context(x, np.zeros(2 * d))  # uniforms of 0 force round-up
        m = magnitude_scale(d)
        assert qc.magnitudes.sum() == 2 * d
        # every coordinate sits on floor or ceil of m|x|
        scaled = m * np.abs(x)
        assert np.all(
            (qc.magnitudes == np.floor(scaled)) | (qc.magnitudes == np.ceil(scaled))
        )

    def test_unsatisfiable_budget_is_a_typed_error(self):
        # every level already sits on its floor, so no demotion can help
        with pytest.raises(AssumptionViolation, match="sum to 6 .* budget 4"):
            _enforce_l1_budget(np.array([3, 3]), np.array([3.0, 3.0]), 4)

    @settings(max_examples=200)
    @given(st.integers(1, 64).flatmap(
               lambda d: st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_error_within_one_step_per_coordinate(self, coords, radius, seed):
        x = np.array(coords)
        norm = np.linalg.norm(x)
        if norm > 0:
            x *= radius / norm
        xhat, _ = reconstruct_context(
            quantize_context(x, np.random.default_rng(seed).random(2 * x.size)))
        assert np.abs(xhat - x).max() <= 1.0 / magnitude_scale(x.size) + 1e-12

    def test_reconstruction_error_bounds(self):
        rng = np.random.default_rng(42)
        for d in (1, 5, 25):
            m = magnitude_scale(d)
            for x in random_unit_ball(300, d, rng):
                qc = quantize_context(x, rng.random(2 * d))
                xhat, xsq_hat = reconstruct_context(qc)
                assert np.max(np.abs(xhat) - np.abs(x)) <= 1.0 / m + 1e-12
                assert np.max(np.abs(x * x - xhat * xhat)) <= 3.0 / m + 1e-12
                # the square-bit correction is one quantizer step wide
                assert np.max(np.abs(x * x - xsq_hat)) <= 6.0 / m + 1e-12

    def test_reconstruction_is_unbiased(self):
        rng = np.random.default_rng(42)
        x = np.array([0.31, -0.47, 0.0, 0.62])
        n = 20_000
        xh = np.zeros_like(x)
        xs = np.zeros_like(x)
        for _ in range(n):
            xhat, xsq_hat = reconstruct_context(quantize_context(x, rng.random(2 * x.size)))
            xh += xhat
            xs += xsq_hat
        m = magnitude_scale(x.size)
        assert np.max(np.abs(xh / n - x)) <= 4.0 / (m * math.sqrt(n))
        assert np.max(np.abs(xs / n - x * x)) <= 24.0 / (m * math.sqrt(n))
