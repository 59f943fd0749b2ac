"""Tests for environment specs, context/noise models, and regret traces."""

import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitbandit import env as environment
from bitbandit.env import (
    _ROUNDS_LIMIT,
    TRACE_FIELDS,
    Bernoulli,
    BinarySupport,
    CustomDiscrete,
    EnvironmentSpec,
    GaussianProjected,
    RegretTrace,
    TruncatedGaussian,
    assumption2_diagnostic,
    context_mean,
    mean_reward,
    read_table,
    realize_reward,
    regret_gap,
    regret_step,
    sample_context,
    sample_contexts,
)
from bitbandit.quantizer import AssumptionViolation


def binary_spec(p_minus=(0.5, 0.5), horizon=100, theta=None):
    d = 1
    return EnvironmentSpec(
        d=d,
        n_actions=len(p_minus),
        theta_star=np.array([1.0]) if theta is None else np.asarray(theta),
        context_model=BinarySupport(p_minus=tuple(p_minus)),
        noise_model=Bernoulli(),
        horizon=horizon,
    )


class TestEnvironmentSpec:
    def test_valid_spec_constructs(self):
        spec = binary_spec()
        assert spec.validate() == []

    def test_all_violations_reported(self):
        with pytest.raises(ValueError) as exc:
            EnvironmentSpec(
                d=0,
                n_actions=0,
                theta_star=np.array([2.0, 0.0]),
                context_model=BinarySupport(p_minus=(0.5,)),
                noise_model=Bernoulli(),
                horizon=-5,
            )
        text = str(exc.value)
        for fragment in ("dimension", "action", "theta_star", "horizon"):
            assert fragment in text

    def test_zero_dimension_is_listed_not_a_numpy_error(self):
        with pytest.raises(ValueError, match=r"dimension must be >= 1, got 0$"):
            EnvironmentSpec(d=0, n_actions=2, theta_star=[],
                            context_model=BinarySupport(p_minus=(0.5, 0.5)),
                            noise_model=Bernoulli(), horizon=10)

    @pytest.mark.parametrize("count", ["3", None, 2.5])
    def test_a_non_integer_count_is_listed_not_a_type_error(self, count):
        with pytest.raises(ValueError) as exc:
            EnvironmentSpec(d=count, n_actions=count, theta_star=[0.1, 0.1, 0.1],
                            context_model=BinarySupport(p_minus=(0.5, 0.5, 0.5)),
                            noise_model=Bernoulli(), horizon=count)
        for name in ("dimension", "n_actions", "horizon"):
            assert f"{name} must be an integer, got {count!r}" in str(exc.value)

    @pytest.mark.parametrize("field, value, problem", [
        ("d", True, "dimension must be an integer, got True"),
        ("horizon", 0, "horizon must be >= 1, got 0"),
        ("horizon", _ROUNDS_LIMIT + 1,
         f"horizon must be at most the limit of {_ROUNDS_LIMIT}, got {_ROUNDS_LIMIT + 1}"),
    ])
    def test_a_count_a_config_refuses_is_refused(self, field, value, problem):
        kw = dict(d=1, n_actions=2, theta_star=[1.0], noise_model=Bernoulli(),
                  context_model=BinarySupport(p_minus=(0.5, 0.5)), horizon=10)
        with pytest.raises(ValueError, match=re.escape(problem)):
            EnvironmentSpec(**{**kw, field: value})

    def test_counts_are_stored_as_python_ints(self):
        spec = EnvironmentSpec(d=np.int64(3), n_actions=np.int32(2), theta_star=np.full(3, 0.5),
                               context_model=BinarySupport(p_minus=(0.5, 0.5)),
                               noise_model=Bernoulli(), horizon=np.uint16(10))
        assert [(type(v), v) for v in (spec.d, spec.n_actions, spec.horizon)] == [
            (int, 3), (int, 2), (int, 10)]

    def test_theta_norm_bound(self):
        with pytest.raises(ValueError):
            binary_spec(theta=[1.5])

    def test_huge_theta_star_is_reported_without_an_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta_star.* exceeds 1"):
                EnvironmentSpec(d=3, n_actions=1, theta_star=np.full(3, 1e308),
                                context_model=BinarySupport(p_minus=(0.5,)),
                                noise_model=Bernoulli(), horizon=1)

    def test_digest_is_stable_and_discriminating(self):
        a, b = binary_spec(), binary_spec()
        assert a.digest() == b.digest()
        c = binary_spec(p_minus=(0.5, 0.25))
        assert a.digest() != c.digest()
        # 2000-atom supports that differ in one atom, past NumPy's print threshold
        support = np.linspace(-1.0, 1.0, 2000).reshape(-1, 1)
        moved = support.copy()
        moved[1000, 0] = 0.5
        probs = np.full(2000, 1.0 / 2000)
        big, big_moved = (
            EnvironmentSpec(
                d=1, n_actions=1, theta_star=np.array([1.0]),
                context_model=CustomDiscrete(supports=(sup,), probs=(probs,)),
                noise_model=Bernoulli(), horizon=10,
            )
            for sup in (support, moved)
        )
        assert big.digest() != big_moved.digest()


class TestContextModels:
    def test_gaussian_projected_norms(self):
        spec = EnvironmentSpec(
            d=3, n_actions=4, theta_star=np.full(3, 1 / math.sqrt(3)),
            context_model=GaussianProjected(scales=(0.1, 0.5, 1.0, 2.0)),
            noise_model=Bernoulli(), horizon=10,
        )
        rng = np.random.default_rng(42)
        ctx = sample_contexts(spec, 5_000, rng)
        assert ctx.shape == (5_000, 4, 3)
        assert np.linalg.norm(ctx, axis=2).max() <= 1.0 + 1e-9

    def test_gaussian_scale_count_must_match_actions(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(
                d=2, n_actions=3, theta_star=np.array([0.5, 0.5]),
                context_model=GaussianProjected(scales=(1.0,)),
                noise_model=Bernoulli(), horizon=10,
            )

    def test_binary_support_values_and_mean(self):
        spec = binary_spec(p_minus=(0.25, 0.6), horizon=10)
        rng = np.random.default_rng(42)
        ctx = sample_contexts(spec, 40_000, rng)
        assert set(np.unique(ctx)) == {-1.0, 1.0}
        np.testing.assert_allclose(ctx[:, 0, 0].mean(), 0.5, atol=0.02)
        np.testing.assert_allclose(ctx[:, 1, 0].mean(), -0.2, atol=0.02)
        np.testing.assert_allclose(context_mean(spec, 0), [0.5])
        np.testing.assert_allclose(context_mean(spec, 1), [-0.2])

    def test_binary_support_scales_with_dim(self):
        spec = EnvironmentSpec(
            d=4, n_actions=1, theta_star=np.full(4, 0.5),
            context_model=BinarySupport(p_minus=(0.3,)),
            noise_model=Bernoulli(), horizon=10,
        )
        rng = np.random.default_rng(42)
        ctx = sample_context(spec, rng)
        assert set(np.unique(np.abs(ctx))) == {0.5}
        np.testing.assert_allclose(context_mean(spec, 0), np.full(4, 0.4 * 0.5))

    def test_custom_discrete_sampling_and_mean(self):
        support = np.array([[0.6, 0.0], [0.0, 0.8], [-0.5, -0.5]])
        probs = np.array([0.5, 0.3, 0.2])
        spec = EnvironmentSpec(
            d=2, n_actions=1, theta_star=np.array([0.5, 0.5]),
            context_model=CustomDiscrete(supports=(support,), probs=(probs,)),
            noise_model=Bernoulli(), horizon=10,
        )
        rng = np.random.default_rng(42)
        ctx = sample_contexts(spec, 5_000, rng)[:, 0, :]
        rows = {tuple(r) for r in ctx}
        assert rows <= {tuple(r) for r in support}
        np.testing.assert_allclose(context_mean(spec, 0), probs @ support)

    @pytest.mark.parametrize("vec", [
        [(1.0 + 1e-6) / math.sqrt(2), (1.0 + 1e-6) / math.sqrt(2)],  # norm 1 + 1e-6
        [math.nan, 0.0],
    ])
    def test_sample_rejects_a_context_outside_the_unit_ball(self, vec):
        class FixedLaw:
            """A stand-in law that draws nothing and returns ``vec`` for every action."""

            def check(self, d, n_actions):
                return []

            def sample(self, n, d, rng):
                return np.tile(np.array(vec), (n, 2, 1))

        spec = EnvironmentSpec(d=2, n_actions=2, theta_star=np.array([0.5, 0.5]),
                               context_model=FixedLaw(), noise_model=Bernoulli(),
                               horizon=10)
        with pytest.raises(AssumptionViolation, match="outside the unit ball"):
            sample_contexts(spec, 3, np.random.default_rng(0))
        vec = [1.0, 0.0]  # on the sphere is inside
        assert sample_context(spec, np.random.default_rng(0)).tolist() == [vec, vec]

    def test_custom_discrete_validation(self):
        with pytest.raises(ValueError):
            CustomDiscrete(
                supports=(np.array([[0.9, 0.9]]),), probs=(np.array([1.0]),)
            )  # norm > 1
        with pytest.raises(ValueError):
            CustomDiscrete(
                supports=(np.array([[0.5, 0.0]]),), probs=(np.array([0.7]),)
            )  # probs do not sum to 1
        with pytest.raises(ValueError, match="one probs table per support table"):
            CustomDiscrete(
                supports=(np.array([[0.5, 0.0]]), np.array([[0.0, 0.5]])),
                probs=(np.array([1.0]),),
            )  # fewer probs tables than support tables


class TestRewards:
    def test_mean_reward_affine_map(self):
        spec = binary_spec()
        assert mean_reward(spec, np.array([1.0])) == 1.0
        assert mean_reward(spec, np.array([-1.0])) == 0.0
        assert mean_reward(spec, np.array([0.2])) == pytest.approx(0.6)

    def test_mean_reward_rejects_score_outside_band(self):
        spec = binary_spec()
        with pytest.raises(AssumptionViolation):
            mean_reward(spec, np.array([1.5]))

    def test_bernoulli_rewards_are_bits_with_correct_mean(self):
        spec = binary_spec()
        rng = np.random.default_rng(42)
        x = np.array([0.4])  # mapped mean 0.7
        draws = np.array([realize_reward(spec, x, rng) for _ in range(20_000)])
        assert set(np.unique(draws)) <= {0.0, 1.0}
        np.testing.assert_allclose(draws.mean(), 0.7, atol=0.01)

    def test_truncated_gaussian_stays_in_unit_interval(self):
        spec = EnvironmentSpec(
            d=1, n_actions=2, theta_star=np.array([1.0]),
            context_model=BinarySupport(p_minus=(0.5, 0.5)),
            noise_model=TruncatedGaussian(sigma=0.3), horizon=10,
        )
        rng = np.random.default_rng(42)
        x = np.array([0.4])
        draws = np.array([realize_reward(spec, x, rng) for _ in range(20_000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # symmetric truncation preserves the mean
        np.testing.assert_allclose(draws.mean(), 0.7, atol=0.01)

    def test_reward_draw_consumes_exactly_one_uniform(self):
        # stream alignment across noise models relies on this
        for noise in (Bernoulli(), TruncatedGaussian(sigma=0.2)):
            spec = EnvironmentSpec(
                d=1, n_actions=2, theta_star=np.array([1.0]),
                context_model=BinarySupport(p_minus=(0.5, 0.5)),
                noise_model=noise, horizon=10,
            )
            rng_a = np.random.default_rng(7)
            realize_reward(spec, np.array([0.3]), rng_a)
            rng_b = np.random.default_rng(7)
            rng_b.random()
            assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("n, k, d", [(3000, 10, 5), (500, 10, 64), (70_001, 1, 1)])
def test_projection_divides_by_the_vecdot_norm(n, k, d):
    law = GaussianProjected(scales=(0.5,) * k)
    want = np.random.default_rng(1).standard_normal((n, k, d)) * law._stds
    want /= np.maximum(np.sqrt(np.vecdot(want, want))[:, :, None], 1.0)
    assert law.sample(n, d, np.random.default_rng(1)).tobytes() == want.tobytes()


def _read_row_by_row(path) -> RegretTrace:
    """RegretTrace.read_csv's reference: the rows one at a time, each through a one-row
    extend(), stopping at the first that read_table cannot read, that is not the next
    round, that extend() refuses or whose cum_regret is not the running sum."""
    trace = RegretTrace(seed=-1)
    for line, (t, inst, cum, bits) in enumerate(read_table(path, TRACE_FIELDS), 2):
        if t != len(trace) + 1:
            raise ValueError(f"{path}, line {line}: round {t} where round {len(trace) + 1} "
                             f"belongs")
        try:
            trace.extend([inst], [bits])
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
        if cum != trace.total_regret:
            raise ValueError(f"{path}, line {line}: cum_regret {cum!r} is not the running "
                             f"sum {trace.total_regret!r}")
    return trace


# a fault of each kind: its variant v of a row's cells [t, inst_regret, cum_regret, bits]
_FAULTS = {
    "order": lambda c, v: [str(int(c[0]) + (1, -1, 5, -7)[v]), *c[1:]],
    "regret": lambda c, v: [c[0], ("-0.25", "nan", "inf", "-inf")[v], *c[2:]],
    "bits": lambda c, v: [*c[:3], ("-3", str(1 << 31), "-1", str(10 ** 12))[v]],
    "sum": lambda c, v: [*c[:2], repr(float(c[2]) + (0.5, 1.0, -0.25, 2.0)[v]), *c[3:]],
    "cell": lambda c, v: ([*c[:3], "x"], [c[0], "half", *c[2:]], c[:3], [*c, "0"])[v],
}
# rows on both sides of the first two 1024-row chunk boundaries
_NEAR_BOUNDARIES = [1, 2, 1023, 1024, 1025, 1026, 2047, 2048, 2049, 2050]


class TestRegretTrace:
    def test_record_and_cumulative(self):
        trace = RegretTrace(seed=3)
        trace.extend([0.5], [5])
        trace.extend([0.0], [5])
        trace.extend([0.25], [5])
        assert len(trace) == 3
        assert trace.total_regret == pytest.approx(0.75)
        assert trace.regret_at(2) == pytest.approx(0.5)

    def test_negative_regret_rejected(self):
        trace = RegretTrace(seed=0)
        with pytest.raises(ValueError):
            trace.extend([-0.1], [1])

    @pytest.mark.parametrize("inst", [math.nan, math.inf])
    def test_non_finite_regret_rejected(self, inst):
        trace = RegretTrace(seed=0)
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {inst}"):
            trace.extend([inst], [1])
        assert len(trace) == 0

    @pytest.mark.parametrize("bits", [-1, 2.0, True, np.int64(3)])
    def test_bit_count_must_be_a_nonnegative_int(self, bits):
        trace = RegretTrace(seed=0)
        with pytest.raises(ValueError, match=re.escape(f"nonnegative integer, got {bits!r}")):
            trace.extend([0.5], [bits])
        assert len(trace) == 0

    def test_a_refused_block_stores_nothing(self):
        trace = RegretTrace(seed=0)
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            trace.extend([0.5, math.nan], [1, 1])
        with pytest.raises(ValueError, match=re.escape("below 2**31, got 2147483648")):
            trace.extend([0.5, 0.5], [1, 1 << 31])  # stored as int32, never wrapped
        with pytest.raises(ValueError, match="2 regrets but 1 bit counts"):
            trace.extend([0.5, 0.5], [1])
        assert len(trace) == 0

    def test_read_csv_names_lines_past_its_first_chunk(self, tmp_path):
        trace = RegretTrace(seed=0)
        trace.extend(np.random.default_rng(0).random(3000), [2] * 3000)
        path = tmp_path / "long.csv"
        trace.write_csv(path)
        assert RegretTrace.read_csv(path).cum_regret.tobytes() == trace.cum_regret.tobytes()
        lines = path.read_text().splitlines()
        lines[2501] = lines[2501].rpartition(",")[0] + ",-2"  # round 2501
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2502: bit count must be a nonnegative integer, got -2")):
            RegretTrace.read_csv(path)

    @pytest.mark.parametrize("bad_line", [500, 1100])  # inside the first chunk, and past it
    def test_read_csv_names_the_earliest_fault_wherever_the_chunk_ends(self, tmp_path,
                                                                        bad_line):
        trace = RegretTrace(seed=0)
        trace.extend(np.random.default_rng(0).random(1200), [2] * 1200)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        lines[2] = "2,0.5,0.25,2"  # line 3: not the running sum
        lines[bad_line - 1] = lines[bad_line - 1].rpartition(",")[0] + ",x"  # does not parse
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 3: cum_regret 0.25 is not the running sum")):
            RegretTrace.read_csv(path)

    @settings(max_examples=100)
    @given(st.integers(2050, 2300), st.integers(0, 2 ** 32 - 1), st.lists(
        st.tuples(st.sampled_from(sorted(_FAULTS)),
                  st.sampled_from(_NEAR_BOUNDARIES) | st.integers(1, 2049),
                  st.integers(0, 3)), min_size=1, max_size=3))
    def test_read_csv_matches_a_row_by_row_reader(self, tmp_path_factory, n, seed, faults):
        rng = np.random.default_rng(seed)
        trace = RegretTrace(seed=0)
        trace.extend(rng.random(n), rng.integers(0, 40, n).tolist())
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        for kind, row, variant in faults:
            lines[row] = ",".join(_FAULTS[kind](lines[row].split(","), variant))
        path.write_text("\n".join(lines) + "\n")

        def outcome(read):
            try:
                return read(path).cum_regret.tobytes()
            except ValueError as exc:
                return str(exc)

        assert outcome(RegretTrace.read_csv) == outcome(_read_row_by_row)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63), st.floats(), st.floats(width=32)),
                    max_size=8))
    def test_write_table_writes_what_csv_writer_writes(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("table") / "table.csv"
        fields = {"n": int, "x": float, "y": float}
        environment.write_table(path, fields, rows)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(fields)
        writer.writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_write_table_writes_numpy_scalars_as_csv_writer_does(self, tmp_path):
        rows = [(np.int64(3), np.float64(0.5), np.float32(0.1)), (np.int32(-1), 2.0, np.nan)]
        environment.write_table(tmp_path / "table.csv", {"n": int, "x": float, "y": float}, rows)
        assert (tmp_path / "table.csv").read_bytes() == b"n,x,y\r\n3,0.5,0.1\r\n-1,2.0,nan\r\n"

    def test_regret_at_bounds(self):
        trace = RegretTrace(seed=0)
        trace.extend([1.0], [1])
        with pytest.raises(ValueError):
            trace.regret_at(0)
        with pytest.raises(ValueError):
            trace.regret_at(2)

    def test_csv_roundtrip_and_stability(self, tmp_path):
        rng = np.random.default_rng(42)
        trace = RegretTrace(seed=11)
        for _ in range(50):
            trace.extend([float(rng.random())], [int(rng.integers(1, 30))])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.write_csv(p1)
        trace.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = RegretTrace.read_csv(p1)
        np.testing.assert_array_equal(back.inst_regret, trace.inst_regret)
        np.testing.assert_array_equal(back.cum_regret, trace.cum_regret)
        np.testing.assert_array_equal(back.bits, trace.bits)

    @pytest.mark.parametrize("text, where, detail", [
        ("t,regret,bits\n1,0.5,5\n", "line 1", "header"),
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,5\n2,0.5,1.0\n", "line 3", "shorter"),
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,5\n2,0.5,1.0,5,7\n", "line 3", "longer"),
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,five\n", "line 2", "'five'"),
        ("t,inst_regret,cum_regret,bits\n1,half,0.5,5\n", "line 2", "'half'"),
        # rows extend() would not keep, or whose sum is not the one it keeps
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,5\n3,0.25,0.75,5\n2,0.0,0.75,5\n",
         "line 3", "round 3 where round 2 belongs"),
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,5\n2,-0.25,0.25,5\n", "line 3",
         "nonnegative, got -0.25"),
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,5\n2,nan,nan,5\n", "line 3",
         "nonnegative, got nan"),
        ("t,inst_regret,cum_regret,bits\n1,inf,inf,5\n", "line 2", "nonnegative, got inf"),
        ("t,inst_regret,cum_regret,bits\n1,0.5,0.5,5\n2,0.25,0.8,5\n", "line 3",
         "0.8 is not the running sum 0.75"),
    ])
    def test_read_csv_names_the_file_and_line_of_a_problem(self, tmp_path, text, where,
                                                           detail):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            RegretTrace.read_csv(path)
        assert str(exc.value).startswith(f"{path}, {where}: ")
        assert detail in str(exc.value)

    def test_regret_step_uses_best_action_gap(self):
        trace = RegretTrace(seed=0)
        ctx = np.array([[0.9], [0.1]])
        regret_step(trace, ctx, np.array([1.0]), action=1, bits=1)
        assert trace.inst_regret[-1] == pytest.approx(0.8)
        assert regret_gap(ctx, np.array([1.0]), 0) == 0.0


class TestExcitationDiagnostic:
    def test_identity_directions_grow_linearly(self):
        played = np.tile(np.eye(3), (10, 1))  # 30 rounds of cycling basis vectors
        diag = assumption2_diagnostic(played, t0=3)
        assert diag.lambda_min[-1] == pytest.approx(10.0)
        # lambda_min(t) = floor(t/3), so c = min_t lambda_min * d / t = 3/5
        assert diag.c == pytest.approx(0.6)

    def test_degenerate_directions_have_zero_rate(self):
        played = np.tile(np.array([[1.0, 0.0]]), (20, 1))
        diag = assumption2_diagnostic(played, t0=2)
        assert diag.c == 0.0


class TestTypedErrors:
    """Each bad input a caller can hand the environment raises a ValueError naming it."""

    @pytest.mark.parametrize("scale", [-0.5, math.nan])
    def test_gaussian_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(ValueError, match=r"^scales\[1\] must be (>= 0.0|a number), got "):
            GaussianProjected(scales=(1.0, scale))

    @pytest.mark.parametrize("sigma", [-0.5, math.nan])
    def test_truncated_gaussian_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be (>= 0.0|a number), got "):
            TruncatedGaussian(sigma=sigma)

    @pytest.mark.parametrize("sigma, mu", [(0.0, 0.3), (0.2, 0.0), (0.2, 1.0)])
    def test_truncated_gaussian_without_a_window_returns_the_mean(self, sigma, mu):
        for u in (0.0, 0.5, 0.999):
            assert TruncatedGaussian(sigma=sigma).reward(mu, u) == mu

    def test_custom_support_and_probs_must_match_and_be_finite(self):
        with pytest.raises(ValueError, match="action 0: support/probs shape mismatch"):
            CustomDiscrete(supports=(np.array([[0.5], [0.1]]),), probs=(np.array([1.0]),))
        with pytest.raises(ValueError, match="action 0: support and probs must be finite"):
            CustomDiscrete(supports=(np.array([[np.inf]]),), probs=(np.array([1.0]),))

    def test_custom_law_needs_one_support_table_per_action(self):
        law = CustomDiscrete(supports=(np.array([[0.5]]),), probs=(np.array([1.0]),))
        with pytest.raises(ValueError, match="one support table per action required"):
            EnvironmentSpec(d=1, n_actions=2, theta_star=np.array([1.0]), context_model=law,
                            noise_model=Bernoulli(), horizon=1)

    def test_theta_star_must_be_finite(self):
        with pytest.raises(ValueError, match="theta_star entries must be finite"):
            binary_spec(theta=[math.nan])

    def test_theta_star_norm_is_checked_past_its_entries(self):
        with pytest.raises(ValueError, match=r"\|\|theta_star\|\| = 1.13137 exceeds 1"):
            EnvironmentSpec(d=2, n_actions=1, theta_star=np.array([0.8, 0.8]),
                            context_model=BinarySupport(p_minus=(0.5,)),
                            noise_model=Bernoulli(), horizon=1)

    @pytest.mark.parametrize("played, fragment", [
        (np.zeros(3), r"expected \(t, d\) history, got shape \(3,\)"),
        (np.zeros((0, 2)), "empty history"),
    ])
    def test_excitation_diagnostic_needs_a_history(self, played, fragment):
        with pytest.raises(ValueError, match=fragment):
            assumption2_diagnostic(played, t0=1)
