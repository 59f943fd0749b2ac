"""Tests for the unknown-distribution learner: state updates, wire loop, solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitbandit import codec, quantizer, unknown
from bitbandit import env as environment
from bitbandit.codec import bit_budget
from bitbandit.env import (
    Bernoulli,
    BinarySupport,
    CustomDiscrete,
    EnvironmentSpec,
    GaussianProjected,
)
from bitbandit.known import simulate
from bitbandit.unknown import (
    apply_update,
    lattice_channel,
    new_learner_state,
    run_full_precision,
    run_unknown,
)


def integral_grid_spec(horizon=300):
    """d=2 supports whose coordinates are multiples of 1/m (m=2): lossless signs
    and magnitudes, so the decoded context equals the played one exactly."""
    sup0 = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, -0.5]])
    pr0 = np.array([0.4, 0.3, 0.3])
    sup1 = np.array([[-0.5, 0.0], [0.0, 1.0], [0.5, -0.5]])
    pr1 = np.array([0.2, 0.5, 0.3])
    return EnvironmentSpec(
        d=2, n_actions=2, theta_star=np.array([0.6, 0.3]),
        context_model=CustomDiscrete(supports=(sup0, sup1), probs=(pr0, pr1)),
        noise_model=Bernoulli(), horizon=horizon,
    )


def gaussian_spec(d=3, k=4, horizon=500):
    theta = np.full(d, 1.0 / np.sqrt(d))
    return EnvironmentSpec(
        d=d, n_actions=k, theta_star=theta,
        context_model=GaussianProjected(scales=(0.5,) * k),
        noise_model=Bernoulli(), horizon=horizon,
    )


class TestLearnerState:
    def test_new_state_is_zeroed(self):
        state = new_learner_state(3)
        np.testing.assert_array_equal(state.u, np.zeros(3))
        np.testing.assert_array_equal(state.v_tilde, np.zeros((3, 3)))
        np.testing.assert_array_equal(state.theta_hat, np.zeros(3))
        assert state.t == 0
        assert state.solve_min_rounds == 3

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            new_learner_state(0)

    def test_rejects_a_negative_solve_start(self):
        with pytest.raises(ValueError, match="solve_min_rounds must be >= 0, got -1"):
            new_learner_state(3, solve_min_rounds=-1)

    def test_update_accumulates_offdiag_and_replaces_diag(self):
        state = new_learner_state(2, solve_min_rounds=10)
        xhat = np.array([0.5, -1.0])
        xsq = np.array([0.3, 0.9])
        apply_update(state, reward_bit=1, xhat=xhat, xsq_hat=xsq)
        expected = np.outer(xhat, xhat)
        np.fill_diagonal(expected, xsq)
        np.testing.assert_allclose(state.v_tilde, expected)
        np.testing.assert_allclose(state.u, (2.0 * 1 - 1.0) * xhat)
        apply_update(state, reward_bit=0, xhat=xhat, xsq_hat=xsq)
        np.testing.assert_allclose(state.v_tilde, 2 * expected)
        np.testing.assert_allclose(state.u, np.zeros(2), atol=1e-15)

    def test_solve_waits_for_min_rounds(self):
        state = new_learner_state(2, solve_min_rounds=3)
        x = np.array([1.0, 0.0])
        sq = np.array([1.0, 0.0])
        apply_update(state, 1, x, sq)
        apply_update(state, 1, x, sq)
        np.testing.assert_array_equal(state.theta_hat, np.zeros(2))
        apply_update(state, 1, x, sq)
        assert np.any(state.theta_hat != 0.0)

    def test_gram_stays_symmetric(self):
        rng = np.random.default_rng(42)
        state = new_learner_state(4, solve_min_rounds=1)
        for _ in range(50):
            x = rng.standard_normal(4) * 0.4
            apply_update(state, int(rng.integers(0, 2)), x, x * x)
        np.testing.assert_array_equal(state.v_tilde, state.v_tilde.T)


class TestLsOracleEquivalence:
    def test_theta_matches_dense_min_norm_solve_every_round(self):
        spec = integral_grid_spec()
        state = new_learner_state(spec.d, solve_min_rounds=1)
        v_log = np.zeros((spec.d, spec.d))
        u_log = np.zeros(spec.d)

        def send(x, r, q):
            received, bits = lattice_channel.send(x, r, q)
            # integral supports make the vector reconstruction lossless
            np.testing.assert_array_equal(received[1], x)
            return received, bits

        def learn(reward_bit, xhat, xsq_hat):
            apply_update(state, reward_bit, xhat, xsq_hat)
            outer = np.outer(xhat, xhat)
            np.fill_diagonal(outer, xsq_hat)
            v_log[...] += outer
            u_log[...] += (2.0 * reward_bit - 1.0) * xhat
            oracle = np.linalg.lstsq(v_log, u_log, rcond=None)[0]
            np.testing.assert_allclose(state.theta_hat, oracle, atol=1e-9)

        trace = simulate(spec, 9, lambda: state.theta_hat, lattice_channel._replace(send=send),
                         learn)
        assert len(trace) == 300


class TestSolver:
    """The LU solve must give pinv's minimum-norm answer or fall back to pinv."""

    def test_exactly_singular_gram_falls_back(self):
        rng = np.random.default_rng(0)
        state = new_learner_state(3, solve_min_rounds=1)
        # full-precision contexts on the first two axes: row and column 3 stay 0
        for axis, scale in zip(rng.integers(0, 2, size=40), rng.uniform(0.2, 1.0, 40)):
            x = scale * np.eye(3)[axis]
            apply_update(state, int(rng.integers(0, 2)), x, x * x)
        assert state.pinv_fallbacks == 40
        np.testing.assert_allclose(state.theta_hat, np.linalg.pinv(state.v_tilde) @ state.u,
                                   rtol=0, atol=1e-12)

    def test_numerically_rank_deficient_gram_matches_pinv(self):
        # LU returns a modest-norm answer far from pinv's here, so a check on
        # ||theta|| alone would not catch it
        rng = np.random.default_rng(0)
        state = new_learner_state(2, solve_min_rounds=1)
        for c in rng.uniform(-1.0, 1.0, 50):
            x = c * np.array([0.6, 0.8])
            apply_update(state, int(rng.integers(0, 2)), x, x * x)
            assert np.linalg.cond(state.v_tilde) > 1e12
            np.testing.assert_allclose(state.theta_hat,
                                       np.linalg.pinv(state.v_tilde) @ state.u,
                                       rtol=0, atol=1e-9)
        assert state.pinv_fallbacks == 50

    def test_well_conditioned_run_never_falls_back(self):
        spec = gaussian_spec(d=5, k=10, horizon=1000)
        state = new_learner_state(spec.d)
        simulate(spec, 0, lambda: state.theta_hat, lattice_channel,
                 lambda *received: apply_update(state, *received))
        assert state.t == 1000 and state.pinv_fallbacks == 0
        np.testing.assert_allclose(state.theta_hat, np.linalg.solve(state.v_tilde, state.u),
                                   rtol=0, atol=1e-12)


def parent_solve_rule(v, u):
    """theta and whether it fell back, by the rule as it stood on np.linalg.solve:
    LU on [u | sin(1..d)], falling back to pinv(v) u when LU raises LinAlgError,
    returns a non-finite value or estimates cond_1(v) above 1e8."""
    probe = np.sin(np.arange(1.0, u.size + 1))
    rhs = np.empty((u.size, 2))
    rhs[:, 0] = u
    rhs[:, 1] = probe
    try:
        sol = np.linalg.solve(v, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is not None:
        cond = np.linalg.norm(v, 1) * np.abs(sol[:, 1]).sum() / np.abs(probe).sum()
        if np.isfinite(sol).all() and cond <= 1e8:
            return sol[:, 0], False
    return np.linalg.pinv(v) @ u, True


class TestSolveRule:
    @settings(max_examples=200)
    @given(st.integers(1, 64).flatmap(lambda d: st.tuples(
               st.just(d), st.integers(1, d), st.integers(d, d + 8))),
           st.sampled_from(["full", "coordinates", "subspace", "nearly-singular"]),
           st.integers(0, 2**32 - 1))
    def test_every_update_matches_the_parent_rule_bit_for_bit(self, shape, kind, seed):
        """theta_hat and pinv_fallbacks equal the np.linalg.solve rule's after every
        update, on Gram matrices of full rank, confined to a coordinate subspace
        (exactly singular), to a random subspace, or with one tiny direction."""
        d, rank, rounds = shape
        rng = np.random.default_rng(seed)
        basis = {"full": np.eye(d), "coordinates": np.eye(d)[:rank],
                 "subspace": rng.standard_normal((rank, d)),
                 "nearly-singular": rng.standard_normal((d, d))}[kind]
        if kind == "nearly-singular":  # estimated cond_1 on either side of 1e8
            basis[-1] *= 10.0 ** rng.uniform(-5.0, -1.0)
        state = new_learner_state(d, solve_min_rounds=1)
        v, u, fallbacks = np.zeros((d, d)), np.zeros(d), 0
        for _ in range(rounds):
            x = rng.uniform(-1.0, 1.0, basis.shape[0]) @ basis / np.sqrt(d)
            xsq = x * x
            if kind in ("full", "coordinates"):  # squares apart from x * x, as xsq_hat's are
                xsq *= rng.uniform(0.5, 1.5, d)
            bit = int(rng.integers(0, 2))
            apply_update(state, bit, x, xsq)
            outer = np.outer(x, x)
            np.fill_diagonal(outer, xsq)
            v += outer
            u += (2.0 * bit - 1.0) * x
            theta, fell_back = parent_solve_rule(v, u)
            fallbacks += fell_back
            assert state.theta_hat.tobytes() == theta.tobytes()
            assert state.pinv_fallbacks == fallbacks


class TestRunUnknown:
    def test_budgeted_bits_every_round(self):
        for d, k in ((1, 2), (2, 3)):
            spec = gaussian_spec(d=d, k=k, horizon=100)
            trace = run_unknown(spec, seed=0)
            assert set(trace.bits) == {bit_budget(d)}

    def test_same_seed_reproduces_trace(self):
        spec = gaussian_spec(horizon=150)
        a = run_unknown(spec, seed=3)
        b = run_unknown(spec, seed=3)
        np.testing.assert_array_equal(a.inst_regret, b.inst_regret)

    def test_learner_beats_uniform_play(self):
        spec = gaussian_spec(d=2, k=5, horizon=2000)
        trace = run_unknown(spec, seed=0)
        # second half should be much better than the first
        first = trace.regret_at(1000)
        second = trace.total_regret - first
        assert second < 0.8 * first


    def test_a_lattice_round_checks_each_count_once(self, monkeypatch):
        """At most 6 _integer calls a lattice round: the reward bit, the frame's value
        and length as encoded and as parsed, and decode_unknown's d.  A second check
        of a count in a wire call would show here."""
        spec = gaussian_spec(d=5, k=10, horizon=200)
        simulate(spec, 0, lambda: spec.theta_star, lattice_channel, lambda *received: None)
        calls, per_round = [], []  # the run above filled the per-dimension caches
        integer = quantizer._integer

        def counted(value, *args):
            calls.append(value)
            return integer(value, *args)

        for module in (codec, quantizer, unknown):
            monkeypatch.setattr(module, "_integer", counted)

        def send(*args):
            before = len(calls)
            out = lattice_channel.send(*args)
            per_round.append(len(calls) - before)
            return out

        simulate(spec, 1, lambda: spec.theta_star, lattice_channel._replace(send=send),
                 lambda *received: None)
        assert len(per_round) == 200 and max(per_round) <= 6


class TestFullPrecision:
    def test_nominal_float_bits_logged(self):
        spec = gaussian_spec(d=3, k=4, horizon=50)
        trace = run_full_precision(spec, seed=0)
        assert set(trace.bits) == {64 * (3 + 1)}

    def test_recovers_theta_star(self):
        spec = gaussian_spec(d=2, k=5, horizon=3000)
        env_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(2)[0])
        state = new_learner_state(spec.d)
        for _ in range(3000):
            ctx = environment.sample_context(spec, env_rng)
            a = int(np.argmax(ctx @ state.theta_hat))
            r = environment.realize_reward(spec, ctx[a], env_rng)
            apply_update(state, r, ctx[a], ctx[a] * ctx[a])
        assert np.linalg.norm(state.theta_hat - spec.theta_star) < 0.2

    def test_paired_seed_shares_environment_stream(self):
        spec = gaussian_spec(d=2, k=3, horizon=40)
        quantized = run_unknown(spec, seed=11)
        full = run_full_precision(spec, seed=11)
        assert len(quantized) == len(full) == 40
        # both learners start at theta = 0 and share the env stream, so the
        # first round plays the same action on the same context
        assert quantized.inst_regret[0] == full.inst_regret[0]
