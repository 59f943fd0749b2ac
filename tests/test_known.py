"""Tests for the known-distribution learner: xstar tables, LinUCB, simulation."""

import math

import numpy as np
import pytest

from bitbandit.env import (
    Bernoulli,
    BinarySupport,
    CustomDiscrete,
    EnvironmentSpec,
)
from bitbandit.known import (
    LinUcb,
    build_action_map,
    estimate_xstar,
    exact_xstar,
    greedy_action,
    misspecify_xstar,
    run_known,
    run_naive_baseline,
    theta_net,
)


def two_action_binary(p, q, horizon=1000):
    return EnvironmentSpec(
        d=1, n_actions=2, theta_star=np.array([1.0]),
        context_model=BinarySupport(p_minus=(p, q)),
        noise_model=Bernoulli(), horizon=horizon,
    )


class TestGreedyAction:
    def test_picks_highest_score(self):
        ctx = np.array([[0.1, 0.0], [0.5, 0.5], [-0.9, 0.0]])
        assert greedy_action(ctx, np.array([1.0, 0.0])) == 1

    def test_ties_break_to_lowest_index(self):
        ctx = np.array([[0.5], [0.5], [0.5]])
        assert greedy_action(ctx, np.array([1.0])) == 0
        assert greedy_action(ctx, np.array([0.0])) == 0


class TestExactXstar:
    def test_two_action_binary_closed_form(self):
        for p in (0.2, 0.5, 0.75):
            for q in (0.3, 0.5, 0.9):
                spec = two_action_binary(p, q)
                up = exact_xstar(spec, np.array([1.0]))
                down = exact_xstar(spec, np.array([-1.0]))
                # E[max] = 1 - 2pq, E[min] = -1 + 2(1-p)(1-q)
                np.testing.assert_allclose(up, [1.0 - 2.0 * p * q], atol=1e-12)
                np.testing.assert_allclose(
                    down, [-1.0 + 2.0 * (1.0 - p) * (1.0 - q)], atol=1e-12
                )

    def test_zero_theta_plays_first_action(self):
        spec = two_action_binary(0.25, 0.5)
        out = exact_xstar(spec, np.array([0.0]))
        np.testing.assert_allclose(out, [0.5], atol=1e-12)  # E[X_0] = 1 - 2p

    def test_custom_discrete_enumeration(self):
        sup0 = np.array([[0.8], [-0.4]])
        pr0 = np.array([0.25, 0.75])
        sup1 = np.array([[0.1]])
        pr1 = np.array([1.0])
        spec = EnvironmentSpec(
            d=1, n_actions=2, theta_star=np.array([1.0]),
            context_model=CustomDiscrete(supports=(sup0, sup1), probs=(pr0, pr1)),
            noise_model=Bernoulli(), horizon=10,
        )
        out = exact_xstar(spec, np.array([1.0]))
        # max(0.8, 0.1) w.p. 0.25; max(-0.4, 0.1) w.p. 0.75
        np.testing.assert_allclose(out, [0.25 * 0.8 + 0.75 * 0.1], atol=1e-12)

    def test_gaussian_has_no_exact_table(self):
        from bitbandit.env import GaussianProjected

        spec = EnvironmentSpec(
            d=2, n_actions=2, theta_star=np.array([0.5, 0.5]),
            context_model=GaussianProjected(scales=(1.0, 1.0)),
            noise_model=Bernoulli(), horizon=10,
        )
        assert exact_xstar(spec, np.array([1.0, 0.0])) is None
        # a finite law whose joint support (2^16 per action, K=2) is too large
        big = EnvironmentSpec(
            d=16, n_actions=2, theta_star=np.full(16, 0.25),
            context_model=BinarySupport(p_minus=(0.3, 0.6)),
            noise_model=Bernoulli(), horizon=10,
        )
        assert exact_xstar(big, np.full(16, 0.25)) is None

    def test_monte_carlo_matches_exact(self):
        spec = two_action_binary(0.25, 0.6)
        rng = np.random.default_rng(42)
        exact = exact_xstar(spec, np.array([1.0]))
        mc = estimate_xstar(spec, np.array([1.0]), 50_000, rng)
        np.testing.assert_allclose(mc, exact, atol=0.02)


class TestActionMap:
    def test_exact_provenance_and_values(self):
        spec = two_action_binary(0.25, 0.5)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        assert amap.provenance == "exact-enumeration"
        np.testing.assert_allclose(amap.table, [[-0.25], [0.75]], atol=1e-12)

    def test_inverse_index_prefers_lowest_duplicate(self):
        spec = two_action_binary(0.25, 0.5)
        amap = build_action_map(spec, [[1.0], [0.5], [-1.0]])
        # any positive theta plays the pointwise max, so rows 0 and 1 coincide
        np.testing.assert_allclose(amap.table[0], amap.table[1])
        assert amap.inverse_index(1) == 0
        assert amap.inverse_index(2) == 2

    def test_monte_carlo_method_is_seed_deterministic(self):
        spec = two_action_binary(0.3, 0.7)
        a = build_action_map(spec, [[1.0]], method="monte-carlo",
                             n_samples=5_000, rng=np.random.default_rng(5))
        b = build_action_map(spec, [[1.0]], method="monte-carlo",
                             n_samples=5_000, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.table, b.table)
        assert "monte-carlo" in a.provenance

    def test_misspecify_displaces_rows_by_eps(self):
        spec = two_action_binary(0.25, 0.5)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        eps = 0.15
        pert = misspecify_xstar(amap, eps, np.random.default_rng(3))
        shifts = np.linalg.norm(pert.table - amap.table, axis=1)
        np.testing.assert_allclose(shifts, eps, atol=1e-12)
        np.testing.assert_array_equal(pert.thetas, amap.thetas)

    def test_misspecify_zero_eps_is_identity_copy(self):
        spec = two_action_binary(0.25, 0.5)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        pert = misspecify_xstar(amap, 0.0, np.random.default_rng(3))
        np.testing.assert_array_equal(pert.table, amap.table)
        assert pert.table is not amap.table

    def test_misspecify_rejects_negative_eps(self):
        spec = two_action_binary(0.25, 0.5)
        amap = build_action_map(spec, [[1.0]])
        with pytest.raises(ValueError):
            misspecify_xstar(amap, -0.1, np.random.default_rng(0))


class TestThetaNet:
    def test_d1_covers_both_ends(self):
        net = theta_net(1, 5)
        assert net.shape == (5, 1)
        assert net[0, 0] == -1.0 and net[-1, 0] == 1.0

    def test_points_stay_in_unit_ball(self):
        for d in (2, 3, 6):
            net = theta_net(d, 64)
            assert net.shape == (64, d)
            assert np.linalg.norm(net, axis=1).max() <= 1.0 + 1e-9

    def test_deterministic(self):
        np.testing.assert_array_equal(theta_net(3, 16), theta_net(3, 16))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theta_net(0, 4)
        with pytest.raises(ValueError):
            theta_net(2, 0)


class TestLinUcb:
    def test_select_update_must_alternate(self):
        policy = LinUcb(np.array([[1.0], [0.5]]))
        policy.select()
        with pytest.raises(RuntimeError):
            policy.select()
        policy.update(1.0)
        with pytest.raises(RuntimeError):
            policy.update(1.0)

    def test_first_pick_maximizes_width(self):
        # with V = I and b = 0 the UCB reduces to beta * |x|
        policy = LinUcb(np.array([[0.2], [-0.9], [0.5]]))
        assert policy.select() == 1

    def test_converges_on_clean_separated_menu(self):
        rng = np.random.default_rng(42)
        policy = LinUcb(np.array([[0.9], [-0.9]]))
        for _ in range(400):
            i = policy.select()
            mean = 0.9 if i == 0 else -0.9
            policy.update(mean + 0.1 * rng.standard_normal())
        assert policy.select() == 0

    def test_rejects_bad_ridge(self):
        with pytest.raises(ValueError):
            LinUcb(np.array([[1.0]]), lam=0.0)


class TestRunKnown:
    def test_one_bit_per_round_every_round(self):
        spec = two_action_binary(0.25, 0.5, horizon=500)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        trace = run_known(spec, amap, seed=0)
        assert len(trace) == 500
        assert set(trace.bits) == {1}

    def test_cumulative_regret_is_nondecreasing(self):
        spec = two_action_binary(0.25, 0.5, horizon=300)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        trace = run_known(spec, amap, seed=1)
        diffs = np.diff(np.concatenate([[0.0], trace.cum_regret]))
        assert np.all(diffs >= 0)

    def test_same_seed_reproduces_trace(self):
        spec = two_action_binary(0.3, 0.6, horizon=200)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        a = run_known(spec, amap, seed=7)
        b = run_known(spec, amap, seed=7)
        np.testing.assert_array_equal(a.inst_regret, b.inst_regret)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_learns_the_good_menu_entry(self):
        spec = two_action_binary(0.5, 0.5, horizon=2000)
        amap = build_action_map(spec, [[-1.0], [1.0]])
        trace = run_known(spec, amap, seed=0)
        # per-round regret far below the 0.5 of always playing the bad entry
        assert trace.total_regret / 2000 < 0.05


class TestNaiveBaseline:
    def test_one_bit_per_round(self):
        spec = two_action_binary(0.25, 0.5, horizon=200)
        trace = run_naive_baseline(spec, seed=0)
        assert set(trace.bits) == {1}

    def test_per_round_regret_converges_to_quarter(self):
        spec = two_action_binary(0.25, 0.5, horizon=4000)
        trace = run_naive_baseline(spec, seed=0)
        assert trace.total_regret / 4000 == pytest.approx(0.25, abs=0.03)
