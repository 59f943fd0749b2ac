"""Tests for the known-distribution learner: xstar tables, LinUCB, simulation."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitbandit import known
from bitbandit.codec import BitBuffer, decode_known, encode_known
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
from bitbandit.quantizer import StochasticQuantizer


def two_action_binary(p, q, horizon=1000):
    return EnvironmentSpec(
        d=1, n_actions=2, theta_star=np.array([1.0]),
        context_model=BinarySupport(p_minus=(p, q)),
        noise_model=Bernoulli(), horizon=horizon,
    )


def brute_force_xstar(spec, theta):
    """E[greedy-played context] by walking the joint support of all actions,
    one greedy_action call per combination of atoms."""
    cm = spec.context_model
    if isinstance(cm, BinarySupport):
        coords = np.array([1.0, -1.0]) / math.sqrt(spec.d)
        vecs = np.array(list(itertools.product(coords, repeat=spec.d)))
        laws = [(vecs, [math.prod(p if c < 0 else 1.0 - p for c in v) for v in vecs])
                for p in cm.p_minus]
    else:
        laws = list(zip(cm.supports, cm.probs))
    acc = np.zeros(spec.d)
    for combo in itertools.product(*(range(len(probs)) for _, probs in laws)):
        ctx = np.array([laws[a][0][i] for a, i in enumerate(combo)])
        prob = math.prod(laws[a][1][i] for a, i in enumerate(combo))
        acc += prob * ctx[greedy_action(ctx, theta)]
    return acc


@st.composite
def tie_prone_laws(draw):
    """A small finite law (binary or custom, K = 1..3) and a theta that makes
    exact score ties likely: proportional to 1, zero, or small integers."""
    K = draw(st.integers(1, 3))
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        law = BinarySupport(p_minus=tuple(draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]), min_size=K, max_size=K))))
    else:  # atoms on a coarse grid repeat; zero weights give zero-probability atoms
        d = draw(st.integers(1, 6))
        supports, probs = [], []
        for _ in range(K):
            n = draw(st.integers(1, 5))
            atoms = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                  min_size=n, max_size=n))
            weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
            supports.append(np.array(atoms, dtype=float) / (2.0 * math.sqrt(d)))
            probs.append(np.array(weights, dtype=float) / sum(weights))
        law = CustomDiscrete(supports=tuple(supports), probs=tuple(probs))
    kind = draw(st.sampled_from(["ones", "zero", "integers"]))
    if kind == "ones":
        theta = np.full(d, draw(st.floats(-1.0, 1.0, allow_subnormal=False)))
    elif kind == "zero":
        theta = np.zeros(d)
    else:
        theta = np.array(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)),
                         dtype=float)
    spec = EnvironmentSpec(d=d, n_actions=K, theta_star=np.zeros(d), context_model=law,
                           noise_model=Bernoulli(), horizon=10)
    return spec, theta


class TestGreedyAction:
    def test_picks_highest_score(self):
        ctx = np.array([[0.1, 0.0], [0.5, 0.5], [-0.9, 0.0]])
        assert greedy_action(ctx, np.array([1.0, 0.0])) == 1

    def test_ties_break_to_lowest_index(self):
        ctx = np.array([[0.5], [0.5], [0.5]])
        assert greedy_action(ctx, np.array([1.0])) == 0
        assert greedy_action(ctx, np.array([0.0])) == 0
        rng = np.random.default_rng(0)
        for _ in range(50):  # a product (K, d) @ theta plays row 2 of several of these
            ctx = rng.uniform(-1.0, 1.0, (3, 16)) / 4.0
            ctx[2] = ctx[0]
            assert greedy_action(ctx, rng.uniform(-1.0, 1.0, 16) / 4.0) != 2


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

    @settings(max_examples=300)
    @given(tie_prone_laws())
    def test_matches_joint_enumeration(self, case):
        spec, theta = case
        np.testing.assert_allclose(exact_xstar(spec, theta), brute_force_xstar(spec, theta),
                                   rtol=0, atol=1e-12)

    def test_ties_break_as_the_agent_rounds(self):
        # one atom per action, so xstar is the atom greedy_action picks; the two
        # scores tie on paper and only the rounding of the agent's product decides
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            v = rng.integers(-2, 3, d) / (2.0 * math.sqrt(d))
            ctx = np.array([v, v[::-1]])
            spec = EnvironmentSpec(
                d=d, n_actions=2, theta_star=np.zeros(d),
                context_model=CustomDiscrete(supports=(ctx[:1], ctx[1:]),
                                             probs=(np.ones(1), np.ones(1))),
                noise_model=Bernoulli(), horizon=10,
            )
            theta = np.full(d, rng.uniform(0.05, 1.0))
            np.testing.assert_array_equal(exact_xstar(spec, theta),
                                          ctx[greedy_action(ctx, theta)])

    def test_binary_d16_is_exact_under_auto(self):
        d = 16
        spec = EnvironmentSpec(
            d=d, n_actions=2, theta_star=np.full(d, 0.25),
            context_model=BinarySupport(p_minus=(0.3, 0.6)),
            noise_model=Bernoulli(), horizon=10,
        )
        theta = np.random.default_rng(16).standard_normal(d)
        amap = build_action_map(spec, [theta])  # no rng: a Monte-Carlo fallback raises
        assert amap.provenance == "exact-enumeration"
        mc = estimate_xstar(spec, theta, 100_000, np.random.default_rng(17))
        np.testing.assert_allclose(amap.table[0], mc, atol=0.01)

    def test_gaussian_has_no_exact_table(self):
        from bitbandit.env import GaussianProjected

        spec = EnvironmentSpec(
            d=2, n_actions=2, theta_star=np.array([0.5, 0.5]),
            context_model=GaussianProjected(scales=(1.0, 1.0)),
            noise_model=Bernoulli(), horizon=10,
        )
        assert exact_xstar(spec, np.array([1.0, 0.0])) is None
        # a finite law with too many atoms per action (2^17 > 2^16)
        big = EnvironmentSpec(
            d=17, n_actions=2, theta_star=np.full(17, 0.2),
            context_model=BinarySupport(p_minus=(0.3, 0.6)),
            noise_model=Bernoulli(), horizon=10,
        )
        assert exact_xstar(big, np.full(17, 0.2)) is None

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

    def test_exact_method_names_why_it_is_unavailable(self):
        from bitbandit.env import GaussianProjected

        spec = EnvironmentSpec(
            d=2, n_actions=2, theta_star=np.array([0.5, 0.5]),
            context_model=GaussianProjected(scales=(1.0, 1.0)),
            noise_model=Bernoulli(), horizon=10,
        )
        with pytest.raises(ValueError, match="no finite support"):
            build_action_map(spec, [[1.0, 0.0]], method="exact")

    def test_monte_carlo_method_is_seed_deterministic(self):
        spec = two_action_binary(0.3, 0.7)
        a = build_action_map(spec, [[1.0]], method="monte-carlo",
                             n_samples=5_000, rng=np.random.default_rng(5))
        b = build_action_map(spec, [[1.0]], method="monte-carlo",
                             n_samples=5_000, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.table, b.table)
        assert "monte-carlo" in a.provenance

    def test_rows_of_thetas_and_table_must_match(self):
        with pytest.raises(ValueError, match="matching"):
            known.ActionMap(thetas=[[1.0]], table=[[1.0, 0.0]], provenance="test")

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"method": "fast"}, "unknown xstar method 'fast'"),
        ({"method": "monte-carlo"}, "Monte-Carlo xstar needs an rng"),
    ])
    def test_build_rejects_a_method_it_cannot_run(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            build_action_map(two_action_binary(0.25, 0.5), [[1.0]], **kwargs)

    def test_estimate_needs_a_sample(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            estimate_xstar(two_action_binary(0.25, 0.5), [1.0], n_samples=0,
                           rng=np.random.default_rng(0))

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_misspecify_rejects_non_finite_eps(self, eps):
        amap = build_action_map(two_action_binary(0.25, 0.5), [[1.0]])
        with pytest.raises(ValueError, match=f"^eps must be a number, got {eps}$"):
            misspecify_xstar(amap, eps, np.random.default_rng(0))

    def test_theta_rows_of_another_length_name_both_lengths(self):
        spec = EnvironmentSpec(d=3, n_actions=2, theta_star=np.full(3, 0.5),
                               context_model=BinarySupport(p_minus=(0.3, 0.6)),
                               noise_model=Bernoulli(), horizon=10)
        with pytest.raises(ValueError, match=r"length d=3, got shape \(4, 2\)"):
            build_action_map(spec, np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"length d=3, got shape \(2,\)"):
            exact_xstar(spec, np.zeros(2))

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

    def test_never_selects_the_higher_of_duplicate_rows(self):
        spec = two_action_binary(0.25, 0.5)
        amap = build_action_map(spec, [[1.0], [0.5], [-1.0]])
        # any positive theta plays the pointwise max, so rows 0 and 1 coincide
        np.testing.assert_array_equal(amap.table[0], amap.table[1])
        menus = [amap.table]
        rng = np.random.default_rng(0)
        for _ in range(200):  # random menus whose later rows copy earlier ones
            n, d = int(rng.integers(2, 20)), int(rng.integers(1, 9))
            menu = 0.3 * rng.standard_normal((n, d))
            for _ in range(int(rng.integers(1, n))):
                i, j = sorted(rng.integers(0, n, 2))
                menu[j] = menu[i]
            menus.append(menu)
        for menu in menus:
            first = [next(j for j in range(len(menu)) if np.array_equal(menu[j], row))
                     for row in menu]
            theta = 0.3 * rng.standard_normal(menu.shape[1])
            policy = LinUcb(menu)
            for _ in range(50):
                i = policy.select()
                assert i == first[i]
                policy.update(menu[i] @ theta + 0.1 * rng.standard_normal())

    @pytest.mark.parametrize("menu, shape", [([], "(1, 0)"), ([[]], "(1, 0)"),
                                             (np.zeros((0, 3)), "(0, 3)"),
                                             (np.zeros((2, 2, 2)), "(2, 2, 2)")])
    def test_rejects_a_menu_without_rows_or_columns(self, menu, shape):
        with pytest.raises(ValueError, match=rf"need at least one action, .*{re.escape(shape)}"):
            LinUcb(menu)

    def test_rejects_bad_ridge(self):
        with pytest.raises(ValueError):
            LinUcb(np.array([[1.0]]), lam=0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_ridge(self, lam):
        with pytest.raises(ValueError, match=f"got {lam}"):
            LinUcb(np.array([[1.0]]), lam=lam)

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_reward(self, reward):
        policy = LinUcb(np.array([[1.0], [0.5]]))
        policy.select()
        with pytest.raises(ValueError, match=f"got {reward}"):
            policy.update(reward)
        np.testing.assert_array_equal(policy.b, [0.0])

    def test_nan_index_raises_naming_the_round(self):
        # an infinite row times theta = 0 is NaN: argmax would pick it silently
        policy = LinUcb(np.array([[np.inf], [1.0]]))
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                          match="round 1"):
            policy.select()

    def test_infinite_widths_pick_the_lowest_index(self):
        policy = LinUcb(np.array([[1e200], [2e200]]))  # both widths overflow to inf
        assert policy.select() == 0

    def test_a_large_menu_updates_as_a_tabulated_one(self, monkeypatch):
        """Past _OUTER_VALUES update() forms each x x^T itself, to the same bits."""
        menu = theta_net(5, 40)
        rewards = np.random.default_rng(3).choice([-1.0, 1.0], 60).tolist()
        runs = []
        for limit in (known._OUTER_VALUES, 0):
            monkeypatch.setattr(known, "_OUTER_VALUES", limit)
            policy = LinUcb(menu)
            picks = []
            for r in rewards:
                picks.append(policy.select())
                policy.update(r)
            runs.append((picks, policy.V.tobytes(), policy.b.tobytes()))
        assert runs[0] == runs[1]

    @settings(max_examples=200)
    @given(st.integers(1, 64), st.integers(1, 32), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_solves_equal_the_public_solve_bit_for_bit(self, d, n, seed, duplicates):
        """theta and the widths, byte for byte as select computed them with
        np.linalg.solve, on V = lam I + sum x x^T as the updates build it."""
        rng = np.random.default_rng(seed)
        menu = rng.uniform(-1.0, 1.0, (n, d)) / math.sqrt(d)
        if duplicates and n > 1:
            menu[rng.integers(1, n, n // 2)] = menu[0]
        policy = LinUcb(menu, lam=float(rng.uniform(0.1, 2.0)))
        for x in rng.uniform(-1.0, 1.0, (int(rng.integers(0, 3 * d)), d)) / math.sqrt(d):
            policy.V += x[:, None] * x
            policy.b += rng.choice([-1.0, 1.0]) * x
        theta, widths = policy._estimate()
        ref_theta = np.linalg.solve(policy.V, policy.b)
        ref_widths = np.sqrt(np.einsum("nd,dn->n", menu, np.linalg.solve(policy.V, menu.T)))
        assert theta.tobytes() == ref_theta.tobytes()
        assert widths.tobytes() == ref_widths.tobytes()

    def test_einsum_kernel_is_the_one_np_einsum_calls(self):
        from numpy._core import einsumfunc
        assert known.c_einsum is einsumfunc.c_einsum, \
            "numpy._core.multiarray.c_einsum, which LinUcb.select calls directly, moved"

    @settings(max_examples=200)
    @given(st.integers(1, 64), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_vecdot_equals_each_rows_own_dot(self, d, k, seed):
        """Every score is np.vecdot's, of a block's sets, one set or a menu; mean_reward
        computes a row's with np.dot of that row alone.  Copies of a row score alike
        wherever they sit, in a buffer offset by one element too."""
        rng = np.random.default_rng(seed)
        sets = rng.uniform(-1.0, 1.0, (64, k, d)) / math.sqrt(d)
        theta = rng.uniform(-1.0, 1.0, d) / math.sqrt(d)
        rows = np.array([[np.dot(x, theta) for x in ctx] for ctx in sets])
        assert np.vecdot(sets, theta).tobytes() == rows.tobytes()
        shifted = np.empty(64 * k * d + 1)[1:].reshape(64 * k, d)
        shifted[:] = sets.reshape(-1, d)
        copies = rng.integers(0, 64 * k, int(rng.integers(2, 16)))
        shifted[copies] = shifted[copies[0]]
        scores = np.vecdot(shifted, theta)
        assert len({scores[i].tobytes() for i in copies}) == 1
        assert np.vecdot(shifted.reshape(64, k, d), theta).tobytes() == scores.tobytes()

    def test_solve_gufuncs_are_where_numpy_keeps_them(self):
        solve, solve1 = known._umath_linalg.solve, known._umath_linalg.solve1
        where = ("numpy.linalg._umath_linalg, which LinUcb.select and "
                 "unknown._lu_solve call directly,")
        assert solve.signature == "(m,m),(m,n)->(m,n)", f"{where} moved solve"
        assert solve1.signature == "(m,m),(m)->(m)", f"{where} moved solve1"
        assert "dd->d" in solve.types and "dd->d" in solve1.types, f"{where} lost dd->d"


class TestOneBitChannel:
    def test_frames_are_the_codec_bytes_and_parse_back(self):
        assert known._ONE_BIT_WIRE == (((0,), 1), ((1,), 1))
        for bit, frame in enumerate((b"\x00", b"\x80")):
            assert encode_known(bit).to_bytes() == frame
            assert decode_known(BitBuffer.from_bytes(frame, 1)) == bit
            (received,), bits = known._ONE_BIT_WIRE[bit]
            assert type(received) is int and bits == 1

    def test_one_draw_per_round_as_the_reward_bit(self):
        rewards = np.random.default_rng(5).random(500)
        block, ref = np.random.default_rng(8), np.random.default_rng(8)
        rows = known.one_bit_channel.rows(block, len(rewards), 7)
        for r, u in zip(rewards.tolist(), rows):
            bit = StochasticQuantizer(1, 0.0, 1.0).encode(r, ref)
            assert known.one_bit_channel.send(None, r, u) == ((bit,), 1)
        assert block.random() == ref.random()


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
