"""The block engine of known.simulate against the scalar loop it replaced.

``scalar_simulate`` is that loop, kept here as an oracle: each round samples one
context set, plays, realizes the reward, sends it through the channel, feeds
the learner and books the regret, each through the per-round public function.
The engine must reproduce its traces and every (played context, reward) pair
exactly, over horizons that span several blocks and end mid-block.
"""

import numpy as np
import pytest

from bitbandit import env as environment
from bitbandit import known, unknown
from bitbandit.env import (
    Bernoulli,
    BinarySupport,
    CustomDiscrete,
    EnvironmentSpec,
    GaussianProjected,
    RegretTrace,
    TruncatedGaussian,
)
from bitbandit.known import build_action_map, run_known, run_naive_baseline
from bitbandit.unknown import run_full_precision, run_unknown


def scalar_simulate(spec, seed, broadcast, channel, learn, menu=None):
    """known.simulate's contract, one round and one stream call at a time: a menu
    entry is played through greedy_action each round, never from a block table."""
    env_rng, quant_rng = known.seed_streams(seed)
    trace = RegretTrace(seed)
    for _ in range(spec.horizon):
        order = broadcast()
        entry = order if menu is None else menu[order]
        ctx = environment.sample_context(spec, env_rng)
        action = entry if isinstance(entry, int) else known.greedy_action(ctx, entry)
        r = environment.realize_reward(spec, ctx[action], env_rng)
        (q,) = channel.rows(quant_rng, 1, spec.d)
        received, bits = channel.send(ctx[action], r, q)
        learn(*received)
        environment.regret_step(trace, ctx, spec.theta_star, action, bits=bits)
    return trace


def _horizon(spec_kw) -> int:
    """Three whole blocks and part of a fourth."""
    block = max(1, known._BLOCK_VALUES // (spec_kw["n_actions"] * spec_kw["d"]))
    return 3 * block + block // 3 + 1


def _spec(**kw) -> EnvironmentSpec:
    return EnvironmentSpec(horizon=_horizon(kw), **kw)


def _binary_spec():
    return _spec(d=7, n_actions=2, theta_star=np.full(7, 0.3),
                 context_model=BinarySupport(p_minus=(0.3, 0.6)), noise_model=Bernoulli())


def _custom_spec():
    return _spec(d=2, n_actions=3, theta_star=np.array([0.7, -0.4]),
                 context_model=CustomDiscrete(
                     supports=(np.array([[0.61, 0.13], [-0.07, 0.83], [-0.52, -0.47]]),
                               np.array([[0.33, -0.58], [-0.71, 0.12]]),
                               np.array([[0.88, 0.05], [0.04, -0.91], [-0.42, 0.63]])),
                     probs=(np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.6]),
                            np.array([0.2, 0.3, 0.5]))),
                 noise_model=TruncatedGaussian(sigma=0.25))


def _gauss_spec(noise, d=5):
    return _spec(d=d, n_actions=10, theta_star=np.full(d, 0.4 * (5 / d) ** 0.5),
                 context_model=GaussianProjected(scales=(0.5,) * 10), noise_model=noise)


def _runs(monkeypatch, run):
    """``run()`` on the engine and on the oracle: each gives (trace, rounds seen),
    a round being the played context and the reward the channel was handed."""
    out = []
    for loop in (known.simulate, scalar_simulate):
        seen = []

        def tapped(spec, seed, broadcast, channel, learn, menu=None, loop=loop, seen=seen):
            def tap(x, r, q):
                seen.append((x.tolist(), r))
                return channel.send(x, r, q)
            return loop(spec, seed, broadcast, channel._replace(send=tap), learn, menu)

        monkeypatch.setattr(known, "simulate", tapped)
        monkeypatch.setattr(unknown, "simulate", tapped)
        out.append((run(), seen))
    return out


def _known_run(spec):
    grid = np.vstack([spec.theta_star, np.random.default_rng(3).uniform(-0.5, 0.5, (5, spec.d))])
    amap = build_action_map(spec, grid)
    return lambda: run_known(spec, amap, seed=21)


@pytest.mark.parametrize("case", ["known_binary", "known_custom", "naive_mean",
                                  "unknown", "full_precision_truncated"])
def test_engine_matches_scalar_oracle(case, monkeypatch):
    run = {
        "known_binary": lambda: _known_run(_binary_spec()),
        "known_custom": lambda: _known_run(_custom_spec()),
        "naive_mean": lambda: lambda: run_naive_baseline(_binary_spec(), seed=4),
        "unknown": lambda: lambda: run_unknown(_gauss_spec(Bernoulli()), seed=9),
        # rewards reach the learner unrounded: the case where a mean reward
        # read from the block's stacked scores instead of np.dot would show
        "full_precision_truncated": lambda: lambda: run_full_precision(
            _gauss_spec(TruncatedGaussian(sigma=0.2)), seed=6),
    }[case]()
    (engine, engine_seen), (oracle, oracle_seen) = _runs(monkeypatch, run)
    assert len(engine) == len(oracle)
    assert engine.inst_regret.tolist() == oracle.inst_regret.tolist()
    assert engine.cum_regret.tolist() == oracle.cum_regret.tolist()
    assert engine.bits.tolist() == oracle.bits.tolist()
    assert engine_seen == oracle_seen


@pytest.mark.parametrize("spec", [_binary_spec(), _custom_spec(), _gauss_spec(Bernoulli()),
                                  _gauss_spec(Bernoulli(), d=64)],
                         ids=["binary", "custom", "gaussian", "gaussian_d64"])
def test_rounds_draw_as_per_round_calls_do(spec):
    n = _horizon({"d": spec.d, "n_actions": spec.n_actions})
    block_rng, round_rng = np.random.default_rng(77), np.random.default_rng(77)
    sets, uniforms = environment.sample_rounds(spec, n, block_rng)
    one_by_one = [(environment.sample_context(spec, round_rng), round_rng.random())
                  for _ in range(n)]
    assert block_rng.bit_generator.state == round_rng.bit_generator.state
    np.testing.assert_array_equal(sets, np.array([ctx for ctx, _ in one_by_one]))
    assert uniforms.tolist() == [u for _, u in one_by_one]


@pytest.mark.parametrize("d", [1, 5, 64])
def test_quantizer_rows_draw_as_per_round_calls_do(d):
    """A block of channel rows equals each round's own draws: quantize_context's
    random(2d) then the reward bit's random() for the lattice, one random() for the
    one-bit channel, nothing for the exact channel."""
    n = 300
    for channel, one_round in (
            (unknown.lattice_channel, lambda rng: rng.random(2 * d).tolist() + [rng.random()]),
            (known.one_bit_channel, lambda rng: rng.random()),
            (unknown.exact_channel, lambda rng: None)):
        block_rng, round_rng = np.random.default_rng(31), np.random.default_rng(31)
        rows = [row.tolist() if isinstance(row, np.ndarray) else row
                for row in channel.rows(block_rng, n, d)]
        assert rows == [one_round(round_rng) for _ in range(n)]
        assert block_rng.bit_generator.state == round_rng.bit_generator.state


def test_block_scores_equal_per_set_regret():
    spec = _gauss_spec(Bernoulli())
    sets, _ = environment.sample_rounds(spec, 500, np.random.default_rng(5))
    stacked = sets @ spec.theta_star
    for ctx, scores in zip(sets, stacked):
        for a in range(spec.n_actions):
            assert scores.max() - scores[a] == environment.regret_gap(ctx, spec.theta_star, a)
