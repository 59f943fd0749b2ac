"""The block engine of known.simulate against the scalar loop it replaced.

``scalar_simulate`` is that loop, kept here as an oracle: each round samples one
context set, plays, realizes the reward, sends it through the channel, feeds
the learner and books the regret, each through the per-round public function.
The engine must reproduce its traces and every (played context, reward) pair
exactly, over horizons that span several blocks and end mid-block.
"""

import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bitbandit.harness import load_config, run_experiment
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
    stacked = np.vecdot(sets, spec.theta_star)
    for ctx, scores in zip(sets, stacked):
        for a in range(spec.n_actions):
            trace = environment.regret_step(RegretTrace(0), ctx, spec.theta_star, a, bits=0)
            assert scores.max() - scores[a] == trace.inst_regret[0]


# --------------------------------------------------------------------------
# the engine against the oracle on random environments
# --------------------------------------------------------------------------

_GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])  # exactly representable: ties in scores
_KINDS = ("known", "naive_mean", "unknown", "full_precision")


class _Numbers:
    """The numbers of a drawn case, from a generator whose seed hypothesis draws: it
    draws the case's shape (dimension, law, kind, horizon) and this fills it in."""

    def __init__(self, seed: int, d: int):
        self.rng, self.d = np.random.default_rng(seed), d

    def vectors(self, count: int) -> np.ndarray:
        """``count`` vectors of norm <= 1, each with its entries all on _GRID or all
        uniform in [-1, 1], over sqrt(d)."""
        shape = (count, self.d)
        on_grid = self.rng.random((count, 1)) < 0.5
        rows = np.where(on_grid, self.rng.choice(_GRID, shape), self.rng.uniform(-1, 1, shape))
        return rows / self.d ** 0.5

    def context_law(self, law: str, k: int):
        if law == "gaussian_projected":
            return GaussianProjected(tuple(self.rng.choice([0.0, 0.05, 0.5, 3.0], k).tolist()))
        if law == "binary_support":
            return BinarySupport(tuple(self.rng.choice([0.0, 0.3, 0.5, 1.0], k).tolist()))
        # atoms picked from a vector and two of its permutations, whose scores tie
        # under a theta of equal entries but may round apart; picks repeat atoms
        base = self.vectors(1)[0]
        pool = np.array([base, base[::-1], np.roll(base, 1)])
        picks = [self.rng.integers(0, 3, self.rng.integers(1, 5)) for _ in range(k)]
        weights = [self.rng.integers(1, 5, len(p)).astype(float) for p in picks]
        return CustomDiscrete(supports=tuple(pool[p] for p in picks),
                              probs=tuple(w / w.sum() for w in weights))

    def action_map(self) -> known.ActionMap:
        """A menu of 1 to 5 rows from small pools, so thetas and table rows repeat;
        one pooled theta has equal entries.  The table need not be the thetas' xstar."""
        level = self.rng.choice(_GRID) / self.d ** 0.5
        thetas = np.vstack([self.vectors(2), np.full((1, self.d), level)])
        n = self.rng.integers(1, 6)
        return known.ActionMap(thetas[self.rng.integers(0, 3, n)],
                               self.vectors(2)[self.rng.integers(0, 2, n)], "drawn")


@st.composite
def _cases(draw):
    """A spec, a kind, its menu when it has one, a seed and a _BLOCK_VALUES.  A horizon
    of up to 120 rounds crosses many blocks of a few rounds and ends inside most."""
    d = draw(st.sampled_from((*range(1, 9), 16, 64)))
    k = draw(st.sampled_from(range(1, 7)))
    law = draw(st.sampled_from(sorted(environment.CONTEXT_LAWS)))
    sigma = draw(st.sampled_from((None, 0.0, 0.05, 0.3, 1.0)))
    kind = draw(st.sampled_from(_KINDS))
    block_values = draw(st.sampled_from((1, 37, 8192)))
    numbers = _Numbers(draw(st.integers(0, 2 ** 32 - 1)), d)
    spec = EnvironmentSpec(d=d, n_actions=k, theta_star=numbers.vectors(1)[0],
                           context_model=numbers.context_law(law, k),
                           noise_model=Bernoulli() if sigma is None else TruncatedGaussian(sigma),
                           horizon=draw(st.integers(1, 120)))
    amap = numbers.action_map() if kind == "known" else None
    return spec, kind, amap, draw(st.integers(0, 2 ** 32 - 1)), block_values


def _kind_run(spec, kind, amap, seed):
    return {"known": lambda: run_known(spec, amap, seed),
            "naive_mean": lambda: run_naive_baseline(spec, seed),
            "unknown": lambda: run_unknown(spec, seed),
            "full_precision": lambda: run_full_precision(spec, seed)}[kind]


def _plain(received) -> list:
    """A learner's arguments as comparable values: each with its type, arrays as lists."""
    return [(str(a.dtype), a.tolist()) if isinstance(a, np.ndarray) else (type(a), a)
            for a in received]


def _trace_bytes(trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        trace.write_csv(path)
        with open(path, "rb") as fh:
            return fh.read()


def _fed(run):
    """``run()`` on the engine and on the oracle: each gives its trace's CSV bytes and
    the arguments of every learn call, in order."""
    out = []
    for loop in (known.simulate, scalar_simulate):
        fed = []

        def tapped(spec, seed, broadcast, channel, learn, menu=None, loop=loop, fed=fed):
            def tap(*received):
                fed.append(_plain(received))
                return learn(*received)
            return loop(spec, seed, broadcast, channel, tap, menu)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(known, "simulate", tapped)
            mp.setattr(unknown, "simulate", tapped)
            out.append((_trace_bytes(run()), fed))
    return out


def test_properties_run_derandomized():
    assert settings().derandomize and settings().database is None


@settings(max_examples=300)
@given(_cases())
def test_engine_matches_scalar_oracle_on_random_environments(case):
    spec, kind, amap, seed, block_values = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(known, "_BLOCK_VALUES", block_values)
        (engine, engine_fed), (oracle, oracle_fed) = _fed(_kind_run(spec, kind, amap, seed))
    assert len(engine_fed) == len(oracle_fed) == spec.horizon
    assert engine == oracle
    assert engine_fed == oracle_fed


_CONFIGS = sorted(Path(__file__).resolve().parent.parent.joinpath("configs").glob("*.yaml"))


@pytest.mark.parametrize("path", _CONFIGS, ids=[path.stem for path in _CONFIGS])
def test_outputs_do_not_depend_on_the_block_size(path, tmp_path, monkeypatch):
    """Each shipped config, on its first 2 seeds and at most 1000 rounds, writes the
    same trace and summary bytes at _BLOCK_VALUES = 1, 37 and 8192."""
    cfg = load_config(path)
    cfg.seeds = cfg.seeds[:2]
    cfg.spec = dataclasses.replace(cfg.spec, horizon=min(cfg.spec.horizon, 1000))
    written = []
    for block_values in (1, 37, 8192):
        monkeypatch.setattr(known, "_BLOCK_VALUES", block_values)
        cfg.output_dir = str(tmp_path / str(block_values))
        result = run_experiment(cfg)
        paths = [*result.trace_paths, result.summary_path]
        written.append([Path(p).read_bytes() for p in paths])
    assert written[0] == written[1] == written[2]
