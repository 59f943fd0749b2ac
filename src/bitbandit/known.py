"""Learner/agent pair for the known-context-distribution setting.

The learner never sees contexts.  It runs an index bandit over the finite
menu ``X = {xstar(theta) : theta in Theta}``, where ``xstar(theta)`` is the
mean of the greedy-played context under parameter ``theta``.  Each round it
broadcasts the ``theta`` whose menu entry it wants probed; the agent plays
greedily under that ``theta`` and uplinks a single stochastically-rounded
reward bit.  Uplink cost: 1 bit per round, 0 bits per context.

:func:`simulate` is the one per-round loop of every algorithm: an agent, a
channel (one-bit here; lattice and exact in :mod:`bitbandit.unknown`) and a
learner (LinUCB here; least squares in :mod:`bitbandit.unknown`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import env as environment
from .codec import BitBuffer, KnownMessage, decode_known, encode_known
from .env import EnvironmentSpec, RegretTrace, regret_step
from .quantizer import StochasticQuantizer

__all__ = [
    "greedy_action",
    "exact_xstar",
    "estimate_xstar",
    "ActionMap",
    "build_action_map",
    "misspecify_xstar",
    "theta_net",
    "LinUcb",
    "one_bit_channel",
    "simulate",
    "run_known",
    "run_naive_baseline",
]

_REWARD_BIT = StochasticQuantizer(1, 0.0, 1.0)
_ENUM_LIMIT = 1 << 16  # max joint-support size for exact expectations


def greedy_action(context_set: np.ndarray, theta: np.ndarray) -> int:
    """Index of the action maximizing <X_a, theta>; lowest index on ties."""
    return int(np.argmax(context_set @ theta))


# --------------------------------------------------------------------------
# xstar tables
# --------------------------------------------------------------------------

def _finite_supports(spec: EnvironmentSpec):
    """Per-action (vectors, probs) lists when the context law is finite and its
    joint support, checked before any is built, has at most _ENUM_LIMIT points."""
    cm = spec.context_model
    if isinstance(cm, environment.BinarySupport):
        if 2 ** (spec.d * spec.n_actions) > _ENUM_LIMIT:
            return None
        coords = np.array([1.0, -1.0]) / math.sqrt(spec.d)
        out = []
        for p in cm.p_minus:
            vecs = np.array(list(itertools.product(coords, repeat=spec.d)))
            probs = np.array(
                [np.prod([(p if c < 0 else 1.0 - p) for c in v]) for v in vecs]
            )
            out.append((vecs, probs))
        return out
    if isinstance(cm, environment.CustomDiscrete):
        if math.prod(len(pr) for pr in cm.probs) > _ENUM_LIMIT:
            return None
        return [
            (np.asarray(sup, dtype=float), np.asarray(pr, dtype=float))
            for sup, pr in zip(cm.supports, cm.probs)
        ]
    return None


def exact_xstar(spec: EnvironmentSpec, theta: np.ndarray) -> np.ndarray | None:
    """E[greedy-played context] by exact enumeration of finite supports.

    Returns None when the joint support is not finite (or too large to
    enumerate), in which case a Monte-Carlo estimate must be used.
    """
    supports = _finite_supports(spec)
    if supports is None:
        return None
    sizes = [len(p) for _, p in supports]
    theta = np.asarray(theta, dtype=float)
    acc = np.zeros(spec.d)
    for combo in itertools.product(*[range(s) for s in sizes]):
        prob = 1.0
        ctx = np.empty((spec.n_actions, spec.d))
        for a, idx in enumerate(combo):
            vecs, probs = supports[a]
            prob *= probs[idx]
            ctx[a] = vecs[idx]
        if prob > 0.0:
            acc += prob * ctx[greedy_action(ctx, theta)]
    return acc


def estimate_xstar(spec: EnvironmentSpec, theta: np.ndarray, n_samples: int,
                   rng: np.random.Generator, chunk: int = 20_000) -> np.ndarray:
    """Monte-Carlo estimate of E[greedy-played context] from n_samples draws."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    theta = np.asarray(theta, dtype=float)
    acc = np.zeros(spec.d)
    left = n_samples
    while left > 0:
        n = min(left, chunk)
        ctx = environment.sample_contexts(spec, n, rng)  # (n, K, d)
        picks = np.argmax(ctx @ theta, axis=1)
        acc += ctx[np.arange(n), picks].sum(axis=0)
        left -= n
    return acc / n_samples


@dataclass
class ActionMap:
    """Menu of learner actions: theta grid, xstar table, and the inverse map."""

    thetas: np.ndarray      # (n, d) candidate parameters
    table: np.ndarray       # (n, d) xstar(theta) per candidate
    provenance: str         # how the table was computed

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        self.table = np.atleast_2d(np.asarray(self.table, dtype=float))
        if self.thetas.shape != self.table.shape or self.thetas.shape[0] < 1:
            raise ValueError("thetas and table must be matching (n, d) arrays")
        self._first_index = {}
        for i, row in enumerate(self.table):
            self._first_index.setdefault(row.tobytes(), i)

    def __len__(self) -> int:
        return self.table.shape[0]

    def inverse_index(self, i: int) -> int:
        """Lowest index whose table row equals row i (identity when rows are unique)."""
        return self._first_index[self.table[i].tobytes()]


def build_action_map(spec: EnvironmentSpec, thetas, method: str = "auto",
                     n_samples: int = 100_000,
                     rng: np.random.Generator | None = None) -> ActionMap:
    """Tabulate xstar over a theta grid, exactly when the law is finite."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if method not in ("auto", "exact", "monte-carlo"):
        raise ValueError(f"unknown xstar method {method!r}")
    rows, how = [], None
    for theta in thetas:
        row = exact_xstar(spec, theta) if method in ("auto", "exact") else None
        if row is None:
            if method == "exact":
                raise ValueError("exact xstar unavailable for this context model")
            if rng is None:
                raise ValueError("Monte-Carlo xstar needs an rng")
            row = estimate_xstar(spec, theta, n_samples, rng)
            how = f"monte-carlo(n={n_samples})"
        else:
            how = how or "exact-enumeration"
        rows.append(row)
    return ActionMap(thetas=thetas, table=np.array(rows), provenance=how)


def misspecify_xstar(amap: ActionMap, eps: float, rng: np.random.Generator) -> ActionMap:
    """Displace every table entry by exactly eps in a random direction."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps == 0.0:
        return ActionMap(amap.thetas.copy(), amap.table.copy(), amap.provenance)
    dirs = rng.standard_normal(amap.table.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return ActionMap(
        thetas=amap.thetas.copy(),
        table=amap.table + eps * dirs,
        provenance=f"{amap.provenance} + misspec(eps={eps})",
    )


def theta_net(d: int, n: int) -> np.ndarray:
    """Deterministic low-discrepancy net of n points in the d-dimensional unit ball."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if d == 1:
        return np.linspace(-1.0, 1.0, n).reshape(-1, 1)
    normal = NormalDist()
    cols = [_van_der_corput(n, p) for p in _first_primes(d + 1)]
    radius = cols[0] ** (1.0 / d)
    gauss = np.array([[normal.inv_cdf(u) for u in col] for col in cols[1:]]).T
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    return gauss * radius[:, None]


def _van_der_corput(n: int, base: int) -> np.ndarray:
    out = np.empty(n)
    for i in range(n):
        k, f, x = i + 1, 1.0, 0.0
        while k:
            f /= base
            k, rem = divmod(k, base)
            x += f * rem
        out[i] = x
    return out


def _first_primes(n: int) -> list[int]:
    primes, cand = [], 2
    while len(primes) < n:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


# --------------------------------------------------------------------------
# index bandit over the xstar menu
# --------------------------------------------------------------------------

class LinUcb:
    """Ridge-regression UCB over a fixed finite set of feature vectors.

    select() and update() must alternate strictly, one pair per round.
    """

    def __init__(self, actions, lam: float = 1.0):
        self.actions = np.atleast_2d(np.asarray(actions, dtype=float))
        if self.actions.shape[0] < 1:
            raise ValueError("need at least one action")
        self.n, self.d = self.actions.shape
        if lam <= 0:
            raise ValueError(f"ridge parameter must be positive, got {lam}")
        self.lam = lam
        self.V = lam * np.eye(self.d)
        self.b = np.zeros(self.d)
        self.t = 0
        self._pending: int | None = None

    def _beta(self, t: int) -> float:
        return math.sqrt(self.lam) + math.sqrt(
            2.0 * math.log(t) + self.d * math.log(1.0 + t / (self.lam * self.d))
        )

    def select(self) -> int:
        """Index of the UCB-maximizing action; lowest index on ties."""
        if self._pending is not None:
            raise RuntimeError("update() must be called before the next select()")
        self.t += 1
        theta = np.linalg.solve(self.V, self.b)
        vinv_x = np.linalg.solve(self.V, self.actions.T)  # (d, n)
        widths = np.sqrt(np.einsum("nd,dn->n", self.actions, vinv_x))
        ucb = self.actions @ theta + self._beta(self.t) * widths
        self._pending = int(np.argmax(ucb))
        return self._pending

    def update(self, reward: float) -> None:
        """Feed back the reward observed for the last selected index."""
        if self._pending is None:
            raise RuntimeError("select() must be called before update()")
        x = self.actions[self._pending]
        self.V += np.outer(x, x)
        self.b += reward * x
        self._pending = None


# --------------------------------------------------------------------------
# the simulation loop and the one-bit channel
# --------------------------------------------------------------------------

def one_bit_channel(x: np.ndarray, r: float, quant_rng: np.random.Generator):
    """The reward rounded to one bit, framed to bytes and parsed back; x stays put."""
    buf = encode_known(KnownMessage(reward_bit=int(_REWARD_BIT.encode(r, quant_rng))))
    msg = decode_known(BitBuffer.from_bytes(buf.to_bytes(), len(buf)))
    return (msg.reward_bit,), len(buf)


def simulate(spec: EnvironmentSpec, seed: int, broadcast, channel, learn,
             rounds: int | None = None, rngs=None) -> RegretTrace:
    """Run the agent/channel/learner loop for ``rounds`` (default spec.horizon) rounds.

    ``broadcast()`` gives a theta, under which the agent plays greedily, or an
    action index, played as is.  ``channel(x, r, quant_rng)`` returns what the
    learner receives and its bits; ``learn(*received)`` feeds it in.  Draws
    come from the seed's streams, or from ``rngs`` (env, quantizer) when given.
    """
    env_rng, quant_rng = _streams(seed) if rngs is None else rngs
    trace = RegretTrace(seed, spec.digest())
    for _ in range(spec.horizon if rounds is None else rounds):
        order = broadcast()
        ctx = environment.sample_context(spec, env_rng)
        action = order if isinstance(order, int) else greedy_action(ctx, order)
        r = environment.realize_reward(spec, ctx[action], env_rng)
        received, bits = channel(ctx[action], r, quant_rng)
        learn(*received)
        regret_step(trace, ctx, spec.theta_star, action, bits=bits)
    return trace


def run_known(spec: EnvironmentSpec, amap: ActionMap, seed: int,
              lam: float = 1.0) -> RegretTrace:
    """Simulate the known-distribution pair: LinUCB over the menu, signed reward 2r - 1."""
    policy = LinUcb(amap.table, lam=lam)
    return simulate(spec, seed,
                    lambda: amap.thetas[amap.inverse_index(policy.select())],
                    one_bit_channel, lambda bit: policy.update(2.0 * bit - 1.0))


def run_naive_baseline(spec: EnvironmentSpec, seed: int, lam: float = 1.0) -> RegretTrace:
    """Context-free reduction: an index bandit over per-action mean vectors.

    The selected index is played directly as the action, so realized
    contexts never influence the choice -- the strawman that motivates
    conditioning on the context distribution.
    """
    means = np.array([environment.context_mean(spec, a) for a in range(spec.n_actions)])
    policy = LinUcb(means, lam=lam)
    return simulate(spec, seed, policy.select, one_bit_channel,
                    lambda bit: policy.update(2.0 * bit - 1.0))


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Environment and quantizer child streams of one simulation seed."""
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])
