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

import math
from collections.abc import Callable
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum's own kernel; see ROADMAP.md
from numpy.linalg import _umath_linalg  # np.linalg.solve's own gufuncs; see ROADMAP.md

from . import env as environment
from .codec import BitBuffer, decode_known, encode_known
from .env import EnvironmentSpec, RegretTrace
from .env import regret_step  # noqa: F401  the layer name bench/child.py times here
from .quantizer import _integer, _real, reward_bit

__all__ = [
    "greedy_action",
    "exact_xstar_obstacle",
    "exact_xstar",
    "estimate_xstar",
    "ActionMap",
    "build_action_map",
    "misspecify_xstar",
    "theta_net",
    "LinUcb",
    "Channel",
    "one_bit_channel",
    "seed_streams",
    "simulate",
    "run_known",
    "run_naive_baseline",
]

_ATOM_LIMIT = 1 << 16  # max support atoms per action for exact xstar (binary: d <= 16)
# Context sets per Monte-Carlo draw.  A custom law draws per action per chunk, so
# another size would reorder its draws and change the table.
_XSTAR_CHUNK = 20_000
_BLOCK_VALUES = 8192  # context values per block of rounds that simulate draws: ~64 KiB
_OUTER_VALUES = 1 << 17  # largest n d^2 whose menu outer products LinUcb tabulates: 1 MiB


def greedy_action(context_set: np.ndarray, theta: np.ndarray) -> int:
    """Index of the action maximizing <X_a, theta>; lowest index on ties.  The
    scores are np.vecdot's, as every context's score is (see bitbandit.env)."""
    return int(np.vecdot(context_set, theta).argmax())


# --------------------------------------------------------------------------
# xstar tables
# --------------------------------------------------------------------------

def exact_xstar_obstacle(spec: EnvironmentSpec) -> str | None:
    """Why exact xstar is unavailable for the spec's context law; None when it is not."""
    atoms = spec.context_model.atom_count(spec.d)
    if atoms is None:
        return f"the {type(spec.context_model).__name__} context law has no finite support"
    if atoms > _ATOM_LIMIT:
        return f"an action's support has {atoms} atoms, over the limit of {_ATOM_LIMIT}"
    return None


def _xstar_row(supports, theta: np.ndarray) -> np.ndarray:
    """E[greedy-played context] by order statistics, in O(K^2 S log S):

    sum_a sum_v p_a(v) v prod_{b<a} P(s_b < s(v)) prod_{b>a} P(s_b <= s(v)),

    strict below a and not above it, which is greedy_action's lowest-index tie rule.
    An atom's score is greedy_action's score of the same row.
    """
    ranked = []  # per action: atoms by score, sorted scores, P(s < k-th sorted score)
    for vecs, probs in supports:
        s = np.vecdot(vecs, theta)
        order = np.argsort(s, kind="stable")
        ranked.append((order, s[order], np.concatenate([[0.0], np.cumsum(probs[order])])))
    acc = np.zeros(len(theta))
    for a, (vecs, probs) in enumerate(supports):
        order, s_a, _ = ranked[a]
        weight = probs[order]
        for b, (_, s_b, cdf_b) in enumerate(ranked):
            if b != a:  # sorted queries keep the binary search cache-friendly
                weight *= cdf_b[np.searchsorted(s_b, s_a, side="left" if b < a else "right")]
        acc += weight @ vecs[order]
    return acc


@dataclass
class ActionMap:
    """Menu of learner actions: theta grid and xstar table."""

    thetas: np.ndarray      # (n, d) candidate parameters
    table: np.ndarray       # (n, d) xstar(theta) per candidate
    provenance: str         # how the table was computed

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        self.table = np.atleast_2d(np.asarray(self.table, dtype=float))
        if self.thetas.shape != self.table.shape or self.thetas.shape[0] < 1:
            raise ValueError("thetas and table must be matching (n, d) arrays")


def build_action_map(spec: EnvironmentSpec, thetas, method: str = "auto",
                     n_samples: int = 100_000,
                     rng: np.random.Generator | None = None) -> ActionMap:
    """Tabulate xstar over a theta grid, exactly when the law is finite and small
    enough (exact_xstar_obstacle), else by Monte-Carlo unless ``method`` is exact."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 2 or thetas.shape[1] != spec.d:
        raise ValueError(f"theta rows must have length d={spec.d}, got shape {thetas.shape}")
    if method not in ("auto", "exact", "monte-carlo"):
        raise ValueError(f"unknown xstar method {method!r}")
    obstacle = exact_xstar_obstacle(spec)
    if method != "monte-carlo" and obstacle is None:
        supports = spec.context_model.atoms(spec.d)  # built once for the whole grid
        table = [_xstar_row(supports, theta) for theta in thetas]
        return ActionMap(thetas, np.array(table), "exact-enumeration")
    if method == "exact":
        raise ValueError(f"exact xstar unavailable: {obstacle}")
    if rng is None:
        raise ValueError("Monte-Carlo xstar needs an rng")
    n_samples = _integer(n_samples, "n_samples", 1)
    table = np.zeros(thetas.shape)
    for acc, theta in zip(table, thetas):  # each row's draws in chunks, row after row
        for done in range(0, n_samples, _XSTAR_CHUNK):
            n = min(_XSTAR_CHUNK, n_samples - done)
            ctx = environment.sample_contexts(spec, n, rng)  # (n, K, d)
            picks = np.vecdot(ctx, theta).argmax(axis=1)
            acc += ctx[np.arange(n), picks].sum(axis=0)
    return ActionMap(thetas, table / n_samples, f"monte-carlo(n={n_samples})")


def exact_xstar(spec: EnvironmentSpec, theta: np.ndarray) -> np.ndarray | None:
    """E[greedy-played context], exactly: build_action_map's row for theta, or None
    when exact_xstar_obstacle names a reason and a Monte-Carlo estimate must be used."""
    return None if exact_xstar_obstacle(spec) else build_action_map(spec, [theta], "exact").table[0]


def estimate_xstar(spec: EnvironmentSpec, theta: np.ndarray, n_samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo estimate of E[greedy-played context] from n_samples draws:
    build_action_map's Monte-Carlo row for theta."""
    return build_action_map(spec, [theta], "monte-carlo", n_samples, rng).table[0]


def misspecify_xstar(amap: ActionMap, eps: float, rng: np.random.Generator) -> ActionMap:
    """Displace every table entry by exactly eps in a random direction."""
    eps = _real(eps, "eps", 0.0)
    dirs = rng.standard_normal(amap.table.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return ActionMap(
        thetas=amap.thetas.copy(),
        table=amap.table + eps * dirs,
        provenance=f"{amap.provenance} + misspec(eps={eps})",
    )


def theta_net(d: int, n: int) -> np.ndarray:
    """Deterministic low-discrepancy net of n points in the d-dimensional unit ball."""
    d, n = _integer(d, "dimension", 1), _integer(n, "n", 1)
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
        # atleast_2d makes [] and [[]] shape (1, 0); a 3-d array is no (n, d) menu either
        if self.actions.ndim != 2 or min(self.actions.shape) < 1:
            raise ValueError(f"need at least one action, got a menu of shape "
                             f"{self.actions.shape}")
        self.n, self.d = self.actions.shape
        self.lam = lam = _real(lam, "ridge parameter")
        if lam <= 0.0:
            raise ValueError(f"ridge parameter must be > 0, got {lam}")
        self._sqrt_lam = math.sqrt(lam)
        self._actions_t = np.ascontiguousarray(self.actions.T)
        # each row's x x^T as update() computes it, tabulated for a small menu only (a
        # lookup is ~1.4 us faster than the product); a huge row overflows to inf here
        # rather than in update(), and select()'s NaN index check still applies
        self._outer = None
        if self.n * self.d * self.d <= _OUTER_VALUES:
            with np.errstate(all="ignore"):
                self._outer = self.actions[:, :, None] * self.actions[:, None, :]
        self._widths, self._ucb = np.empty(self.n), np.empty(self.n)
        self.V = lam * np.eye(self.d)
        self.b = np.zeros(self.d)
        self.t = 0
        self._pending: int | None = None

    def _beta(self, t: int) -> float:
        return self._sqrt_lam + math.sqrt(
            2.0 * math.log(t) + self.d * math.log(1.0 + t / (self.lam * self.d))
        )

    def _estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """The ridge estimate theta = V^-1 b and each action's width sqrt(x^T V^-1 x),
        the widths written into a buffer that the next call overwrites."""
        # np.linalg.solve's own kernels, without the wrapper whose errstate turns
        # a singular system into LinAlgError: V = lam I + sum x x^T, lam > 0, is not
        theta = _umath_linalg.solve1(self.V, self.b, signature="dd->d")
        vinv_x = _umath_linalg.solve(self.V, self._actions_t, signature="dd->d")  # (d, n)
        widths = c_einsum("nd,dn->n", self.actions, vinv_x, out=self._widths)
        return theta, np.sqrt(widths, out=widths)

    def select(self) -> int:
        """Index of the UCB-maximizing action; lowest index on ties and among
        identical actions."""
        if self._pending is not None:
            raise RuntimeError("update() must be called before the next select()")
        self.t += 1
        theta, widths = self._estimate()
        ucb = np.vecdot(self.actions, theta, out=self._ucb)  # identical rows tie
        ucb += np.multiply(widths, self._beta(self.t), out=widths)
        best = ucb.argmax()  # the first NaN, if there is one
        if math.isnan(ucb[best]):
            raise np.linalg.LinAlgError(f"LinUCB index is NaN in round {self.t}")
        self._pending = int(best)
        return self._pending

    def update(self, reward: float) -> None:
        """Feed back the reward observed for the last selected index."""
        if self._pending is None:
            raise RuntimeError("select() must be called before update()")
        try:
            if not math.isfinite(reward):
                raise TypeError
        except TypeError:  # NaN, +-inf or a non-number
            raise ValueError(f"reward must be a number, got {reward!r}") from None
        x = self.actions[self._pending]
        self.V += x[:, None] * x if self._outer is None else self._outer[self._pending]
        self.b += reward * x
        self._pending = None


# --------------------------------------------------------------------------
# the simulation loop and the one-bit channel
# --------------------------------------------------------------------------

class Channel(NamedTuple):
    """An uplink from agent to learner.

    ``rows(quant_rng, n, d)`` draws n rounds' quantizer uniforms from the
    quantizer stream, one row a round, in the order the rounds would draw them
    one at a time.  ``send(x, r, q)`` gives what the learner receives for the
    played context x and the reward r, and the bits sent; q is the round's row.
    """

    rows: Callable
    send: Callable


def _one_bit_wire(bit: int):
    """What the learner receives for a reward bit, and the bits sent: the codec's
    frame of that bit, parsed back."""
    buf = encode_known(bit)
    return (decode_known(BitBuffer.from_bytes(buf.to_bytes(), len(buf))),), len(buf)


_ONE_BIT_WIRE = (_one_bit_wire(0), _one_bit_wire(1))  # the whole message space, made once

# The reward rounded to one bit by the round's one uniform, framed to bytes and
# parsed back; x stays put.
one_bit_channel = Channel(rows=lambda quant_rng, n, d: quant_rng.random(n).tolist(),
                          send=lambda x, r, u: _ONE_BIT_WIRE[reward_bit(r, u)])


def seed_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Children 0 and 1 of SeedSequence(seed): environment and quantizer."""
    return tuple(np.random.default_rng(c)
                 for c in np.random.SeedSequence(_integer(seed, "seed", 0)).spawn(2))


def _menu_plays(sets: np.ndarray, entry) -> list[int]:
    """The actions a block's context sets get under a menu entry: the entry itself
    when it is an action index, else greedy_action's action under it, a theta."""
    if isinstance(entry, int):
        return [entry] * len(sets)
    return np.vecdot(sets, entry).argmax(axis=1).tolist()


def simulate(spec: EnvironmentSpec, seed: int, broadcast, channel: Channel, learn,
             menu=None) -> RegretTrace:
    """Run the agent/channel/learner loop for spec.horizon rounds.

    ``broadcast()`` gives a theta, under which the agent plays greedily, or,
    with a ``menu``, the index of a menu entry: a theta, played greedily, or
    an action index, played as is.  ``channel.send(x, r, q)`` returns what the
    learner receives and its bits; ``learn(*received)`` feeds it in.  Draws
    come from the seed's two streams, environment and quantizer.

    Both streams are read a block of rounds at a time: the environment as
    sample_context then realize_reward draw each round, the quantizer as
    ``channel.rows``.  The plays under a menu entry are computed for the whole
    block on the entry's first use in it.  One np.vecdot of the block's sets
    with theta* gives every row's <x, theta*>, as mean_reward and regret_gap
    compute it: the mean reward reads the played row's, the regret each set's
    best less it, and the trace is filled a block at a time.
    """
    env_rng, quant_rng = seed_streams(seed)
    trace = RegretTrace(seed, capacity=spec.horizon)
    block = max(1, _BLOCK_VALUES // (spec.n_actions * spec.d))
    for start in range(0, spec.horizon, block):
        n = min(block, spec.horizon - start)
        sets, uniforms = environment.sample_rounds(spec, n, env_rng)
        quant = channel.rows(quant_rng, n, spec.d)
        scores = np.vecdot(sets, spec.theta_star)
        means = scores.tolist()
        plays = None if menu is None else [None] * len(menu)
        actions, bits = [], []
        for row, (ctx, u, q) in enumerate(zip(sets, uniforms.tolist(), quant)):
            order = broadcast()
            if plays is None:
                action = greedy_action(ctx, order)
            else:
                if plays[order] is None:
                    plays[order] = _menu_plays(sets, menu[order])
                action = plays[order][row]
            r = environment.reward_of(spec, means[row][action], u)
            received, n_bits = channel.send(ctx[action], r, q)
            learn(*received)
            actions.append(action)
            bits.append(n_bits)
        trace.extend(scores.max(axis=1) - scores[np.arange(n), actions], bits)
    return trace


def _run_menu(spec: EnvironmentSpec, seed: int, actions, menu, lam: float) -> RegretTrace:
    """LinUCB over ``actions``, its index broadcast as a ``menu`` entry: signed reward 2r - 1."""
    policy = LinUcb(actions, lam=lam)
    return simulate(spec, seed, policy.select, one_bit_channel,
                    lambda bit: policy.update(2.0 * bit - 1.0), menu=menu)


def run_known(spec: EnvironmentSpec, amap: ActionMap, seed: int,
              lam: float = 1.0) -> RegretTrace:
    """Simulate the known-distribution pair: LinUCB over the menu, signed reward 2r - 1."""
    return _run_menu(spec, seed, amap.table, amap.thetas, lam)


def run_naive_baseline(spec: EnvironmentSpec, seed: int, lam: float = 1.0) -> RegretTrace:
    """Context-free reduction: an index bandit over per-action mean vectors.

    The selected index is played directly as the action, so realized
    contexts never influence the choice -- the strawman that motivates
    conditioning on the context distribution.
    """
    means = [environment.context_mean(spec, a) for a in range(spec.n_actions)]
    return _run_menu(spec, seed, means, range(spec.n_actions), lam)
