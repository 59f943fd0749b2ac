"""Environment core: context models, reward models, regret accounting.

Conventions, applied identically to every algorithm so comparisons are fair:

* every sampled context vector has Euclidean norm <= 1 and every realized
  reward lies in [0, 1] (checked on each draw);
* the mean reward of playing feature vector x is (<x, theta*> + 1) / 2 --
  an affine map of the raw linear score into [0, 1].  It is monotone, so
  the optimal action is unchanged.  Learners undo the map on receipt
  (r -> 2r - 1), recovering a conditional mean of exactly <x, theta*>, so
  their least-squares estimates target theta* itself;
* regret is accounted in raw linear-score units:
  max_a <X_a, theta*> - <X_chosen, theta*>;
* every score <x, theta> and squared norm <x, x> of a context is np.vecdot's,
  which is each row's own np.dot whatever its position, K or stacking, so
  identical rows tie and a block of scores equals the per-round ones.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .quantizer import _BOUNDARY_TOL, AssumptionViolation, _frozen, _integer, _real

__all__ = [
    "GaussianProjected",
    "BinarySupport",
    "CustomDiscrete",
    "Bernoulli",
    "TruncatedGaussian",
    "CONTEXT_LAWS",
    "NOISE_LAWS",
    "EnvironmentSpec",
    "sample_context",
    "sample_contexts",
    "sample_rounds",
    "context_mean",
    "realize_reward",
    "reward_of",
    "regret_step",
    "TRACE_FIELDS",
    "write_table",
    "read_table",
    "RegretTrace",
    "ExcitationDiagnostic",
    "assumption2_diagnostic",
]

_NORMAL = NormalDist()
# Longest horizon a spec, and so a config, may ask for.  A run holds one seed's trace
# at a time, at 20 B a round, and keeps a few figures of each finished seed: the limit
# holds a run near 200 MB of trace however many seeds it has.
_ROUNDS_LIMIT = 10_000_000


# --------------------------------------------------------------------------
# context and reward laws
# --------------------------------------------------------------------------

class _Law:
    """A law's config node: its ``kind`` plus one key per dataclass field, a
    ``float`` field read as a number and any other as a list of numbers."""

    kind = ""

    @classmethod
    def node_shape(cls) -> dict:
        """The node's keys past ``kind``, each mapped to the layout of its value:
        ``float`` for a number, ``[s]`` for a list of ``s`` and a dict for a node."""
        return {f.name: float if f.type == "float" else [float] for f in dataclasses.fields(cls)}

    @classmethod
    def from_node(cls, node: dict):
        """The law of a node whose values are already laid out as node_shape()."""
        return cls(**node)


# A context law also answers, for dimension d:
#   check(d, n_actions) -> problems with its per-action tables;
#   sample(n, d, rng)   -> n context sets, shape (n, n_actions, d);
#   rounds(c, d, rng)   -> c rounds' context sets and reward uniforms, drawn in the
#                          order of sample(1, d, rng) then random() each round;
#   mean(action, d)     -> E[X_action];
#   atom_count(d)       -> atoms in its largest per-action support, None if infinite;
#   atoms(d)            -> per action, (vectors, probabilities) of its finite support.

@dataclass(frozen=True)
class GaussianProjected(_Law):
    """Per-action isotropic Gaussians, rescaled onto the unit ball when outside."""

    kind = "gaussian_projected"
    scales: tuple[float, ...]  # covariance scale c_a; X ~ N(0, c_a I) then projected

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(_real(c, f"scales[{a}]", 0.0)
                                                 for a, c in enumerate(self.scales)))
        # per-action standard deviations, shaped to scale an (n, K, d) draw
        object.__setattr__(self, "_stds", _frozen(np.sqrt(self.scales)[None, :, None]))

    def check(self, d: int, n_actions: int) -> list[str]:
        return [] if len(self.scales) == n_actions else ["one Gaussian scale per action required"]

    def sample(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        return self._project(rng.standard_normal((n, len(self.scales), d)))

    def rounds(self, c: int, d: int, rng: np.random.Generator):
        raw, uniforms = np.empty((c, len(self.scales), d)), np.empty(c)
        for i in range(c):
            rng.standard_normal(out=raw[i])
            uniforms[i] = rng.random()
        return self._project(raw), uniforms

    def _project(self, out: np.ndarray) -> np.ndarray:  # scales and projects in place
        out *= self._stds
        norms = np.sqrt(np.vecdot(out, out))[:, :, None]
        out /= np.maximum(norms, 1.0)  # x / 1.0 is x: only norms over 1 rescale
        return out

    def mean(self, action: int, d: int) -> np.ndarray:
        return np.zeros(d)  # symmetric about the origin, projection included

    def atom_count(self, d: int) -> None:
        return None


@dataclass(frozen=True)
class BinarySupport(_Law):
    """Coordinates are +-1/sqrt(d) i.i.d.; p_minus[a] = P(coordinate = -1/sqrt(d)).

    At d=1 this is the two-point +-1 distribution.
    """

    kind = "binary_support"
    p_minus: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p_minus", tuple(_real(p, f"p_minus[{a}]", 0.0, 1.0)
                                                  for a, p in enumerate(self.p_minus)))

    def check(self, d: int, n_actions: int) -> list[str]:
        return [] if len(self.p_minus) == n_actions else ["one p_minus per action required"]

    def sample(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        return self._signs(rng.random((n, len(self.p_minus), d)), d)

    def rounds(self, c: int, d: int, rng: np.random.Generator):
        # each round's K*d coordinate uniforms then its reward uniform, in one draw
        raw = rng.random((c, len(self.p_minus) * d + 1))
        return self._signs(raw[:, :-1].reshape(c, -1, d), d), raw[:, -1]

    def _signs(self, uniforms: np.ndarray, d: int) -> np.ndarray:
        p = np.asarray(self.p_minus)[None, :, None]
        return np.where(uniforms < p, -1.0, 1.0) / math.sqrt(d)

    def mean(self, action: int, d: int) -> np.ndarray:
        return np.full(d, (1.0 - 2.0 * self.p_minus[action]) / math.sqrt(d))

    def atom_count(self, d: int) -> int:
        return 2 ** d

    def atoms(self, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
        # row i has a minus sign where bit d-1-j of i is set: itertools.product order
        minus = (np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
        vecs = np.where(minus == 1, -1.0, 1.0) / math.sqrt(d)
        k = minus.sum(axis=1)
        return [(vecs, p ** k * (1.0 - p) ** (d - k)) for p in self.p_minus]


@dataclass(frozen=True)
class CustomDiscrete(_Law):
    """Explicit finite support per action: supports[a] is (S_a, d), probs[a] sums to 1.

    Its config node lists the actions, each as ``{support: [...], probs: [...]}``.
    """

    kind = "custom"
    supports: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.supports) != len(self.probs):
            raise ValueError(f"one probs table per support table required, got "
                             f"{len(self.probs)} for {len(self.supports)}")
        # the tables as read-only float copies, made once: every other method reads them so
        for name in ("supports", "probs"):
            object.__setattr__(self, name, tuple(_frozen(t) for t in getattr(self, name)))
        for a, (sup, p) in enumerate(zip(self.supports, self.probs)):
            if sup.ndim != 2 or sup.shape[0] != p.size:
                raise ValueError(f"action {a}: support/probs shape mismatch")
            if not (np.all(np.isfinite(sup)) and np.all(np.isfinite(p))):
                raise ValueError(f"action {a}: support and probs must be finite")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
                raise ValueError(f"action {a}: probabilities must be a distribution")
            if np.any(np.sqrt(np.vecdot(sup, sup)) > 1.0 + _BOUNDARY_TOL):
                raise ValueError(f"action {a}: support vector outside the unit ball")

    @classmethod
    def node_shape(cls) -> dict:
        return {"actions": [{"support": [[float]], "probs": [float]}]}

    @classmethod
    def from_node(cls, node: dict) -> "CustomDiscrete":
        actions = node["actions"]
        return cls(supports=[a["support"] for a in actions], probs=[a["probs"] for a in actions])

    def check(self, d: int, n_actions: int) -> list[str]:
        if len(self.supports) != n_actions:
            return ["one support table per action required"]
        return [f"action {a}: support dimension != d"
                for a, sup in enumerate(self.supports) if sup.shape[1] != d]

    def sample(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((n, len(self.supports), d))
        for a, (sup, p) in enumerate(zip(self.supports, self.probs)):
            out[:, a, :] = sup[rng.choice(sup.shape[0], size=n, p=p)]
        return out

    def rounds(self, c: int, d: int, rng: np.random.Generator):
        sets, uniforms = zip(*[(self.sample(1, d, rng)[0], rng.random()) for _ in range(c)])
        return np.array(sets), np.array(uniforms)

    def mean(self, action: int, d: int) -> np.ndarray:
        return self.probs[action] @ self.supports[action]

    def atom_count(self, d: int) -> int:
        return max(len(p) for p in self.probs)

    def atoms(self, d) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.supports, self.probs))


# A reward law answers reward(mu, u): the reward of mean mu that one uniform u in
# [0, 1) gives, so every law consumes exactly one draw per round.

@dataclass(frozen=True)
class Bernoulli(_Law):
    """Reward is 1 with probability equal to the mapped mean, else 0."""

    kind = "bernoulli"

    def reward(self, mu: float, u: float) -> float:
        return float(u < mu)


@dataclass(frozen=True)
class TruncatedGaussian(_Law):
    """Mean plus Gaussian noise truncated symmetrically so r stays in [0, 1].

    The truncation window is +-min(mu, 1-mu), so the noise is exactly
    zero-mean and the realized reward never leaves [0, 1].  The reward is
    the inverse CDF of the round's one uniform, whatever the window, which
    keeps paired-seed runs aligned.
    """

    kind = "truncated_gaussian"
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma", 0.0))

    def reward(self, mu: float, u: float) -> float:
        w = min(mu, 1.0 - mu)
        if self.sigma == 0.0 or w == 0.0:
            return mu
        lo = _NORMAL.cdf(-w / self.sigma)
        hi = _NORMAL.cdf(w / self.sigma)
        return mu + self.sigma * _NORMAL.inv_cdf(lo + u * (hi - lo))


# Config ``kind`` -> law class, the only place a law is listed.
CONTEXT_LAWS = {law.kind: law for law in (GaussianProjected, BinarySupport, CustomDiscrete)}
NOISE_LAWS = {law.kind: law for law in (Bernoulli, TruncatedGaussian)}


# --------------------------------------------------------------------------
# environment spec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvironmentSpec:
    """Immutable description of one simulated bandit environment; its counts are
    stored as the Python ints _integer gives."""

    d: int
    n_actions: int
    theta_star: np.ndarray
    context_model: object  # an instance of a CONTEXT_LAWS class
    noise_model: object    # an instance of a NOISE_LAWS class
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "theta_star", _frozen(self.theta_star))
        problems = self.validate()
        if problems:
            raise ValueError("invalid environment spec: " + "; ".join(problems))
        for name in ("d", "n_actions", "horizon"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    def validate(self) -> list[str]:
        """Return a list of every constraint violation (empty when valid)."""
        problems = []
        for name, count, limit in (("dimension", self.d, math.inf),
                                   ("n_actions", self.n_actions, math.inf),
                                   ("horizon", self.horizon, _ROUNDS_LIMIT)):
            try:
                if _integer(count, name, 1) > limit:
                    problems.append(f"{name} must be at most the limit of {limit}, got {count}")
            except ValueError as exc:
                problems.append(str(exc))
        if self.theta_star.shape != (self.d,):
            problems.append(f"theta_star shape {self.theta_star.shape} does not match d={self.d}")
        elif not np.all(np.isfinite(self.theta_star)):
            problems.append(f"theta_star entries must be finite, got {self.theta_star.tolist()}")
        # the peak first, before a norm can overflow; an empty theta* (d = 0) has none
        elif (self.theta_star.size
              and (peak := np.abs(self.theta_star).max()) > 1.0 + _BOUNDARY_TOL):
            problems.append(f"||theta_star|| exceeds 1: an entry has magnitude {peak:.6g}")
        elif (norm := np.linalg.norm(self.theta_star)) > 1.0 + _BOUNDARY_TOL:
            problems.append(f"||theta_star|| = {norm:.6g} exceeds 1")
        return problems + self.context_model.check(self.d, self.n_actions)

    def digest(self) -> str:
        """Stable hash of the spec, for provenance.

        Every field is hashed by type, dtype, shape and raw bytes, never by its
        printed form, which NumPy abbreviates for large arrays.
        """
        h = hashlib.sha256()
        _hash_into(h, self)
        return h.hexdigest()[:16]


def _hash_into(h, value) -> None:
    """Feed a dataclass, a sequence or an array-like into hash ``h`` unambiguously."""
    if dataclasses.is_dataclass(value):
        value = [type(value).__name__] + [getattr(value, f.name)
                                          for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        h.update(b"[%d]" % len(value))
        for item in value:
            _hash_into(h, item)
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_contexts(spec: EnvironmentSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. context sets, shape (n, n_actions, d), norms <= 1."""
    return _in_unit_ball(spec.context_model.sample(n, spec.d, rng))


def sample_rounds(spec: EnvironmentSpec, c: int, rng: np.random.Generator):
    """The next c rounds' context sets (c, n_actions, d), norms <= 1, and reward uniforms."""
    sets, uniforms = spec.context_model.rounds(c, spec.d, rng)
    return _in_unit_ball(sets), uniforms


def _in_unit_ball(out: np.ndarray) -> np.ndarray:
    # sqrt is monotone, so this is the largest norm; NaN fails the test too
    if not math.sqrt(np.vecdot(out, out).max(initial=0.0)) <= 1.0 + _BOUNDARY_TOL:
        raise AssumptionViolation("sampled context outside the unit ball")
    return out


def sample_context(spec: EnvironmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one context set, shape (n_actions, d)."""
    return sample_contexts(spec, 1, rng)[0]


def context_mean(spec: EnvironmentSpec, action: int) -> np.ndarray:
    """Exact E[X_a] for the given action."""
    return spec.context_model.mean(action, spec.d)


# --------------------------------------------------------------------------
# rewards
# --------------------------------------------------------------------------

def realize_reward(spec: EnvironmentSpec, x: np.ndarray, rng: np.random.Generator) -> float:
    """Draw one reward in [0, 1] with conditional mean (<x, theta*> + 1) / 2."""
    return reward_of(spec, float(np.dot(x, spec.theta_star)), rng.random())


def reward_of(spec: EnvironmentSpec, score: float, u: float) -> float:
    """The reward in [0, 1] that the round's reward uniform u, a number in [0, 1], gives
    a play of score <x, theta*>, a number in [-1, 1] as np.dot(x, theta*) computes it.
    Its mean is (score + 1) / 2."""
    try:  # NaN fails too, and a non-number raises
        checked = abs(score) <= 1.0 + _BOUNDARY_TOL and 0.0 <= u <= 1.0
    except TypeError:
        checked = False
    if not checked:
        _real(u, "u", 0.0, 1.0)  # names u when it is at fault, else the score is
        raise AssumptionViolation(f"<x, theta*> must be a number in [-1, 1], got {score!r}")
    r = spec.noise_model.reward(min(max((score + 1.0) / 2.0, 0.0), 1.0), u)
    if not 0.0 - _BOUNDARY_TOL <= r <= 1.0 + _BOUNDARY_TOL:
        raise AssumptionViolation(f"realized reward {r} outside [0, 1]")
    return min(max(r, 0.0), 1.0)


# --------------------------------------------------------------------------
# regret accounting
# --------------------------------------------------------------------------

# trace CSV column -> the type it is read back as, in column order
TRACE_FIELDS = {"t": int, "inst_regret": float, "cum_regret": float, "bits": int}


def write_table(path, fields: dict, rows) -> None:
    """``rows`` (tuples of numbers in column order) under a ``fields`` header, as
    csv.writer writes them: every cell is a number, so each row is one %s format."""
    row = ",".join(["%s"] * len(fields)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(fields) + "\r\n")
        fh.writelines(row % cells for cells in rows)


def read_table(path, fields: dict):
    """The rows of a write_table CSV one at a time, each a tuple in column order with
    every cell cast by its column's type; a wrong header, cell count or cell is a
    ValueError naming the file and line."""
    casts = tuple(fields.values())
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(fields):
            raise ValueError(f"{path}, line 1: the header is not {','.join(fields)}")
        for cells in reader:
            try:
                row = tuple([cast(c) for cast, c in zip(casts, cells, strict=True)])
            except ValueError as exc:  # a cast, or zip meeting too few or too many cells
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            yield row


_BITS_LIMIT = 1 << 31  # bit counts are stored as int32
_CSV_ROWS = 1024  # trace rows converted to or from Python numbers at a time


def _first_refused(inst: np.ndarray, bits) -> tuple[int, str] | None:
    """The first round of a block that a trace refuses, and why, its regret before its
    bits; None when there is none.  A regret must be finite and nonnegative, and a bit
    count a nonnegative ``int`` below 2**31: a bool or a NumPy integer fails too."""
    kept = (inst >= -_BOUNDARY_TOL) & (inst < math.inf)  # NaN fails too
    i = len(inst) if kept.all() else int(kept.argmin())
    j = next((j for j, b in enumerate(bits) if type(b) is not int or not 0 <= b < _BITS_LIMIT),
             len(bits))
    if i < len(inst) and i <= j:
        return i, f"instantaneous regret must be finite and nonnegative, got {float(inst[i])}"
    if j < len(bits):
        rule = "below 2**31" if type(bits[j]) is int and bits[j] >= 0 else "a nonnegative integer"
        return j, f"bit count must be {rule}, got {bits[j]!r}"
    return None


class RegretTrace:
    """Per-round regret and uplink-bit log for one simulation: float64 regret and
    running sum and int32 bit counts, 20 B a round."""

    def __init__(self, seed: int, capacity: int = 0):
        self.seed = seed  # a label: read_csv gives -1
        capacity = _integer(capacity, "capacity", 0)
        self._n = 0
        self._inst, self._cum = np.empty(capacity), np.empty(capacity)
        self._bits = np.empty(capacity, dtype=np.int32)

    def __len__(self) -> int:
        return self._n

    @property
    def inst_regret(self) -> np.ndarray:
        return self._inst[:self._n]

    @property
    def cum_regret(self) -> np.ndarray:
        return self._cum[:self._n]

    @property
    def bits(self) -> np.ndarray:
        return self._bits[:self._n]

    def extend(self, inst, bits) -> None:
        """Append rounds: their regrets and their bit counts, Python ints.  A block
        with a regret or a count that _first_refused names is a ValueError, and none
        of it is stored.  The running sum adds the regrets one at a time, in order."""
        inst = np.asarray(inst, dtype=float)
        if len(bits) != len(inst):
            raise ValueError(f"{len(inst)} regrets but {len(bits)} bit counts")
        refused = _first_refused(inst, bits)
        if refused:
            raise ValueError(refused[1])
        lo, hi = self._n, self._n + len(inst)
        if hi > len(self._inst):
            self._grow(hi)
        self._inst[lo:hi] = inst
        self._bits[lo:hi] = bits
        run = np.empty(len(inst) + 1)  # the sum so far, then this block's regrets
        run[0] = self.total_regret
        run[1:] = inst
        self._cum[lo:hi] = np.add.accumulate(run)[1:]  # sequential, unlike np.sum
        self._n = hi

    def _grow(self, need: int) -> None:
        capacity = max(need, 2 * len(self._inst))
        for name in ("_inst", "_cum", "_bits"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:self._n] = old[:self._n]
            setattr(self, name, new)

    @property
    def total_regret(self) -> float:
        return float(self._cum[self._n - 1]) if self._n else 0.0

    def regret_at(self, t: int) -> float:
        """Cumulative regret after round t (1-based)."""
        t = _integer(t, "round")
        if not 1 <= t <= len(self):
            raise ValueError(f"round {t} outside 1..{len(self)}")
        return float(self._cum[t - 1])

    def write_csv(self, path) -> None:
        """One row a round, converted to Python numbers _CSV_ROWS rounds at a time:
        full-size lists would cost more than the arrays."""
        columns = (self.inst_regret, self.cum_regret, self.bits)
        chunks = (zip(range(lo + 1, len(self) + 1),
                      *(column[lo:lo + _CSV_ROWS].tolist() for column in columns))
                  for lo in range(0, len(self), _CSV_ROWS))
        write_table(path, TRACE_FIELDS, itertools.chain.from_iterable(chunks))

    @classmethod
    def read_csv(cls, path) -> "RegretTrace":
        """A trace as write_csv wrote it, fed through extend() _CSV_ROWS rows at a time.
        The earliest row that is not the next round, that extend() refuses, whose
        cum_regret is not the running sum or that read_table cannot read is a
        ValueError naming the file and line; faults on one row rank in that order."""
        trace, rows, unread = cls(seed=-1), read_table(path, TRACE_FIELDS), None
        while unread is None:
            chunk = []
            try:
                for row in itertools.islice(rows, _CSV_ROWS):
                    chunk.append(row)
            except ValueError as exc:  # the next row does not parse: it ends the trace
                unread = exc
            if not chunk:
                break
            lo = len(trace)
            ts, inst, cums, bits = zip(*chunk)
            faults = [fault for fault in (
                next(((i, f"round {t} where round {lo + i + 1} belongs")
                      for i, t in enumerate(ts) if t != lo + i + 1), None),
                _first_refused(np.array(inst), bits)) if fault]
            ok = min((i for i, _ in faults), default=len(chunk))
            trace.extend(inst[:ok], bits[:ok])
            sums = trace.cum_regret[lo:]  # exact below: floats go as their repr
            faults += [(i, f"cum_regret {cums[i]!r} is not the running sum {float(sums[i])!r}")
                       for i in np.flatnonzero(np.array(cums[:ok]) != sums)[:1]]
            if faults:  # the earliest row; of one row's faults, the first listed
                i, problem = min(faults, key=lambda fault: fault[0])
                raise ValueError(f"{path}, line {lo + i + 2}: {problem}")
        if unread:
            raise unread
        return trace


def regret_step(trace: RegretTrace, context_set: np.ndarray, theta_star: np.ndarray,
                action: int, bits: int) -> RegretTrace:
    """Append one round's regret max_a <X_a, theta*> - <X_action, theta*> (>= 0) and
    its uplink bits to the trace."""
    scores = np.vecdot(context_set, theta_star)
    trace.extend([float(scores.max() - scores[action])], [bits])
    return trace


# --------------------------------------------------------------------------
# excitation diagnostic
# --------------------------------------------------------------------------

@dataclass
class ExcitationDiagnostic:
    """Minimum-eigenvalue growth of the played-context Gram matrix."""

    ts: np.ndarray
    lambda_min: np.ndarray
    c: float  # largest c with lambda_min(t) >= c * t / d for all t >= t0
    t0: int


def assumption2_diagnostic(played: np.ndarray, t0: int) -> ExcitationDiagnostic:
    """Profile lambda_min(sum_{i<=t} X_i X_i^T) and the empirical excitation rate.

    Reported, never enforced: c ~ 0 flags a context distribution (or policy)
    whose Gram matrix is not gaining rank fast enough for least squares.
    """
    played = np.asarray(played, dtype=float)
    if played.ndim != 2:
        raise ValueError(f"expected (t, d) history, got shape {played.shape}")
    T, d = played.shape
    if T == 0:
        raise ValueError("empty history")
    gram = np.zeros((d, d))
    lam = np.empty(T)
    for t in range(T):
        gram += np.outer(played[t], played[t])
        lam[t] = np.linalg.eigvalsh(gram)[0]
    ts = np.arange(1, T + 1)
    mask = ts >= t0
    c = float(np.min(lam[mask] * d / ts[mask])) if mask.any() else 0.0
    return ExcitationDiagnostic(ts=ts, lambda_min=lam, c=max(c, 0.0), t0=t0)
