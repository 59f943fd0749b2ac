"""Stochastic (dithered) scalar quantizers and the context quantizer.

The scalar quantizer maps a real number onto an integer level grid by
randomized rounding: the two neighbouring levels are chosen with
probabilities proportional to proximity, so the decoded value is an
unbiased estimate of the input and the error never exceeds one grid step.

The context quantizer compresses a d-dimensional feature vector of
Euclidean norm at most 1 into

  * a sign vector (one bit per coordinate),
  * an integer magnitude vector living on the lattice
    ``{v in N^d : ||v||_1 <= 2d}``,
  * a one-bit-per-coordinate correction for the squared coordinates,

which together are enough for a learner to build unbiased estimates of
both the vector and its elementwise square.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "QuantizationRangeError",
    "AssumptionViolation",
    "StochasticQuantizer",
    "QuantizedContext",
    "magnitude_scale",
    "ContextGrid",
    "context_grid",
    "quantize_context",
    "reward_bit",
    "reconstruct_context",
]

# Slack absorbed when inputs sit on the boundary up to fp rounding, here and in env.
_BOUNDARY_TOL = 1e-9


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as a Python int, and at least ``low`` when given: the one check of a
    count or a dimension, in configs and calls alike, raising a ValueError naming it.
    An int is returned as is and anything else goes through operator.index, but a
    bool is no count."""
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _real(value, name: str, low: float | None = None, high: float | None = None) -> float:
    """``value`` as a finite Python float, within [low, high] where given: the one check
    of a real, in configs and calls alike, raising a ValueError naming it.  A bool, a
    string, None or anything else that is no numbers.Real (NumPy's bool is none), NaN,
    +-inf and an int past the float range are no number."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        out = float(value)
        if not math.isfinite(out):
            raise OverflowError
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if low is not None and out < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and out > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return out


class QuantizationRangeError(ValueError):
    """Input lies outside the quantizer's declared range."""


class AssumptionViolation(ValueError):
    """A modelling assumption (norm or reward bound) does not hold."""


@dataclass(frozen=True)
class StochasticQuantizer:
    """Randomized rounding onto ``levels + 1`` uniformly spaced points in [lower, upper]."""

    levels: int
    lower: float = 0.0
    upper: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "levels", _integer(self.levels, "levels", 1))
        object.__setattr__(self, "lower", _real(self.lower, "lower"))
        object.__setattr__(self, "upper", float(self.levels) if self.upper is None
                           else _real(self.upper, "upper"))
        if self.upper <= self.lower:
            raise ValueError(
                f"empty quantizer range [{self.lower}, {self.upper}]"
            )

    @property
    def step(self) -> float:
        """Grid spacing; also the worst-case absolute decode error."""
        return (self.upper - self.lower) / self.levels

    def encode(self, x, rng: np.random.Generator):
        """Randomly round ``x`` (scalar or array) to integer levels in 0..levels: _round
        on the grid coordinates, one uniform per entry; a scalar gives an int."""
        lo, hi = self.lower, self.upper
        x = np.asarray(x, dtype=float)
        outside = ~((x >= lo - _BOUNDARY_TOL) & (x <= hi + _BOUNDARY_TOL))  # NaN too
        if outside.any():
            bad = int(np.argmax(outside))
            where = f" at position {bad}" if x.ndim else ""
            raise QuantizationRangeError(f"input {x.flat[bad]}{where} outside [{lo}, {hi}]")
        scaled = np.clip((x - lo) * (self.levels / (hi - lo)), 0.0, self.levels)
        level = np.minimum(_round(scaled, rng.random(scaled.shape)), self.levels)
        return level if level.ndim else int(level)

    def decode(self, level):
        """Map integer levels back to real values on the grid."""
        level = np.asarray(level)
        if not (np.issubdtype(level.dtype, np.integer)
                and np.all((level >= 0) & (level <= self.levels))):
            raise QuantizationRangeError(
                f"level outside the integers 0..{self.levels}: {level}"
            )
        out = self.lower + level * self.step
        return out if out.ndim else float(out)

    def roundtrip(self, x, rng: np.random.Generator):
        """Encode then decode; unbiased with |result - x| <= step."""
        return self.decode(self.encode(x, rng))


def reward_bit(r: float, u: float) -> int:
    """A reward r in [0, 1] rounded to one bit by the uniform u: 1 with probability r.
    It is StochasticQuantizer(1, 0.0, 1.0).encode(r, rng) for an rng that draws u,
    its range check included."""
    try:
        if -_BOUNDARY_TOL <= r <= 1.0 + _BOUNDARY_TOL:  # NaN fails too
            return int(u < r)
    except TypeError:  # r or u is no number: _real names u if u is
        _real(u, "u")
    raise QuantizationRangeError(f"input {r} outside [0.0, 1.0]")


def _round(scaled: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Randomly round grid coordinates in [0, levels] to int64 levels: up with
    probability equal to the fractional part, by one uniform per entry."""
    frac, base = np.modf(scaled)  # scaled >= 0: base is its floor, frac exactly the rest
    return base.astype(np.int64) + (uniforms < frac)


def magnitude_scale(d: int) -> int:
    """Magnitude grid resolution used for d-dimensional contexts: ceil(sqrt(d))."""
    return math.isqrt(_integer(d, "dimension", 1) - 1) + 1


class ContextGrid(NamedTuple):
    """The constants of magnitude resolution m: what a sign bit and a square bit
    stand for, indexed by the bit, then m, 3/m and 1 / (6/m) as 0-d float64
    arrays, which NumPy combines with an array faster than a Python float."""

    signs: np.ndarray      # (-1, +1) as int8
    squares: np.ndarray    # (-3/m, +3/m)
    m: np.ndarray
    bound: np.ndarray      # the square-error range
    inv_width: np.ndarray  # 1 / (2 * bound)


@lru_cache(maxsize=None)
def context_grid(m: int) -> ContextGrid:
    """The ContextGrid of resolution m, built once per m; its arrays are read-only."""
    bound = 3.0 / m
    grid = ContextGrid(np.array([-1, 1], dtype=np.int8), np.array([-bound, bound]),
                       np.array(float(m)), np.array(bound), np.array(1 / (2 * bound)))
    for table in grid:
        table.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def _dimension_grid(d: int) -> ContextGrid:
    """The ContextGrid of d-dimensional contexts, looked up once per dimension."""
    return context_grid(magnitude_scale(d))


class QuantizedContext(NamedTuple):
    """One played context vector as the bits the agent sends; reconstruct_context
    alone maps them to values, with m = magnitude_scale(d) and d = magnitudes.size.

    sign_bits    -- length-d bool array, True where x >= 0 (a zero coordinate is +1)
    magnitudes   -- length-d int array, stochastic rounding of m*|x|, ||.||_1 <= 2d
    square_bits  -- length-d bool array, the one-bit quantization of x^2 - xhat^2
                    onto {-3/m, +3/m}, True for +3/m
    """

    sign_bits: np.ndarray
    magnitudes: np.ndarray
    square_bits: np.ndarray


def _enforce_l1_budget(levels: np.ndarray, scaled: np.ndarray, budget: int) -> np.ndarray:
    """Demote rounded-up coordinates until sum(levels) <= budget.

    With resolution m = ceil(sqrt(d)) the randomized rounding can, with
    positive but tiny probability, overshoot the lattice budget 2d when d
    is not a perfect square.  Dropping a rounded-up coordinate back to its
    floor keeps the per-coordinate error under one grid step, and the
    all-floor vector always satisfies the budget, so this terminates.
    Demotion order: smallest fractional part first (lowest index on ties).
    """
    excess = sum(levels.tolist()) - budget
    if excess <= 0:
        return levels
    floors = np.floor(scaled).astype(np.int64)
    frac = scaled - floors
    demotable = np.flatnonzero(levels > floors)
    order = demotable[np.argsort(frac[demotable], kind="stable")]
    levels = levels.copy()
    levels[order[:excess]] -= 1
    if levels.sum() > budget:
        raise AssumptionViolation(
            f"magnitude levels sum to {int(levels.sum())} after demotion, over "
            f"the L1 budget {budget}; input norm > 1?")
    return levels


def quantize_context(x, uniforms: np.ndarray) -> QuantizedContext:
    """Compress a unit-ball vector into signs, lattice magnitudes and square bits.

    Two stochastic roundings, reading the 2d ``uniforms`` in order: m*|x| onto
    the levels 0..m by the first d, then the square error x^2 - xhat^2 onto the
    two points -3/m and +3/m by the last d.  Both equal ``StochasticQuantizer``
    on those grids drawing its uniforms from a generator that gives these,
    done in place on grid coordinates without its per-call setup and checks.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    d = x.size
    if len(uniforms) != 2 * d:
        raise ValueError(f"need 2d = {2 * d} uniforms, got {len(uniforms)}")
    norm = math.sqrt(float(x @ x))
    if not norm <= 1.0 + _BOUNDARY_TOL:  # NaN fails too
        raise AssumptionViolation(f"context norm {norm} exceeds 1")
    grid = _dimension_grid(d)

    sign_bits = x >= 0.0
    scaled = np.minimum(grid.m * np.abs(x), grid.m)
    magnitudes = _enforce_l1_budget(_round(scaled, uniforms[:d]), scaled, 2 * d)

    xhat_abs = magnitudes / grid.m  # |xhat|, whose square is xhat^2 bit for bit
    err = x * x - xhat_abs * xhat_abs
    bound = float(grid.bound)
    abs_err = np.abs(err)
    if max(abs_err.tolist()) > bound + _BOUNDARY_TOL:
        bad = int(np.argmax(abs_err))
        raise QuantizationRangeError(
            f"input {err[bad]} at position {bad} outside [{-bound}, {bound}]"
        )
    square_bits = uniforms[d:] < (err + grid.bound) * grid.inv_width
    return QuantizedContext(sign_bits, magnitudes, square_bits)


def reconstruct_context(qc: QuantizedContext) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased estimates (xhat, xsq_hat) of the context and its elementwise square,
    the bits looked up in the ContextGrid's tables."""
    grid = _dimension_grid(qc.magnitudes.size)
    xhat = grid.signs.take(qc.sign_bits) * qc.magnitudes / grid.m
    xsq_hat = xhat * xhat + grid.squares.take(qc.square_bits)
    return xhat, xsq_hat
