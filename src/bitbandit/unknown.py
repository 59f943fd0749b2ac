"""Learner/agent pair for the unknown-context-distribution setting.

Both learners here run on :func:`bitbandit.known.simulate`; they differ only
in the channel.  The lattice channel compresses each played context into the
fixed-size message described in :mod:`bitbandit.codec` (signs, lattice
magnitudes, square-error bits, reward bit).  The exact channel, for the
full-precision reference learner, passes the reward and the context through
unchanged.  The learner accumulates

    u_t      += (2 * reward - 1) * xhat
    Vtilde_t += xhat xhat^T  with the diagonal replaced by xsq_hat

so that both u and Vtilde are unbiased estimates of the signed-reward
least-squares system, and solves Vtilde theta_hat = u each round by LU,
falling back to the minimum-norm pinv(Vtilde) u when Vtilde is singular or
ill-conditioned.  The paper's excitation assumption on the played contexts is
not checked during a run; :func:`bitbandit.env.assumption2_diagnostic` measures
it on a sequence of played contexts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # np.linalg.solve's own gufuncs; see ROADMAP.md

from .codec import BitBuffer, UnknownMessage, decode_unknown, encode_unknown
from .env import EnvironmentSpec, RegretTrace
from .known import Channel, simulate
from .quantizer import _integer, quantize_context, reconstruct_context, reward_bit

__all__ = [
    "UnknownLearnerState",
    "new_learner_state",
    "apply_update",
    "lattice_channel",
    "exact_channel",
    "run_unknown",
    "run_full_precision",
    "FULL_PRECISION_BITS_PER_SCALAR",
]

# Nominal uplink accounting for the unquantized reference learner: one IEEE-754
# double per context coordinate plus one for the reward.
FULL_PRECISION_BITS_PER_SCALAR = 64

# Past this estimate of cond_1(Vtilde) (about 1/sqrt(eps)) the LU answer can
# part from the minimum-norm one, so the solve falls back to pinv.
_COND_LIMIT = 1e8


@dataclass
class UnknownLearnerState:
    """Sufficient statistics of the bit-fed least-squares learner; ``rhs`` is the
    solve's [u | p], p = sin(1..d) being the condition probe of l1 norm ``probe_l1``."""

    rhs: np.ndarray
    v_tilde: np.ndarray
    theta_hat: np.ndarray
    probe_l1: float
    solve_min_rounds: int
    t: int = 0
    pinv_fallbacks: int = 0

    @property
    def u(self) -> np.ndarray:
        """The signed-reward sum, a view of the first column of ``rhs``."""
        return self.rhs[:, 0]


def new_learner_state(d: int, solve_min_rounds: int | None = None) -> UnknownLearnerState:
    """Fresh all-zeros state; the solve is skipped until t >= solve_min_rounds."""
    d = _integer(d, "dimension", 1)
    solve_min_rounds = _integer(d if solve_min_rounds is None else solve_min_rounds,
                                "solve_min_rounds", 0)
    rhs = np.zeros((d, 2))
    rhs[:, 1] = np.sin(np.arange(1.0, d + 1))
    return UnknownLearnerState(rhs=rhs, v_tilde=np.zeros((d, d)), theta_hat=np.zeros(d),
                               probe_l1=np.abs(rhs[:, 1]).sum(),
                               solve_min_rounds=solve_min_rounds)


def apply_update(state: UnknownLearnerState, reward_bit: float, xhat: np.ndarray,
                 xsq_hat: np.ndarray) -> UnknownLearnerState:
    """Fold one round's decoded estimates into the state and re-solve.

    The reward (a bit, or the raw reward in [0, 1] on the exact channel) is
    decoded to signed units (2 r - 1), whose conditional mean is exactly
    <x, theta*>.  The Gram update keeps off-diagonals from xhat xhat^T but
    takes its diagonal from xsq_hat, whose entries are unbiased for the true
    squared coordinates.  Every added term is exactly symmetric, since
    x_i * x_j == x_j * x_i in floating point, so Vtilde stays symmetric.  The
    solve is one LU factorisation for u and a fixed probe vector p.  It falls
    back to the pseudo-inverse, counted in ``pinv_fallbacks``, when LU returns
    a non-finite value (LAPACK's NaN for a singular system) or estimates
    cond_1(Vtilde) as ||Vtilde||_1 ||Vtilde^-1 p||_1 / ||p||_1 > _COND_LIMIT.
    So singular and nearly singular systems, such as those of early rounds,
    still get the minimum-norm least-squares solution.
    """
    try:
        signed = 2.0 * reward_bit - 1.0
        if not math.isfinite(signed):
            raise TypeError
    except TypeError:  # NaN, +-inf or a non-number
        raise ValueError(f"reward must be a number, got {reward_bit!r}") from None
    outer = xhat[:, None] * xhat  # np.outer's own product
    outer.reshape(-1)[::xhat.size + 1] = xsq_hat  # the diagonal, as np.fill_diagonal writes it
    state.v_tilde += outer
    state.rhs[:, 0] += signed * xhat
    state.t += 1
    if state.t >= state.solve_min_rounds:
        theta = _lu_solve(state.v_tilde, state.rhs, state.probe_l1)
        if theta is None:
            state.pinv_fallbacks += 1
            theta = np.linalg.pinv(state.v_tilde) @ state.u
        state.theta_hat = theta
    return state


def _lu_solve(v: np.ndarray, rhs: np.ndarray, probe_l1: float) -> np.ndarray | None:
    """V^-1 u from V^-1 [u | p] by LU, or None where LU cannot be trusted to match pinv."""
    # a singular V solves to NaN, a nearly singular one may overflow: the rule rejects both
    with np.errstate(all="ignore"):
        sol = _umath_linalg.solve(v, rhs, signature="dd->d")
        v_l1 = np.add.reduce(np.abs(v), axis=0).max()  # ||V||_1, as np.linalg.norm(v, 1)
        cond = v_l1 * np.add.reduce(np.abs(sol[:, 1])) / probe_l1
    if not (np.isfinite(sol).all() and cond <= _COND_LIMIT):
        return None
    return sol[:, 0]


def _send_lattice(x: np.ndarray, r: float, q: np.ndarray):
    """Quantized context and reward bit, by the round's 2d + 1 uniforms, framed and
    parsed back as (bit, xhat, xsq_hat).

    The message is bit_budget(d) bits; the decoder rejects any other length.
    """
    qc = quantize_context(x, q[:-1])
    buf = encode_unknown(UnknownMessage(reward_bit=reward_bit(r, q[-1]), context=qc))
    msg = decode_unknown(BitBuffer.from_bytes(buf.to_bytes(), len(buf)), x.size)
    return (msg.reward_bit, *reconstruct_context(msg.context)), len(buf)


# Each round reads quantize_context's 2d uniforms, then the reward bit's one.
lattice_channel = Channel(rows=lambda quant_rng, n, d: quant_rng.random((n, 2 * d + 1)),
                          send=_send_lattice)

# Unquantized uplink: the raw reward, x and x*x, at a nominal 64 bits per scalar;
# it draws no quantizer uniforms.
exact_channel = Channel(
    rows=lambda quant_rng, n, d: itertools.repeat(None, n),
    send=lambda x, r, q: ((r, x, x * x), FULL_PRECISION_BITS_PER_SCALAR * (x.size + 1)))


def _run_least_squares(spec: EnvironmentSpec, seed: int, channel,
                       solve_min_rounds: int | None) -> RegretTrace:
    """The least-squares learner, playing greedily under its current theta_hat."""
    state = new_learner_state(spec.d, solve_min_rounds)
    return simulate(spec, seed, lambda: state.theta_hat, channel,
                    lambda *received: apply_update(state, *received))


def run_unknown(spec: EnvironmentSpec, seed: int,
                solve_min_rounds: int | None = None) -> RegretTrace:
    """Simulate the quantized-uplink learner/agent pair."""
    return _run_least_squares(spec, seed, lattice_channel, solve_min_rounds)


def run_full_precision(spec: EnvironmentSpec, seed: int,
                       solve_min_rounds: int | None = None) -> RegretTrace:
    """Reference learner fed the exact played context and raw reward.

    Identical greedy policy and solve schedule, no quantization anywhere;
    with the same seed it consumes the environment stream exactly as
    run_unknown does, so the two runs see identical contexts and noise.
    Bits are accounted at a nominal 64 per scalar (d + 1 scalars).
    """
    return _run_least_squares(spec, seed, exact_channel, solve_min_rounds)
