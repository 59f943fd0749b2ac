"""Workload configs generated from the workload seed, and independent references.

Every config is a plain dict in bitbandit's YAML schema; the program sees only
the written file.  The reference computations here (expected bit counts, the
xstar enumeration, uniform-play regret) are written against the paper's
definitions with NumPy alone and never call into bitbandit, so a fault in the
program cannot hide behind a matching fault in its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # bitbandit algorithm kind
    d: int
    actions: int
    horizon: int        # rounds per simulation seed
    n_seeds: int        # simulation seeds per experiment


# Why each workload was chosen: BENCHMARK.json and README.md.  T = 4000 because
# the d=64 learner beats uniform play only after ~2000 rounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("unknown-d5", "unknown", 5, 10, 4000, 2),
        Workload("unknown-d64", "unknown", 64, 10, 4000, 1),
        Workload("known-d7", "known", 7, 2, 4000, 2),
    )
}

GAUSS_SCALE = 0.5                  # per-action covariance scale, as configs/gauss_d5_quantized
KNOWN_P_MINUS = (0.3, 0.6)         # known-d7: P(coordinate = -1/sqrt(d)) per action
KNOWN_GRID_POINTS = 15             # known-d7: seed-drawn theta grid size, plus theta*


def make_config(w: Workload, seed: int, horizon: int | None = None,
                n_seeds: int | None = None) -> dict:
    """The experiment config of workload ``w`` for workload seed ``seed``.

    The simulation seeds are drawn from ``seed``.  The unknown workloads keep
    the fixed environment of configs/gauss_d5_quantized.yaml (theta* = 1/sqrt(d)
    in every coordinate); known-d7 draws theta* and its theta grid from ``seed``.
    """
    rng = np.random.default_rng([seed, len(w.name), w.d])
    n = w.n_seeds if n_seeds is None else n_seeds
    sim_seeds = sorted(int(s) for s in rng.choice(1_000_000, size=n, replace=False))
    algo = {"kind": w.kind}
    if w.kind == "unknown":
        theta = np.full(w.d, 1.0 / math.sqrt(w.d))
        context = {"kind": "gaussian_projected", "scales": [GAUSS_SCALE] * w.actions}
    else:
        theta = _unit(rng.standard_normal(w.d))
        grid = np.array([_unit(rng.standard_normal(w.d)) * rng.random() ** (1.0 / w.d)
                         for _ in range(KNOWN_GRID_POINTS)])
        context = {"kind": "binary_support", "p_minus": list(KNOWN_P_MINUS)}
        algo.update(theta_grid=np.vstack([grid, theta]).tolist(), xstar_method="exact")
    return {
        "schema": 1,
        "environment": {
            "d": w.d,
            "actions": w.actions,
            "theta_star": theta.tolist(),
            "context_model": context,
            "noise_model": {"kind": "bernoulli"},
            "horizon": w.horizon if horizon is None else horizon,
        },
        "algorithm": algo,
        "seeds": sim_seeds,
        "output_dir": "out",
    }


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# independent references
# --------------------------------------------------------------------------

def expected_bits(kind: str, d: int) -> int:
    """Uplink bits per round: 1 + 2d + ceil(log2 C(3d, d)) unknown, 1 known."""
    if kind == "known":
        return 1
    return 1 + 2 * d + math.ceil(math.log2(math.comb(3 * d, d)))


def sample_contexts(cfg: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, K, d) context sets drawn from the config's context model."""
    env = cfg["environment"]
    K, d, cm = env["actions"], env["d"], env["context_model"]
    if cm["kind"] == "gaussian_projected":
        x = rng.standard_normal((n, K, d)) * np.sqrt(cm["scales"])[None, :, None]
        return x / np.maximum(np.linalg.norm(x, axis=2, keepdims=True), 1.0)
    minus = rng.random((n, K, d)) < np.asarray(cm["p_minus"])[None, :, None]
    return np.where(minus, -1.0, 1.0) / math.sqrt(d)


def uniform_regret(cfg: dict, rng: np.random.Generator, n: int = 20_000,
                   chunk: int = 2_000) -> float:
    """Per-round regret of uniform play, by Monte-Carlo over the environment.

    Unknown distribution: a uniformly random action.  Known distribution: a
    uniformly random menu entry theta_i, played greedily.
    """
    theta = np.asarray(cfg["environment"]["theta_star"])
    grid = cfg["algorithm"].get("theta_grid")
    total = 0.0
    for start in range(0, n, chunk):
        ctx = sample_contexts(cfg, min(chunk, n - start), rng)
        scores = ctx @ theta                                   # (n, K)
        best = scores.max(axis=1)
        if grid is None:
            total += float((best - scores.mean(axis=1)).sum())
        else:
            picks = np.argmax(ctx @ np.asarray(grid).T, axis=1)   # (n, menu)
            played = np.take_along_axis(scores, picks, axis=1)
            total += float((best[:, None] - played).mean(axis=1).sum())
    return total / n


def binary_xstar(cfg: dict) -> np.ndarray:
    """Exact xstar(theta) for every grid row of a two-action binary-support config.

    Enumerates both actions' 2^d sign vectors at once; the greedy agent plays
    action 0 unless action 1 scores strictly higher (lowest index on ties).
    """
    env = cfg["environment"]
    d, p_minus = env["d"], env["context_model"]["p_minus"]
    if env["actions"] != 2:
        raise ValueError("the reference enumeration covers two actions")
    minus = (np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1)[None, :]) & 1
    vecs = np.where(minus == 1, -1.0, 1.0) / math.sqrt(d)            # (S, d)
    k = minus.sum(axis=1)
    probs = [p ** k * (1.0 - p) ** (d - k) for p in p_minus]         # (S,) per action
    rows = []
    for theta in np.asarray(cfg["algorithm"]["theta_grid"]):
        s = vecs @ theta
        first = s[:, None] >= s[None, :]                             # (S0, S1)
        joint = probs[0][:, None] * probs[1][None, :]
        w0 = (joint * first).sum(axis=1)                             # P(play v0 of action 0)
        w1 = (joint * ~first).sum(axis=0)                            # P(play v1 of action 1)
        rows.append(w0 @ vecs + w1 @ vecs)
    return np.array(rows)
