"""Correctness checks on a run's output files, computed apart from the program.

Each check returns a list of problems (empty when the check passes).  Trace
and summary CSVs are parsed here with the csv module, and every expected value
is recomputed from the config with the references in workloads.py.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from workloads import binary_xstar, expected_bits, uniform_regret

TRACE_HEADER = ["t", "inst_regret", "cum_regret", "bits"]
SUMMARY_HEADER = ["t", "mean_cum_regret", "stddev_cum_regret", "ci95_lo", "ci95_hi",
                  "mean_bits_per_round", "n_seeds"]
REL_TOL = 1e-9


def trace_paths(cfg: dict, out_dir: str) -> list[str]:
    """The trace CSV path of every simulation seed, in seed-list order."""
    return [os.path.join(out_dir, f"trace_seed{s:05d}.csv") for s in cfg["seeds"]]


def read_trace(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != TRACE_HEADER:
        raise ValueError(f"{path}: header {rows[0]}")
    cols = list(zip(*rows[1:]))
    return {"t": np.array(cols[0], dtype=np.int64),
            "inst": np.array(cols[1], dtype=float),
            "cum": np.array(cols[2], dtype=float),
            "bits": np.array(cols[3], dtype=np.int64)}


def check_traces(cfg: dict, traces: list[dict]) -> list[str]:
    """Row count, exact bits per row, inst_regret >= 0, cum_regret = running sum."""
    env = cfg["environment"]
    T, bits = env["horizon"], expected_bits(cfg["algorithm"]["kind"], env["d"])
    problems = []
    for seed, tr in zip(cfg["seeds"], traces):
        if not np.array_equal(tr["t"], np.arange(1, T + 1)):
            problems.append(f"seed {seed}: rounds are not 1..{T}")
            continue
        if np.any(tr["bits"] != bits):
            problems.append(f"seed {seed}: {int(np.sum(tr['bits'] != bits))} rows "
                            f"do not carry exactly {bits} bits")
        if np.any(tr["inst"] < 0):
            problems.append(f"seed {seed}: negative inst_regret")
        running = np.cumsum(tr["inst"])
        if not np.allclose(tr["cum"], running, rtol=REL_TOL, atol=1e-12):
            problems.append(f"seed {seed}: cum_regret is not the running sum of "
                            f"inst_regret (max gap {np.max(np.abs(tr['cum'] - running)):.3g})")
    return problems


def check_summary(cfg: dict, traces: list[dict], path: str) -> list[str]:
    """summary.csv against mean, sd and 95% CI recomputed over the traces."""
    T, n = cfg["environment"]["horizon"], len(traces)
    checkpoints = sorted({max(1, T // 100), max(1, T // 10), max(1, T // 2), T})
    cum = np.array([tr["cum"] for tr in traces])
    bits = float(np.mean([tr["bits"].mean() for tr in traces]))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != SUMMARY_HEADER:
        return [f"summary header {rows[0]}"]
    if [int(r[0]) for r in rows[1:]] != checkpoints:
        return [f"summary checkpoints {[r[0] for r in rows[1:]]}, expected {checkpoints}"]
    problems = []
    for row in rows[1:]:
        t = int(row[0])
        vals = cum[:, t - 1]
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1)) if n > 1 else 0.0
        half = 1.96 * sd / math.sqrt(n)
        want = [mean, sd, mean - half, mean + half, bits, n]
        got = [float(v) for v in row[1:]]
        if not np.allclose(got, want, rtol=REL_TOL, atol=1e-12):
            problems.append(f"summary row t={t}: {got} != recomputed {want}")
    return problems


def check_xstar(cfg: dict, thetas, table) -> list[str]:
    """The program's xstar table against the reference enumeration, to 1e-12."""
    if not np.array_equal(np.asarray(thetas), np.asarray(cfg["algorithm"]["theta_grid"])):
        return ["xstar table thetas differ from the config's theta_grid"]
    gap = float(np.max(np.abs(np.asarray(table) - binary_xstar(cfg))))
    return [] if gap <= 1e-12 else [f"xstar table differs from the enumeration by {gap:.3g}"]


def check_learning(cfg: dict, traces: list[dict], seed: int) -> tuple[list[str], dict]:
    """Late-half per-round regret, averaged over seeds, below uniform play's."""
    T = cfg["environment"]["horizon"]
    late = float(np.mean([tr["inst"][T // 2:].mean() for tr in traces]))
    uniform = uniform_regret(cfg, np.random.default_rng([seed, 7919]))
    figures = {"late_half_regret": late, "uniform_regret": uniform}
    if late < uniform:
        return [], figures
    return [f"late-half regret {late:.4f} per round is not below uniform play's "
            f"{uniform:.4f}"], figures


def check_decoded(cfg: dict, decoded: dict) -> list[str]:
    """Traced run: every decoded context on the lattice and within one grid step."""
    env = cfg["environment"]
    if cfg["algorithm"]["kind"] != "unknown":
        return []
    rounds = env["horizon"] * len(cfg["seeds"])
    if decoded["rounds"] != rounds:
        return [f"traced run checked {decoded['rounds']} decoded contexts, "
                f"expected {rounds}"]
    problems = []
    if decoded["l1_violations"]:
        problems.append(f"{decoded['l1_violations']} decoded magnitude vectors "
                        f"exceed ||v||_1 <= {2 * env['d']}")
    if decoded["step_violations"]:
        problems.append(f"{decoded['step_violations']} reconstructed contexts lie "
                        f"more than one grid step from the played context")
    return problems


def same_bytes(paths_a: list[str], paths_b: list[str]) -> bool:
    for a, b in zip(paths_a, paths_b, strict=True):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True
