"""Benchmark of the bitbandit simulator: three workloads, end to end and layer by layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout.  Each repetition writes the workload's config
(generated from --seed), runs it in a fresh single-threaded interpreter
(bench/child.py) through ``harness.load_config`` and ``harness.run_experiment``,
and times it from before that interpreter starts until summary.csv is written.
Repetitions continue while another one fits in --seconds; figures are medians
over repetitions.  With --trace 1, untraced and traced repetitions alternate
and the per-layer figures come from the traced ones.  Every repetition's output
files are checked (bench/checks.py).  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics; a full record goes to
.bench_out/results/.  --smoke runs every workload and its checks at a tiny
horizon and exits nonzero on any failure.
"""

import os

# One BLAS/OpenMP thread, here and in every child, before NumPy loads: with the
# library defaults a d=64 round costs far more on a 2-core machine (bench/README.md).
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, expected_bits, make_config  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 150
SMOKE_HORIZON = 100

# (traced layer, unit): reported as <layer>_<unit>, self time per call.
LAYER_METRICS = [
    ("env.sample_context", "us"),
    ("env.realize_reward", "us"),
    ("env.regret_step", "us"),
    ("quantizer.quantize_context", "us"),
    ("quantizer.reward_bit", "us"),
    ("quantizer.reconstruct_context", "us"),
    ("codec.encode", "us"),
    ("codec.frame", "us"),
    ("codec.decode", "us"),
    ("unknown.apply_update", "us"),
    ("known.build_action_map", "s"),
    ("known.greedy_action", "us"),
    ("known.linucb_select", "us"),
    ("known.linucb_update", "us"),
    ("harness.write_csv", "s"),
    ("harness.summarize", "s"),
]
NS_PER = {"us": 1e3, "s": 1e9}
# The value of a figure that could not be measured, such as the time per call of
# a layer never called.  The result line must hold every metric as a number and
# JSON has no NaN; -1 can never be a time or a size, so it cannot pass for 0.
MISSING = -1.0


def run_rep(cfg_path, work_dir, mode):
    """One fresh-interpreter run of the config; None when the child fails."""
    os.makedirs(work_dir)
    out_json = os.path.join(work_dir, "child.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD, cfg_path, work_dir, mode, out_json],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(f"{mode} run failed (exit {proc.returncode}):\n{proc.stderr}\n")
        return None
    with open(out_json) as fh:
        rep = json.load(fh)
    rep.update(mode=mode, dir=os.path.join(work_dir, "out"), t_spawn=t_spawn)
    return rep


def measure(cfg, cfg_path, work_root, seconds, traced):
    """Repetitions until the next would overrun ``seconds``; alternates modes when traced."""
    start = time.monotonic()
    reps, failed, longest, k = [], 0, 0.0, 0
    while True:
        modes = ("plain", "trace") if k % 2 == 0 else ("trace", "plain")
        for mode in (modes if traced else ("plain",)):
            began = time.monotonic()
            rep = run_rep(cfg_path, os.path.join(work_root, f"rep{k:03d}-{mode}"), mode)
            longest = max(longest, time.monotonic() - began)
            if rep is None:
                failed += len(cfg["seeds"])
            else:
                reps.append(rep)
        k += 1
        if time.monotonic() - start + longest * (2 if traced else 1) > seconds:
            return reps, k * len(cfg["seeds"]) * (2 if traced else 1), failed


def rep_figures(cfg, rep):
    """End-to-end figures of one repetition; times are from before the child started."""
    rounds = cfg["environment"]["horizon"] * len(cfg["seeds"])
    wall = rep["t_end"] - rep["t_spawn"]
    setup = rep["t_loaded"] - rep["t_spawn"] + rep["build_s"]
    return {"wall_s": wall, "setup_s": setup, "round_us": (wall - setup) / rounds * 1e6,
            "peak_rss_mb": rep["rss_kb"] / 1024.0}


def verify(cfg, reps, seed, learning):
    """Every correctness check; returns (problems, figures for the record)."""
    plain = [r for r in reps if r["mode"] == "plain"]
    if not plain:
        return ["no repetition completed"], {}
    ref = plain[0]
    ref_paths = checks.trace_paths(cfg, ref["dir"])
    traces = [checks.read_trace(p) for p in ref_paths]
    problems = checks.check_traces(cfg, traces)
    problems += checks.check_summary(cfg, traces, os.path.join(ref["dir"], "summary.csv"))
    figures = {"bits_per_round": float(np.mean(np.concatenate([t["bits"] for t in traces])))}
    if cfg["algorithm"]["kind"] == "known":
        xstar_problems = {p for r in reps
                          for p in checks.check_xstar(cfg, r["thetas"], r["table"])}
        problems += sorted(xstar_problems)
    if learning:
        found, extra = checks.check_learning(cfg, traces, seed)
        problems += found
        figures.update(extra)
    ref_files = ref_paths + [os.path.join(ref["dir"], "summary.csv")]
    for r in reps:
        if r is ref:
            continue
        files = checks.trace_paths(cfg, r["dir"]) + [os.path.join(r["dir"], "summary.csv")]
        if not checks.same_bytes(ref_files, files):
            problems.append(f"{r['mode']} repetition output differs from the first "
                            f"untraced repetition's bytes")
        if r["mode"] == "trace":
            problems += checks.check_decoded(cfg, r["decoded"])
            bits = expected_bits(cfg["algorithm"]["kind"], cfg["environment"]["d"])
            if r["message_bits"] != bits * r["messages"]:
                problems.append("traced encoder output is not exactly "
                                f"{bits} bits per message")
    return problems, figures


def layer_metrics(cfg, reps):
    """Per-layer medians over the traced repetitions.

    A layer never called reads MISSING with ``<layer>.calls`` 0.
    """
    traced = [r for r in reps if r["mode"] == "trace"]
    plain = [r for r in reps if r["mode"] == "plain"]
    rounds = cfg["environment"]["horizon"] * len(cfg["seeds"])
    out = {}

    def med(values):
        return statistics.median(values) if values else MISSING

    for layer, unit in LAYER_METRICS:
        per_call = [r["layers"][layer]["self_ns"] / r["layers"][layer]["calls"] / NS_PER[unit]
                    for r in traced if r["layers"].get(layer, {}).get("calls")]
        calls = statistics.median_low([r["layers"].get(layer, {}).get("calls", 0)
                                       for r in traced])
        out[f"{layer}_{unit}"] = (med(per_call), unit)
        out[f"{layer}.calls"] = (calls, "count")
    messages = sum(r["messages"] for r in traced)
    out["codec.bits_per_msg"] = (
        sum(r["message_bits"] for r in traced) / messages if messages else MISSING, "bits")
    sims = [r["layers"]["harness.sim"]["incl_ns"] / rounds / 1e3 for r in traced
            if r["layers"].get("harness.sim", {}).get("calls")]
    out["harness.sim_round_us"] = (med(sims), "us")
    out["harness.sim_round.calls"] = (rounds, "count")
    out["harness.import_s"] = (med([r["t_import"] - r["t_import0"] for r in traced]), "s")
    out["harness.load_config_s"] = (med([r["t_loaded"] - r["t_import"] for r in traced]), "s")
    traced_round = med([rep_figures(cfg, r)["round_us"] for r in traced])
    plain_round = med([rep_figures(cfg, r)["round_us"] for r in plain])
    out["trace.overhead_us"] = (traced_round - plain_round, "us")
    return out


def end_to_end_metrics(cfg, reps, figures):
    plain = [rep_figures(cfg, r) for r in reps if r["mode"] == "plain"]
    out = {name: (statistics.median(f[name] for f in plain), unit)
           for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("round_us", "us"),
                              ("peak_rss_mb", "MB"))}
    out["bits_per_round"] = (figures.get("bits_per_round", MISSING), "bits")
    return out


def git_rev():
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp():
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_rev": git_rev()}


def run_workload(name, seed, seconds, traced, smoke=False):
    """Generate, measure and check one workload; returns (result line, record)."""
    w = WORKLOADS[name]
    cfg = (make_config(w, seed, horizon=SMOKE_HORIZON, n_seeds=2) if smoke
           else make_config(w, seed))
    tag = f"{name}-seed{seed}-trace{int(traced)}" + ("-smoke" if smoke else "")
    work_root = os.path.join(OUT, "work", tag)
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)
    cfg_path = os.path.join(work_root, "config.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)

    reps, attempted, failed = measure(cfg, cfg_path, work_root, 0 if smoke else seconds,
                                      traced)
    try:
        problems, figures = verify(cfg, reps, seed, learning=not smoke)
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed output file
        problems, figures = [f"output files unreadable: {exc!r}"], {}
    metrics = {}
    if reps:
        metrics = (layer_metrics(cfg, reps) if traced
                   else end_to_end_metrics(cfg, reps, figures))
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "smoke": smoke, "machine": machine_stamp(),
              "config": cfg, "attempted": attempted, "failed": failed,
              "problems": problems, "figures": figures,
              "repetitions": [{"mode": r["mode"], **rep_figures(cfg, r)} for r in reps],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if not problems:
        shutil.rmtree(work_root)
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}
    return line, record


def print_record(record):
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas_threads=1 git_rev={m['git_rev']}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"repetitions={len(record['repetitions'])}")
    for key, value in record["figures"].items():
        print(f"# {key} = {value:.6g}")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


def smoke():
    ok = True
    for name in WORKLOADS:
        for traced in (False, True):
            line, record = run_workload(name, 0, 0, traced, smoke=True)
            passed = line["correct"] and line["failed"] == 0
            ok &= passed
            print(f"[smoke {name} trace={int(traced)}] {'PASS' if passed else 'FAIL'}")
            for problem in record["problems"]:
                print(f"    {problem}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and its checks at a tiny horizon")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bitbandit", "__init__.py")):
        print(f"no bitbandit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
