"""The benchmark's smoke run as a tier-1 contract.

``bench/run.py --smoke`` runs every workload at a tiny horizon, untraced and
traced, and checks each run's output files.  The traced runs wrap, by name,
the public functions of the package that ``bench/child.py`` times, so renaming
or deleting one of them fails here and not first in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("unknown-d5", "unknown-d64", "known-d7")


def test_bench_smoke_passes_every_workload_traced_and_untraced():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    report = proc.stdout + proc.stderr
    assert proc.returncode == 0, report
    for name in WORKLOADS:
        for trace in (0, 1):
            assert f"[smoke {name} trace={trace}] PASS" in proc.stdout, report
