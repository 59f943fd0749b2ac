"""Golden sha256 digests of every CSV the shipped configs write.

Regenerate tests/golden_csv_sha256.json (config -> file -> sha256) from the
root of a checkout with

    PYTHONPATH=src python tests/golden.py

It runs all nine configs in configs/, which takes a few minutes, and prints
per config how many of its digests differ from the file it overwrites.  The
acceptance criteria that run these configs record their CSVs' digests, and
tests/test_acceptance.py::test_11_golden_csv_digests compares all nine with
the file.  The digests belong to the NumPy and BLAS they were recorded with,
which the file names under its "_platform" key; the comparison skips that key
and prints it beside the running platform's when a digest differs.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent / "configs"
GOLDEN = HERE / "golden_csv_sha256.json"
STAMP_KEY = "_platform"  # not a config name: config names are file stems in configs/


def config_names() -> list[str]:
    return sorted(path.stem for path in CONFIG_DIR.glob("*.yaml"))


def platform_stamp() -> dict:
    """The NumPy version and the BLAS it was built with, name and version."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def digests(result) -> dict:
    """File name -> sha256 of every CSV a run_experiment result wrote."""
    out = {}
    for path in result.trace_paths + [result.summary_path]:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_config(name: str, base_dir) -> dict:
    """Run configs/<name>.yaml under ``base_dir`` and digest its CSVs."""
    from bitbandit.harness import load_config, run_experiment

    return digests(run_experiment(load_config(CONFIG_DIR / f"{name}.yaml"), base_dir=base_dir))


def main() -> None:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_config(name, Path(tmp) / name) for name in config_names()}
    for name, files in table.items():  # a file new to the table counts as changed
        changed = sum(old.get(name, {}).get(file) != digest for file, digest in files.items())
        print(f"{name}: {changed} of {len(files)} digests changed")
    stamped = {STAMP_KEY: platform_stamp(), **table}
    GOLDEN.write_text(json.dumps(stamped, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests of {len(table)} configs to {GOLDEN}")


if __name__ == "__main__":
    main()
