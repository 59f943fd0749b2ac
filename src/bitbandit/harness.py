"""Experiment harness: config files, seed fan-out, trace/summary CSVs.

Configs are YAML with an explicit ``schema`` version.  A loaded config
round-trips losslessly through :func:`config_to_dict`.  Every simulation
writes one trace CSV per seed with header ``t,inst_regret,cum_regret,bits``
plus a ``summary.csv`` over a fixed checkpoint grid; identical config and
seed produce byte-identical files.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .env import CONTEXT_LAWS, NOISE_LAWS, EnvironmentSpec, RegretTrace, read_table, write_table
from .known import (
    build_action_map,
    exact_xstar_obstacle,
    misspecify_xstar,
    run_known,
    run_naive_baseline,
    theta_net,
)
from .unknown import run_full_precision, run_unknown

__all__ = [
    "SCHEMA_VERSION",
    "ConfigValidationError",
    "AlgorithmConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "dump_config",
    "run_experiment",
    "ExperimentResult",
    "summarize",
    "write_summary_csv",
    "read_summary_csv",
    "default_checkpoints",
    "build_known_action_map",
    "SUMMARY_FIELDS",
]

SCHEMA_VERSION = 1

ALGORITHM_KINDS = ("known", "naive_mean", "unknown", "full_precision")

# summary.csv column -> the type it is read back as, in column order
SUMMARY_FIELDS = {
    "t": int,
    "mean_cum_regret": float,
    "stddev_cum_regret": float,
    "ci95_lo": float,
    "ci95_hi": float,
    "mean_bits_per_round": float,
    "n_seeds": int,
}


class ConfigValidationError(ValueError):
    """Carries every violation found in a config, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in problems))


def _numeric(default, minimum):
    """A numeric AlgorithmConfig field: its default and its smallest valid value."""
    return field(default=default, metadata={"min": minimum})


@dataclass
class AlgorithmConfig:
    """The config's ``algorithm`` section, one field per key; parsing coerces the
    int and float fields (_CASTS) and bounds them below by ``metadata["min"]``."""

    kind: str
    theta_grid: list | None = None        # explicit grid for the known-dist learner
    net_points: int | None = _numeric(None, 1)  # or: deterministic net of this many points
    xstar_method: str = "auto"            # auto | exact | monte-carlo
    xstar_samples: int = _numeric(100_000, 1)
    xstar_seed: int = _numeric(0, 0)
    misspec_epsilon: float = _numeric(0.0, 0.0)
    misspec_seed: int = _numeric(0, 0)
    ridge: float = 1.0                    # must be positive, checked on parsing
    solve_min_rounds: int | None = _numeric(None, 0)  # unknown-dist: first solving round
    pilot_rounds: int = _numeric(0, 0)    # unknown-dist: excitation dry-run length


# Annotation (a string, under postponed evaluation) -> type a config value is coerced to.
_CASTS = {"int": int, "int | None": int, "float": float}


@dataclass
class ExperimentConfig:
    schema: int
    spec: EnvironmentSpec
    algorithm: AlgorithmConfig
    seeds: list[int]
    output_dir: str


# --------------------------------------------------------------------------
# parsing / validation
# --------------------------------------------------------------------------

def _parse_law(node, laws: dict, section: str, problems: list[str]):
    """The law of config node ``environment.<section>``, built by the class its
    ``kind`` names in ``laws``, or None after appending a problem."""
    kind = node.get("kind") if isinstance(node, dict) else None
    if not isinstance(kind, str) or kind not in laws:
        problems.append(f"{section}.kind must be one of {'/'.join(laws)}, got {kind!r}")
        return None
    law = laws[kind]
    values = _read({k: v for k, v in node.items() if k != "kind"}, law.node_shape(),
                   section, problems)
    if values is None:
        return None
    try:
        return law.from_node(values)
    except ValueError as exc:
        problems.append(f"{section}: {exc}")
        return None


def _read(value, shape, name: str, problems: list[str]):
    """``value`` laid out as ``shape`` -- ``float``, ``[s]`` for a list of ``s`` or
    ``{key: s}`` for a node with just those keys -- with each number read by
    _coerce, or None after appending a problem for every misfit."""
    if shape is float:
        return _coerce(value, float, name, problems)
    before = len(problems)
    if isinstance(shape, list):
        if not isinstance(value, (list, tuple)):
            problems.append(f"{name} must be a list, got {value!r}")
            return None
        out = [_read(v, shape[0], f"{name}[{i}]", problems) for i, v in enumerate(value)]
    else:
        if not isinstance(value, dict):
            problems.append(f"{name} must be a mapping, got {value!r}")
            return None
        problems.extend(f"{name}: unknown key {key!r}" for key in value if key not in shape)
        out = {key: _read(value.get(key), s, f"{name}.{key}", problems)
               for key, s in shape.items()}
    return out if len(problems) == before else None


def _coerce(value, cast, name: str, problems: list[str], minimum=None):
    """``value`` as an int or a finite float, or None after appending a problem."""
    try:  # booleans, non-integral floats and non-finite numbers are rejected
        out = None if isinstance(value, bool) else cast(value)
        if (cast is float and not math.isfinite(out)
                or isinstance(value, float) and out != value):
            out = None
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None:
        problems.append(f"{name} must be {'an integer' if cast is int else 'a number'}, "
                        f"got {value!r}")
        return None
    if minimum is not None and out < minimum:
        problems.append(f"{name} must be >= {minimum}, got {value!r}")
        return None
    return out


def _check_theta_grid(grid, d: int | None, problems: list[str]) -> None:
    """Append a problem unless ``grid`` is a list of length-d rows of finite numbers."""
    if not isinstance(grid, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in grid):
        problems.append(f"algorithm.theta_grid must be a list of rows, got {grid!r}")
        return
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for row in grid for v in row):
        problems.append("algorithm.theta_grid entries must be finite numbers")
    lengths = sorted({len(row) for row in grid})
    if d is not None and lengths and lengths != [d]:
        problems.append(f"algorithm.theta_grid rows must have length d={d}, "
                        f"got row lengths {lengths}")
    elif len(lengths) > 1:
        problems.append(f"algorithm.theta_grid rows differ in length: {lengths}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict, raising ConfigValidationError listing every problem."""
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config root must be a mapping"])
    if raw.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}")

    env_node = raw.get("environment")
    spec = None
    if not isinstance(env_node, dict):
        problems.append("missing 'environment' section")
    else:
        cm = _parse_law(env_node.get("context_model"), CONTEXT_LAWS, "context_model", problems)
        nm = _parse_law(env_node.get("noise_model"), NOISE_LAWS, "noise_model", problems)
        sizes = [_coerce(env_node.get(key), int, f"environment.{key}", problems, 1)
                 for key in ("d", "actions", "horizon")]
        theta_star = _read(env_node.get("theta_star"), [float], "environment.theta_star",
                           problems)
        if None not in (cm, nm, theta_star, *sizes):
            try:
                spec = EnvironmentSpec(
                    d=sizes[0],
                    n_actions=sizes[1],
                    theta_star=np.asarray(theta_star, dtype=float),
                    context_model=cm,
                    noise_model=nm,
                    horizon=sizes[2],
                )
            except (TypeError, ValueError) as exc:
                problems.append(str(exc))

    algo_node = raw.get("algorithm")
    algo = None
    if not isinstance(algo_node, dict):
        problems.append("missing 'algorithm' section")
    else:
        kind = algo_node.get("kind")
        if kind not in ALGORITHM_KINDS:
            problems.append(f"algorithm.kind must be one of {ALGORITHM_KINDS}, got {kind!r}")
        else:
            known_keys = {f.name for f in fields(AlgorithmConfig)}
            for key in algo_node:
                if key not in known_keys:
                    problems.append(f"algorithm: unknown key {key!r}")
            values = {}
            for f in fields(AlgorithmConfig):
                value = algo_node.get(f.name, f.default)
                if f.type in _CASTS and (value is not None or f.default is not None):
                    value = _coerce(value, _CASTS[f.type], f"algorithm.{f.name}",
                                    problems, f.metadata.get("min"))
                values[f.name] = f.default if value is None else value
            algo = AlgorithmConfig(**values)
            if kind == "known" and not algo.theta_grid and not algo.net_points:
                problems.append("known-dist learner needs theta_grid or net_points")
            if algo.theta_grid is not None:
                _check_theta_grid(algo.theta_grid, spec.d if spec else None, problems)
            if kind == "known" and algo.xstar_method == "exact" and spec is not None:
                obstacle = exact_xstar_obstacle(spec)
                if obstacle:
                    problems.append(f"xstar_method 'exact' is unavailable: {obstacle}")
            if algo.xstar_method not in ("auto", "exact", "monte-carlo"):
                problems.append(f"unknown xstar_method {algo.xstar_method!r}")
            if algo.ridge <= 0:
                problems.append("ridge must be positive")

    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        problems.append("'seeds' must be a non-empty list of integers")
    else:
        seeds = [_coerce(s, int, "'seeds' entry", problems, 0) for s in seeds]
        if None not in seeds and len(set(seeds)) != len(seeds):
            problems.append("'seeds' entries must be distinct")

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        problems.append("'output_dir' must be a non-empty string")

    if problems:
        raise ConfigValidationError(problems)
    return ExperimentConfig(
        schema=SCHEMA_VERSION, spec=spec, algorithm=algo,
        seeds=seeds, output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment config."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return parse_config(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-types dict that parses back to an equivalent config."""
    algo = {"kind": cfg.algorithm.kind}
    for f in fields(AlgorithmConfig):
        value = getattr(cfg.algorithm, f.name)
        if value != f.default:
            algo[f.name] = value
    return {
        "schema": cfg.schema,
        "environment": {
            "d": cfg.spec.d,
            "actions": cfg.spec.n_actions,
            "theta_star": cfg.spec.theta_star.tolist(),
            "context_model": cfg.spec.context_model.to_node(),
            "noise_model": cfg.spec.noise_model.to_node(),
            "horizon": cfg.spec.horizon,
        },
        "algorithm": algo,
        "seeds": list(cfg.seeds),
        "output_dir": cfg.output_dir,
    }


def dump_config(cfg: ExperimentConfig, path) -> None:
    """Write the config back out as YAML."""
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    traces: list[RegretTrace]
    trace_paths: list[str]
    summary_rows: list[dict]
    summary_path: str


def _resolve_theta_grid(cfg: ExperimentConfig) -> np.ndarray:
    algo = cfg.algorithm
    if algo.theta_grid:
        return np.asarray(algo.theta_grid, dtype=float)
    return theta_net(cfg.spec.d, algo.net_points)


def build_known_action_map(cfg: ExperimentConfig):
    """Exact (unperturbed) action map for the known-dist learner."""
    algo = cfg.algorithm
    rng = np.random.default_rng(algo.xstar_seed)
    return build_action_map(
        cfg.spec, _resolve_theta_grid(cfg), method=algo.xstar_method,
        n_samples=algo.xstar_samples, rng=rng,
    )


def _misspecify_for_seed(cfg: ExperimentConfig, seed: int, amap):
    """Displace the map by epsilon along a direction drawn per simulation seed."""
    algo = cfg.algorithm
    if algo.misspec_epsilon <= 0:
        return amap
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(algo.misspec_seed, seed))
    )
    return misspecify_xstar(amap, algo.misspec_epsilon, rng)


def _run_one_seed(cfg: ExperimentConfig, seed: int, amap) -> RegretTrace:
    spec, algo = cfg.spec, cfg.algorithm
    if algo.kind == "known":
        return run_known(spec, _misspecify_for_seed(cfg, seed, amap), seed, lam=algo.ridge)
    if algo.kind == "naive_mean":
        return run_naive_baseline(spec, seed, lam=algo.ridge)
    if algo.kind == "unknown":
        return run_unknown(spec, seed, solve_min_rounds=algo.solve_min_rounds,
                           pilot_rounds=algo.pilot_rounds)
    if algo.kind == "full_precision":
        return run_full_precision(spec, seed, solve_min_rounds=algo.solve_min_rounds)
    raise ValueError(f"unknown algorithm kind {algo.kind!r}")


def run_experiment(cfg: ExperimentConfig, base_dir: str | None = None) -> ExperimentResult:
    """Fan the config out over its seed list and write trace + summary CSVs."""
    out_dir = cfg.output_dir
    if base_dir is not None:
        out_dir = os.path.join(base_dir, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    amap = build_known_action_map(cfg) if cfg.algorithm.kind == "known" else None
    traces, paths = [], []
    for seed in cfg.seeds:
        trace = _run_one_seed(cfg, seed, amap)
        path = os.path.join(out_dir, f"trace_seed{seed:05d}.csv")
        trace.write_csv(path)
        traces.append(trace)
        paths.append(path)
    rows = summarize(traces)
    summary_path = os.path.join(out_dir, "summary.csv")
    write_summary_csv(rows, summary_path)
    return ExperimentResult(config=cfg, traces=traces, trace_paths=paths,
                            summary_rows=rows, summary_path=summary_path)


# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------

def default_checkpoints(T: int) -> list[int]:
    """Checkpoint grid {T/100, T/10, T/2, T}, floored, clamped to >= 1."""
    if T < 1:
        raise ValueError("need at least one round to summarize")
    return sorted({max(1, T // 100), max(1, T // 10), max(1, T // 2), T})


def summarize(traces: list[RegretTrace], checkpoints: list[int] | None = None) -> list[dict]:
    """Cross-seed summary rows at each checkpoint round."""
    if not traces:
        raise ValueError("no traces to summarize")
    T = len(traces[0])
    for i, tr in enumerate(traces, 1):
        if len(tr) != T:
            raise ValueError(
                f"trace length mismatch: trace {i} has {len(tr)} rounds, trace 1 has {T}"
            )
    if checkpoints is None:
        checkpoints = default_checkpoints(T)
    if any(not 1 <= t <= T for t in checkpoints):
        raise ValueError(f"checkpoints must lie in 1..{T}")
    n = len(traces)
    bits_per_round = float(np.mean([np.mean(tr.bits) for tr in traces]))
    rows = []
    for t in checkpoints:
        vals = np.array([tr.regret_at(t) for tr in traces])
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1)) if n > 1 else 0.0
        half = 1.96 * sd / math.sqrt(n)
        rows.append({
            "t": t,
            "mean_cum_regret": mean,
            "stddev_cum_regret": sd,
            "ci95_lo": mean - half,
            "ci95_hi": mean + half,
            "mean_bits_per_round": bits_per_round,
            "n_seeds": n,
        })
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    """One line per row, in SUMMARY_FIELDS order."""
    write_table(path, SUMMARY_FIELDS, ([row[name] for name in SUMMARY_FIELDS] for row in rows))


def read_summary_csv(path) -> list[dict]:
    return read_table(path, SUMMARY_FIELDS)
