"""Experiment harness: config files, seed fan-out, trace/summary CSVs.

Configs are YAML with an explicit ``schema`` version; a config made in code is
checked by the same rules as one read from a file.  Every simulation
writes one trace CSV per seed with header ``t,inst_regret,cum_regret,bits``
plus a ``summary.csv`` over a fixed checkpoint grid; identical config and
seed produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import Field, dataclass, field, fields

import numpy as np
import yaml

from .env import _ROUNDS_LIMIT, CONTEXT_LAWS, NOISE_LAWS, EnvironmentSpec, RegretTrace, write_table
from .known import (
    build_action_map,
    exact_xstar_obstacle,
    misspecify_xstar,
    run_known,
    run_naive_baseline,
    theta_net,
)
from .quantizer import _integer, _real
from .unknown import run_full_precision, run_unknown

__all__ = [
    "SCHEMA_VERSION",
    "ConfigValidationError",
    "AlgorithmConfig",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "run_experiment",
    "ExperimentResult",
    "SeedFigures",
    "seed_figures",
    "summarize",
    "write_summary_csv",
    "default_checkpoints",
    "build_known_action_map",
    "SUMMARY_FIELDS",
]

SCHEMA_VERSION = 1
# Largest theta net and xstar_samples a config may ask for: the net is built point by
# point in Python, and each point is an xstar row of up to xstar_samples context sets.
_NET_POINTS_LIMIT = 10_000
_XSTAR_SAMPLES_LIMIT = 10_000_000

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


# --------------------------------------------------------------------------
# parsing / validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Leaf:
    """A scalar: a value of type ``cast`` (int, float or str, read as _LEAF_READERS
    says) for which ``ok`` holds; ``rule`` completes the problem "<key> must be <rule>"."""

    cast: type
    ok: Callable[[object], bool]
    rule: str


def _at_least(cast: type, low, limit=None) -> _Leaf:
    return (_Leaf(cast, lambda v: v >= low, f">= {low}") if limit is None else
            _Leaf(cast, lambda v: low <= v <= limit, f">= {low} and at most the limit of {limit}"))


class _Kinds(dict):
    """A node whose ``kind`` picks the layout of its other keys: kind -> layout."""


def _key(default, layout, *kinds: str):
    """An ``algorithm`` key: its default, its value's layout and the kinds that read it."""
    return field(default=default, metadata={"layout": layout, "kinds": kinds})


@dataclass
class AlgorithmConfig:
    """The config's ``algorithm`` section: its ``kind`` and one field per key.
    A key its kind does not read is rejected; one left out or null is its default."""

    kind: str
    theta_grid: list | None = _key(None, [[float]], "known")  # explicit known-dist grid
    net_points: int | None = _key(None, _at_least(int, 1, _NET_POINTS_LIMIT), "known")  # or a net
    xstar_method: str = _key("auto", _Leaf(str, ("auto", "exact", "monte-carlo").__contains__,
                                            "one of auto/exact/monte-carlo"), "known")
    xstar_samples: int = _key(100_000, _at_least(int, 1, _XSTAR_SAMPLES_LIMIT), "known")
    xstar_seed: int = _key(0, _at_least(int, 0), "known")
    misspec_epsilon: float = _key(0.0, _at_least(float, 0.0), "known")
    misspec_seed: int = _key(0, _at_least(int, 0), "known")
    ridge: float = _key(1.0, _Leaf(float, lambda v: v > 0, "> 0"), "known", "naive_mean")
    solve_min_rounds: int | None = _key(None, _at_least(int, 0), "unknown", "full_precision")


# algorithm kind -> one seed's trace from the config, the seed and the known-dist
# learner's unperturbed action map; a run function is looked up here when a seed runs
_RUNS = {
    "known": lambda cfg, seed, amap: run_known(
        cfg.spec, _misspecify_for_seed(cfg, seed, amap), seed, lam=cfg.algorithm.ridge),
    "naive_mean": lambda cfg, seed, _: run_naive_baseline(cfg.spec, seed, lam=cfg.algorithm.ridge),
    "unknown": lambda cfg, seed, _: run_unknown(cfg.spec, seed, cfg.algorithm.solve_min_rounds),
    "full_precision": lambda cfg, seed, _: run_full_precision(
        cfg.spec, seed, cfg.algorithm.solve_min_rounds),
}


def _algorithm_layout(kind: str) -> tuple:
    """The keys an ``algorithm`` node of ``kind`` may set, and the config they build."""
    return ({f.name: f for f in fields(AlgorithmConfig) if kind in f.metadata.get("kinds", ())},
            lambda values: AlgorithmConfig(kind, **values))


_LAYOUT = {  # each top-level key of a config file and the layout _read reads it as
    "schema": _Leaf(int, lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    "environment": ({
        "d": _at_least(int, 1), "actions": _at_least(int, 1),
        "horizon": _at_least(int, 1, _ROUNDS_LIMIT),
        "theta_star": [float],
        "context_model": _Kinds({kind: (law.node_shape(), law.from_node)
                                 for kind, law in CONTEXT_LAWS.items()}),
        "noise_model": _Kinds({kind: (law.node_shape(), law.from_node)
                               for kind, law in NOISE_LAWS.items()}),
    }, lambda env: EnvironmentSpec(n_actions=env.pop("actions"), **env)),
    "algorithm": _Kinds({kind: _algorithm_layout(kind) for kind in _RUNS}),
    "seeds": [_at_least(int, 0)],
    "output_dir": _Leaf(str, bool, "a non-empty string"),
}


def _string(value, name: str) -> str:
    """``value`` if it is a str, else a ValueError naming it."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


# a scalar's type -> the rule that reads it; a number's is the one every call uses
_LEAF_READERS = {int: _integer, float: _real, str: _string}


@dataclass
class ExperimentConfig:
    """A config, checked by the rules of a config file whether parse_config or a caller
    builds it: its sections are read through their _LAYOUT entries, the spec checked
    itself, and _joint_problems ties them together."""

    schema: int
    spec: EnvironmentSpec
    algorithm: AlgorithmConfig
    seeds: list[int]
    output_dir: str

    def __post_init__(self):
        problems = []
        read = {key: _read(value, _LAYOUT[key], key, problems)
                for key, value in (("schema", self.schema),
                                   ("algorithm", _algorithm_node(self.algorithm)),
                                   ("seeds", self.seeds), ("output_dir", self.output_dir))}
        problems += _joint_problems(self.spec, self.algorithm if read["algorithm"] else None,
                                    read["seeds"])
        if problems:
            raise ConfigValidationError(problems)


def _algorithm_node(algo: AlgorithmConfig) -> dict:
    """The ``algorithm`` node of a config: its kind and every key set away from its
    default, one whose default is None by ``is not None``, and a NumPy grid as lists."""
    node = {}
    for f in fields(AlgorithmConfig):  # kind has no default: it is always set
        value = getattr(algo, f.name)
        if value is not None if f.default is None else value != f.default:
            node[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return node


def _joint_problems(spec, algo, seeds) -> list[str]:
    """The rules that tie a config's sections together; a section that did not read is None."""
    problems = []
    if algo is not None and algo.kind == "known":
        if (algo.theta_grid is None) == (algo.net_points is None):
            problems.append("known-dist learner needs exactly one of theta_grid or net_points")
        if spec is not None and algo.theta_grid is not None:
            lengths = sorted({len(row) for row in algo.theta_grid})
            if lengths != [spec.d]:
                problems.append(f"algorithm.theta_grid rows must have length d={spec.d}, "
                                f"got row lengths {lengths}")
        obstacle = spec is not None and algo.xstar_method == "exact" and exact_xstar_obstacle(spec)
        if obstacle:
            problems.append(f"xstar_method 'exact' is unavailable: {obstacle}")
    if seeds is not None and len(set(seeds)) != len(seeds):
        problems.append("seeds entries must be distinct")
    return problems


def _read(value, shape, name: str, problems: list[str], where: str = ""):
    """``value`` laid out as ``shape``, or None after appending a problem for
    every misfit.  A shape is ``float`` (a number), a _Leaf, ``[s]`` (a
    non-empty list of ``s``), ``{key: s}`` (a mapping with just those keys;
    ``where`` ends the problem naming any other), a _Kinds or ``(s, build)``:
    ``build`` of what ``s`` read, with a ValueError it raises a problem.  An
    ``s`` that is a dataclass field reads a left-out or null value as its default."""
    if isinstance(shape, Field):
        if value is None:
            return shape.default
        shape = shape.metadata["layout"]
    if isinstance(shape, (type, _Leaf)):
        cast = shape.cast if isinstance(shape, _Leaf) else shape
        try:
            out = _LEAF_READERS[cast](value, name)
        except ValueError as exc:
            problems.append(str(exc))
            return None
        if cast is shape or shape.ok(out):
            return out
        problems.append(f"{name} must be {shape.rule}, got {value!r}")
        return None
    if isinstance(shape, _Kinds):
        kind = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in shape:
            problems.append(f"{name}.kind must be one of {'/'.join(shape)}, got {kind!r}")
            return None
        return _read({k: v for k, v in value.items() if k != "kind"}, shape[kind], name,
                     problems, f" for kind {kind!r}")
    if isinstance(shape, tuple):
        values = _read(value, shape[0], name, problems, where)
        try:
            return None if values is None else shape[1](values)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            return None
    before = len(problems)
    if isinstance(shape, list):
        if not isinstance(value, (list, tuple)) or not value:
            empty = "non-empty " if isinstance(value, list) else ""  # == [] fails on arrays
            problems.append(f"{name} must be a {empty}list, got {value!r}")
            return None
        out = [_read(v, shape[0], f"{name}[{i}]", problems) for i, v in enumerate(value)]
    else:
        if not isinstance(value, dict):
            problems.append(f"{name} must be a mapping, got {value!r}")
            return None
        problems.extend(f"{name}: unknown key {key!r}{where}" for key in value if key not in shape)
        out = {key: _read(value.get(key), s, f"{name}.{key}", problems)
               for key, s in shape.items()}
    return out if len(problems) == before else None


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict, raising ConfigValidationError listing every problem.

    Each top-level section is read through its layout on its own, so a problem
    in one still leaves the others to be read and cross-checked."""
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config root must be a mapping"])
    problems = [f"config: unknown key {key!r}" for key in raw if key not in _LAYOUT]
    node = {key: _read(raw.get(key), shape, key, problems) for key, shape in _LAYOUT.items()}
    spec, algo, seeds = node["environment"], node["algorithm"], node["seeds"]
    if problems:  # the joint rules on the sections that did read, as ExperimentConfig runs them
        raise ConfigValidationError(problems + _joint_problems(spec, algo, seeds))
    return ExperimentConfig(schema=SCHEMA_VERSION, spec=spec, algorithm=algo, seeds=seeds,
                            output_dir=node["output_dir"])


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML experiment config."""
    with open(path, "rb") as fh:  # bytes, so an undecodable file is a YAMLError
        raw = yaml.safe_load(fh)
    return parse_config(raw)


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    figures: list[SeedFigures]  # per seed, in seed-list order; the traces are in trace_paths
    trace_paths: list[str]
    summary_rows: list[dict]
    summary_path: str


def build_known_action_map(cfg: ExperimentConfig):
    """Exact (unperturbed) action map for the known-dist learner over its theta_grid or net."""
    algo = cfg.algorithm
    grid = theta_net(cfg.spec.d, algo.net_points) if algo.theta_grid is None else algo.theta_grid
    return build_action_map(cfg.spec, grid, algo.xstar_method, algo.xstar_samples,
                            np.random.default_rng(algo.xstar_seed))


def _misspecify_for_seed(cfg: ExperimentConfig, seed: int, amap):
    """Displace the map by epsilon along a direction drawn per simulation seed."""
    algo = cfg.algorithm
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(algo.misspec_seed, seed)))
    return misspecify_xstar(amap, algo.misspec_epsilon, rng)


def _run_and_write(cfg: ExperimentConfig, seed: int, amap, path: str) -> SeedFigures:
    """One seed's trace, written to ``path`` and reduced to its figures; the trace
    goes when this returns, so a run holds one seed's trace at a time."""
    trace = _RUNS[cfg.algorithm.kind](cfg, seed, amap)
    trace.write_csv(path)
    return seed_figures(trace)


def run_experiment(cfg: ExperimentConfig, base_dir: str | None = None) -> ExperimentResult:
    """Fan the config out over its seed list and write trace + summary CSVs, each
    trace as its seed finishes."""
    out_dir = cfg.output_dir
    if base_dir is not None:
        out_dir = os.path.join(base_dir, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    amap = build_known_action_map(cfg) if cfg.algorithm.kind == "known" else None
    paths = [os.path.join(out_dir, f"trace_seed{seed:05d}.csv") for seed in cfg.seeds]
    figures = [_run_and_write(cfg, seed, amap, path) for seed, path in zip(cfg.seeds, paths)]
    rows = summarize(figures)
    summary_path = os.path.join(out_dir, "summary.csv")
    write_summary_csv(rows, summary_path)
    return ExperimentResult(config=cfg, figures=figures, trace_paths=paths,
                            summary_rows=rows, summary_path=summary_path)


# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------

def default_checkpoints(T: int) -> list[int]:
    """Checkpoint grid {T/100, T/10, T/2, T}, floored, clamped to >= 1."""
    T = _integer(T, "T")
    if T < 1:
        raise ValueError("need at least one round to summarize")
    return sorted({max(1, T // 100), max(1, T // 10), max(1, T // 2), T})


@dataclass(frozen=True)
class SeedFigures:
    """What the summary reads of one seed's trace."""

    seed: int
    rounds: int
    checkpoint_regret: dict[int, float]  # checkpoint round -> cumulative regret after it
    total_regret: float
    bits_per_round: float


def seed_figures(trace: RegretTrace) -> SeedFigures:
    """The trace reduced to its figures at default_checkpoints of its length."""
    T = len(trace)
    checkpoints = default_checkpoints(T)  # refuses an empty trace
    bits = int(trace.bits.sum(dtype=np.int64))  # exact, so the mean is as np.mean's
    return SeedFigures(trace.seed, T, {t: trace.regret_at(t) for t in checkpoints},
                       trace.total_regret, bits / T)


def summarize(figures: list[SeedFigures]) -> list[dict]:
    """Cross-seed summary rows at each checkpoint round of the seeds' figures."""
    if not figures:
        raise ValueError("no traces to summarize")
    first = figures[0]
    for i, f in enumerate(figures, 1):
        if f.rounds != first.rounds:
            raise ValueError(f"trace length mismatch: trace {i} has {f.rounds} rounds, "
                             f"trace 1 has {first.rounds}")
        if f.checkpoint_regret.keys() != first.checkpoint_regret.keys():
            raise ValueError(f"checkpoint mismatch: trace {i} has {list(f.checkpoint_regret)}, "
                             f"trace 1 has {list(first.checkpoint_regret)}")
    n = len(figures)
    bits_per_round = float(np.mean([f.bits_per_round for f in figures]))
    rows = []
    for t in first.checkpoint_regret:
        vals = np.array([f.checkpoint_regret[t] for f in figures])
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
    write_table(path, SUMMARY_FIELDS, (tuple([row[name] for name in SUMMARY_FIELDS])
                                       for row in rows))
