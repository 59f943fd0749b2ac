"""Tests for config parsing, the experiment runner, summaries, and the CLI."""

import copy
import dataclasses
import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import golden
from bitbandit.cli import main as cli_main
from bitbandit.env import RegretTrace, read_table
from bitbandit.harness import (
    _NET_POINTS_LIMIT,
    _ROUNDS_LIMIT,
    _XSTAR_SAMPLES_LIMIT,
    SUMMARY_FIELDS,
    AlgorithmConfig,
    ConfigValidationError,
    ExperimentConfig,
    SeedFigures,
    default_checkpoints,
    load_config,
    parse_config,
    run_experiment,
    seed_figures,
    summarize,
)
from bitbandit.harness import _algorithm_node
from bitbandit.quantizer import _integer, _real

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "schema": 1,
    "environment": {
        "d": 1,
        "actions": 2,
        "theta_star": [1.0],
        "context_model": {"kind": "binary_support", "p_minus": [0.25, 0.5]},
        "noise_model": {"kind": "bernoulli"},
        "horizon": 60,
    },
    "algorithm": {"kind": "known", "theta_grid": [[-1.0], [1.0]]},
    "seeds": [0, 1],
    "output_dir": "results/demo",
}


# One config node per law, each valid for BASE_CONFIG's d=1 and two actions.
CONTEXT_MODELS = {
    "binary_support": BASE_CONFIG["environment"]["context_model"],
    "custom": {"kind": "custom", "actions": [
        {"support": [[1.0], [-0.5]], "probs": [0.25, 0.75]},
        {"support": [[0.2]], "probs": [1.0]},
    ]},
    "gaussian_projected": {"kind": "gaussian_projected", "scales": [0.5, 1.0]},
}
NOISE_MODELS = {
    "bernoulli": BASE_CONFIG["environment"]["noise_model"],
    "truncated_gaussian": {"kind": "truncated_gaussian", "sigma": 0.3},
}


def rebuilt_in_code(cfg):
    """``cfg`` made again from copies of its fields, as a caller would build it, so
    the spec's and the config's checks run once more."""
    algo = AlgorithmConfig(**{f.name: copy.deepcopy(getattr(cfg.algorithm, f.name))
                              for f in dataclasses.fields(AlgorithmConfig)})
    return ExperimentConfig(schema=cfg.schema, spec=dataclasses.replace(cfg.spec),
                            algorithm=algo, seeds=list(cfg.seeds), output_dir=cfg.output_dir)


def make_config(**overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    for key, value in overrides.items():
        section, _, leaf = key.partition("__")
        if leaf:
            raw[section][leaf] = value
        else:
            raw[section] = value
    return raw


class TestConfigParsing:
    def test_valid_config_parses(self):
        cfg = parse_config(make_config())
        assert cfg.spec.d == 1
        assert cfg.algorithm.kind == "known"
        assert cfg.seeds == [0, 1]

    def test_every_problem_is_listed(self):
        raw = make_config(
            schema=99,
            seeds=[0, 0],
            output_dir="",
        )
        raw["algorithm"]["kind"] = "mystery"
        with pytest.raises(ConfigValidationError) as exc:
            parse_config(raw)
        text = str(exc.value)
        assert len(exc.value.problems) >= 4
        for fragment in ("schema", "mystery", "seeds", "output_dir"):
            assert fragment in text

    @pytest.mark.parametrize("change, overrides", [
        ({"seeds": [1, 1]}, {"seeds": [1, 1]}),
        ({"algorithm": AlgorithmConfig("known", theta_grid=[[-1.0], [1.0]], net_points=7)},
         {"algorithm__net_points": 7}),
        ({"algorithm": AlgorithmConfig("known", theta_grid=[[1.0, 0.0]])},
         {"algorithm__theta_grid": [[1.0, 0.0]]}),
        ({"algorithm": AlgorithmConfig("bogus")}, {"algorithm": {"kind": "bogus"}}),
        ({"algorithm": AlgorithmConfig("unknown", net_points=5, ridge=-3.0)},
         {"algorithm": {"kind": "unknown", "net_points": 5, "ridge": -3.0}}),
        ({"algorithm": AlgorithmConfig("known", theta_grid=[[-1.0], [1.0]], ridge=-3.0)},
         {"algorithm__ridge": -3.0}),
        ({"seeds": [-1]}, {"seeds": [-1]}),
        ({"seeds": []}, {"seeds": []}),
        ({"output_dir": ""}, {"output_dir": ""}),
        ({"schema": 2}, {"schema": 2}),
    ])
    def test_a_config_made_in_code_is_checked_like_the_same_yaml(self, change, overrides):
        cfg = parse_config(make_config())
        with pytest.raises(ConfigValidationError) as made:
            dataclasses.replace(cfg, **change)
        with pytest.raises(ConfigValidationError) as parsed:
            parse_config(make_config(**overrides))
        assert made.value.problems == parsed.value.problems

    def test_a_grid_made_in_code_may_be_a_numpy_array(self):
        """The grid alone is not read as a list of lists: its rows are checked against d."""
        cfg = parse_config(make_config())
        grid = np.array([[-1.0], [1.0]])
        made = dataclasses.replace(cfg, algorithm=AlgorithmConfig("known", theta_grid=grid))
        assert made.algorithm.theta_grid is grid
        with pytest.raises(ConfigValidationError, match="rows must have length d=1"):
            dataclasses.replace(cfg, algorithm=AlgorithmConfig("known", theta_grid=grid.T))

    def test_seeds_made_in_code_must_be_a_list(self):
        """The seeds' rule is the config file's: an array is refused by name."""
        cfg = parse_config(make_config())
        with pytest.raises(ConfigValidationError) as exc:
            dataclasses.replace(cfg, seeds=np.array([0, 1]))
        assert exc.value.problems == ["seeds must be a list, got array([0, 1])"]

    def test_an_empty_grid_in_code_is_no_grid(self):
        """A grid is picked by ``is None``, so an empty one is refused, not replaced by
        the net, as the same config file is."""
        cfg = parse_config(make_config())
        with pytest.raises(ConfigValidationError) as made:
            dataclasses.replace(cfg, algorithm=AlgorithmConfig("known", theta_grid=[],
                                                               net_points=3))
        with pytest.raises(ConfigValidationError) as parsed:
            parse_config(make_config(algorithm__theta_grid=[], algorithm__net_points=3))
        assert made.value.problems == parsed.value.problems == [
            "algorithm.theta_grid must be a non-empty list, got []"]

    @pytest.mark.parametrize("grid", [
        [[math.nan], [1.0]], [[math.inf], [1.0]], [[True], [1.0]], [["x"], [1.0]],
        np.array([[math.nan], [1.0]]), np.array([[-math.inf], [1.0]]),
    ], ids=["nan", "inf", "bool", "str", "array-nan", "array-inf"])
    def test_a_grid_made_in_code_obeys_the_files_entry_rule(self, grid):
        """Each entry of a grid made in code, a NumPy array's too, is read as the same
        config file's is, and refused with the same problems before anything runs."""
        cfg = parse_config(make_config())
        with pytest.raises(ConfigValidationError) as parsed:
            parse_config(make_config(algorithm__theta_grid=grid.tolist()
                                     if isinstance(grid, np.ndarray) else grid))
        with pytest.raises(ConfigValidationError) as made:
            dataclasses.replace(cfg, algorithm=AlgorithmConfig("known", theta_grid=grid))
        assert made.value.problems == parsed.value.problems
        assert parsed.value.problems[0].startswith("algorithm.theta_grid[0][0] must be a number")

    def test_empty_yaml_is_not_a_mapping(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigValidationError, match="config root must be a mapping"):
            load_config(path)

    def test_a_section_that_is_not_a_mapping(self):
        with pytest.raises(ConfigValidationError, match="environment must be a mapping, got 3"):
            parse_config(make_config(environment=3))

    def test_unknown_algorithm_key_rejected(self):
        raw = make_config()
        raw["algorithm"]["learning_rate"] = 0.1
        with pytest.raises(ConfigValidationError, match="learning_rate"):
            parse_config(raw)

    def test_known_kind_needs_a_grid(self):
        raw = make_config(algorithm={"kind": "known"})
        with pytest.raises(ConfigValidationError, match="theta_grid"):
            parse_config(raw)

    def test_environment_problems_surface(self):
        raw = make_config(environment__horizon=-3)
        with pytest.raises(ConfigValidationError, match="horizon"):
            parse_config(raw)

    def test_bad_context_kind(self):
        raw = make_config()
        raw["environment"]["context_model"] = {"kind": "uniform"}
        with pytest.raises(ConfigValidationError, match="context_model"):
            parse_config(raw)

    @pytest.mark.parametrize("key, value, fragment", [
        ("environment__d", None, "environment.d"),
        ("algorithm__xstar_samples", "abc", "xstar_samples"),
        ("seeds", [-1], "seeds"),
        ("algorithm", {"kind": "unknown", "solve_min_rounds": "x"}, "solve_min_rounds"),
        ("environment__horizon", 0, "environment.horizon"),
        ("environment__context_model", {"kind": "binary_support", "p_minus": [True, False]},
         "context_model.p_minus"),
        ("environment__context_model", {"kind": "binary_support", "p_minus": 0.3},
         "context_model.p_minus must be a list"),
        ("environment__context_model", {"kind": "custom", "actions": [
            {"support": [[True]], "probs": [1.0]}, {"support": [[0.5]], "probs": [1.0]},
        ]}, "must be a number, got True"),
        ("environment__noise_model", {"kind": "truncated_gaussian", "sigma": True},
         "noise_model.sigma must be a number, got True"),
        ("environment__noise_model", {"kind": "truncated_gaussian", "sigma": "x"},
         "noise_model.sigma must be a number, got 'x'"),
        ("environment__noise_model", {"kind": "truncated_gaussian"}, "noise_model.sigma"),
        ("environment__theta_star", [True], "environment.theta_star"),
        ("environment__theta_star", ["abc"], "environment.theta_star"),
    ])
    def test_mistyped_value_is_a_config_error(self, key, value, fragment, tmp_path, capsys):
        raw = make_config(**{key: value})
        with pytest.raises(ConfigValidationError, match=fragment):
            parse_config(raw)
        cfg_path = tmp_path / "bad.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, 5.0, "5"])
    @pytest.mark.parametrize("key, config", [
        ("schema", lambda v: make_config(schema=v)),
        ("environment.d", lambda v: make_config(environment__d=v)),
        ("environment.actions", lambda v: make_config(environment__actions=v)),
        ("environment.horizon", lambda v: make_config(environment__horizon=v)),
        ("seeds[1]", lambda v: make_config(seeds=[0, v])),
        ("algorithm.net_points", lambda v: make_config(
            algorithm={"kind": "known", "net_points": v})),
        *[(f"algorithm.{key}", lambda v, key=key: make_config(
            algorithm__xstar_method="monte-carlo", **{f"algorithm__{key}": v}))
          for key in ("xstar_samples", "xstar_seed", "misspec_seed")],
        ("algorithm.solve_min_rounds", lambda v: make_config(
            algorithm={"kind": "unknown", "solve_min_rounds": v})),
    ])
    def test_an_integer_key_refuses_what_a_call_refuses(self, key, config, value):
        """Every integer leaf is read by _integer: a bool, a float such as 5.0 and a
        string are refused with the message a call gives."""
        with pytest.raises(ValueError) as call:
            _integer(value, key)
        with pytest.raises(ConfigValidationError) as exc:
            parse_config(config(value))
        assert exc.value.problems == [str(call.value)]

    @pytest.mark.parametrize("value", [True, "1", float("nan")])
    @pytest.mark.parametrize("key, config", [
        ("environment.theta_star[0]", lambda v: make_config(environment__theta_star=[v])),
        ("algorithm.theta_grid[0][0]", lambda v: make_config(
            algorithm__theta_grid=[[v], [1.0]])),
        ("environment.context_model.scales[0]", lambda v: make_config(
            environment__context_model={"kind": "gaussian_projected", "scales": [v, 1.0]})),
        ("environment.context_model.p_minus[0]", lambda v: make_config(
            environment__context_model={"kind": "binary_support", "p_minus": [v, 0.5]})),
        ("environment.noise_model.sigma", lambda v: make_config(
            environment__noise_model={"kind": "truncated_gaussian", "sigma": v})),
        ("environment.context_model.actions[0].support[1][0]", lambda v: make_config(
            environment__context_model={"kind": "custom", "actions": [
                {"support": [[1.0], [v]], "probs": [0.25, 0.75]},
                {"support": [[0.2]], "probs": [1.0]}]})),
        ("environment.context_model.actions[1].probs[0]", lambda v: make_config(
            environment__context_model={"kind": "custom", "actions": [
                {"support": [[1.0]], "probs": [1.0]}, {"support": [[0.2]], "probs": [v]}]})),
        ("algorithm.misspec_epsilon", lambda v: make_config(algorithm__misspec_epsilon=v)),
        ("algorithm.ridge", lambda v: make_config(algorithm__ridge=v)),
    ])
    def test_a_real_key_refuses_what_a_call_refuses(self, key, config, value):
        """Every number leaf is read by _real: a bool, a string and NaN are refused
        with the message a call gives."""
        with pytest.raises(ValueError) as call:
            _real(value, key)
        with pytest.raises(ConfigValidationError) as exc:
            parse_config(config(value))
        assert exc.value.problems == [str(call.value)]

    @pytest.mark.parametrize("overrides, fragment", [
        ({"algorithm__theta_grid": [[1.0, 0.0]]}, "length d=1"),
        ({"algorithm__theta_grid": [[1.0], [1.0, 0.0]]}, "length d=1"),
        ({"algorithm__theta_grid": [["up"], [1.0]]}, "must be a number, got 'up'"),
        ({"algorithm__theta_grid": [[float("nan")]]}, "must be a number, got nan"),
        ({"algorithm__theta_grid": [1.0, -1.0]}, "must be a list, got 1.0"),
        ({"algorithm__theta_grid": [[10 ** 400]]}, "must be a number, got 10000000000"),
        ({"algorithm__net_points": 4}, "exactly one of theta_grid or net_points"),
        ({"algorithm__solve_min_rounds": 3},
         "algorithm: unknown key 'solve_min_rounds' for kind 'known'"),
        ({"algorithm": {"kind": "full_precision", "pilot_rounds": 5}},
         "algorithm: unknown key 'pilot_rounds' for kind 'full_precision'"),
        ({"algorithm": {"kind": "unknown", "misspec_epsilon": 0.1}},
         "algorithm: unknown key 'misspec_epsilon' for kind 'unknown'"),
        ({"algorithm__ridge": 0}, "algorithm.ridge must be > 0, got 0"),
        ({"algorithm__xstar_method": "fast"},
         "algorithm.xstar_method must be one of auto/exact/monte-carlo, got 'fast'"),
        ({"outptu_dir": "results/typo"}, "config: unknown key 'outptu_dir'"),
        ({"environment__horizn": 10}, "environment: unknown key 'horizn'"),
        ({"schema": True}, "schema must be an integer, got True"),
        ({"seeds": []}, "seeds must be a non-empty list"),
        ({"environment__theta_star": [1.5]}, "exceeds 1"),
        ({"environment__context_model": {"kind": "binary_support", "p_minus": [1.5, 0.5]}},
         "must be <= 1.0, got 1.5"),
        ({"environment__actions": 3}, "one p_minus per action required"),
        ({"environment__d": 2, "environment__theta_star": [0.5, 0.5],
          "environment__context_model": {"kind": "gaussian_projected", "scales": [1.0, 1.0]},
          "algorithm": {"kind": "known", "net_points": 4, "xstar_method": "exact"}},
         "no finite support"),
        ({"environment__d": 17, "environment__theta_star": [0.0] * 17,
          "algorithm": {"kind": "known", "theta_grid": [[0.1] * 17], "xstar_method": "exact"}},
         "131072 atoms"),
        ({"environment__d": 2, "environment__theta_star": [float("nan"), 0.0]}, "theta_star"),
        ({"environment__context_model": {"kind": "gaussian_projected",
                                         "scales": [float("nan"), 0.5]}}, "scales"),
        ({"environment__context_model": {"kind": "gaussian_projected",
                                         "scales": [float("inf"), 0.5]}}, "scales"),
        ({"environment__context_model": {"kind": "custom", "actions": [
            {"support": [[float("nan")]], "probs": [1.0]}, {"support": [[0.5]], "probs": [1.0]},
        ]}}, "support"),
        ({"environment__context_model": {"kind": "custom", "actions": [
            {"support": [[0.5]], "probs": [1.0]}, {"support": [[0.5]], "probs": [float("nan")]},
        ]}}, "probs"),
        ({"environment__noise_model": {"kind": "truncated_gaussian", "sigma": float("nan")}},
         "sigma"),
        ({"environment__noise_model": {"kind": "truncated_gaussian", "sigma": float("inf")}},
         "sigma"),
        ({"environment__noise_model": {"kind": "bernoulli", "sigma": 0.3}},
         "noise_model: unknown key 'sigma'"),
        ({"environment__context_model": {"kind": "binary_support", "p_minus": [0.2, 0.4],
                                         "scales": [1.0, 1.0]}},
         "context_model: unknown key 'scales'"),
        ({"environment__context_model": {"kind": "custom", "actions": [
            {"support": [[0.5]], "probs": [1.0]},
            {"support": [[0.5]], "probs": [1.0], "weight": 2.0},
        ]}}, "unknown key 'weight'"),
        ({"algorithm": {"kind": "unknown", "pilot_rounds": 5}},
         "algorithm: unknown key 'pilot_rounds' for kind 'unknown'"),
    ])
    def test_unusable_xstar_grid_or_law_is_a_config_error(self, overrides, fragment,
                                                          tmp_path, capsys):
        raw = make_config(**overrides)
        with pytest.raises(ConfigValidationError, match=fragment):
            parse_config(raw)
        cfg_path = tmp_path / "bad.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("key, limit", [("net_points", _NET_POINTS_LIMIT),
                                            ("xstar_samples", _XSTAR_SAMPLES_LIMIT)])
    def test_cost_keys_stop_at_their_limit(self, key, limit, tmp_path, capsys):
        algo = {"kind": "known", key: limit}
        if key != "net_points":
            algo["theta_grid"] = [[-1.0], [1.0]]  # exact xstar: the samples go unused
        for value, code in ((limit, 0), (limit + 1, 2)):
            raw = make_config(algorithm={**algo, key: value})
            if code == 0:
                assert getattr(parse_config(raw).algorithm, key) == limit
            else:
                with pytest.raises(ConfigValidationError, match=f"limit of {limit}, got"):
                    parse_config(raw)
            cfg_path = tmp_path / f"{value}.yaml"
            with open(cfg_path, "w") as fh:
                yaml.safe_dump(raw, fh)
            assert cli_main(["run", str(cfg_path), "--output-dir",
                             str(tmp_path / f"out{value}")]) == code
            assert (f"algorithm.{key} must be" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("seeds", [[0], [0, 1]])
    def test_rounds_stop_at_their_limit(self, seeds, tmp_path, capsys):
        # the limit is per seed: a run holds one seed's trace, whatever the seed count
        cfg = parse_config(make_config(environment__horizon=_ROUNDS_LIMIT, seeds=seeds))
        assert cfg.spec.horizon == _ROUNDS_LIMIT
        raw = make_config(environment__horizon=_ROUNDS_LIMIT + 1, seeds=seeds)
        message = (f"environment.horizon must be >= 1 and at most the limit of "
                   f"{_ROUNDS_LIMIT}, got {_ROUNDS_LIMIT + 1}")
        with pytest.raises(ConfigValidationError, match=re.escape(message)):
            parse_config(raw)
        cfg_path = tmp_path / "long.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_huge_net_is_a_config_error_before_the_net_is_built(self, tmp_path, capsys):
        cfg_path = tmp_path / "huge.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(make_config(algorithm={"kind": "known", "net_points": 10 ** 20}), fh)
        assert cli_main(["xstar", str(cfg_path)]) == 2
        assert f"at most the limit of {_NET_POINTS_LIMIT}" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_config_reads_the_same_rebuilt_in_code(self, path):
        """A shipped config rebuilt from its fields passes the file's rules and is the
        same config, and its algorithm node, the one ExperimentConfig reads, parses
        back to the same algorithm."""
        cfg = load_config(path)
        again = rebuilt_in_code(cfg)
        assert again.spec.digest() == cfg.spec.digest()
        assert (again.schema, again.algorithm, again.seeds, again.output_dir) == \
            (cfg.schema, cfg.algorithm, cfg.seeds, cfg.output_dir)
        with open(path, "rb") as fh:
            raw = yaml.safe_load(fh)
        assert parse_config({**raw, "algorithm": _algorithm_node(cfg.algorithm)}).algorithm \
            == cfg.algorithm

    @pytest.mark.parametrize("noise", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("context", sorted(CONTEXT_MODELS))
    def test_each_law_reads_the_same_rebuilt_in_code(self, context, noise):
        """Every context and noise law passes the spec's checks again when its config
        is rebuilt in code, and hashes the same."""
        cfg = parse_config(make_config(environment__context_model=CONTEXT_MODELS[context],
                                       environment__noise_model=NOISE_MODELS[noise]))
        again = rebuilt_in_code(cfg)
        assert again.spec is not cfg.spec
        assert again.spec.digest() == cfg.spec.digest()

    @pytest.mark.parametrize("noise", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("context", sorted(CONTEXT_MODELS))
    def test_yaml_dump_and_load(self, context, noise, tmp_path):
        """A config dict written as YAML loads as the config that dict parses to."""
        raw = make_config(environment__context_model=CONTEXT_MODELS[context],
                          environment__noise_model=NOISE_MODELS[noise])
        path = tmp_path / "cfg.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh, sort_keys=False)
        back, cfg = load_config(path), parse_config(raw)
        assert back.spec.digest() == cfg.spec.digest()
        assert (back.algorithm, back.seeds, back.output_dir) == \
            (cfg.algorithm, cfg.seeds, cfg.output_dir)


class TestRunExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        cfg = parse_config(make_config())
        result = run_experiment(cfg, base_dir=tmp_path)
        assert [f.seed for f in result.figures] == [0, 1]
        for path, figures in zip(result.trace_paths, result.figures):
            trace = RegretTrace.read_csv(path)
            assert len(trace) == figures.rounds == 60
            assert trace.total_regret == figures.total_regret
        rows = result.summary_rows
        assert list(read_table(result.summary_path, SUMMARY_FIELDS)) == [
            tuple([row[name] for name in SUMMARY_FIELDS]) for row in rows]
        assert rows[-1]["t"] == 60
        assert rows[-1]["n_seeds"] == 2
        assert rows[-1]["mean_bits_per_round"] == 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(make_config())
        first = run_experiment(cfg, base_dir=tmp_path / "a")
        second = run_experiment(cfg, base_dir=tmp_path / "b")
        for p1, p2 in zip(first.trace_paths, second.trace_paths):
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()
        with open(first.summary_path, "rb") as f1, open(second.summary_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_unknown_kind_runs(self, tmp_path):
        raw = make_config(algorithm={"kind": "unknown"})
        raw["environment"]["horizon"] = 40
        result = run_experiment(parse_config(raw), base_dir=tmp_path)
        assert result.summary_rows[-1]["mean_bits_per_round"] == 5.0  # d=1 budget

    def test_naive_mean_runs_on_a_gaussian_law(self, tmp_path):
        # its menu is the per-action means, all zero for a symmetric Gaussian law
        raw = make_config(environment__context_model=CONTEXT_MODELS["gaussian_projected"],
                          environment__horizon=40, algorithm={"kind": "naive_mean"})
        result = run_experiment(parse_config(raw), base_dir=tmp_path)
        assert result.summary_rows[-1]["t"] == 40
        assert result.summary_rows[-1]["mean_bits_per_round"] == 1.0

    def test_misspec_directions_vary_per_seed(self, tmp_path):
        raw = make_config()
        raw["algorithm"]["misspec_epsilon"] = 0.1
        raw["seeds"] = [0, 1, 2, 3]
        raw["environment"]["horizon"] = 30
        cfg = parse_config(raw)
        result = run_experiment(cfg, base_dir=tmp_path)
        assert len(result.figures) == 4  # and the run is reproducible:
        again = run_experiment(cfg, base_dir=tmp_path / "again")
        for p1, p2 in zip(result.trace_paths, again.trace_paths):
            np.testing.assert_array_equal(RegretTrace.read_csv(p1).inst_regret,
                                          RegretTrace.read_csv(p2).inst_regret)

    def test_memory_does_not_grow_with_the_seed_count(self, tmp_path):
        # a run holds one seed's trace at a time; kept, 4 traces would be 4 times one
        run_experiment(parse_config(make_config(environment__horizon=10)),
                       base_dir=tmp_path / "warm-up")  # one-time allocations
        peaks = []
        for seeds in ([0], [0, 1, 2, 3]):
            cfg = parse_config(make_config(environment__horizon=20_000, seeds=seeds,
                                           algorithm={"kind": "naive_mean"}))
            tracemalloc.start()
            try:
                run_experiment(cfg, base_dir=tmp_path / str(len(seeds)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], f"peak bytes with 1 and 4 seeds: {peaks}"


# Golden figures of the RNG stream layout, one spec per algorithm kind, plus a
# custom law (one rng.choice per action) under truncated Gaussian noise.  Any
# change to the order or number of random draws per round moves them, while
# reruns of the same code (criterion-10) would still agree.
_PIN_BINARY = {
    "d": 2, "actions": 2, "theta_star": [0.6, -0.5],
    "context_model": {"kind": "binary_support", "p_minus": [0.3, 0.6]},
    "noise_model": {"kind": "bernoulli"}, "horizon": 300,
}
_PIN_GAUSS = {
    "d": 3, "actions": 4, "theta_star": [0.5, -0.4, 0.3],
    "context_model": {"kind": "gaussian_projected", "scales": [0.5] * 4},
    "noise_model": {"kind": "truncated_gaussian", "sigma": 0.2}, "horizon": 300,
}
_PIN_CUSTOM = {
    "d": 2, "actions": 3, "theta_star": [0.7, -0.4],
    "context_model": {"kind": "custom", "actions": [
        {"support": [[0.61, 0.13], [-0.07, 0.83], [-0.52, -0.47]], "probs": [0.5, 0.3, 0.2]},
        {"support": [[0.33, -0.58], [-0.71, 0.12]], "probs": [0.4, 0.6]},
        {"support": [[0.88, 0.05], [0.04, -0.91], [0.23, 0.19], [-0.42, 0.63]],
         "probs": [0.1, 0.2, 0.3, 0.4]},
    ]},
    "noise_model": {"kind": "truncated_gaussian", "sigma": 0.25}, "horizon": 300,
}
_PIN_CASES = {
    "known_custom": (_PIN_CUSTOM,
                     {"kind": "known",
                      "theta_grid": [[0.7, -0.4], [0.3, 0.6], [-0.5, -0.5], [0.0, 0.9]]},
                     [2.042, 12.775999999999998, 37.71100000000002, 45.97800000000004], 1),
    "known": (_PIN_BINARY,
              {"kind": "known", "theta_grid": [[0.6, -0.5], [-0.6, 0.5], [0.5, 0.5]]},
              [1.5556349186104044, 3.676955262170047, 13.435028842544405,
               18.667619023324857], 1),
    "naive_mean": (_PIN_BINARY, {"kind": "naive_mean"},
                   [1.5556349186104044, 9.899494936611665, 40.72935059634511,
                    82.7314933988261], 1),
    "unknown": (_PIN_GAUSS, {"kind": "unknown"},
                [1.1577371916160413, 8.148885962188782, 11.927538098310643,
                 12.631834280032082], 14),
    "full_precision": (_PIN_GAUSS, {"kind": "full_precision"},
                       [1.1577371916160413, 1.3129869343755791, 2.0465484407648766,
                        2.074571388355105], 256),
}


@pytest.mark.parametrize("kind", sorted(_PIN_CASES))
def test_rng_stream_layout_is_pinned(kind, tmp_path):
    env, algo, regret, bits = _PIN_CASES[kind]
    raw = {"schema": 1, "environment": copy.deepcopy(env), "algorithm": algo,
           "seeds": [17], "output_dir": "pin"}
    path = run_experiment(parse_config(raw), base_dir=tmp_path).trace_paths[0]
    trace = RegretTrace.read_csv(path)
    got = [trace.regret_at(t) for t in (3, 30, 150, 300)]
    assert got == pytest.approx(regret, rel=1e-9, abs=0.0)
    assert trace.bits.tolist() == [bits] * 300


# sha256 of each _PIN_CASES trace CSV.  The figures above compare at rel 1e-9;
# these bytes move with any change of the last bit of any row, so a rewrite of
# the per-round arithmetic must reproduce them exactly.  They belong to the NumPy
# and BLAS of _PIN_PLATFORM, as golden.platform_stamp() names them.
_PIN_PLATFORM = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0"}
_PIN_SHA256 = {
    "full_precision": "c0316f8253fe3cd4928d01a326b92c094107a2358b1e35edee205bfa7e87119d",
    "known": "fd466a2701fdbe46a20868964c15b25f6eb29c70ab16427899f3efd180611670",
    "known_custom": "ce3b43689b3ca656d5babfc736b58072791bdbe4c6a7b3db80dcc5a9baeec9c5",
    "naive_mean": "9bb84c067bd859a18bed1132b43410599bb2f4a5ed114ea5bd09c2eafeb2779c",
    "unknown": "5c5afa5e09491447ef1438eda80e0f883249d56b107eb667b2db884f1a81ccf0",
}


@pytest.mark.parametrize("kind", sorted(_PIN_CASES))
def test_pinned_trace_bytes(kind, tmp_path):
    env, algo, _, _ = _PIN_CASES[kind]
    raw = {"schema": 1, "environment": copy.deepcopy(env), "algorithm": algo,
           "seeds": [17], "output_dir": "pin"}
    path = run_experiment(parse_config(raw), base_dir=tmp_path).trace_paths[0]
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == _PIN_SHA256[kind], \
        f"recorded on {_PIN_PLATFORM}, running on {golden.platform_stamp()}"


class TestSummaries:
    @staticmethod
    def _trace(vals, bits):
        tr = RegretTrace(seed=0)
        tr.extend(vals, [bits] * len(vals))
        return tr

    def test_summarize_means_and_ci(self):
        t1 = self._trace([1.0, 0.0, 1.0, 0.0], bits=5)
        t2 = self._trace([0.0, 0.0, 1.0, 1.0], bits=7)
        rows = summarize([seed_figures(t1), seed_figures(t2)])[1:]  # past t = 1
        assert [r["t"] for r in rows] == [2, 4]
        assert rows[0]["mean_cum_regret"] == pytest.approx(0.5)
        assert rows[1]["mean_cum_regret"] == pytest.approx(2.0)
        assert rows[1]["stddev_cum_regret"] == pytest.approx(0.0)
        assert rows[0]["stddev_cum_regret"] == pytest.approx(np.std([1.0, 0.0], ddof=1))
        assert rows[0]["mean_bits_per_round"] == pytest.approx(6.0)
        lo, hi = rows[0]["ci95_lo"], rows[0]["ci95_hi"]
        assert lo < 0.5 < hi

    def test_summarize_rejects_mismatched_lengths(self):
        t1 = self._trace([1.0], bits=1)
        t2 = self._trace([1.0, 1.0], bits=1)
        with pytest.raises(ValueError, match="length"):
            summarize([seed_figures(t1), seed_figures(t2)])
        hand_built = [SeedFigures(0, 2, {t: 1.0}, 2.0, 1.0) for t in (1, 2)]
        with pytest.raises(ValueError, match=re.escape("checkpoint mismatch: trace 2 has [2]")):
            summarize(hand_built)

    def test_summarize_needs_a_trace(self):
        with pytest.raises(ValueError, match="no traces to summarize"):
            summarize([])

    def test_default_checkpoints(self):
        assert default_checkpoints(10_000) == [100, 1000, 5000, 10_000]
        assert default_checkpoints(7) == [1, 3, 7]
        grid = default_checkpoints(np.int64(250))
        assert grid == [2, 25, 125, 250] and all(type(t) is int for t in grid)
        with pytest.raises(ValueError, match="need at least one round to summarize"):
            default_checkpoints(0)
        for T in (250.0, "7", None):
            with pytest.raises(ValueError, match=re.escape(f"T must be an integer, got {T!r}")):
                default_checkpoints(T)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        raw = make_config()
        raw["environment"]["horizon"] = 40
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        code = cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_cum_regret" in out or "t=" in out

    def test_run_rejects_invalid_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        raw = make_config(schema=42)
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        code = cli_main(["run", str(cfg_path)])
        assert code == 2
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("below, fragment", [("", "File exists"),
                                                  ("sub", "Not a directory")])
    def test_run_into_an_output_dir_it_cannot_make_is_a_run_error(self, tmp_path, capsys,
                                                                 below, fragment):
        cfg_path = tmp_path / "cfg.yaml"
        raw = make_config()
        raw["environment"]["horizon"] = 40
        cfg_path.write_text(yaml.safe_dump(raw))
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        assert cli_main(["run", str(cfg_path), "--output-dir", str(blocker / below)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("run error: ") and fragment in captured.err
        assert str(blocker) in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["run", "xstar"])
    @pytest.mark.parametrize("case, fragment", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("bad yaml", "while parsing a flow sequence"),
        ("not utf-8", "unacceptable character"),
    ])
    def test_unloadable_config_is_a_config_error(self, tmp_path, capsys, command, case,
                                                 fragment):
        path = tmp_path / "cfg.yaml"
        if case == "directory":
            path.mkdir()
        elif case == "bad yaml":
            path.write_text("schema: 1\nseeds: [0, 1\n")
        elif case == "not utf-8":
            path.write_bytes(b"schema: 1\n\xff\n")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and fragment in err and str(path) in err

    def test_codec_selftest(self, capsys):
        assert cli_main(["codec-selftest", "--max-d", "4", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out.lower()
        assert out.count("messages ok=True") == 4  # framed messages, d = 1..4

    def test_codec_selftest_samples_ranks_past_the_exhaustive_limit(self, capsys):
        argv = ["codec-selftest", "--max-d", "7", "--exhaustive-limit", "100", "--samples", "20"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("roundtrip exhaustive ok=True") == 3  # |Q| = 3, 15, 84
        assert out.count("roundtrip sampled ok=True") == 4  # |Q| = 495 ... 116280
        assert out.endswith("selftest passed\n")

    @pytest.mark.parametrize("flag, value, low", [
        ("--max-d", "0", 1), ("--samples", "0", 1), ("--exhaustive-limit", "-1", 0)])
    def test_codec_selftest_refuses_a_count_that_checks_nothing(self, capsys, flag, value, low):
        assert cli_main(["codec-selftest", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"codec-selftest: {flag} must be >= {low}, got {value}\n"
        assert captured.out == ""

    def test_xstar_refuses_a_config_without_a_known_distribution(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(make_config(algorithm={"kind": "unknown"}), fh)
        assert cli_main(["xstar", str(cfg_path)]) == 2
        assert "xstar tables apply to the known-dist learner only" in capsys.readouterr().err

    def test_xstar_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(make_config(), fh)
        assert cli_main(["xstar", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "exact-enumeration" in out

    @pytest.mark.parametrize("case, fragment", [
        ("truncated", "line 61: zip() argument 2 is shorter"),
        ("extra cell", "line 2: zip() argument 2 is longer"),
    ])
    def test_summarize_rejects_a_malformed_trace(self, tmp_path, capsys, case, fragment):
        result = run_experiment(parse_config(make_config()), base_dir=tmp_path)
        with open(result.trace_paths[0]) as fh:
            header, first, rest = fh.read().split("\n", 2)
        bad = tmp_path / "bad.csv"
        if case == "truncated":  # the file ends inside the last row's bits cell
            bad.write_text(f"{header}\n{first}\n{rest[:rest.rindex(',')]}")
        else:
            bad.write_text(f"{header}\n{first},0\n{rest}")
        code = cli_main(["summarize", result.trace_paths[1], str(bad),
                         "-o", str(tmp_path / "resummary.csv")])
        assert code == 2
        assert f"{bad}, {fragment}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, fragment", [
        ("1,0.5,0.5,5\n3,0.25,0.75,5\n2,0.0,0.75,5\n", "line 3: round 3 where round 2"),
        ("1,0.5,0.5,5\n2,-0.25,0.25,5\n", "line 3: instantaneous regret must be"),
        ("1,nan,nan,5\n", "line 2: instantaneous regret must be"),
        ("1,0.5,0.5,5\n2,0.25,0.8,5\n", "line 3: cum_regret 0.8 is not the running sum"),
        ("1,0.5,0.5,-5\n2,0.25,0.75,-7\n", "line 2: bit count must be a nonnegative integer"),
    ], ids=["out-of-order", "negative", "nan", "not-the-running-sum", "negative-bits"])
    def test_summarize_rejects_a_trace_that_breaks_the_trace_rules(self, tmp_path, capsys,
                                                                   rows, fragment):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,inst_regret,cum_regret,bits\n" + rows)
        out = tmp_path / "resummary.csv"
        assert cli_main(["summarize", str(bad), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"trace error: {bad}, {fragment}")
        assert not out.exists()

    def test_summarize_rejects_a_header_only_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        RegretTrace(seed=0).write_csv(empty)
        code = cli_main(["summarize", str(empty), "-o", str(tmp_path / "resummary.csv")])
        assert code == 2
        assert "need at least one round to summarize" in capsys.readouterr().err

    def test_summarize_rejects_traces_of_different_lengths(self, tmp_path, capsys):
        long = run_experiment(parse_config(make_config()), base_dir=tmp_path / "long")
        short = run_experiment(parse_config(make_config(environment__horizon=2)),
                               base_dir=tmp_path / "short")
        code = cli_main(["summarize", long.trace_paths[0], short.trace_paths[0],
                         "-o", str(tmp_path / "resummary.csv")])
        assert code == 2
        assert "trace length mismatch: trace 2 has 2 rounds, trace 1 has 60" in \
            capsys.readouterr().err

    def test_summarize_rejects_a_missing_trace(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = cli_main(["summarize", str(missing), "-o", str(tmp_path / "resummary.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(missing) in err

    def test_summarize_subcommand(self, tmp_path, capsys):
        cfg = parse_config(make_config())
        result = run_experiment(cfg, base_dir=tmp_path)
        out_path = tmp_path / "resummary.csv"
        code = cli_main(
            ["summarize", *result.trace_paths, "-o", str(out_path)]
        )
        assert code == 0
        assert list(read_table(out_path, SUMMARY_FIELDS)) == list(
            read_table(result.summary_path, SUMMARY_FIELDS))
