"""Command-line interface.

Subcommands:

* ``run CONFIG``            -- simulate every seed in a config, write CSVs
* ``summarize TRACE...``    -- cross-seed summary of existing trace CSVs
* ``codec-selftest``        -- rank/unrank bijection, bit-budget and framed-message checks
* ``xstar CONFIG``          -- print the theta -> xstar table of a config
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np
import yaml

from .codec import (BitBuffer, UnknownMessage, bit_budget, decode_unknown, encode_unknown,
                    lattice_enumerator)
from .env import RegretTrace
from .harness import (
    ConfigValidationError,
    build_known_action_map,
    load_config,
    run_experiment,
    seed_figures,
    summarize,
    write_summary_csv,
)
from .quantizer import QuantizedContext, _integer


def _load(path):
    """The config at ``path``, or None after printing each of its problems."""
    try:
        return load_config(path)
    except ConfigValidationError as exc:
        problems = exc.problems
    except (OSError, yaml.YAMLError) as exc:  # a missing or unreadable file, or bad YAML
        problems = [str(exc)]
    for problem in problems:
        print(f"config error: {problem}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 2
    if args.output_dir:
        cfg.output_dir = args.output_dir
    try:
        result = run_experiment(cfg)
    except OSError as exc:  # an output directory or file that cannot be made or written
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.trace_paths)} trace(s) and {result.summary_path}")
    for row in result.summary_rows:
        print(
            f"  t={row['t']:>8d}  mean_regret={row['mean_cum_regret']:.3f} "
            f"+- {row['mean_cum_regret'] - row['ci95_lo']:.3f}  "
            f"bits/round={row['mean_bits_per_round']:.2f}"
        )
    return 0


def _cmd_summarize(args) -> int:
    try:  # each trace is reduced to its figures as it is read, as run_experiment does
        rows = summarize([seed_figures(RegretTrace.read_csv(p)) for p in args.traces])
    except (OSError, ValueError) as exc:  # a missing, malformed, empty or unequal trace
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    write_summary_csv(rows, args.output)
    print(f"wrote {args.output} ({len(args.traces)} trace(s))")
    return 0


def _message_roundtrip_ok(d: int, rng: random.Random) -> bool:
    """Encode, frame and parse one random d-dimensional message; True if it is unchanged."""
    enum = lattice_enumerator(d)
    bits = np.array([rng.randrange(2) for _ in range(2 * d)], dtype=bool)
    sent = UnknownMessage(rng.randrange(2), QuantizedContext(
        bits[:d], enum.unrank(rng.randrange(enum.size)), bits[d:]))
    buf = encode_unknown(sent)
    got = decode_unknown(BitBuffer.from_bytes(buf.to_bytes(), len(buf)), d)
    return len(buf) == bit_budget(d) and got.reward_bit == sent.reward_bit and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got.context, sent.context))


def _cmd_codec_selftest(args) -> int:
    try:  # a count below its bound would check nothing
        for flag, value, low in (("--max-d", args.max_d, 1), ("--samples", args.samples, 1),
                                 ("--exhaustive-limit", args.exhaustive_limit, 0)):
            _integer(value, flag, low)
    except ValueError as exc:
        print(f"codec-selftest: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(0)  # stdlib: ranks can exceed any fixed-width integer
    failures = 0
    for d in range(1, args.max_d + 1):
        enum = lattice_enumerator(d)
        budget = bit_budget(d)
        bound = 1 + np.log2(2 * d + 1) + 5.03 * d
        if budget > bound:
            print(f"d={d}: budget {budget} exceeds bound {bound:.2f}")
            failures += 1
        if enum.size <= args.exhaustive_limit:
            mode, ranks = "exhaustive", range(enum.size)
        else:
            mode, ranks = "sampled", (rng.randrange(enum.size) for _ in range(args.samples))
        bad = sum(1 for r in ranks if enum.rank(enum.unrank(r)) != r)
        bad_msgs = sum(not _message_roundtrip_ok(d, rng) for _ in range(8))
        failures += bad + bad_msgs
        print(f"d={d:3d}: |Q|={enum.size}  budget={budget} bits  "
              f"roundtrip {mode} ok={bad == 0}  messages ok={bad_msgs == 0}")
    if failures:
        print(f"selftest FAILED ({failures} failure(s))", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


def _cmd_xstar(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 2
    if cfg.algorithm.kind != "known":
        print("xstar tables apply to the known-dist learner only", file=sys.stderr)
        return 2
    amap = build_known_action_map(cfg)
    print(f"# provenance: {amap.provenance}")
    for theta, row in zip(amap.thetas, amap.table):
        print(f"theta={np.array2string(theta, precision=6)} -> "
              f"xstar={np.array2string(row, precision=6)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bitbandit",
        description="Simulate contextual linear bandits under uplink bit constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every seed of an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", help="override the config's output_dir")
    p_run.set_defaults(fn=_cmd_run)

    p_sum = sub.add_parser("summarize", help="summarize existing trace CSVs")
    p_sum.add_argument("traces", nargs="+")
    p_sum.add_argument("-o", "--output", default="summary.csv")
    p_sum.set_defaults(fn=_cmd_summarize)

    p_codec = sub.add_parser("codec-selftest", help="verify codec bijection and budgets")
    p_codec.add_argument("--max-d", type=int, default=16)
    p_codec.add_argument("--samples", type=int, default=1000)
    p_codec.add_argument("--exhaustive-limit", type=int, default=4000)
    p_codec.set_defaults(fn=_cmd_codec_selftest)

    p_xstar = sub.add_parser("xstar", help="print a config's theta -> xstar table")
    p_xstar.add_argument("config")
    p_xstar.set_defaults(fn=_cmd_xstar)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
