"""End-to-end acceptance suite.

One test per shipped guarantee, in order; each prints a single
``[criterion-NN ...] PASS/FAIL`` line (visible with ``pytest -s``) carrying
the measured values and elapsed time.  Experiment-scale criteria run the
exact configs checked into ``configs/`` and write their CSVs to a temp dir.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import golden
from bitbandit.codec import bit_budget, lattice_enumerator
from bitbandit.env import (
    Bernoulli,
    BinarySupport,
    CustomDiscrete,
    EnvironmentSpec,
)
from bitbandit.harness import load_config, run_experiment
from bitbandit.known import (
    build_action_map,
    estimate_xstar,
    exact_xstar,
    run_known,
    simulate,
)
from bitbandit.quantizer import (
    StochasticQuantizer,
    magnitude_scale,
    quantize_context,
    reconstruct_context,
)
from bitbandit.unknown import apply_update, lattice_channel, new_learner_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def csv_digests():
    """Config name -> {file: sha256} of the shipped configs' CSVs this session wrote."""
    return {}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _evidence(name: str, detail: str) -> None:
    """Seed-level figures behind a comparative gate: printed, never gated."""
    print(f"\n[{name}] seed-level: {detail}", flush=True)


def _paired_ci(diffs: np.ndarray) -> str:
    """Mean of paired per-seed differences with the summary's normal 95% interval."""
    mean, half = diffs.mean(), 1.96 * diffs.std(ddof=1) / math.sqrt(len(diffs))
    return f"{mean:.1f} [{mean - half:.1f}, {mean + half:.1f}]"


def _unit_ball(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.random((n, 1)) ** (1.0 / d)


def _appendix_a_spec(horizon: int) -> EnvironmentSpec:
    return EnvironmentSpec(
        d=1, n_actions=2, theta_star=np.array([1.0]),
        context_model=BinarySupport(p_minus=(0.25, 0.5)),
        noise_model=Bernoulli(), horizon=horizon,
    )


def test_01_bit_budget_exact_and_bounded():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for d in range(1, 65):
        exact = 1 + 2 * d + math.ceil(math.log2(math.comb(3 * d, d)))
        bound = 1 + math.log2(2 * d + 1) + 5.03 * d
        ok = ok and bit_budget(d) == exact and bit_budget(d) <= bound
        worst = max(worst, bit_budget(d) / d)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-01 bit-budget",
        ok and elapsed < 1.0,
        f"d=1..64 exact formula + upper bound hold, worst bits/d={worst:.2f}, "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_02_one_bit_uplink_every_round():
    t0 = time.perf_counter()
    spec = _appendix_a_spec(horizon=2000)
    amap = build_action_map(spec, [[-1.0], [1.0]])
    ok = True
    for seed in range(5):
        trace = run_known(spec, amap, seed=seed)
        # 1 reward bit, 0 context bits; the decoder rejects any other length
        ok = ok and len(trace) == 2000 and set(trace.bits) == {1}
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-02 one-bit-uplink",
        ok,
        f"5 seeds x 2000 rounds, every round uplinked exactly 1 bit, {elapsed:.2f}s",
    )


def test_03_codec_bijection():
    t0 = time.perf_counter()
    failures = 0
    for d in (1, 2, 3, 4, 5):
        enum = lattice_enumerator(d)
        seen = set()
        for r in range(enum.size):
            v = enum.unrank(r)
            if enum.rank(v) != r:
                failures += 1
            seen.add(v.tobytes())
        if len(seen) != enum.size:
            failures += 1
    rr = random.Random(42)
    for d in (16, 64):
        enum = lattice_enumerator(d)
        for _ in range(100_000):
            r = rr.randrange(enum.size)
            if enum.rank(enum.unrank(r)) != r:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-03 codec-bijection",
        failures == 0 and elapsed < 10.0,
        f"exhaustive d<=5 (3003 at d=5) + 1e5 sampled roundtrips each for "
        f"d=16,64; failures={failures}, {elapsed:.2f}s (< 10s)",
    )


def test_04_quantizer_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    # (a) hard error bound on one million draws
    violations = 0
    for levels, lo, hi in ((1, 0.0, 1.0), (3, -1.0, 2.0), (7, -2.0, 3.0), (16, 0.0, 16.0)):
        sq = StochasticQuantizer(levels, lo, hi)
        x = rng.uniform(lo, hi, size=250_000)
        violations += int(np.sum(np.abs(sq.roundtrip(x, rng) - x) > sq.step + 1e-12))
    # (b) unbiasedness at N = 1e5
    sq = StochasticQuantizer(4, -1.0, 1.0)
    n = 100_000
    bias_ok = True
    tol = 4.0 * (sq.upper - sq.lower) / (sq.levels * math.sqrt(n))
    for x in (-0.777, -1.0 / 3.0, 0.0, 0.25, 0.912):
        bias_ok = bias_ok and abs(sq.roundtrip(np.full(n, x), rng).mean() - x) <= tol
    # (c) squared-coordinate discrepancy bound on 1e5 unit-ball vectors per d
    sq_ok = True
    for d in (1, 5, 25):
        m = magnitude_scale(d)
        pts = _unit_ball(100_000, d, rng)
        for row in pts:
            qc = quantize_context(row, rng.random(2 * d))
            xhat, _ = reconstruct_context(qc)
            if np.max(np.abs(row * row - xhat * xhat)) > 3.0 / m + 1e-12:
                sq_ok = False
                break
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-04 quantizer-laws",
        violations == 0 and bias_ok and sq_ok and elapsed < 30.0,
        f"1e6 draws error<=step (violations={violations}), bias within "
        f"4(b-a)/(l*sqrt(N)) at N=1e5, |x^2-xhat^2|_inf <= 3/m on 1e5 "
        f"unit-ball vectors for d=1,5,25, {elapsed:.1f}s (< 30s)",
    )


def test_05_xstar_golden_values():
    t0 = time.perf_counter()
    exact_ok, mc_ok, worst_mc = True, True, 0.0
    for i, (p, q) in enumerate(itertools.product((0.25, 0.5, 0.75), repeat=2)):
        spec = EnvironmentSpec(
            d=1, n_actions=2, theta_star=np.array([1.0]),
            context_model=BinarySupport(p_minus=(p, q)),
            noise_model=Bernoulli(), horizon=10,
        )
        golden_up = 1.0 - 2.0 * p * q
        golden_down = -1.0 + 2.0 * (1.0 - p) * (1.0 - q)
        up = exact_xstar(spec, np.array([1.0]))[0]
        down = exact_xstar(spec, np.array([-1.0]))[0]
        exact_ok = exact_ok and abs(up - golden_up) < 1e-12 \
            and abs(down - golden_down) < 1e-12
        rng = np.random.default_rng(1000 + i)
        mc_up = estimate_xstar(spec, np.array([1.0]), 100_000, rng)[0]
        mc_down = estimate_xstar(spec, np.array([-1.0]), 100_000, rng)[0]
        worst_mc = max(worst_mc, abs(mc_up - golden_up), abs(mc_down - golden_down))
        mc_ok = mc_ok and worst_mc <= 0.01
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-05 xstar-golden",
        exact_ok and mc_ok and elapsed < 10.0,
        f"closed form exact for 9 (p,q) pairs; Monte-Carlo N=1e5 worst "
        f"|err|={worst_mc:.4f} (<= 0.01), {elapsed:.1f}s (< 10s)",
    )


def test_06_naive_counterexample(tmp_path, csv_digests):
    t0 = time.perf_counter()
    naive = run_experiment(
        load_config(CONFIG_DIR / "appendix_a_naive.yaml"), base_dir=tmp_path
    )
    onebit = run_experiment(
        load_config(CONFIG_DIR / "appendix_a_algo1.yaml"), base_dir=tmp_path
    )
    csv_digests.update(appendix_a_naive=golden.digests(naive),
                       appendix_a_algo1=golden.digests(onebit))
    by_t = {row["t"]: row for row in naive.summary_rows}
    naive_rate = by_t[10_000]["mean_cum_regret"] / 10_000
    ob = {row["t"]: row for row in onebit.summary_rows}
    rate_1e3 = ob[1_000]["mean_cum_regret"] / 1_000
    rate_1e4 = ob[10_000]["mean_cum_regret"] / 10_000
    # a flat zero at both horizons certifies sublinearity; the halving
    # ratio is vacuous there (0 < 0.5 * 0 cannot hold)
    halved = rate_1e4 < 0.5 * rate_1e3 or (rate_1e3 == 0.0 and rate_1e4 == 0.0)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-06 naive-counterexample",
        naive_rate >= 0.2 and halved and elapsed < 120.0,
        f"fixed-arm baseline {naive_rate:.4f}/round (>= 0.2, exact 0.25); "
        f"one-bit learner R/T {rate_1e3:.5f} -> {rate_1e4:.5f} "
        f"(20 seeds), {elapsed:.0f}s (< 120s)",
    )


def test_07_quantized_vs_full_precision(tmp_path, csv_digests):
    t0 = time.perf_counter()
    quant = run_experiment(
        load_config(CONFIG_DIR / "gauss_d5_quantized.yaml"), base_dir=tmp_path
    )
    full = run_experiment(
        load_config(CONFIG_DIR / "gauss_d5_fullprec.yaml"), base_dir=tmp_path
    )
    csv_digests.update(gauss_d5_quantized=golden.digests(quant),
                       gauss_d5_fullprec=golden.digests(full))
    assert [f.seed for f in quant.figures] == [f.seed for f in full.figures]
    q_by_t = {row["t"]: row for row in quant.summary_rows}
    f_by_t = {row["t"]: row for row in full.summary_rows}
    ratio = q_by_t[20_000]["mean_cum_regret"] / f_by_t[20_000]["mean_cum_regret"]
    rate_lo = q_by_t[2_000]["mean_cum_regret"] / 2_000
    rate_hi = q_by_t[20_000]["mean_cum_regret"] / 20_000
    bits_ok = q_by_t[20_000]["mean_bits_per_round"] == bit_budget(5)
    elapsed = time.perf_counter() - t0
    q_final = np.array([f.total_regret for f in quant.figures])
    f_final = np.array([f.total_regret for f in full.figures])
    quartiles = np.percentile(q_final / f_final, [25, 50, 75])
    resamples = np.random.default_rng(20_000).integers(0, len(q_final), (10_000, len(q_final)))
    boot = q_final[resamples].mean(axis=1) / f_final[resamples].mean(axis=1)
    boot_lo, boot_hi = np.percentile(boot, [2.5, 97.5])
    _evidence(
        "criterion-07 desk-scale-regret",
        "per-seed quantized/full R_T ratio quartiles "
        + "/".join(f"{v:.2f}" for v in quartiles)
        + f"; ratio of means {ratio:.2f}, 95% seed-bootstrap interval "
        f"[{boot_lo:.2f}, {boot_hi:.2f}] (10000 resamples), "
        f"P(ratio > 3) = {np.mean(boot > 3.0):.2f}",
    )
    _report(
        "criterion-07 desk-scale-regret",
        ratio <= 3.0 and rate_hi < 0.5 * rate_lo and bits_ok and elapsed < 300.0,
        f"d=5 K=10 T=2e4, 20 paired seeds: quantized/full regret ratio "
        f"{ratio:.2f} (<= 3), R/T {rate_lo:.4f} -> {rate_hi:.4f} "
        f"(halves), {bit_budget(5)} bits/round, {elapsed:.0f}s (< 300s)",
    )


def test_08_ls_oracle_equivalence():
    t0 = time.perf_counter()
    # coordinates on multiples of 1/m make the vector quantization lossless
    sup0 = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, -0.5]])
    sup1 = np.array([[-0.5, 0.0], [0.0, 1.0], [0.5, -0.5]])
    spec = EnvironmentSpec(
        d=2, n_actions=2, theta_star=np.array([0.6, 0.3]),
        context_model=CustomDiscrete(
            supports=(sup0, sup1),
            probs=(np.array([0.4, 0.3, 0.3]), np.array([0.2, 0.5, 0.3])),
        ),
        noise_model=Bernoulli(), horizon=1000,
    )
    state = new_learner_state(spec.d, solve_min_rounds=1)
    v_log = np.zeros((spec.d, spec.d))
    u_log = np.zeros(spec.d)
    worst = 0.0
    lossless = True

    def send(x, r, q):
        nonlocal lossless
        received, bits = lattice_channel.send(x, r, q)
        lossless = lossless and np.array_equal(received[1], x)
        return received, bits

    def learn(reward_bit, xhat, xsq_hat):
        nonlocal worst
        apply_update(state, reward_bit, xhat, xsq_hat)
        outer = np.outer(xhat, xhat)
        np.fill_diagonal(outer, xsq_hat)
        v_log[...] += outer
        u_log[...] += (2.0 * reward_bit - 1.0) * xhat
        oracle = np.linalg.lstsq(v_log, u_log, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(state.theta_hat - oracle))))

    simulate(spec, 2024, lambda: state.theta_hat, lattice_channel._replace(send=send), learn)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-08 ls-oracle",
        lossless and worst <= 1e-9 and elapsed < 10.0,
        f"T=1000 on integral supports (lossless context transport): "
        f"max |theta_hat - dense solve| = {worst:.2e} (<= 1e-9), "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_09_misspecification_trend(tmp_path, csv_digests):
    t0 = time.perf_counter()
    means, cis, finals = [], [], []
    for tag in ("e00", "e01", "e02"):
        res = run_experiment(
            load_config(CONFIG_DIR / f"example1_misspec_{tag}.yaml"),
            base_dir=tmp_path,
        )
        csv_digests[f"example1_misspec_{tag}"] = golden.digests(res)
        final = {row["t"]: row for row in res.summary_rows}[10_000]
        means.append(final["mean_cum_regret"])
        cis.append((final["ci95_lo"], final["ci95_hi"]))
        finals.append({f.seed: f.total_regret for f in res.figures})
    ok = means[0] <= means[1] <= means[2]
    elapsed = time.perf_counter() - t0
    # the three configs share seeds and environment streams: seed-paired
    seeds = list(finals[0])
    assert all(list(f) == seeds for f in finals)
    regrets = np.array([[f[s] for s in seeds] for f in finals])
    eps = ("0", "0.1", "0.2")
    _evidence(
        "criterion-09 misspec-trend",
        "; ".join(f"eps={e}: R_T > 0 on seeds {[s for s, r in zip(seeds, row) if r > 0]}"
                  for e, row in zip(eps, regrets))
        + "".join(
            f"; eps {eps[i]}->{eps[i + 1]}: seeds changed "
            f"{[s for s, a, b in zip(seeds, regrets[i], regrets[i + 1]) if a != b]}, "
            f"paired mean difference {_paired_ci(regrets[i + 1] - regrets[i])}"
            for i in range(2)),
    )
    # reported, not gated: whether each step of the trend is within seed noise
    overlap = ["overlap" if lo_b <= hi_a and lo_a <= hi_b else "apart"
               for (lo_a, hi_a), (lo_b, hi_b) in zip(cis, cis[1:])]
    _report(
        "criterion-09 misspec-trend",
        ok and elapsed < 120.0,
        f"mean R_T [95% CI] across eps=0,0.1,0.2 (20 seeds each): "
        + " <= ".join(f"{m:.1f} [{lo:.1f}, {hi:.1f}]" for m, (lo, hi) in zip(means, cis))
        + f"; neighbouring CIs: 0-0.1 {overlap[0]}, 0.1-0.2 {overlap[1]}, "
        f"{elapsed:.0f}s (< 120s)",
    )


def test_10_reproducibility(tmp_path, csv_digests):
    t0 = time.perf_counter()
    identical = True
    n_files = 0
    for name in ("example1_base.yaml", "unknown_d1_smoke.yaml"):
        cfg = load_config(CONFIG_DIR / name)
        first = run_experiment(cfg, base_dir=tmp_path / "a")
        second = run_experiment(cfg, base_dir=tmp_path / "b")
        csv_digests[Path(name).stem] = golden.digests(first)
        paths = list(zip(
            first.trace_paths + [first.summary_path],
            second.trace_paths + [second.summary_path],
        ))
        for p1, p2 in paths:
            n_files += 1
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                identical = identical and f1.read() == f2.read()
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-10 reproducibility",
        identical,
        f"{n_files} CSVs byte-identical across reruns of two configs "
        f"(known-dist and unknown-dist), {elapsed:.1f}s",
    )


def test_11_golden_csv_digests(tmp_path, csv_digests):
    t0 = time.perf_counter()
    want = json.loads(golden.GOLDEN.read_text())
    recorded_on = want.pop(golden.STAMP_KEY, None)
    ran = [name for name in golden.config_names() if name not in csv_digests]
    for name in ran:  # a config no criterion of this session produced
        csv_digests[name] = golden.run_config(name, tmp_path / name)
    got = {name: csv_digests[name] for name in golden.config_names()}
    differ = [f"{name}/{file}" for name in sorted(set(want) | set(got))
              for file in sorted(set(want.get(name, {})) | set(got.get(name, {})))
              if want.get(name, {}).get(file) != got.get(name, {}).get(file)]
    elapsed = time.perf_counter() - t0
    _report(
        "golden-csv-digests",
        not differ,
        f"{sum(map(len, got.values()))} CSVs of {len(got)} configs against "
        f"{golden.GOLDEN.name} ({len(ran)} configs run here); "
        f"differing: {', '.join(differ) or 'none'}, {elapsed:.1f}s"
        + (f"; recorded on {recorded_on}, running on {golden.platform_stamp()}"
           if differ else ""),
    )
