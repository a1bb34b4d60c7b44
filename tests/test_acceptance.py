"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Criteria 5 and 6 train at the full reference configuration (3000
epochs, 1000 samples/epoch, batch 64, 20 trials per distribution) and take a
few minutes.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ddpm1d.diffusion import gaussian_options, generate_block, noiseless_reverse_chain, oracle_predictor
from ddpm1d.experiment import (
    ExperimentConfig,
    run_experiment,
    run_suite,
    summarize,
    table1_distributions,
    table2_distributions,
)
from ddpm1d.mlp import TrainBatch, finite_diff_check, init_params
from ddpm1d.noise import NoiseSpec, moment_report
from ddpm1d.prng import seed_stream
from ddpm1d.schedule import build_linear

WORKERS = min(4, os.cpu_count() or 1)
TRIALS = 20  # per distribution; >= 20 as the criteria require


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def runs():
    """The runs of tables 1 and 2 by label, from one suite of their five distinct
    distributions over one pool, as ``selftest`` builds them: table 2's gaussian
    is table 1's, trial for trial."""
    cfg = ExperimentConfig(trials=TRIALS)
    distributions = table1_distributions() + table2_distributions()[1:]
    return {run.label: run for run in run_suite(cfg, distributions, workers=WORKERS)}


def exact_retention(beta1: Fraction, betaT: Fraction, T: int) -> float:
    """sqrt(alpha_bar_T) for a linear schedule, as an exact rational product of
    (1 - beta_i) over the T-point grid; independent of ddpm1d.schedule."""
    step = (betaT - beta1) / (T - 1)
    alpha_bar = Fraction(1)
    for i in range(T):
        alpha_bar *= 1 - (beta1 + i * step)
    return math.sqrt(alpha_bar)


def test_criterion_1_schedule_constant():
    # the "about 0.081" often quoted for this schedule is the first-order
    # approximation exp(-sum(beta)/2); check prints the exact product
    expected = exact_retention(Fraction(1, 10_000), Fraction(1, 50), 500)
    sum_beta = 500 * (1e-4 + 0.02) / 2
    first_order = math.exp(-sum_beta / 2)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ddpm1d", "check"], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, f"check exited {proc.returncode}: {proc.stderr}"
    value = float(proc.stdout.split("sqrt(alpha_bar[500]) =")[1].strip().splitlines()[0])
    # check prints 9 significant digits
    ok = elapsed < 1.0 and value == pytest.approx(expected, rel=1e-8)
    report(1, "schedule constant", ok,
           f"check prints sqrt(alpha_bar_500)={value:.10f}, exact product={expected:.10f} "
           f"(first-order exp(-sum(beta)/2)={first_order:.5f}), runtime={elapsed:.2f}s")
    assert elapsed < 1.0
    assert value == pytest.approx(expected, rel=1e-8)


def test_criterion_2_sampler_moments():
    start = time.perf_counter()
    stats = {}
    for i, family in enumerate(("gaussian", "uniform", "arcsine")):
        stats[family] = moment_report(NoiseSpec(family), 1_000_000, seed_stream(0, 400 + i))
    mix = moment_report(
        NoiseSpec("mixture", mix_prob=0.9, big_variance=100.0),
        1_000_000,
        seed_stream(0, 410),
    )
    elapsed = time.perf_counter() - start
    ok = all(
        abs(r.mean) < 0.01 and abs(r.variance - 1.0) < 0.02 for r in stats.values()
    )
    ok = ok and -1.55 <= stats["arcsine"].kurtosis <= -1.45
    ok = ok and 10.6 <= mix.variance <= 11.2
    ok = ok and elapsed < 5.0
    report(2, "sampler moments", ok,
           f"unit variances within 0.02, arcsine excess kurtosis="
           f"{stats['arcsine'].kurtosis:.3f}, mixture variance={mix.variance:.3f}, "
           f"runtime={elapsed:.2f}s")
    for r in stats.values():
        assert abs(r.mean) < 0.01
        assert abs(r.variance - 1.0) < 0.02
    assert -1.55 <= stats["arcsine"].kurtosis <= -1.45
    assert 10.6 <= mix.variance <= 11.2
    assert elapsed < 5.0


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for i in range(10):
        g = seed_stream(0, 500 + i)
        params = init_params(g)
        inputs = np.column_stack([g.gaussians(8) * 3.0, g.uniforms(8)])
        batch = TrainBatch(inputs, g.gaussians(8))
        worst = max(worst, finite_diff_check(params, batch, h=1e-6))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report(3, "gradient correctness", ok,
           f"worst relative error over 10 pairs={worst:.3g}, runtime={elapsed:.2f}s")
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_4_oracle_sampler():
    start = time.perf_counter()
    sched = build_linear(1e-4, 0.02, 500)
    pred = oracle_predictor(7.0, sched)
    worst = max(
        abs(noiseless_reverse_chain(pred, x, sched) - 7.0)
        for x in (-100.0, -31.4, 0.0, 7.0, 55.5, 100.0)
    )
    x0_hats, diverged = generate_block(
        pred, 1000, sched, gaussian_options(sigma_mode="beta"), seed_stream(0, 600)
    )
    mean = float(x0_hats[~diverged].mean())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and 6.95 <= mean <= 7.05 and not diverged.any() and elapsed < 30.0
    report(4, "oracle sampler", ok,
           f"noiseless worst |x0_hat - 7|={worst:.2g}, noisy mean of 1000={mean:.4f}, "
           f"runtime={elapsed:.1f}s")
    assert worst < 1e-6
    assert not diverged.any()
    assert 6.95 <= mean <= 7.05
    assert elapsed < 30.0


def test_criterion_5_table1_bands(runs):
    means = {label: runs[label].summary.mean_error for label, _ in table1_distributions()}
    ratio = max(means.values()) / min(means.values())
    ok = all(m < 0.2 for m in means.values()) and ratio < 3.0
    detail = ", ".join(f"{label}={m:.4f}" for label, m in means.items())
    report(5, "table 1 bands", ok, f"{detail}, max/min={ratio:.2f} (n={TRIALS}/distribution)")
    for label, m in means.items():
        assert m < 0.2, f"{label} mean error {m}"
    assert ratio < 3.0


def test_criterion_6_table2_ordering(runs):
    means = {label: runs[label].summary.mean_error for label, _ in table2_distributions()}
    ok = (
        means["gaussian"] < means["mix0.9"] < means["mix0.5"]
        and means["mix0.5"] > 2.0 * means["gaussian"]
    )
    detail = ", ".join(f"{label}={m:.4f}" for label, m in means.items())
    report(6, "table 2 ordering", ok,
           f"{detail}, mix0.5/gaussian={means['mix0.5'] / means['gaussian']:.2f}")
    assert means["gaussian"] < means["mix0.9"] < means["mix0.5"]
    assert means["mix0.5"] > 2.0 * means["gaussian"]


def test_criterion_7_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 4, "epochs": 50, "base_seed": 11}))

    def run(out, workers):
        proc = subprocess.run(
            [sys.executable, "-m", "ddpm1d", "run", "--config", str(config),
             "--out", str(out), "--workers", str(workers), "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return (out / "trials.csv").read_bytes()

    first = run(tmp_path / "a", 1)
    second = run(tmp_path / "b", 1)
    with_pool = run(tmp_path / "c", 4)
    ok = first == second == with_pool
    report(7, "determinism", ok,
           f"rerun identical={first == second}, workers 1 vs 4 identical={first == with_pool}")
    assert first == second
    assert first == with_pool


def test_criterion_8_untrained_model_error_large():
    cfg = ExperimentConfig(trials=4, epochs=0)
    results = run_experiment(cfg, workers=WORKERS)
    row = summarize(results, "untrained")
    ok = row.mean_error > 1.0 and row.n_diverged == 0
    report(8, "untrained baseline", ok,
           f"epochs=0 mean error={row.mean_error:.3f} over {row.n_trials} trials")
    assert not any(r.diverged for r in results)
    assert row.mean_error > 1.0
