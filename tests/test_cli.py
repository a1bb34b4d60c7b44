import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import multiarray_umath

from ddpm1d import cli, experiment, kernel
from ddpm1d.cli import _build_parser, main, parse_config, write_csv
from ddpm1d.errors import ConfigError
from ddpm1d.experiment import (DistributionRun, ExperimentConfig, SummaryRow, TrialResult,
                               run_trial)

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "steps": 50,
    "epochs": 5,
    "samples_per_epoch": 64,
    "batch_size": 32,
    "trials": 2,
    "gens_per_trial": 5,
    "base_seed": 9,
}

def write_tiny_config(tmp_path, **extra):
    data = dict(TINY)
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path

def test_empty_config_gives_reference_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    cfg = parse_config(path)
    assert cfg == ExperimentConfig()
    assert cfg.epochs == 3000
    assert cfg.samples_per_epoch == 1000
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 1e-3
    assert cfg.steps == 500
    assert cfg.x0 == 7.0
    assert cfg.trials == 100

def test_no_config_file_same_as_empty():
    assert parse_config(None) == ExperimentConfig()

def test_flag_overrides_file(tmp_path):
    path = write_tiny_config(tmp_path, trials=100)
    cfg = parse_config(path, {"trials": 5})
    assert cfg.trials == 5

def test_none_overrides_are_ignored(tmp_path):
    path = write_tiny_config(tmp_path)
    cfg = parse_config(path, {"trials": None})
    assert cfg.trials == TINY["trials"]

def test_out_of_range_value_names_key(tmp_path):
    path = write_tiny_config(tmp_path, beta_end=1.5)
    with pytest.raises(ConfigError, match="beta"):
        parse_config(path)

def test_unknown_key_named(tmp_path):
    path = write_tiny_config(tmp_path, warmup=10)
    with pytest.raises(ConfigError, match="warmup"):
        parse_config(path)

def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.json")

@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="the host has no /dev/stdin")
def test_check_reads_a_config_piped_to_dev_stdin(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"steps": 10}')
    assert main(["check", "--config", str(config)]) == 0
    expected = capsys.readouterr().out
    assert "beta[10]  = 0.02" in expected
    proc = subprocess.run([sys.executable, "-m", "ddpm1d", "check", "--config", "/dev/stdin"],
                          input='{"steps": 10}', capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

def test_a_config_path_that_cannot_be_read_is_one_config_error_line(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path)]) == 1  # a directory
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(tmp_path) in err and "not found" not in err

def test_a_config_root_that_is_not_an_object_is_one_config_error_line(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main(["check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: config root in {path} must be a JSON object\n"
    assert captured.out == ""

# files json.loads cannot read: a syntax error, an integer beyond Python's
# int-from-string digit limit, bytes that are not UTF-8, nesting beyond the
# recursion limit
UNREADABLE_CONFIGS = {
    "syntax": b"{not json",
    "long-integer": b'{"x0": ' + b"1" * 5000 + b"}",
    "not-utf8": b'{"noise": {"family": "gaussian\xff"}}',
    "deep-nesting": b'{"x0": ' + b"[" * 100000 + b"]" * 100000 + b"}",
}

@pytest.mark.parametrize("content", UNREADABLE_CONFIGS.values(), ids=UNREADABLE_CONFIGS.keys())
def test_invalid_json_rejected(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--quiet"]) == 1
    assert "config error: invalid JSON" in capsys.readouterr().err
    assert not out_dir.exists()

# json.loads alone keeps the last value: these read as epochs 3000 and a uniform family
@pytest.mark.parametrize("content, key", [
    ('{"epochs": 1, "epochs": 3000}', "epochs"),
    ('{"noise": {"family": "gaussian", "family": "uniform"}}', "family"),
], ids=["top-level", "noise"])
def test_a_key_named_twice_is_rejected(tmp_path, capsys, content, key):
    path = tmp_path / "twice.json"
    path.write_text(content)
    with pytest.raises(ConfigError, match=rf"^config key '{key}' appears more than once$"):
        parse_config(path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--quiet"]) == 1
    assert f"config error: config key '{key}' appears more than once" in capsys.readouterr().err
    assert not out_dir.exists()

def test_a_wide_config_object_is_checked_in_linear_time(tmp_path, capsys):
    # a check that compares every key with the keys before it takes minutes here
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({f"key{i}": i for i in range(100_000)}))
    start = time.perf_counter()
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1 and time.perf_counter() - start < 5.0
    assert "config error: unknown config key(s)" in capsys.readouterr().err

def test_many_unknown_keys_give_a_short_error(tmp_path, capsys):
    # the first 10 in sorted order, then a count, not all 100,000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({f"key{i:06d}": i for i in range(100_000)}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--quiet"]) == 1
    first = [f"key{i:06d}" for i in range(10)]
    assert capsys.readouterr().err == f"config error: unknown config key(s): {first} and 99990 more\n"
    assert not out_dir.exists()

def test_normalize_mixture_key(tmp_path):
    path = write_tiny_config(
        tmp_path,
        noise={"family": "mixture", "mix_prob": 0.5, "big_variance": 100.0},
        normalize_mixture=True,
    )
    cfg = parse_config(path)
    assert cfg.noise.normalize

def test_write_csv_schema_and_order(tmp_path):
    summaries = [
        SummaryRow("gaussian", 0.05, 0.01, 1, 0),
        SummaryRow("mix0.9", 0.08, 0.01, 1, 0),
        SummaryRow("mix0.5", 0.18, 0.02, 1, 0),
    ]
    runs = [DistributionRun(s.label, [TrialResult(s.label, 0, 9, 0.125, 0.0625, None)], s)
            for s in summaries]
    trials_path, summary_path = write_csv("table2", runs, tmp_path)
    trial_lines = trials_path.read_text().splitlines()
    assert trial_lines[0] == "experiment,distribution,trial,seed,final_loss,gen_error,diverged"
    assert trial_lines[1] == "table2,gaussian,0,9,0.125,0.0625,false"
    assert [line.split(",")[1] for line in trial_lines[1:]] == ["gaussian", "mix0.9", "mix0.5"]
    summary_lines = summary_path.read_text().splitlines()
    assert summary_lines[0] == "experiment,distribution,n_trials,n_diverged,mean_error,std_error"
    assert [line.split(",")[1] for line in summary_lines[1:]] == ["gaussian", "mix0.9", "mix0.5"]

def test_write_csv_nine_significant_digits(tmp_path):
    r = TrialResult("gaussian", 0, 0, 1.0 / 3.0, 2.0 / 3.0, None)
    run = DistributionRun("gaussian", [r], SummaryRow("gaussian", 2.0 / 3.0, 0.0, 1, 0))
    trials_path, _ = write_csv("single", [run], tmp_path)
    row = trials_path.read_text().splitlines()[1]
    assert "0.333333333" in row
    assert "0.666666667" in row

def test_check_command_prints_constants(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "beta[1]    = 0.0001" in out
    assert "beta[500]  = 0.02" in out
    value = float(out.split("sqrt(alpha_bar[500]) =")[1].strip().splitlines()[0])
    assert value == pytest.approx(0.0797038945, rel=1e-8)

def test_check_with_config(tmp_path, capsys):
    config = write_tiny_config(tmp_path, beta_start=0.5, beta_end=0.5, steps=1)
    assert main(["check", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "sqrt(alpha_bar[1])" in out
    # one step would hold only beta_start: linspace(beta_start, beta_end, 1) drops beta_end
    assert main(["check", "--config", str(write_tiny_config(tmp_path, steps=1))]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("config error: ") and "beta_start == beta_end" in captured.err

def test_run_single_tiny(tmp_path, capsys):
    config = write_tiny_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out_dir), "--quiet"])
    assert code == 0
    trials = (out_dir / "trials.csv").read_text().splitlines()
    assert len(trials) == 1 + TINY["trials"]
    assert trials[1].startswith("single,gaussian,0,9,")
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["worker_count"] >= 1
    assert manifest["artifact_version"]
    assert set(manifest["kernel"]) == {"source_sha256", "compiler", "flags", "lane_width"}
    assert len(manifest["kernel"]["source_sha256"]) == 64
    flags = manifest["kernel"]["flags"]
    assert flags[:5] == ["-O2", "-ffp-contract=off", "-fno-math-errno", "-falign-functions=64",
                         "-falign-loops=64"]
    assert flags == list(kernel.FLAGS)
    assert manifest["kernel"]["lane_width"] in (2, 4, 8)

def test_manifest_round_trips_to_identical_config(tmp_path):
    config = write_tiny_config(
        tmp_path, noise={"family": "mixture", "mix_prob": 0.5, "big_variance": 100.0}
    )
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(manifest["config_echo"]))
    assert parse_config(echo_path) == parse_config(config)

def test_manifest_reruns_a_table_run(tmp_path):
    config = write_tiny_config(tmp_path, trials=1, epochs=1)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", "--config", str(config), "--experiment", "table2",
                 "--out", str(first), "--quiet", "--workers", "1"]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(manifest["config_echo"]))
    assert main(["run", "--config", str(echo), "--experiment", manifest["experiment"],
                 "--out", str(again), "--quiet", "--workers", "1"]) == 0
    assert (again / "trials.csv").read_bytes() == (first / "trials.csv").read_bytes()

def test_workload_configs_parse_and_round_trip():
    workloads = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
    assert workloads
    for path in workloads:
        cfg = parse_config(path)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

def test_rerun_is_byte_identical(tmp_path):
    config = write_tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

def test_dump_weights_matches_trial_zero(tmp_path):
    config = write_tiny_config(tmp_path)
    out_dir = tmp_path / "out"
    dump = out_dir / "weights.json"  # in an --out that does not exist yet
    code = main(["run", "--config", str(config), "--out", str(out_dir),
                 "--dump-weights", str(dump), "--quiet"])
    assert code == 0
    weights = json.loads(dump.read_text())
    assert len(weights) == 129
    cfg = parse_config(config)
    _, params = run_trial(cfg, 0)
    assert np.array_equal(np.array(weights), params)

def test_cli_seed_flag_changes_results(tmp_path):
    config = write_tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config), "--out", str(out_a), "--quiet"])
    main(["run", "--config", str(config), "--out", str(out_b), "--seed", "123", "--quiet"])
    assert (out_a / "trials.csv").read_text() != (out_b / "trials.csv").read_text()

@pytest.mark.parametrize(
    "flag, name",
    [("--reverse-noise", "reverse_noise")],
)
def test_flag_choices_come_from_the_schema(flag, name):
    parser = _build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    action = next(a for a in run._actions if flag in a.option_strings)
    field = next(f for f in dataclasses.fields(ExperimentConfig) if f.name == name)
    assert tuple(action.choices) == field.metadata["choices"]

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["train"]) == 1

def test_removed_sigma_mode_flag_is_usage_error(tmp_path, capsys):
    config = write_tiny_config(tmp_path, trials=1)
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(config), "--sigma-mode", "beta", "--out", str(out_dir)]
    assert main([*argv, "--quiet"]) == 1
    assert "unrecognized arguments: --sigma-mode" in capsys.readouterr().err
    assert not out_dir.exists()

@pytest.mark.parametrize(
    "flag, name",
    [("--out", "results"), ("--out", "results/run1"), ("--out", ""),
     ("--dump-weights", "results/w.json"), ("--dump-weights", "weights"), ("--dump-weights", ""),
     ("--out", "dangling"), ("--dump-weights", "dangling/w.json")],
    ids=["existing-file", "path-under-file", "empty-out",
         "weights-under-file", "weights-existing-directory", "empty-weights",
         "out-a-dangling-link", "weights-under-a-dangling-link"],
)
def test_out_that_cannot_be_a_directory_fails_before_any_trial(
    tmp_path, capsys, monkeypatch, flag, name
):
    monkeypatch.setattr("ddpm1d.cli.run_suite", lambda *a, **k: pytest.fail("a trial ran"))
    blocker = tmp_path / "results"
    blocker.write_text("not a directory\n")
    (tmp_path / "weights").mkdir()
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")  # mkdir cannot make it a directory
    path = str(tmp_path / name) if name else ""
    paths = {"--out": str(tmp_path / "out"), flag: path}
    config = write_tiny_config(tmp_path)
    argv = ["run", "--config", str(config), *(x for kv in paths.items() for x in kv), "--quiet"]
    assert main(argv) == 1
    assert f"config error: {flag} {path} is not a" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"
    assert not (tmp_path / "out").exists()

@pytest.mark.parametrize(
    "out, dump",
    [("out", "out/manifest.json"), ("out", "out"), ("w/out", "w"),
     ("out", "out/../out/trials.csv/w.json")],
    ids=["a-file-of-out", "out-itself", "above-out", "under-a-file-of-out"],
)
def test_dump_weights_that_collides_with_out_fails_before_any_trial(
    tmp_path, capsys, monkeypatch, out, dump
):
    monkeypatch.setattr("ddpm1d.cli.run_suite", lambda *a, **k: pytest.fail("a trial ran"))
    out, dump = tmp_path / out, tmp_path / dump
    argv = ["run", "--config", str(write_tiny_config(tmp_path, trials=1)), "--out", str(out),
            "--dump-weights", str(dump), "--quiet"]
    assert main(argv) == 1
    assert f"config error: --dump-weights {dump} collides" in capsys.readouterr().err
    assert not out.exists() and not dump.exists()

def test_bad_config_exit_code(tmp_path, capsys):
    path = write_tiny_config(tmp_path, warmup=3)
    assert main(["run", "--config", str(path), "--quiet"]) == 1
    assert "warmup" in capsys.readouterr().err

@pytest.mark.parametrize(
    "extra, key",
    [
        ({"final_step_noiseless": "false"}, "final_step_noiseless"),
        ({"noise": {"family": "mixture", "normalize": "no"}}, "normalize"),
        ({"trials": 2.9}, "trials"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"noise": {"family": "mixture", "big_variance": float("nan")}}, "big_variance"),
        ({"noise": {"family": "mixture", "big_variance": float("inf")}}, "big_variance"),
        ({"learning_rate": "0.001"}, "learning_rate"),
        ({"x0": True}, "x0"),
        ({"noise": {"family": "mixture", "mix_prob": True}}, "mix_prob"),
        ({"noise": "gaussian"}, "noise must be a JSON object"),
        ({"noise": []}, "noise must be a JSON object"),
        ({"noise": 5}, "noise must be a JSON object"),
        ({"activation": "tanh"}, "activation"),
        ({"optimizer": "sgd"}, "optimizer"),
        ({"sigma_mode": "beta_tilde"}, "config key 'sigma_mode'"),
        ({"steps": 0}, "config key 'steps' must be >= 1, got 0"),
        ({"epochs": -1}, "config key 'epochs' must be >= 0, got -1"),
        ({"samples_per_epoch": 0}, "config key 'samples_per_epoch' must be >= 1, got 0"),
        ({"batch_size": 0}, "config key 'batch_size' must be >= 1, got 0"),
        ({"learning_rate": 0.0}, "config key 'learning_rate' must be > 0.0, got 0.0"),
        ({"trials": 0}, "config key 'trials' must be >= 1, got 0"),
        ({"gens_per_trial": 0}, "config key 'gens_per_trial' must be >= 1, got 0"),
        ({"base_seed": -1}, "config key 'base_seed' must be >= 0, got -1"),
        ({"noise": {"family": "mixture", "mix_prob": -0.1}},
         "config key 'mix_prob' must be >= 0.0, got -0.1"),
        ({"noise": {"family": "mixture", "mix_prob": 1.1}},
         "config key 'mix_prob' must be <= 1.0, got 1.1"),
        ({"noise": {"family": "mixture", "big_variance": 0.0}},
         "config key 'big_variance' must be > 0.0, got 0.0"),
    ],
    ids=["bool-string", "normalize-string", "fractional-int", "lr-nan", "lr-inf",
         "big-variance-nan", "big-variance-inf", "lr-string", "x0-bool", "mix-prob-bool",
         "noise-string", "noise-list", "noise-number", "activation-tanh", "optimizer-sgd",
         "sigma-beta-tilde", "steps-zero",
         "epochs-negative", "samples-zero", "batch-zero", "lr-zero", "trials-zero",
         "gens-zero", "seed-negative", "mix-prob-below", "mix-prob-above",
         "big-variance-zero"],
)
def test_coerced_config_values_exit_code(tmp_path, capsys, extra, key):
    # json writes nan/inf as NaN/Infinity, which json.loads reads back
    path = write_tiny_config(tmp_path, **extra)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--quiet"]) == 1
    assert key in capsys.readouterr().err
    assert not out_dir.exists()

@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_exit_code(tmp_path, capsys, workers):
    config = write_tiny_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out_dir),
                 "--workers", workers, "--quiet"])
    assert code == 1
    assert "workers" in capsys.readouterr().err
    assert not out_dir.exists()

def test_unallocatable_steps_exit_code(tmp_path, capsys):
    # 10**17 float64 values are 800 PB, beyond any address space
    assert main(["check", "--config", str(write_tiny_config(tmp_path, steps=10**17))]) == 1
    assert "config error" in capsys.readouterr().err
    config = write_tiny_config(tmp_path, steps=10**19)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out_dir),
                 "--workers", "1", "--quiet"])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()

def test_runtime_failures_exit_code(tmp_path, capsys):
    # 10**17 float64 values are 800 PB, beyond any address space
    config = write_tiny_config(tmp_path, gens_per_trial=10**17, epochs=0)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out_dir),
                 "--workers", "1", "--quiet"])
    assert code == 2
    assert "config error" not in capsys.readouterr().err
    assert not out_dir.exists()
    # Adam at learning rate 1e300 diverges in training, so trial 0 has no weights
    config = write_tiny_config(tmp_path, learning_rate=1e300, epochs=3)
    code = main(["run", "--config", str(config), "--out", str(out_dir),
                 "--workers", "1", "--quiet", "--dump-weights", str(tmp_path / "w.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" not in err and "cannot dump weights" in err
    assert not out_dir.exists()

@pytest.mark.parametrize("extra, divergence", [
    # Adam at learning rate 1e300 takes one step; the second minibatch's loss is not finite
    ({"learning_rate": 1e300}, "training epoch 1, minibatch 1"),
    # every x_T is drawn with std ~3e7, beyond the divergence limit
    ({"noise": {"family": "mixture", "mix_prob": 0.0, "big_variance": 1e15}},
     "evaluation, all 5 chains"),
], ids=["training", "evaluation"])
def test_a_divergence_is_named_on_its_record_row_and_progress_line(
        tmp_path, capsys, extra, divergence):
    config = write_tiny_config(tmp_path, **extra)
    cfg = parse_config(config)
    tasks = [(cfg, i) for i in range(TINY["trials"])]
    records = experiment.run_trials(tasks, 1)
    # repr is shortest round-trip, so an equal repr is equal bits, nan included
    assert [repr(r) for r in experiment.run_trials(tasks, 2)] == [repr(r) for r in records]
    assert [r.divergence for r in records] == [divergence] * TINY["trials"]
    # a training divergence keeps no loss and no θ; an evaluation divergence keeps both
    finished_training = divergence.startswith("evaluation")
    assert all(math.isfinite(r.final_epoch_loss) == finished_training == (r.params is not None)
               for r in records)
    label, csv_bytes = cfg.noise.label(), set()
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--workers", workers]) == 0
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        progress = capsys.readouterr().err.splitlines()
        for r, row, line in zip(records, rows, progress, strict=True):
            loss = cli._fmt(r.final_epoch_loss)
            assert row == f"single,{label},{r.trial_index},9,{loss},nan,true"
            assert line == (f"[{label}] trial {r.trial_index}: loss={loss} err=nan "
                            f"DIVERGED ({divergence})")
        csv_bytes.add((out / "trials.csv").read_bytes())
    assert len(csv_bytes) == 1

def test_an_interrupted_rerun_leaves_no_manifest_and_no_partial_file(tmp_path, monkeypatch):
    argv = ["run", "--experiment", "table1", "--config", str(write_tiny_config(tmp_path)),
            "--workers", "1", "--quiet"]
    out_dir, clean = tmp_path / "out", tmp_path / "clean"
    assert main([*argv, "--out", str(out_dir)]) == 0
    assert main([*argv, "--out", str(clean), "--seed", "5"]) == 0
    whole = {name: {(d / name).read_bytes() for d in (out_dir, clean)}
             for name in ("trials.csv", "summary.csv")}
    calls, fmt = itertools.count(), cli._fmt

    def fmt_interrupted_in_the_third_trial_row(x):
        if next(calls) == 5:
            raise RuntimeError("interrupted")
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", fmt_interrupted_in_the_third_trial_row)
    assert main([*argv, "--out", str(out_dir), "--seed", "5"]) == 2
    left = sorted(os.listdir(out_dir))
    assert set(left) <= {"trials.csv", "summary.csv"}  # no manifest, no temporary file
    for name in left:
        assert (out_dir / name).read_bytes() in whole[name]

def test_every_file_of_a_run_goes_through_the_one_writer_manifest_last(tmp_path, monkeypatch):
    written, write = [], cli._write

    def recording_write(path, fill):
        written.append(Path(path))
        return write(path, fill)

    monkeypatch.setattr(cli, "_write", recording_write)
    out_dir = tmp_path / "out"
    dump = out_dir / "weights.json"
    assert main(["run", "--experiment", "table1", "--config", str(write_tiny_config(tmp_path)),
                 "--out", str(out_dir), "--dump-weights", str(dump), "--workers", "1",
                 "--quiet"]) == 0
    assert written == [dump, out_dir / "trials.csv", out_dir / "summary.csv",
                       out_dir / "manifest.json"]
    assert sorted(out_dir.iterdir()) == sorted(written)  # nothing written around the writer

def test_dump_weights_to_a_250_character_name(tmp_path):
    if os.pathconf(tmp_path, "PC_NAME_MAX") < 250:
        pytest.skip("this file system's names are shorter than 250 characters")
    dump = tmp_path / ("w" * 245 + ".json")
    assert main(["run", "--config", str(write_tiny_config(tmp_path, trials=1)),
                 "--out", str(tmp_path / "out"), "--dump-weights", str(dump), "--workers", "1",
                 "--quiet"]) == 0
    assert len(json.loads(dump.read_text())) == 129
    assert sorted(os.listdir(tmp_path)) == sorted(["config.json", "out", dump.name])

def fail_on_trial_4(cfg, trial):
    """run_trial, but trial 4 raises an error that is not a divergence. Module
    level, so that it pickles by reference to a pool worker."""
    if trial == 4:
        raise RuntimeError("unexpected failure in trial 4")
    return run_trial(cfg, trial)

def test_an_unexpected_error_in_a_pooled_trial_exits_2(tmp_path, monkeypatch, capsys):
    # 30 tasks at 2 workers go out in chunks of 3: gaussian trial 4 is inside the second
    monkeypatch.setattr(experiment, "run_trial", fail_on_trial_4)
    config = write_tiny_config(tmp_path, trials=10)
    out_dir = tmp_path / "out"
    code = main(["run", "--experiment", "table1", "--config", str(config),
                 "--out", str(out_dir), "--workers", "2", "--quiet"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "runtime error: unexpected failure in trial 4"
    assert not out_dir.exists()  # so no trials.csv

@pytest.mark.parametrize("error, traceback", [(MemoryError(), True), (OSError(), False)])
def test_a_runtime_error_without_a_message_is_named_by_its_type(tmp_path, monkeypatch, capsys,
                                                                 error, traceback):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_suite", fail)
    code = main(["run", "--config", str(write_tiny_config(tmp_path)),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"runtime error: {type(error).__name__}"
    assert ("Traceback" in err) == traceback

@pytest.mark.parametrize("command", ["run", "check"])
def test_parsed_arguments_are_config_keys_or_command_options(command):
    args = _build_parser().parse_args([command])
    keys = ExperimentConfig().to_dict()
    options = {"command", "config", "experiment", "workers", "out", "dump_weights", "quiet"}
    assert [name for name in vars(args) if name not in keys and name not in options] == []

def config_echo(tmp_path, config, *flags):
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out_dir), "--quiet", *flags]
    assert main(argv) == 0
    return json.loads((out_dir / "manifest.json").read_text())["config_echo"]

def test_renamed_flags_resolve_to_their_config_keys(tmp_path):
    echo = config_echo(tmp_path, write_tiny_config(tmp_path, trials=1, error_metric="abs_mean"),
                       "--seed", "5", "--normalize-mixture")
    assert echo["base_seed"] == 5
    assert echo["error_metric"] == "abs_mean"
    assert echo["normalize_mixture"] is True

def test_absent_normalize_flag_keeps_the_file_value(tmp_path):
    echo = config_echo(tmp_path, write_tiny_config(tmp_path, trials=1, normalize_mixture=True))
    assert echo["normalize_mixture"] is True

def test_progress_lines_follow_csv_order_at_any_worker_count(tmp_path, capsys):
    config = write_tiny_config(tmp_path, trials=6)  # 18 tasks: chunks of 2
    logs = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        assert main(["run", "--experiment", "table1", "--config", str(config),
                     "--out", str(out_dir), "--workers", workers]) == 0
        logs.append(capsys.readouterr().err)
    assert logs[0] == logs[1]
    rows = (tmp_path / "out1" / "trials.csv").read_text().splitlines()[1:]
    expected = [f"[{row.split(',')[1]}] trial {row.split(',')[2]}:" for row in rows]
    assert [line.split(" loss=")[0] for line in logs[0].splitlines()] == expected

class ForcedStartPool(ProcessPoolExecutor):
    """The trial pool, started by ``method`` whatever run_trials asks for; it
    records the method each pool used."""

    method = "fork"
    used: list[str] = []

    def __init__(self, max_workers, mp_context=None):
        super().__init__(max_workers, mp_context=multiprocessing.get_context(self.method))
        ForcedStartPool.used.append(self._mp_context.get_start_method())

def test_trials_csv_is_the_same_under_every_start_method(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", ForcedStartPool)
    monkeypatch.setattr(ForcedStartPool, "used", [])
    config = write_tiny_config(tmp_path, trials=3)
    methods = [m for m in ("fork", "forkserver", "spawn")
               if m in multiprocessing.get_all_start_methods()]
    csvs = []
    for method in methods:
        monkeypatch.setattr(ForcedStartPool, "method", method)
        out_dir = tmp_path / method
        assert main(["run", "--experiment", "table1", "--config", str(config),
                     "--out", str(out_dir), "--workers", "2", "--quiet"]) == 0
        csvs.append((out_dir / "trials.csv").read_bytes())
    assert ForcedStartPool.used == methods and "spawn" in methods
    assert csvs == [csvs[0]] * len(methods)

@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_the_cli_process_has_one_thread_to_fork_from():
    # numpy's OpenBLAS starts a thread per further CPU unless it is told not to
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child = "import os, ddpm1d.cli; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]

@pytest.mark.skipif(sys.platform != "linux", reason="only a forked worker inherits the kernel")
def test_a_pooled_run_asks_the_compiler_its_version_once_and_builds_once(tmp_path):
    log, shim = tmp_path / "gcc.log", tmp_path / "bin" / "gcc"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\necho "$*" >> {log}\nexec {shutil.which("gcc")} "$@"\n')
    shim.chmod(0o755)
    (tmp_path / "tmp").mkdir()  # a cold kernel cache
    env = os.environ | {"PATH": f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
                        "TMPDIR": str(tmp_path / "tmp")}
    proc = subprocess.run(
        [sys.executable, "-m", "ddpm1d", "run", "--config", str(write_tiny_config(tmp_path)),
         "--workers", "2", "--quiet", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = log.read_text().splitlines()
    assert [c for c in calls if c == "--version"] == ["--version"]
    assert len([c for c in calls if "-shared" in c]) == 1 and len(calls) == 2


def test_workers_default_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _build_parser().parse_args(["run"]).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _build_parser().parse_args(["run"]).workers == 3

def test_module_invocation_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ddpm1d", "check"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "sqrt(alpha_bar[500])" in proc.stdout

SELFTEST_LABELS = ["gaussian", "uniform", "arcsine", "mix0.9", "mix0.5"]

def assert_selftest_passed(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" final_loss=")[0] for line in lines] == [
        f"PASS {label}:" for label in SELFTEST_LABELS
    ]

def test_selftest_all_properties_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "ddpm1d", "selftest"], capture_output=True, text=True
    )
    assert_selftest_passed(proc)

def test_selftest_fails_on_a_row_that_differs(monkeypatch, capsys):
    loss, err = cli.SELFTEST_ROWS["arcsine"]
    monkeypatch.setitem(cli.SELFTEST_ROWS, "arcsine", ("0", err))
    assert main(["selftest"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == (f"FAIL arcsine: final_loss={loss} gen_error={err} "
                        f"(reference final_loss=0 gen_error={err})")
    assert [line.split(":")[0] for line in lines[:2] + lines[3:]] == [
        f"PASS {label}" for label in SELFTEST_LABELS if label != "arcsine"
    ]

def test_selftest_rows_hold_without_avx512_dispatch():
    """The rows are 9-digit strings, so they must hold where numpy's AVX-512
    loops, which move low-order bits of the gaussians, are not dispatched."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("x86-64 dispatch targets")
    umath = multiarray_umath()
    dispatch, features = umath.__cpu_dispatch__, umath.__cpu_features__
    if "X86_V4" not in dispatch or not features.get("X86_V4"):
        pytest.skip("numpy does not dispatch X86_V4 on this host")
    disabled = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                if f in dispatch and features.get(f)]
    child = (f"import sys; from {umath.__name__} import __cpu_features__; "
             "from ddpm1d.cli import main; "
             "print('X86_V4', __cpu_features__['X86_V4'], file=sys.stderr); "
             "sys.exit(main(['selftest']))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert "X86_V4 False" in proc.stderr.splitlines()
    assert_selftest_passed(proc)
