import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
UNITS = {"forward_batch": "us", "loss_and_grad_arrays": "us", "adam_step": "us",
         "sample_block.gaussian": "us", "sample_block.uniform": "us",
         "sample_block.arcsine": "us", "sample_block.mix0.5": "us",
         "uniforms": "us", "gaussians": "us", "rows": "us",
         "train_epoch": "ms", "train_epoch.late": "ms", "evaluate_trial": "ms", "reverse_step": "us", "write_csv": "ms",
         "write_manifest": "ms", "kernel_load": "ms", "cli_startup": "ms", "run_trials": "ms"}


def test_tiny_run_reports_every_entry_with_its_unit(capsys):
    # keys and units only: timings depend on the host
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--tiny"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {name: entry["unit"] for name, entry in report.items()} == UNITS
    for entry in report.values():
        assert set(entry) == {"unit", "median", "q1", "q3", "repeats", "calls_per_block", "inputs"}
        assert entry["q1"] <= entry["median"] <= entry["q3"]
        assert entry["repeats"] == 3 and entry["inputs"]
