import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_paper.py"


def run_script(monkeypatch, *args):
    spec = importlib.util.spec_from_file_location("reproduce_paper", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(module, "cli_main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    assert module.main() == 0
    return calls


def test_workers_left_to_the_cli_default(monkeypatch):
    calls = run_script(monkeypatch)
    assert [argv[argv.index("--experiment") + 1] for argv in calls] == ["table1", "table2"]
    assert all("--workers" not in argv for argv in calls)


def test_workers_forwarded_when_given(monkeypatch):
    calls = run_script(monkeypatch, "--workers", "3")
    assert [argv[argv.index("--workers") + 1] for argv in calls] == ["3", "3"]
