"""Every ``BENCH_*.json`` at the repository root has the one shape that lets the
performance record be read across changes without copying by hand: the shared
keys, and a ``claim`` that names its workload, metric and bound, both medians,
the parent's interquartile range and the pairs the change won. Shape only: no
timing is checked, since timings belong to the host that took them."""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"change", "parent_commit", "host", "method", "claim", "end_to_end", "layers"}
CLAIM_NUMBERS = ("bound", "parent_median", "change_median", "parent_iqr")


def test_there_is_a_performance_record():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_the_shared_shape(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= record.keys(), KEYS - record.keys()
    for key in ("change", "parent_commit", "host", "method"):
        assert isinstance(record[key], str) and record[key]
    assert isinstance(record["end_to_end"], dict) and isinstance(record["layers"], dict)
    claim = record["claim"]
    assert set(claim) >= {"workload", "metric", "change_wins", *CLAIM_NUMBERS}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert claim["workload"] in {w["name"] for w in spec["workloads"]}
    assert claim["metric"] in {m["name"] for m in spec["end_to_end"]}
    for key in CLAIM_NUMBERS:
        assert isinstance(claim[key], Real) and not isinstance(claim[key], bool), key
    wins = re.fullmatch(r"(\d+)/(\d+)", claim["change_wins"])
    assert wins and int(wins[1]) <= int(wins[2])
