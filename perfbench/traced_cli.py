"""Run the ddpm1d command line with timing wrappers installed.

    python perfbench/traced_cli.py SPAN_DIR run --config ... --out ...

Behaves like ``python -m ddpm1d run ...`` and exits with its code. Each
process writes its spans under SPAN_DIR: this one to ``main.json`` (with the
import time of ``ddpm1d.cli`` and the result of restoring the wrapped
bindings), each forked pool worker to ``<pid>.jsonl`` after every trial.
Pool workers inherit the wrappers by fork, the default start method on Linux;
with another start method they record nothing, which the report shows as
missing worker spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

from tracer import Recorder, Tracer


def main(argv: list[str]) -> int:
    span_dir = Path(argv[0])
    rec = Recorder()

    def flush_worker() -> None:
        with open(span_dir / f"{rec.pid}.jsonl", "a") as f:
            f.write(json.dumps(rec.dump()) + "\n")
        rec.reset()

    def in_child() -> None:
        rec.reset()
        rec.on_root = flush_worker

    rec.open("cli.import")
    cli = importlib.import_module("ddpm1d.cli")
    rec.close()
    tracer = Tracer(rec)
    tracer.install()
    os.register_at_fork(after_in_child=in_child)
    try:
        code = cli.main(argv[1:])
    finally:
        dump = rec.dump()
        dump["bindings"] = len(tracer.bindings)
        dump["not_restored"] = tracer.uninstall()
        (span_dir / "main.json").write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
