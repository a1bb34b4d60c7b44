import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_demo_runs():
    # the demo imports names from diffusion, experiment and schedule that no
    # other test reaches through a script
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "quick_demo.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    labels = [line.split()[0] for line in proc.stdout.splitlines() if "mean_error=" in line]
    assert labels == ["gaussian", "uniform", "arcsine"]
