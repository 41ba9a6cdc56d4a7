"""The worked canonicalization demo, run as a script in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_canonicalize_demo_preserves_equivalence():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "canonicalize_demo.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "counterfactuals preserved: True" in done.stdout
    assert "densities preserved: True" in done.stdout
