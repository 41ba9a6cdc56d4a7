"""The scripts under ``scripts/``, each run in a fresh interpreter."""
import csv
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


def test_trend_experiment_writes_results(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "trend"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trend_experiment.py"), "--seeds", "2",
         "--iterations", "20", "--samples", "200", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_seed = sorted((row["seed"], row["variant"]) for row in rows if row["seed"].isdigit())
    assert per_seed == [("0", "can2"), ("0", "dense"), ("1", "can2"), ("1", "dense")]
    summary = sorted((row["seed"], row["variant"]) for row in rows if not row["seed"].isdigit())
    assert summary == [(stat, v) for stat in ("mean", "stderr") for v in ("can2", "dense")]
    assert "sparse variant wins" in done.stdout
