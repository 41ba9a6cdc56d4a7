"""The scripts under ``scripts/`` and the configs under ``configs/``, each run
in a fresh interpreter."""
import csv
import hashlib
import json
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
    config = json.loads((ROOT / "configs" / "trend_experiment.json").read_text())
    config["n_seeds"] = 2
    config["train"]["iterations"] = 20
    config["ground_truth"]["n_train"] = 200
    (tmp_path / "trend.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "trend"
    done = subprocess.run(
        [sys.executable, "-m", "domcf.cli", "experiment", "--config", str(tmp_path / "trend.json"),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_seed = sorted((row["seed"], row["variant"]) for row in rows if row["seed"].isdigit())
    assert per_seed == [("0", "can2"), ("0", "dense"), ("1", "can2"), ("1", "dense")]
    summary = sorted((row["seed"], row["variant"]) for row in rows if not row["seed"].isdigit())
    assert summary == [(stat, v) for stat in ("mean", "stderr") for v in ("can2", "dense")]


def test_output_digests_lists_every_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py"), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    listing = [line.split("  ") for line in done.stdout.splitlines()]
    paths = [path for _, path in listing]
    canonical = ("canonical.json", "identity_canonical.json", "report.json")
    expected = (
        [f"canonical/{model}/{name}" for model in ("can2", "dense", "ground_truth")
         for name in canonical]
        + [f"counterfactual/{v}_to_{d}.csv" for v in ("can2", "dense") for d in (1, 2, 3)]
        + [f"data/{name}" for name in
           ("ground_truth.json", "spec.json", "test.csv", "train.csv", "val.csv")]
        + ["eval/can2.json", "eval/dense.json", "experiment/results.csv"]
        + [f"train/{v}/{name}" for v in ("can2", "dense")
           for name in ("checkpoint.json", "history.csv")]
    )
    assert paths == sorted(expected)
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == paths
    for digest, path in listing:
        assert digest == hashlib.sha256((out / path).read_bytes()).hexdigest(), path
