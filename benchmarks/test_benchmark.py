"""Tiny-size checks of the benchmark itself: determinism, tracing, robustness.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "trend": workloads.FitWorkload(
        name="trend", dim=3, num_domains=2, intervention=(3,),
        n_train=300, n_val=60, n_test=60,
        variants=(("can", 1), ("dense", None)),
        iterations=20, big_split="train", eval_every=10, cli_rows=10, probe_rows=10,
    ),
    "score": workloads.ScoreWorkload(
        name="score", dim=4, num_domains=3, intervention=(4,),
        swapped=((1,),), equivalents=1, n_big=200, n_val=50,
        cli_rows=10, probe_rows=10,
    ),
}

DETERMINISTIC = (
    "val_nll_gap", "cf_error", "train.iterations", "train.records",
    "train.materialize.calls", "canonical.swaps", "mixing.chain_passes_per_nll_row",
    "ild.abductions_per_cf_row",
)


def _traced_report(monkeypatch, capsys, workload: str, seed: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, workload, TINY[workload])
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(run.PER_LAYER)
    report = json.loads((ROOT / ".bench_out" / f"report-{workload}-seed{seed}-trace1.json").read_text())
    return report


@pytest.mark.parametrize("workload", ["trend", "score"])
def test_same_seed_gives_identical_counts_and_results(monkeypatch, capsys, workload):
    a = _traced_report(monkeypatch, capsys, workload, seed=5)
    b = _traced_report(monkeypatch, capsys, workload, seed=5)
    assert a["first_round"] == b["first_round"]
    for name, metric in a["metrics"].items():
        if name in DETERMINISTIC or name.endswith((".calls", ".rows")):
            assert metric == b["metrics"][name], name


def test_score_counts_two_chain_passes_per_likelihood_row(monkeypatch, capsys):
    report = _traced_report(monkeypatch, capsys, "score", seed=2)
    metrics = report["metrics"]
    assert metrics["mixing.chain_passes_per_nll_row"]["value"] == 2
    assert metrics["ild.abductions_per_cf_row"]["value"] == 1
    assert metrics["canonical.swaps"]["value"] > 0
    assert metrics["train.iterations"]["value"] == 0


def test_missing_entry_point_is_reported_absent_and_patches_are_undone():
    from domcf.mixing import LayerChain

    original = LayerChain.inverse
    tracer = spans.Tracer()
    tracer.install(spans.ENTRIES + (
        ("mixing.gone", "domcf.mixing", "LayerChain.no_such_method", 1),
        ("nowhere.gone", "domcf.no_such_module", "anything", None),
    ))
    try:
        assert LayerChain.inverse is not original
        assert {"mixing.gone", "nowhere.gone"} <= set(tracer.absent)
    finally:
        tracer.uninstall()
    assert LayerChain.inverse is original


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "trend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
