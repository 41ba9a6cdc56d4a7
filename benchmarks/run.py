"""The domcf benchmark: one workload, one seed, one closed loop with one caller.

Usage, from the repository root:

    python3 benchmarks/run.py --workload trend|wide|score --seed N \
        --seconds S --trace 0|1

The program under test is imported from ``src/`` next to this directory; the
run fails (non-zero exit, no result) when it is missing.  BLAS thread variables
are read and reported, never set, so the package's own thread policy is what
gets measured.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
spends half of ``--seconds`` untraced and half with every public entry point
of ``domcf`` wrapped (see ``spans.py``); it prints the per-layer metrics and
the tracing overhead, the difference between the two halves.

Every human-readable line comes first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
report (machine facts, sample counts, every metric including the ones not in
the final line, failures by name) is also written to ``.bench_out/``, with
the spans of a traced run as JSON lines.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "score_s": "s",
    "nll_rows_per_s": "rows/s",
    "cf_rows_per_s": "rows/s",
    "canon_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "datagen.generate_ground_truth.s": "s",
    "datagen.sample_dataset.s": "s",
    "datagen.oracle_counterfactual_error.ms": "ms",
    "train.iterations": "count",
    "train.records": "count",
    "train.materialize.calls": "count",
    "train.step.self_us": "us",
    "train.adam.us_p50": "us",
    "train.adam.us_p99": "us",
    "train.record.ms": "ms",
    "train.record_share": "ratio",
    "ild.log_likelihood.calls": "count",
    "ild.log_likelihood.rows": "count",
    "ild.log_likelihood.self_ms": "ms",
    "ild.counterfactual.calls": "count",
    "ild.counterfactual.rows": "count",
    "ild.counterfactual.self_ms": "ms",
    "ild.dc_distance.ms": "ms",
    "ild.check_counterfactual_equiv.ms": "ms",
    "ild.check_distribution_equiv.ms": "ms",
    "ild.abductions_per_cf_row": "ratio",
    "mixing.chain_inverse.calls": "count",
    "mixing.chain_inverse.rows": "count",
    "mixing.chain_inverse.ms": "ms",
    "mixing.chain_forward.calls": "count",
    "mixing.chain_forward.rows": "count",
    "mixing.chain_forward.ms": "ms",
    "mixing.chain_log_abs_det.calls": "count",
    "mixing.chain_log_abs_det.rows": "count",
    "mixing.chain_log_abs_det.ms": "ms",
    "mixing.chain_passes_per_nll_row": "ratio",
    "scm.forward.calls": "count",
    "scm.forward.rows": "count",
    "scm.forward.ms": "ms",
    "scm.inverse.calls": "count",
    "scm.inverse.rows": "count",
    "scm.inverse.ms": "ms",
    "scm.intervention_set.calls": "count",
    "scm.intervention_set.ms": "ms",
    "scm.compose.calls": "count",
    "canonical.canonicalize.ms": "ms",
    "canonical.swaps": "count",
    "serialize.read_dataset_csv.rows_per_s": "rows/s",
    "serialize.write_dataset_csv.rows_per_s": "rows/s",
    "cli.eval.s": "s",
    "cli.counterfactual.s": "s",
    "cli.canonicalize.s": "s",
    "trace.overhead_pct": "%",
}

# Printed and written to the report, but not in the final line: a fit time
# exists only where something is trained, the fit quality and the oracle error
# are deterministic per seed and vary widely between seeds, and the failure
# ratio is 0 on a correct program.  Per-layer times of a layer a workload does
# not run read 0.
REPORT_END_TO_END = {
    "fit_s": "s",
    "val_nll_gap": "nats",
    "cf_error": "mse",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trend", "wide", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def _sum(pairs) -> tuple[float, float]:
    pairs = list(pairs)
    return sum(a for a, _ in pairs), sum(b for _, b in pairs)


# Each timed metric is a ratio: (numerator, denominator) of one operation,
# and its value is the ratio of the sums over every untraced operation of the
# run (work per second, or seconds per unit of work).  On a shared 2-core
# machine the speed of the same code drifts by up to 2x in phases of 10-40 s,
# and at default BLAS threads single calls are bimodal (a 20k-row likelihood
# takes ~50 or ~100 ms).  Medians of calls or of rounds jump between those
# phases and modes; the ratio of sums over the whole run averages them, and
# its run-to-run spread was the smallest of the estimators tried.
RATIOS = {
    "op_s": lambda op: (op.op_s, 1),
    "fit_s": lambda op: (op.timings.get("fit_s", 0.0), int("fit_s" in op.timings)),
    "score_s": lambda op: (op.timings["score_s"], 1),
    "nll_rows_per_s": lambda op: _sum(op.timings["nll"]),
    "cf_rows_per_s": lambda op: _sum(op.timings["cf"]),
    "canon_ms": lambda op: (1e3 * sum(op.timings["canon"]), len(op.timings["canon"])),
}
# The per-call samples behind a metric, for its percentiles.
PER_CALL = {
    "op_s": lambda op: [op.op_s],
    "fit_s": lambda op: [op.timings["fit_s"]] if "fit_s" in op.timings else [],
    "score_s": lambda op: [op.timings["score_s"]],
    "canon_ms": lambda op: [1e3 * s for s in op.timings["canon"]],
}


def succeeded(rounds) -> list:
    return [op for rnd in rounds for op in rnd if "score_s" in op.timings]


def ratio_of_sums(ops, ratio) -> float | None:
    num, den = _sum(ratio(op) for op in ops)
    return num / den if den else None


def percentiles(samples) -> dict:
    """Sample count, p50 and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n}
    if n:
        out["p50"] = statistics.median(ordered)
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def import_seconds(src: Path) -> float:
    """Median time to import domcf (with numpy and scipy) in a fresh interpreter."""
    probe = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import domcf, domcf.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", probe, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def run_rounds(run, budget_s: float) -> list[list]:
    """Closed loop, one caller: whole rounds until ``budget_s`` has passed."""
    from workloads import OpResult

    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < budget_s:
        results = []
        for label, op in run.ops():
            try:
                results.append(op())
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append(OpResult(label, 0.0, {}, {}, [f"{type(exc).__name__}: {exc}"]))
        rounds.append(results)
    return rounds


def load_program(src: Path):
    """Import domcf from ``src`` (and nowhere else) plus the benchmark modules."""
    if not (src / "domcf" / "__init__.py").is_file():
        raise SystemExit(f"error: no domcf sources under {src}")
    sys.path.insert(0, str(src))
    import domcf

    if Path(domcf.__file__).resolve().parent != (src / "domcf").resolve():
        raise SystemExit(f"error: imported domcf from {domcf.__file__}, not {src}")
    import spans
    import workloads

    return spans, workloads


class Measurement:
    """Everything one run measured, before it is turned into metrics."""

    def __init__(self):
        self.setup_samples: list[float] = []
        self.rounds: list[list] = []
        self.traced_rounds: list[list] = []
        self.tracer = None
        self.first_span = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check_inputs(self, run, fingerprint) -> None:
        self.attempted += 1
        if run.fingerprint() != fingerprint:
            self.failures.append("setup: inputs differ between repeats")


def measure(args, spans, workloads, workdir: Path) -> Measurement:
    """Set up SETUP_REPEATS times, then run rounds untraced (and traced)."""
    got = Measurement()
    run = workloads.runner(args.workload, args.seed, workdir)
    fingerprint = None
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        run.build_inputs()
        run.warm_up()
        got.setup_samples.append(perf_counter() - t)
        fingerprint = fingerprint or run.fingerprint()
        got.check_inputs(run, fingerprint)

    budget = args.seconds / 2 if args.trace else args.seconds
    got.rounds = run_rounds(run, budget)
    if args.trace:
        got.tracer = spans.Tracer()
        got.tracer.install()
        try:
            run.build_inputs()
            got.check_inputs(run, fingerprint)
            got.first_span = len(got.tracer.spans)
            got.traced_rounds = run_rounds(run, budget)
        finally:
            got.tracer.uninstall()

    reference = got.rounds[0]
    for rnd in got.rounds[1:] + got.traced_rounds:
        for op, ref in zip(rnd, reference):
            if op.values != ref.values and not op.failures:
                op.failures.append("result differs from the first round")
    ops = [op for rnd in got.rounds + got.traced_rounds for op in rnd]
    got.attempted += len(ops)
    got.failed = len(got.failures) + sum(1 for op in ops if op.failures)
    got.failures += [f"{op.label}: {f}" for op in ops for f in op.failures]
    return got


def end_to_end(got: Measurement, import_s: float) -> tuple[dict, dict]:
    metrics, samples = {}, {}
    ops = succeeded(got.rounds)
    for name, ratio in RATIOS.items():
        metrics[name] = ratio_of_sums(ops, ratio)
        samples[name] = {"ops": len(ops)}
        if name in PER_CALL:
            samples[name].update(percentiles([x for op in ops for x in PER_CALL[name](op)]))
    metrics["setup_s"] = import_s + statistics.median(got.setup_samples)
    samples["setup_s"] = {"n": len(got.setup_samples), "import_s": import_s}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["fail_ratio"] = got.failed / got.attempted
    fits = [op for op in got.rounds[0] if "val_nll_gap" in op.values]
    for name in ("val_nll_gap", "cf_error"):
        metrics[name] = statistics.mean(op.values[name] for op in fits) if fits else None
    return metrics, samples


def per_layer(got: Measurement, spans, untraced_op_s: float) -> dict:
    tracer, traced = got.tracer, got.traced_rounds
    n = len(traced)
    layer = spans.layer_metrics(tracer.spans, got.first_span, n)
    records = sum(op.timings.get("records", 0) for rnd in traced for op in rnd)
    layer["train.records"] = records / n
    record_s = layer.pop("train.record_s_total")
    layer["train.record.ms"] = 1e3 * record_s / records if records else 0.0
    layer["canonical.swaps"] = sum(op.values.get("swaps", 0) for op in traced[0])
    for name in ("datagen.generate_ground_truth", "datagen.sample_dataset"):
        durs = [s[spans.END] - s[spans.START] for s in tracer.spans if s[spans.NAME] == name]
        layer[f"{name}.s"] = statistics.median(durs) if durs else 0.0
    traced_op_s = ratio_of_sums(succeeded(traced), RATIOS["op_s"])
    layer["trace.overhead_pct"] = 100 * (traced_op_s / untraced_op_s - 1)
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spans, workloads = load_program(src)
    import_s = import_seconds(src)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        got = measure(args, spans, workloads, Path(tmp))

    metrics, samples = end_to_end(got, import_s)
    units = {**END_TO_END, **REPORT_END_TO_END}
    absent: list[str] = []
    if args.trace:
        metrics.update(per_layer(got, spans, metrics["op_s"]))
        units.update(PER_LAYER)
        absent = got.tracer.absent
        got.tracer.write_jsonl(out_dir / f"spans-{tag}.jsonl")

    for name, unit in units.items():
        if metrics[name] is None:
            print(f"{name:42s} n/a (this workload does not run it)")
            continue
        extra = ""
        if name in samples:
            extra = "  (" + ", ".join(f"{k} {v:.6g}" for k, v in samples[name].items()) + ")"
        print(f"{name:42s} {metrics[name]:.6g} {unit}{extra}")
    for name in absent:
        print(f"absent: {name} (no such public entry point in this version)")
    for line in got.failures:
        print(f"FAIL {line}")
    machine = machine_facts()
    print("machine: " + json.dumps(machine))
    print(f"loop: closed, callers 1, rounds {len(got.rounds)} (+{len(got.traced_rounds)} traced), "
          f"{len(got.rounds[0])} ops per round, setup repeats {SETUP_REPEATS}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed",
        "callers": 1,
        "rounds": len(got.rounds),
        "traced_rounds": len(got.traced_rounds),
        "ops_per_round": len(got.rounds[0]),
        "setup_repeats": SETUP_REPEATS,
        "import_s": import_s,
        "samples": samples,
        "machine": machine,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "absent": absent,
        "failures": got.failures,
        "first_round": [{"label": op.label, **op.values} for op in got.rounds[0]],
    }
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    chosen = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": got.failed == 0,
        "attempted": got.attempted,
        "failed": got.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
