"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the repository root:

    python3 benchmarks/collect.py --workloads trend wide score \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --trace 0 --out summary.json

Runs are sequential, one process at a time.  For every workload and metric
the summary holds the values in seed order, their median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (upper minus lower
quartile, as a share of the median).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from run import machine_facts

    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                     "machine": machine_facts()}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                name: {"unit": metric["unit"],
                       **summarize([r["metrics"][name]["value"] for r in results])}
                for name, metric in results[0]["metrics"].items()
            },
        }
        for name, stats in summary[workload]["metrics"].items():
            spread = stats.get("spread")
            print(f"  {name:42s} median {stats['median']:.6g} {stats['unit']}"
                  + (f"  spread {spread:.3f}" if spread is not None else ""))
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
