"""Run a fixed CLI pipeline and print the SHA-256 digest of every file it writes.

Usage: ``python scripts/output_digests.py OUT`` (``OUT`` must be absent or
empty).  The pipeline runs in-process through ``domcf.cli.main``:

- ``generate``: m = 6, 3 domains, intervention ``[5, 6]``, 3,000 train rows
  per domain;
- ``train`` of can2 and dense at 1,200 iterations (kink-search checks at 500
  and 1,000);
- ``eval --val`` of both checkpoints;
- ``canonicalize`` of both checkpoints and of the ground truth;
- ``counterfactual`` of the test split into every domain, for both checkpoints;
- a 2-seed ``experiment`` of can2 and dense.

Each output line is ``sha256  relative/path``, sorted by path.  The CLI's own
messages go to stderr.  Every command is deterministic, so two checkouts that
print the same listing wrote byte-identical checkpoints, histories, metrics,
canonical models, counterfactuals and results CSVs.
"""
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from domcf import cli

GROUND_TRUTH = {
    "dim": 6, "num_domains": 3, "intervention": [5, 6],
    "n_train": 3000, "n_val": 500, "n_test": 500, "seed": 0,
}
TRAIN = {"iterations": 1200, "eval_every": 100, "seed": 0}
VARIANTS = {"can2": {"kind": "can", "k": 2}, "dense": {"kind": "dense"}}


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"domcf {argv[0]} exited {code}")


def pipeline(out: Path, configs: Path) -> None:
    def config(name: str, data: dict) -> str:
        path = configs / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    data = out / "data"
    run("generate", "--config", config("generate", {"ground_truth": GROUND_TRUTH}),
        "--out", str(data))
    models = {"ground_truth": data / "ground_truth.json"}
    for label, variant in VARIANTS.items():
        cfg = config(label, {"dataset_dir": str(data), "variant": variant, "train": TRAIN})
        run("train", "--config", cfg, "--out", str(out / "train" / label))
        models[label] = out / "train" / label / "checkpoint.json"
    (out / "eval").mkdir()
    for label in VARIANTS:
        run("eval", "--model", str(models[label]), "--ground-truth", str(models["ground_truth"]),
            "--test", str(data / "test.csv"), "--val", str(data / "val.csv"),
            "--out", str(out / "eval" / f"{label}.json"))
    for label, model in models.items():
        run("canonicalize", "--model", str(model), "--out", str(out / "canonical" / label))
    (out / "counterfactual").mkdir()
    for label in VARIANTS:
        for target in range(1, GROUND_TRUTH["num_domains"] + 1):
            run("counterfactual", "--model", str(models[label]), "--data", str(data / "test.csv"),
                "--target-domain", str(target),
                "--out", str(out / "counterfactual" / f"{label}_to_{target}.csv"))
    experiment = {"ground_truth": GROUND_TRUTH, "variants": list(VARIANTS.values()),
                  "train": TRAIN, "n_seeds": 2}
    run("experiment", "--config", config("experiment", experiment),
        "--out", str(out / "experiment"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/output_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as configs:
        pipeline(out, Path(configs))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
