"""Command-line harness for reproducible simulated experiments.

Subcommands: generate | train | eval | canonicalize | counterfactual |
experiment.  Every command is deterministic given its config and seed; reruns
produce byte-identical files.  Exit codes: 0 success, 2 config error, 3
missing input, 4 shape/validation error, 1 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import serialize
from .canonical import canonicalize
from .datagen import (
    GroundTruthSpec,
    MultiDomainDataset,
    Split,
    generate_ground_truth,
    oracle_counterfactual_error,
    sample_dataset,
)
from .experiment import ExperimentConfig, VariantSpec, run_experiment, write_results_csv
from .ild import ground_truth_bound_term
from .scm import DimensionMismatch, intervention_set
from .train import TrainableILD, TrainConfig, dataset_nll, train

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_SHAPE = 4


class ConfigError(Exception):
    """The config file is malformed or fails validation."""


class MissingInput(Exception):
    """A required input file or directory does not exist."""


def _load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise MissingInput(f"config file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInput(f"{what} not found: {p}")
    return p


def _ground_truth_spec(data: dict, seed_override: int | None) -> GroundTruthSpec:
    try:
        spec = GroundTruthSpec(
            dim=int(data["dim"]),
            num_domains=int(data["num_domains"]),
            intervention=tuple(data.get("intervention", ())),
            n_train=int(data.get("n_train", 100_000)),
            n_val=int(data.get("n_val", 1_000)),
            n_test=int(data.get("n_test", 1_000)),
            seed=int(data.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad ground_truth section: {exc}") from exc
    if seed_override is not None:
        spec = replace(spec, seed=seed_override)
    return spec


def _train_config(data: dict, seed_override: int | None) -> TrainConfig:
    try:
        cfg = TrainConfig(
            learning_rate_g=float(data.get("learning_rate_g", 1e-3)),
            learning_rate_f=float(data.get("learning_rate_f", 1e-3)),
            beta1=float(data.get("beta1", 0.5)),
            beta2=float(data.get("beta2", 0.999)),
            batch_size=int(data.get("batch_size", 500)),
            iterations=int(data.get("iterations", 50_000)),
            eval_every=int(data.get("eval_every", 100)),
            seed=int(data.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train section: {exc}") from exc
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


def _variant(data: dict) -> VariantSpec:
    try:
        kind = data["kind"]
        k = data.get("k")
        return VariantSpec(kind=kind, k=None if k is None else int(k))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad variant: {exc}") from exc


def _out_dir(config: dict, args) -> Path:
    out = args.out or config.get("output_dir")
    if not out:
        raise ConfigError("no output directory (set output_dir in config or pass --out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_model_file(path):
    """A model file is either a bare bundle or a checkpoint wrapping one."""
    data = serialize.load_json(path)
    meta = {}
    if "model" in data:
        meta = {key: val for key, val in data.items() if key != "model"}
        data = data["model"]
    return serialize.model_from_dict(data), meta


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    if "ground_truth" not in config:
        raise ConfigError("config needs a 'ground_truth' section")
    spec = _ground_truth_spec(config["ground_truth"], args.seed)
    out = _out_dir(config, args)
    gt = generate_ground_truth(spec)
    dataset = sample_dataset(gt, spec)
    serialize.save_json(serialize.model_to_dict(gt), out / "ground_truth.json")
    serialize.save_json(
        {
            "dim": spec.dim,
            "num_domains": spec.num_domains,
            "intervention": list(spec.intervention),
            "n_train": spec.n_train,
            "n_val": spec.n_val,
            "n_test": spec.n_test,
            "seed": spec.seed,
        },
        out / "spec.json",
    )
    for name in ("train", "val", "test"):
        split = getattr(dataset, name)
        serialize.write_dataset_csv(out / f"{name}.csv", split.x, split.d)
    print(f"wrote ground truth and {spec.num_domains}-domain dataset to {out}")
    return EXIT_OK


def _load_dataset_dir(dataset_dir) -> MultiDomainDataset:
    root = Path(dataset_dir)
    if not root.exists():
        raise MissingInput(f"dataset directory not found: {root}")
    for name in ("spec.json", "ground_truth.json", "train.csv", "val.csv", "test.csv"):
        _require_file(root / name, name)
    spec_data = serialize.load_json(root / "spec.json")
    spec = _ground_truth_spec(spec_data, None)
    gt, _ = _load_model_file(root / "ground_truth.json")
    splits = {}
    for name in ("train", "val", "test"):
        x, d = serialize.read_dataset_csv(root / f"{name}.csv")
        splits[name] = Split(x, d)
    return MultiDomainDataset(
        train=splits["train"],
        val=splits["val"],
        test=splits["test"],
        spec=spec,
        generator_model=gt,
    )


def cmd_train(args) -> int:
    config = _load_config(args.config)
    if "dataset_dir" not in config:
        raise ConfigError("config needs 'dataset_dir'")
    dataset = _load_dataset_dir(config["dataset_dir"])
    variant = _variant(config.get("variant", {"kind": "dense"}))
    train_cfg = _train_config(config.get("train", {}), args.seed)
    out = _out_dir(config, args)

    spec = dataset.spec
    trainable = TrainableILD.initialize(
        spec.dim, spec.num_domains, variant.kind, variant.k, seed=train_cfg.seed
    )
    best, history = train(trainable, dataset, train_cfg)
    val_nll = min(rec[2] for rec in history)
    serialize.save_json(
        {
            "model": serialize.model_to_dict(best),
            "variant": variant.label(),
            "k": trainable.k,
            "val_nll": val_nll,
            "seed": train_cfg.seed,
        },
        out / "checkpoint.json",
    )
    serialize.write_history_csv(out / "history.csv", history)
    print(f"trained {variant.label()} for {train_cfg.iterations} iterations; "
          f"best val NLL {val_nll:.6f}; wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, meta = _load_model_file(_require_file(args.model, "model file"))
    gt, _ = _load_model_file(_require_file(args.ground_truth, "ground-truth file"))
    x_test, d_test = serialize.read_dataset_csv(_require_file(args.test, "test set"))
    seed = args.seed if args.seed is not None else 0
    val_nll = meta.get("val_nll")
    if args.val:
        x_val, d_val = serialize.read_dataset_csv(_require_file(args.val, "val set"))
        val_nll = dataset_nll(model, x_val, d_val)
    iset = intervention_set(model.scms)
    metrics = {
        "cf_error": oracle_counterfactual_error(model, gt, (x_test, d_test)),
        "test_nll": dataset_nll(model, x_test, d_test),
        "val_nll": val_nll,
        "intervention_set": serialize.intervention_to_dict(iset),
        "lipschitz_bound": model.g.lipschitz_upper_bound(),
        "gt_bound_term": ground_truth_bound_term(gt, n_mc=20_000, seed=seed),
    }
    payload = json.dumps(metrics, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_canonicalize(args) -> int:
    model, _ = _load_model_file(_require_file(args.model, "model file"))
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    canonical, identity_canonical, report = canonicalize(model)
    serialize.save_json(serialize.model_to_dict(canonical), out / "canonical.json")
    serialize.save_json(
        serialize.model_to_dict(identity_canonical), out / "identity_canonical.json"
    )
    serialize.save_json(serialize.report_to_dict(report), out / "report.json")
    print(
        f"canonicalized: interventions {report.original_intervention.indices} -> "
        f"{report.final_intervention.indices} via swaps {list(report.swaps)}"
    )
    return EXIT_OK


def cmd_counterfactual(args) -> int:
    model, _ = _load_model_file(_require_file(args.model, "model file"))
    x, d = serialize.read_dataset_csv(_require_file(args.data, "data file"))
    target = args.target_domain
    if not 1 <= target <= model.num_domains:
        raise DimensionMismatch(
            f"target domain {target} out of range [1, {model.num_domains}]"
        )
    rows = np.empty_like(x)
    for dom in np.unique(d):
        mask = d == dom
        rows[mask] = model.counterfactual(x[mask], int(dom), target)
    serialize.write_dataset_csv(args.out, rows, np.full(len(x), target, dtype=int))
    print(f"wrote {len(x)} counterfactuals into domain {target}: {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    for key in ("ground_truth", "n_seeds"):
        if key not in config:
            raise ConfigError(f"config needs '{key}'")
    spec = _ground_truth_spec(config["ground_truth"], args.seed)
    variants = tuple(
        _variant(v)
        for v in config.get("variants", [{"kind": "can", "k": 2}, {"kind": "dense"}])
    )
    try:
        exp = ExperimentConfig(
            ground_truth=spec,
            variants=variants,
            train=_train_config(config.get("train", {}), None),
            n_seeds=int(config["n_seeds"]),
            output_dir=config.get("output_dir"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(config, args)
    rows, summary = run_experiment(exp)
    write_results_csv(out / "results.csv", rows, summary)
    print(f"wrote {len(rows)} result rows to {out / 'results.csv'}")
    for variant, entry in summary.items():
        print(
            f"  {variant}: cf_error {entry['cf_error_mean']:.6f} "
            f"+/- {entry['cf_error_stderr']:.6f} (stderr, {entry['n_seeds']} seeds)"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcf",
        description="Simulated domain-counterfactual experiments with invertible "
        "latent-domain models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory override")

    add_common(sub.add_parser("generate", help="write a ground truth and dataset"))
    add_common(sub.add_parser("train", help="fit one variant on a generated dataset"))

    p_eval = sub.add_parser("eval", help="score a model against a ground truth")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--ground-truth", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--val", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None, help="metrics JSON path")

    p_canon = sub.add_parser("canonicalize", help="rewrite a model in canonical form")
    p_canon.add_argument("--model", required=True)
    p_canon.add_argument("--seed", type=int, default=None)
    p_canon.add_argument("--out", default=None, help="output directory")

    p_cf = sub.add_parser("counterfactual", help="map observations into a target domain")
    p_cf.add_argument("--model", required=True)
    p_cf.add_argument("--data", required=True)
    p_cf.add_argument("--target-domain", type=int, required=True)
    p_cf.add_argument("--out", required=True)
    p_cf.add_argument("--seed", type=int, default=None)

    add_common(sub.add_parser("experiment", help="multi-seed generate/train/eval loop"))
    return parser


_HANDLERS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "canonicalize": cmd_canonicalize,
    "counterfactual": cmd_counterfactual,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInput as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (DimensionMismatch, ValueError, IndexError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
