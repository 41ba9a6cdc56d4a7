"""Command-line harness for reproducible simulated experiments.

Subcommands: generate | train | eval | canonicalize | counterfactual |
experiment.  Every command is deterministic given its config and seed; reruns
produce byte-identical files.  Exit codes: 0 success, 2 config error, 3
missing input, 4 shape/validation error (a non-finite eval metric or
counterfactual included), 1 internal error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import typing
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
from .experiment import ExperimentConfig, run_experiment, write_results_csv
from .ild import _label_runs, _labeled_rows, dataset_nll, ground_truth_bound_term
from .scm import intervention_set
from .train import TrainableILD, TrainConfig, VariantSpec, train

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
    p = _require_file(path, "config file")
    try:
        return serialize.load_json(p)
    except ValueError as exc:
        raise ConfigError(f"invalid JSON in {exc}") from exc


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInput(f"{what} not found: {p}")
    return p


def _check_keys(data, allowed, section: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {', '.join(map(repr, unknown))}")


def _from_json(cls, data, section: str):
    """Build dataclass ``cls`` from a JSON object keyed by its field names.

    Absent keys take the dataclass defaults; ``section`` names the object in
    error messages.
    """
    hints = typing.get_type_hints(cls)
    _check_keys(data, hints, section)
    kwargs = {key: _coerce(hints[key], value, f"{section}.{key}") for key, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section}: {exc}") from exc


def _coerce(tp, value, where: str):
    """``value`` as the annotated type ``tp``: ``int`` (a boolean or a
    non-integral number is refused), ``X | None``, ``tuple[X, ...]`` (from a
    JSON array) or a nested dataclass; any other type (``str``) passes the
    value through for the dataclass to check."""
    args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _from_json(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON array, got {type(value).__name__}")
        return tuple(_coerce(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if args:  # ``X | None``
        return None if value is None else _coerce(args[0], value, where)
    if tp is not int:
        return value
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"expected an integer, got {json.dumps(value)}")
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _parse_generate(config, seed: int | None) -> GroundTruthSpec:
    _check_keys(config, ("ground_truth", "output_dir"), "config")
    if "ground_truth" not in config:
        raise ConfigError("config needs a 'ground_truth' section")
    return _with_seed(_from_json(GroundTruthSpec, config["ground_truth"], "ground_truth"), seed)


def _parse_train(config, seed: int | None) -> tuple[VariantSpec, TrainConfig]:
    _check_keys(config, ("dataset_dir", "variant", "train", "output_dir"), "config")
    if "dataset_dir" not in config:
        raise ConfigError("config needs 'dataset_dir'")
    variant = _from_json(VariantSpec, config.get("variant", {"kind": "dense"}), "variant")
    train_cfg = _from_json(TrainConfig, config.get("train", {}), "train")
    return variant, _with_seed(train_cfg, seed)


def _parse_experiment(config, seed: int | None) -> ExperimentConfig:
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    _check_keys(config, fields + ["output_dir"], "config")
    exp = _from_json(ExperimentConfig, {k: config[k] for k in fields if k in config}, "config")
    return dataclasses.replace(exp, ground_truth=_with_seed(exp.ground_truth, seed))


def _with_seed(spec, seed: int | None):
    """``spec`` with its ``seed`` replaced by ``--seed`` (``None`` keeps it); a
    seed that ``spec`` refuses is a config error."""
    if seed is None:
        return spec
    try:
        return dataclasses.replace(spec, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"bad --seed: {exc}") from exc


def _out_dir(config: dict, args) -> Path:
    """The output directory, resolved before any work; each command creates it
    only once its computation has succeeded, so a refused run leaves none."""
    out = args.out or config.get("output_dir")
    if not out:
        raise ConfigError("no output directory (set output_dir in config or pass --out)")
    return Path(out)


def _load_model_file(path):
    """A model file is either a bare bundle or a checkpoint wrapping one; a
    malformed one raises ``ValueError`` naming the file."""
    data = serialize.load_json(path)
    meta = {}
    if isinstance(data, dict) and "model" in data:
        meta = {key: val for key, val in data.items() if key != "model"}
        data = data["model"]
    try:
        return serialize.model_from_dict(data), meta
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    spec = _parse_generate(config, args.seed)
    out = _out_dir(config, args)
    gt = generate_ground_truth(spec)
    dataset = sample_dataset(gt, spec)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_json(serialize.model_to_dict(gt), out / "ground_truth.json")
    serialize.save_json(dataclasses.asdict(spec), out / "spec.json")
    for name in ("train", "val", "test"):
        split = getattr(dataset, name)
        serialize.write_dataset_csv(out / f"{name}.csv", split.x, split.d)
    print(f"wrote ground truth and {spec.num_domains}-domain dataset to {out}")
    return EXIT_OK


def _load_dataset_dir(dataset_dir) -> MultiDomainDataset:
    root = Path(dataset_dir)
    if not root.exists():
        raise MissingInput(f"dataset directory not found: {root}")
    for name in ("spec.json", "train.csv", "val.csv", "test.csv"):
        _require_file(root / name, name)
    spec = _from_json(GroundTruthSpec, serialize.load_json(root / "spec.json"), "spec.json")
    splits = {}
    for name in ("train", "val", "test"):
        x, d = serialize.read_dataset_csv(root / f"{name}.csv")
        splits[name] = Split(x, d)
    return MultiDomainDataset(
        train=splits["train"],
        val=splits["val"],
        test=splits["test"],
        spec=spec,
    )


def cmd_train(args) -> int:
    config = _load_config(args.config)
    variant, train_cfg = _parse_train(config, args.seed)
    dataset = _load_dataset_dir(config["dataset_dir"])
    out = _out_dir(config, args)

    spec = dataset.spec
    trainable = TrainableILD.initialize(
        spec.dim, spec.num_domains, variant.kind, variant.k, seed=train_cfg.seed
    )
    best, history = train(trainable, dataset, train_cfg)
    val_nll = min(rec[2] for rec in history)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_json(
        {
            "model": serialize.model_to_dict(best),
            "variant": variant.label(),
            "k": trainable.domain_rows,
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
        "gt_bound_term": ground_truth_bound_term(gt),
    }
    for name, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite ({value!r})")
    payload = json.dumps(metrics, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_canonicalize(args) -> int:
    model, _ = _load_model_file(_require_file(args.model, "model file"))
    canonical, identity_canonical, report = canonicalize(model)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
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
    model._scm(target)  # refuses a bad target even when the data file has no rows
    x, d = _labeled_rows((x, d), model)
    rows = np.empty_like(x)
    for idx, dom in _label_runs(d):
        rows[idx] = model.counterfactual(x[idx], dom, target)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"the counterfactual of sample {np.argmin(finite) + 1} is not finite")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    serialize.write_dataset_csv(args.out, rows, np.full(len(x), target, dtype=int))
    print(f"wrote {len(x)} counterfactuals into domain {target}: {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    exp = _parse_experiment(config, args.seed)
    out = _out_dir(config, args)
    rows, summary = run_experiment(exp)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(out / "results.csv", rows, summary)
    print(f"wrote {len(rows)} result rows to {out / 'results.csv'}")
    for variant, entry in summary.items():
        print(
            f"  {variant}: cf_error {entry['cf_error_mean']:.6f} "
            f"+/- {entry['cf_error_stderr']:.6f} (stderr, {entry['n_seeds']} seeds)"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcf",
        description="Simulated domain-counterfactual experiments with invertible "
        "latent-domain models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
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
    p_eval.add_argument(
        "--seed", type=int, default=None, help="accepted and ignored: no eval output depends on it"
    )
    p_eval.add_argument("--out", default=None, help="metrics JSON path")

    p_canon = sub.add_parser("canonicalize", help="rewrite a model in canonical form")
    p_canon.add_argument("--model", required=True)
    p_canon.add_argument("--out", default=None, help="output directory")

    p_cf = sub.add_parser("counterfactual", help="map observations into a target domain")
    p_cf.add_argument("--model", required=True)
    p_cf.add_argument("--data", required=True)
    p_cf.add_argument("--target-domain", type=int, required=True)
    p_cf.add_argument("--out", required=True)

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
    except (ValueError, IndexError) as exc:  # DimensionMismatch is a ValueError
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
