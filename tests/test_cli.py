import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from domcf import (
    AffineDense,
    AffineSCM,
    ExperimentConfig,
    GroundTruthSpec,
    ILDModel,
    LayerChain,
    TrainConfig,
    serialize,
)
from domcf import cli
from domcf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2))


def data_lines(path) -> list[str]:
    """The lines of a CSV file after its header."""
    return path.read_text().splitlines()[1:]


@pytest.fixture
def dataset_dir(tmp_path):
    """A tiny generated dataset directory."""
    cfg = tmp_path / "generate.json"
    write_json(
        cfg,
        {
            "ground_truth": {
                "dim": 2,
                "num_domains": 2,
                "intervention": [2],
                "n_train": 60,
                "n_val": 30,
                "n_test": 30,
                "seed": 3,
            },
            "output_dir": str(tmp_path / "data"),
        },
    )
    assert main(["generate", "--config", str(cfg)]) == 0
    return tmp_path / "data"


def demo_model_file(path):
    f1 = AffineSCM.from_matrix(np.tril(np.ones((4, 4))), np.zeros(4))
    f2 = AffineSCM.from_matrix(
        np.array([[1.0, 0, 0, 0], [2, 2, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
        np.zeros(4),
    )
    g = LayerChain(4, (AffineDense(np.eye(4), np.zeros(4)),))
    model = ILDModel(g, (f1, f2))
    serialize.save_json(serialize.model_to_dict(model), path)
    return model


def overflowing_demo_input(tmp_path):
    """The demo model's file and a finite data file whose counterfactuals
    overflow: from domain 1 into domain 2 the model doubles ``x2``."""
    model, data = tmp_path / "model.json", tmp_path / "huge.csv"
    demo_model_file(model)
    serialize.write_dataset_csv(data, np.full((2, 4), 1e308), np.array([1, 2]))
    return model, data


class TestGenerate:
    def test_writes_expected_files(self, dataset_dir):
        names = sorted(p.name for p in dataset_dir.iterdir())
        assert names == [
            "ground_truth.json",
            "spec.json",
            "test.csv",
            "train.csv",
            "val.csv",
        ]

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        cfg = tmp_path / "again.json"
        write_json(
            cfg,
            {
                "ground_truth": json.loads((dataset_dir / "spec.json").read_text()),
                "output_dir": str(tmp_path / "data2"),
            },
        )
        assert main(["generate", "--config", str(cfg)]) == 0
        for name in ("ground_truth.json", "train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "data2" / name).read_bytes() == (
                dataset_dir / name
            ).read_bytes()

    def test_spec_json_is_the_dataclass(self, dataset_dir):
        spec = GroundTruthSpec(2, 2, (2,), n_train=60, n_val=30, n_test=30, seed=3)
        assert (dataset_dir / "spec.json").read_text() == json.dumps(asdict(spec), indent=2) + "\n"

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == 2

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 3


class TestTrain:
    def test_zero_iterations_writes_checkpoint(self, dataset_dir, tmp_path):
        cfg = tmp_path / "train.json"
        out = tmp_path / "run"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "can", "k": 1},
                "train": {"iterations": 0, "seed": 1},
                "output_dir": str(out),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 0
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert set(checkpoint) >= {"model", "variant", "k", "val_nll"}
        assert len(data_lines(out / "history.csv")) == 1
        assert {f.name for f in out.iterdir()} == {"checkpoint.json", "history.csv"}

    def test_history_row_count(self, dataset_dir, tmp_path):
        cfg = tmp_path / "train.json"
        out = tmp_path / "run"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 40, "eval_every": 10, "batch_size": 16, "seed": 1},
                "output_dir": str(out),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(data_lines(out / "history.csv")) == 40 // 10 + 1

    def test_constant_train_column_exits_4(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "train.csv").read_text().splitlines()
        rows = [line.split(",")[:2] + ["0.5"] for line in lines[1:]]
        (dataset_dir / "train.csv").write_text(
            "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"
        )
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 40, "eval_every": 10, "batch_size": 16, "seed": 1},
                "output_dir": str(tmp_path / "run"),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 4
        assert "train column 2 has zero variance" in capsys.readouterr().err

    def test_rank_deficient_train_data_exits_4(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "train.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        dependent = [row[:2] + [repr(0.25 - 2.0 * float(row[1]))] for row in rows]
        (dataset_dir / "train.csv").write_text(
            "\n".join([lines[0]] + [",".join(row) for row in dependent]) + "\n"
        )
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 40, "eval_every": 10, "batch_size": 16, "seed": 1},
                "output_dir": str(tmp_path / "run"),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 4
        assert "train data is rank-deficient" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_train_values_exit_4(self, dataset_dir, tmp_path, capsys):
        for name in ("train.csv", "val.csv"):
            lines = (dataset_dir / name).read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            scaled = [[row[0]] + [repr(float(v) * 1e200) for v in row[1:]] for row in rows]
            (dataset_dir / name).write_text(
                "\n".join([lines[0]] + [",".join(row) for row in scaled]) + "\n"
            )
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 40, "eval_every": 10, "batch_size": 16, "seed": 1},
                "output_dir": str(tmp_path / "run"),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 4
        assert "non-finite gradient at iteration 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_second_moment_exits_4(self, dataset_dir, tmp_path, capsys):
        for name in ("train.csv", "val.csv"):
            lines = (dataset_dir / name).read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            scaled = [[row[0]] + [repr(float(v) * 1e150) for v in row[1:]] for row in rows]
            (dataset_dir / name).write_text(
                "\n".join([lines[0]] + [",".join(row) for row in scaled]) + "\n"
            )
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 40, "eval_every": 10, "batch_size": 16, "seed": 1},
                "output_dir": str(tmp_path / "run"),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 4
        assert "second moment overflowed at iteration 1" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_validation_nll_exits_4(self, dataset_dir, tmp_path, capsys):
        for name in ("train.csv", "val.csv"):
            lines = (dataset_dir / name).read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            scaled = [[row[0]] + [repr(float(v) * 1e200) for v in row[1:]] for row in rows]
            (dataset_dir / name).write_text(
                "\n".join([lines[0]] + [",".join(row) for row in scaled]) + "\n"
            )
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 0, "seed": 1},
                "output_dir": str(tmp_path / "run"),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 4
        assert "no recorded validation NLL is finite" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_ground_truth_file_is_not_read(self, dataset_dir, tmp_path):
        """Training reads only the spec and the splits: without
        ``ground_truth.json`` it writes the same bytes."""
        outputs = []
        for run in ("with", "without"):
            if run == "without":
                (dataset_dir / "ground_truth.json").unlink()
            cfg, out = tmp_path / f"{run}.json", tmp_path / run
            write_json(
                cfg,
                {
                    "dataset_dir": str(dataset_dir),
                    "variant": {"kind": "can", "k": 1},
                    "train": {"iterations": 40, "eval_every": 10, "batch_size": 16, "seed": 1},
                    "output_dir": str(out),
                },
            )
            assert main(["train", "--config", str(cfg)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("checkpoint.json", "history.csv")])
        assert outputs[0] == outputs[1]

    def test_spec_integer_beyond_float_range_exits_4(self, dataset_dir, tmp_path, capsys):
        spec = dataset_dir / "spec.json"
        spec.write_text(re.sub(r'"seed": \d+', '"seed": 1%s' % ("0" * 400), spec.read_text()))
        cfg = tmp_path / "train.json"
        write_json(cfg, {"dataset_dir": str(dataset_dir), "output_dir": str(tmp_path / "run")})
        assert main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert str(spec) in err and "beyond the float range" in err

    def test_missing_dataset_exits_3(self, tmp_path):
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {"dataset_dir": str(tmp_path / "absent"), "output_dir": str(tmp_path)},
        )
        assert main(["train", "--config", str(cfg)]) == 3


class TestEval:
    def test_ground_truth_scores_zero_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "eval",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(dataset_dir / "test.csv"),
                "--val", str(dataset_dir / "val.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert set(metrics) == {
            "cf_error", "test_nll", "val_nll", "intervention_set",
            "lipschitz_bound", "gt_bound_term",
        }
        assert metrics["cf_error"] == 0.0
        assert metrics["intervention_set"]["indices"] == [2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_metric_exits_4(self, tmp_path, capsys):
        model, data = overflowing_demo_input(tmp_path)
        out = tmp_path / "nodir" / "metrics.json"
        code = main(
            [
                "eval", "--model", str(model), "--ground-truth", str(model),
                "--test", str(data), "--out", str(out),
            ]
        )
        assert code == 4 and not out.parent.exists()
        assert "metric 'cf_error' is not finite" in capsys.readouterr().err

    def test_out_into_missing_directory(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "nodir" / "m.json"
        truth = str(dataset_dir / "ground_truth.json")
        code = main(
            [
                "eval", "--model", truth, "--ground-truth", truth,
                "--test", str(dataset_dir / "test.csv"), "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["cf_error"] == 0.0

    def test_matches_library_oracle(self, dataset_dir, tmp_path, capsys):
        from domcf import oracle_counterfactual_error

        out = tmp_path / "metrics.json"
        main(
            [
                "eval",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(dataset_dir / "test.csv"),
                "--out", str(out),
            ]
        )
        gt, _ = (
            serialize.model_from_dict(
                json.loads((dataset_dir / "ground_truth.json").read_text())
            ),
            None,
        )
        x, d = serialize.read_dataset_csv(dataset_dir / "test.csv")
        expected = oracle_counterfactual_error(gt, gt, (x, d))
        assert json.loads(out.read_text())["cf_error"] == pytest.approx(
            expected, abs=1e-12
        )

    def test_seed_changes_no_output(self, dataset_dir, tmp_path):
        outs = [tmp_path / f"metrics_{seed}.json" for seed in (0, 7)]
        for seed, out in zip((0, 7), outs):
            assert main([
                "eval",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(dataset_dir / "test.csv"),
                "--seed", str(seed),
                "--out", str(out),
            ]) == 0
        assert json.loads(outs[0].read_text())["gt_bound_term"] > 0.0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_earlier_options_do_not_leak_into_later_calls(self, dataset_dir, tmp_path):
        """``main`` reuses one parser: an ``eval`` without ``--val`` after one
        with it scores as a fresh process does, with ``val_nll`` from the
        checkpoint."""
        cfg = tmp_path / "train.json"
        write_json(
            cfg,
            {
                "dataset_dir": str(dataset_dir),
                "variant": {"kind": "dense"},
                "train": {"iterations": 20, "eval_every": 10, "batch_size": 16, "seed": 2},
                "output_dir": str(tmp_path / "fit"),
            },
        )
        assert main(["train", "--config", str(cfg)]) == 0
        checkpoint = tmp_path / "fit" / "checkpoint.json"
        argv = [
            "eval",
            "--model", str(checkpoint),
            "--ground-truth", str(dataset_dir / "ground_truth.json"),
            "--test", str(dataset_dir / "test.csv"),
        ]
        with_val = tmp_path / "with_val.json"
        assert main(argv + ["--val", str(dataset_dir / "test.csv"), "--out", str(with_val)]) == 0
        assert main(argv + ["--out", str(tmp_path / "again.json")]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "domcf.cli", *argv, "--out", str(tmp_path / "fresh.json")],
            env=dict(os.environ, PYTHONPATH=str(README.parent / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        again = (tmp_path / "again.json").read_text()
        assert again == (tmp_path / "fresh.json").read_text()
        val_nll = json.loads(checkpoint.read_text())["val_nll"]
        assert json.loads(again)["val_nll"] == val_nll
        assert json.loads(with_val.read_text())["val_nll"] != val_nll

    def test_shape_mismatch_exits_4(self, dataset_dir, tmp_path):
        other = tmp_path / "other_model.json"
        demo_model_file(other)  # 4-dim model against a 2-dim dataset
        code = main(
            [
                "eval",
                "--model", str(other),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(dataset_dir / "test.csv"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("column, cell", [(1, "nan"), (1, "inf"), (0, "0")])
    def test_bad_cell_exits_4(self, dataset_dir, tmp_path, capsys, column, cell):
        lines = (dataset_dir / "test.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = cell
        lines[1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "eval",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(bad),
            ]
        )
        assert code == 4
        assert "line 2" in capsys.readouterr().err

    def test_empty_val_exits_4(self, dataset_dir, tmp_path, capsys):
        header_only = tmp_path / "empty.csv"
        header_only.write_text((dataset_dir / "val.csv").read_text().splitlines()[0] + "\n")
        code = main(
            [
                "eval",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(dataset_dir / "test.csv"),
                "--val", str(header_only),
            ]
        )
        assert code == 4
        assert "non-empty" in capsys.readouterr().err


def _without_mechanisms(bundle):
    del bundle["F"]
    return bundle


def _without_slope(bundle):
    del bundle["g"]["layers"][0]["slope"]  # the leaky ReLU
    return bundle


def _inside_a_list(bundle):
    return [bundle]


def _nested_lower_entries(bundle):
    # dim 2 has one strictly-lower entry; [[v]] has one too, but is nested
    bundle["F"][0]["L"] = [bundle["F"][0]["L"]]
    return bundle


def _infinite_slope(bundle):
    bundle["g"]["layers"][0]["slope"] = float("inf")  # json.dumps writes Infinity
    return bundle


def _fractional_permutation(bundle):
    bundle["g"]["layers"].append({"kind": "permute", "pi": [2.7, 1]})  # int() would give (2, 1)
    return bundle


def _string_in_scale(bundle):
    bundle["F"][0]["S"][0] = repr(bundle["F"][0]["S"][0])
    return bundle


def _string_in_bias(bundle):
    bundle["g"]["layers"][1]["b"][1] = "3"  # the first affine layer
    return bundle


def _bool_in_dense_matrix(bundle):
    bundle["g"]["layers"][1]["G"][0][0] = True
    return bundle


def _huge_integer_scale(bundle):
    bundle["F"][0]["S"][0] = 10**400  # a JSON int that float() cannot convert
    return bundle


def _huge_integer_slope(bundle):
    bundle["g"]["layers"][0]["slope"] = 10**400
    return bundle


class TestMalformedModelFile:
    @pytest.mark.parametrize("command", ["eval", "canonicalize"])
    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (_without_mechanisms, "'F'"),
            (_without_slope, "'slope'"),
            (_inside_a_list, "list"),
            (_nested_lower_entries, "'L'"),
            (_infinite_slope, "Infinity"),
            (_fractional_permutation, "'pi'"),
            (_string_in_scale, "'S'"),
            (_string_in_bias, "'b'"),
            (_bool_in_dense_matrix, "'G'"),
            (_huge_integer_scale, "beyond the float range"),
            (_huge_integer_slope, "beyond the float range"),
        ],
    )
    def test_exits_4_naming_the_file_and_field(
        self, dataset_dir, tmp_path, capsys, command, corrupt, named
    ):
        bundle = json.loads((dataset_dir / "ground_truth.json").read_text())
        bad = tmp_path / "bad_model.json"
        write_json(bad, corrupt(bundle))
        args = {
            "eval": [
                "eval", "--model", str(bad),
                "--ground-truth", str(dataset_dir / "ground_truth.json"),
                "--test", str(dataset_dir / "test.csv"),
            ],
            "canonicalize": ["canonicalize", "--model", str(bad), "--out", str(tmp_path / "c")],
        }[command]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert str(bad) in err and named in err

    def test_boolean_dim_exits_4(self, tmp_path, capsys):
        f = AffineSCM.identity(1)
        bundle = serialize.model_to_dict(ILDModel(LayerChain(1), (f, f)))
        bundle["g"]["dim"] = True  # == 1, so only the type tells it apart
        bad = tmp_path / "bad_model.json"
        write_json(bad, bundle)
        assert main(["canonicalize", "--model", str(bad), "--out", str(tmp_path / "c")]) == 4
        assert "'dim'" in capsys.readouterr().err


class TestCanonicalize:
    def test_demo_model_swaps(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        demo_model_file(model_path)
        out = tmp_path / "canon"
        assert main(["canonicalize", "--model", str(model_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["swaps"] == [[3, 4], [2, 3]]
        assert report["original_intervention"]["indices"] == [2, 3]
        assert report["final_intervention"]["indices"] == [3, 4]

        from conftest import is_canonical

        canonical = serialize.model_from_dict(
            json.loads((out / "canonical.json").read_text())
        )
        assert is_canonical(canonical)[0]

    def test_already_canonical_empty_swaps(self, tmp_path, capsys):
        f = AffineSCM.identity(3)
        model = ILDModel(LayerChain(3), (f, f))
        path = tmp_path / "model.json"
        serialize.save_json(serialize.model_to_dict(model), path)
        out = tmp_path / "canon"
        assert main(["canonicalize", "--model", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["swaps"] == []

    def test_misdetected_set_exits_4_writing_nothing(self, tmp_path, capsys):
        # Coordinate 2 differs by 5e-9, below the detection tolerance; swapping
        # the detected coordinate 1 past it moves that entry above the diagonal.
        f2 = AffineSCM(
            np.array([[0.0, 0.0], [5e-9, 0.0]]), np.array([2.0, 1.0]), np.array([1.0, 0.0])
        )
        g = LayerChain(2, (AffineDense(np.eye(2), np.zeros(2)),))
        model = ILDModel(g, (AffineSCM.identity(2), f2))
        path = tmp_path / "model.json"
        serialize.save_json(serialize.model_to_dict(model), path)
        out = tmp_path / "canon"
        assert main(["canonicalize", "--model", str(path), "--out", str(out)]) == 4
        assert "broke triangularity" in capsys.readouterr().err
        assert not (out / "canonical.json").exists()
        assert not out.exists()


class TestCounterfactual:
    def test_writes_target_domain_rows(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "cf.csv"
        code = main(
            [
                "counterfactual",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--data", str(dataset_dir / "test.csv"),
                "--target-domain", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        x, d = serialize.read_dataset_csv(out)
        assert np.all(d == 2)
        assert len(x) == 60

    def test_out_into_missing_directory(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "nodir" / "cf.csv"
        code = main(
            [
                "counterfactual",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--data", str(dataset_dir / "test.csv"),
                "--target-domain", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(serialize.read_dataset_csv(out)[0]) == 60

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_counterfactual_exits_4_writing_nothing(self, tmp_path, capsys):
        model, data = overflowing_demo_input(tmp_path)
        out = tmp_path / "nodir" / "cf.csv"
        code = main(
            [
                "counterfactual", "--model", str(model), "--data", str(data),
                "--target-domain", "2", "--out", str(out),
            ]
        )
        assert code == 4 and not out.parent.exists()
        assert "counterfactual of sample 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["all", "none"])
    def test_bad_target_domain_exits_4(self, dataset_dir, tmp_path, capsys, rows):
        data = dataset_dir / "test.csv"
        if rows == "none":
            data.write_text(data.read_text().splitlines()[0] + "\n")
        out = tmp_path / "cf.csv"
        code = main(
            [
                "counterfactual",
                "--model", str(dataset_dir / "ground_truth.json"),
                "--data", str(data),
                "--target-domain", "9",
                "--out", str(out),
            ]
        )
        assert code == 4 and not out.exists()
        assert "9 out of range [1, 2]" in capsys.readouterr().err


class TestExperiment:
    def test_single_seed_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        out = tmp_path / "exp_out"
        write_json(
            cfg,
            {
                "ground_truth": {
                    "dim": 2, "num_domains": 2, "intervention": [2],
                    "n_train": 80, "n_val": 40, "n_test": 40, "seed": 5,
                },
                "variants": [{"kind": "can", "k": 1}, {"kind": "dense"}],
                "train": {"iterations": 30, "eval_every": 10, "batch_size": 16},
                "n_seeds": 1,
                "output_dir": str(out),
            },
        )
        assert main(["experiment", "--config", str(cfg)]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows].count("5") == 2  # one row per variant
        means = {r["variant"]: float(r["cf_error"]) for r in rows if r["seed"] == "mean"}
        per_seed = {
            r["variant"]: float(r["cf_error"])
            for r in rows
            if r["seed"] not in ("mean", "stderr")
        }
        for variant, value in means.items():
            assert value == pytest.approx(per_seed[variant], abs=1e-12)

    def test_missing_required_key_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.json"
        write_json(cfg, {"n_seeds": 1})
        assert main(["experiment", "--config", str(cfg)]) == 2

    def test_train_seed_it_would_ignore_exits_2(self, tmp_path, capsys):
        # Every fit trains with its ground-truth seed, so only 0 is accepted.
        spec = GroundTruthSpec(**GT_2D)
        ExperimentConfig(ground_truth=spec, train=TrainConfig(iterations=0, seed=0))
        cfg, out = tmp_path / "exp.json", tmp_path / "exp_out"
        write_json(
            cfg,
            {"ground_truth": GT_2D, "train": {"iterations": 0, "seed": 99}, "output_dir": str(out)},
        )
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert "train.seed=99 would be ignored" in capsys.readouterr().err
        assert not out.exists()


GT_2D = {"dim": 2, "num_domains": 2, "intervention": [2], "n_train": 20, "n_val": 10,
         "n_test": 10}
NO_STEPS = {"iterations": 0}


class TestConfigKeys:
    """A config key must be a field the command reads; anything else exits 2."""

    def run(self, tmp_path, command, config, *args):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {**config, "output_dir": str(tmp_path / "out")})
        return main([command, "--config", str(cfg), *args])

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("generate", {"ground_truth": {**GT_2D, "n_trian": 5}}, "n_trian"),
            ("train", {"dataset_dir": "absent", "train": {"iteration": 5}}, "iteration"),
            ("train", {"dataset_dir": "absent", "variant": {"kind": "can", "kk": 1}}, "kk"),
            ("train", {"dataset_dir": "absent", "train": {"beta1": 0.9}}, "beta1"),
            *(
                ("train", {"dataset_dir": "absent", "train": {key: 0.01}}, key)
                for key in ("learning_rate_g", "learning_rate_f")
            ),
            ("experiment", {"ground_truth": {**GT_2D, "sed": 1}, "train": NO_STEPS}, "sed"),
            (
                "experiment",
                {"ground_truth": GT_2D, "train": NO_STEPS, "variants": [{"kind": "dense", "K": 1}]},
                "K",
            ),
        ],
    )
    def test_unknown_section_key_exits_2(self, tmp_path, capsys, command, config, key):
        assert self.run(tmp_path, command, config) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("generate", {"ground_truth": GT_2D, "outdir": "x"}, "outdir"),
            ("train", {"dataset_dir": "absent", "n_seeds": 1}, "n_seeds"),
            ("experiment", {"ground_truth": GT_2D, "train": NO_STEPS, "n_seed": 2}, "n_seed"),
        ],
    )
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys, command, config, key):
        assert self.run(tmp_path, command, config) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("train", {"dataset_dir": "absent", "train": []}),
            ("train", {"dataset_dir": "absent", "variant": "dense"}),
            ("experiment", {"ground_truth": GT_2D, "train": NO_STEPS, "variants": {"kind": "dense"}}),
        ],
    )
    def test_non_object_section_exits_2(self, tmp_path, capsys, command, config):
        assert self.run(tmp_path, command, config) == 2
        assert "must be a JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("variant", "k", 1.7), ("train", "batch_size", True), ("train", "iterations", False)],
    )
    def test_non_integral_int_exits_2(self, tmp_path, capsys, section, key, value):
        config = {"dataset_dir": "absent", "variant": {"kind": "can", "k": 1}, "train": {}}
        config[section][key] = value
        assert self.run(tmp_path, "train", config) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_integral_float_int_is_coerced(self, dataset_dir, tmp_path):
        config = {"dataset_dir": str(dataset_dir), "variant": {"kind": "can", "k": 2.0},
                  "train": {"iterations": 0, "batch_size": 16.0}}
        assert self.run(tmp_path, "train", config) == 0
        assert json.loads((tmp_path / "out" / "checkpoint.json").read_text())["k"] == 2

    @pytest.mark.parametrize(
        "key, literal",
        [
            ("batch_size", "NaN"),
            ("batch_size", "Infinity"),
            ("batch_size", "1e400"),
            pytest.param("batch_size", "1" + "0" * 400, id="batch_size-401-digit-int"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, literal):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dataset_dir": "absent", "train": {"%s": %s}}' % (key, literal))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and literal[:12] in err  # the message truncates long numbers

    @pytest.mark.parametrize(
        "command, config, section",
        [
            ("generate", {"ground_truth": {**GT_2D, "seed": -1}}, "ground_truth"),
            ("train", {"dataset_dir": "absent", "train": {"seed": -1}}, "train"),
            (
                "experiment",
                {"ground_truth": {**GT_2D, "seed": -1}, "train": NO_STEPS},
                "config.ground_truth",
            ),
        ],
    )
    def test_negative_seed_exits_2_naming_the_field(
        self, tmp_path, capsys, command, config, section
    ):
        assert self.run(tmp_path, command, config) == 2
        assert f"bad {section}: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("generate", {"ground_truth": GT_2D}),
            ("train", {"dataset_dir": "absent"}),
            ("experiment", {"ground_truth": GT_2D, "train": NO_STEPS}),
        ],
    )
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command, config):
        assert self.run(tmp_path, command, config, "--seed", "-1") == 2
        assert "bad --seed: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dense_with_k_exits_2(self, tmp_path, capsys):
        config = {"dataset_dir": "absent", "variant": {"kind": "dense", "k": 99}}
        assert self.run(tmp_path, "train", config) == 2
        assert "k=99" in capsys.readouterr().err


def test_readme_config_examples_build():
    """The README's generate, train and experiment configs parse as the CLI parses
    them, and the experiment config is the one checked in under ``configs/``."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    parsers = (cli._parse_generate, cli._parse_train, cli._parse_experiment)
    assert len(blocks) == len(parsers)
    for parse, block in zip(parsers, blocks):
        parse(json.loads(block), None)
    checked_in = README.parent / "configs" / "trend_experiment.json"
    assert json.loads(checked_in.read_text()) == json.loads(blocks[2])


# Runs every model-handling CLI command in one fresh interpreter, then prints
# the exit codes and the installed distributions other than domcf whose
# packages the session imported.
NUMPY_ONLY_SESSION = """
import sys
at_start = set(sys.modules)
import json
from importlib.metadata import packages_distributions
from pathlib import Path
from domcf import cli

tmp = Path(sys.argv[1])
data, fit = tmp / "data", tmp / "fit"
gen = {"ground_truth": {"dim": 2, "num_domains": 2, "intervention": [2], "n_train": 60,
                        "n_val": 30, "n_test": 30, "seed": 3}, "output_dir": str(data)}
fit_cfg = {"dataset_dir": str(data), "variant": {"kind": "can", "k": 1},
           "train": {"iterations": 20, "eval_every": 10, "batch_size": 16, "seed": 2},
           "output_dir": str(fit)}
(tmp / "gen.json").write_text(json.dumps(gen))
(tmp / "fit.json").write_text(json.dumps(fit_cfg))
model = str(fit / "checkpoint.json")
codes = [
    cli.main(["generate", "--config", str(tmp / "gen.json")]),
    cli.main(["train", "--config", str(tmp / "fit.json")]),
    cli.main(["eval", "--model", model, "--ground-truth", str(data / "ground_truth.json"),
              "--test", str(data / "test.csv"), "--out", str(tmp / "metrics.json")]),
    cli.main(["canonicalize", "--model", model, "--out", str(tmp / "canon")]),
    cli.main(["counterfactual", "--model", model, "--data", str(data / "test.csv"),
              "--target-domain", "1", "--out", str(tmp / "cf.csv")]),
]
owners = packages_distributions()
imported = {name.partition(".")[0] for name in set(sys.modules) - at_start}
print(codes, sorted({dist for name in imported for dist in owners.get(name, ())} - {"domcf"}))
"""


def test_cli_session_imports_only_numpy(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter that runs
    every model-handling command loads no other package, so no second BLAS."""
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SESSION, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(README.parent / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] ['numpy']"
