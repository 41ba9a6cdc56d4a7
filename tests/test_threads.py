"""The package's BLAS thread default, checked in fresh interpreters."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domcf

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads"
)

SRC = str(Path(domcf.__file__).resolve().parent.parent)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Imports domcf before numpy, runs a 20000x10 BLAS product, then prints
# OPENBLAS_NUM_THREADS ("-" when unset) and the number of threads in the process.
PROBE = (
    "import os, domcf, numpy as np; "
    "np.ones((20000, 10)) @ np.ones((10, 10)); "
    "print(os.environ.get('OPENBLAS_NUM_THREADS', '-'), len(os.listdir('/proc/self/task')))"
)


def run_probe(**preset) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return done.stdout.split()


def test_import_leaves_one_thread():
    assert run_probe() == ["1", "1"]


def test_caller_setting_wins():
    assert run_probe(OPENBLAS_NUM_THREADS="2")[0] == "2"


@pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "GOTO_NUM_THREADS"])
def test_other_openblas_variables_win(var):
    # The interpreter may run threads besides OpenBLAS's pool, so compare
    # against the thread count that OPENBLAS_NUM_THREADS=2 gives rather than
    # a fixed number.
    two_threads = run_probe(OPENBLAS_NUM_THREADS="2")[1]
    assert int(two_threads) > 1
    assert run_probe(**{var: "2"}) == ["-", two_threads]


# A short can2 fit on trend-shaped data (one kink-search check at 500); prints
# its history with every float's repr.
FIT = (
    "import domcf; "
    "from domcf import GroundTruthSpec, TrainConfig, TrainableILD, generate_ground_truth, "
    "sample_dataset; from domcf.train import train; "
    "spec = GroundTruthSpec(dim=6, num_domains=3, intervention=(5, 6), n_train=5000, "
    "n_val=500, n_test=100, seed=3); "
    "ds = sample_dataset(generate_ground_truth(spec), spec); "
    "t = TrainableILD.initialize(6, 3, 'can', 2, seed=3); "
    "print(train(t, ds, TrainConfig(iterations=600, eval_every=100, seed=3))[1])"
)


def run_at_one_and_two_threads(code: str) -> list[str]:
    """``code``'s stdout in fresh interpreters at OPENBLAS_NUM_THREADS 1 and 2."""
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        outputs.append(done.stdout)
    return outputs


def test_fit_is_identical_at_one_and_two_blas_threads():
    histories = run_at_one_and_two_threads(FIT)
    assert histories[0] == histories[1]
    assert histories[0].count("(") == 600 // 100 + 1


# Both evaluation kernels on a 10-dim ground truth, 3 x 5000 rows in blocks
# (one label out of order); prints the NLL's float.hex and a digest of every
# counterfactual's bytes.
KERNELS = (
    "import hashlib, domcf, numpy as np; "
    "from domcf import GroundTruthSpec, dataset_nll, generate_ground_truth; "
    "model = generate_ground_truth(GroundTruthSpec(dim=10, num_domains=3, "
    "intervention=(9, 10), n_train=10, n_val=10, n_test=10, seed=5)); "
    "X = np.concatenate([model.sample(d, 5000, seed=d) for d in (1, 2, 3)]); "
    "labels = np.repeat([1, 2, 3], 5000); labels[-1] = 1; "
    "cfs = [model.counterfactuals(X, d) for d in (1, 2, 3)]; "
    "print(dataset_nll(model, X, labels).hex(), "
    "*(hashlib.sha256(cf.tobytes()).hexdigest() for cf in cfs))"
)


def test_kernels_are_identical_at_one_and_two_blas_threads():
    outputs = run_at_one_and_two_threads(KERNELS)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 4
