import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stsg.temporal
import stsg.training
from stsg import blas
from stsg.config import RunConfig, TrainConfig
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.synthgen import generate_scene
from stsg.training import train


def test_one_thread_nests_and_restores():
    before = blas.threads()
    with blas.one_thread():
        with blas.one_thread():
            inner = blas.threads()
        outer = blas.threads()
    assert blas.threads() == before
    if before is None:   # no OpenBLAS found: the scope changes nothing
        assert inner is None and outer is None
    else:
        assert inner == outer == 1


def test_one_thread_keeps_the_product_of_a_packed_pair_layer():
    # 400 pairs x 56 inputs x 28 outputs: past OpenBLAS's threading size
    rng = RngStream(5)
    a = rng.normal_array((400, 56), 0.0, 1.0)
    w = rng.normal_array((56, 28), 0.0, 1.0)
    threaded = a @ w, a.T @ (a @ w)
    with blas.one_thread():
        single = a @ w, a.T @ (a @ w)
    assert all(np.array_equal(x, y) for x, y in zip(threaded, single))


def test_training_and_serving_run_blas_on_one_thread(monkeypatch):
    cfg = RunConfig(train=TrainConfig(epochs=1, batch_size=2, seed=9, mode="sgdet",
                                      variant="sparse", k=1, sequences=0))
    data = [generate_scene(cfg.dims, cfg.world, 1 * 1_000_000 + i) for i in range(2)]
    seen = []
    real = stsg.temporal.forward_batch

    def forward_batch(*args, **kwargs):
        seen.append(blas.threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(stsg.temporal, "forward_batch", forward_batch)
    monkeypatch.setattr(stsg.training, "forward_batch", forward_batch)
    before = blas.threads()
    train(data, cfg)
    params = ModelParams.init(cfg.dims, seed=0)
    stsg.temporal.forward_sequence(data[0], params, "sgdet")
    one = None if before is None else 1
    assert seen == [one, one]
    assert blas.threads() == before


# the pins of trained parameters and of `stsg infer` files (`pins.py`)
PIN_TESTS = ("tests/test_training.py::test_trained_parameters_match_their_digest",
             "tests/test_cli.py::test_infer_files_are_pinned")


@pytest.mark.slow
@pytest.mark.skipif(blas._openblas() is None, reason="no OpenBLAS in this process")
def test_the_pins_hold_under_other_openblas_kernels():
    # OpenBLAS picks its kernels by CPU at load, and a CPU without AVX-512
    # runs others, which sum dot products in another order. Under the
    # Haswell kernels every byte digest of trained parameters and infer files
    # failed (test_infer_files_are_pinned[sgdet-sparse-1-False] among them);
    # the pins by value hold with the same pin data
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PIN_TESTS],
        cwd=root, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, capture_output=True,
        text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert result.stdout.rstrip().splitlines()[-1].startswith("45 passed"), result.stdout[-500:]
