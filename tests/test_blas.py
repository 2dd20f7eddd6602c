import numpy as np

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
