"""The hot kernels against their earlier forms (`reference_kernels.py`), bit
for bit: the logistic, the segment reduction, the two rankings, Adam and
the feature bank's selection."""

import warnings

import numpy as np
import pytest

import primitives as prim
import stsg.autodiff as ad
from conftest import random_sequence
from reference_kernels import (
    fill_scatter_reduce,
    five_key_rank_frames,
    in_place_adam,
    loop_feature_bank,
    masked_logistic,
    out_of_place_adam,
    three_key_topk_links,
)
from stsg.autodiff import SegmentPlan, Tape, Tensor, backward
from stsg.config import Dims, WorldConfig
from stsg.featurebank import BANK_VARIANTS, build_feature_bank
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.spatial import frame_pairs
from stsg.synthgen import generate_scene
from stsg.temporal import forward_sequence, rank_frames, topk_links
from stsg.training import Optimizer

TINY = np.finfo(np.float64).tiny
EDGES = np.array([0.0, -0.0, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308,
                  5e-324, -5e-324, TINY, -TINY, TINY / 3, -TINY / 3, 36.7, -36.7])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def logistic_inputs():
    """110k values over every range the logistic treats differently, and its
    edge values: ±0, where exp overflows or underflows, the largest floats
    and subnormals."""
    rng = np.random.default_rng(0)
    spread = [rng.normal(size=20_000) * s for s in (1.0, 10.0, 100.0, 800.0)]
    return np.concatenate(spread + [rng.uniform(-750.0, 750.0, 30_000), EDGES])


def test_sigmoid_is_the_masked_logistic_bit_for_bit():
    x = np.concatenate([logistic_inputs(), [np.inf, -np.inf, np.nan, -np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prim.sigmoid(Tensor(x)).data
    want = masked_logistic(x)
    finite_in = ~np.isnan(x)
    assert_same_bits(got[finite_in], want[finite_in])
    assert np.isnan(got[~finite_in]).all()
    assert got[x == np.inf].tolist() == [1.0] and got[x == -np.inf].tolist() == [0.0]


def test_softplus_gradient_is_the_masked_logistic_bit_for_bit():
    x = Tensor(logistic_inputs())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            tape.watch(x)
            loss = prim.reduce_sum(prim.softplus(x))
        grad = backward(tape, loss)[x].data
    assert_same_bits(grad, masked_logistic(x.data))


def plans():
    """Full-cover plans (sorted, unsorted, one row a segment) and plans with
    empty segments (at either end, inside, every one)."""
    rng = np.random.default_rng(1)
    covering = np.repeat(np.arange(7), rng.integers(1, 5, 7))
    gaps = np.array([1, 1, 3, 4, 4, 4, 6])
    return {
        "cover-sorted": (covering, 7),
        "cover-unsorted": (rng.permutation(covering), 7),
        "cover-one-each": (rng.permutation(7), 7),
        "gaps-sorted": (gaps, 9),
        "gaps-unsorted": (rng.permutation(gaps), 9),
        "no-rows": (np.zeros(0, dtype=np.intp), 4),
        "no-segments": (np.zeros(0, dtype=np.intp), 0),
    }


@pytest.mark.parametrize("name", list(plans()))
@pytest.mark.parametrize("ufunc, empty, width", [
    (np.add, 0.0, None), (np.add, 0.0, 28), (np.maximum, -np.inf, None),
], ids=["sum-vector", "sum-rows", "max-vector"])
def test_segment_reduce_is_fill_and_scatter(name, ufunc, empty, width):
    ids, n = plans()[name]
    rng = np.random.default_rng(2)
    values = rng.normal(size=(len(ids),) if width is None else (len(ids), width))
    got = ad._segment_reduce(ufunc, values, SegmentPlan(ids, n), empty)
    assert_same_bits(got, fill_scatter_reduce(ufunc, values, SegmentPlan(ids, n), empty))


def ranking_inputs(h: int, seed: int):
    """Random frames, empty and one-node ones among them, whose predicate
    probabilities and label scores tie, and whose pairs hold predicates of
    different probabilities that round to one triplet score."""
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([[0, 1, 5, 0], rng.integers(0, 8, 12), [1]])
    subj, obj = frame_pairs(sizes)
    n, p = int(sizes.sum()), len(subj)
    probs = rng.random((p, h))
    tied = rng.random(p) < 0.3
    probs[tied, -1] = probs[tied, 0]
    # a predicate one ulp below another of its pair
    near = rng.random(p) < 0.5
    probs[near, 1] = np.nextafter(probs[near, 0], 0.0)
    label_dists = rng.random((n, 8))
    label_dists[:, 3] = label_dists[:, 5]               # tied argmax labels
    label_dists[rng.random(n) < 0.4] = label_dists[0]   # shared label scores
    return probs, subj, obj, label_dists, rng.random((n, 4)), sizes


@pytest.mark.parametrize("h", [3, 6, 9])
@pytest.mark.parametrize("seed", range(4))
def test_rank_frames_is_the_five_key_sort(h, seed):
    probs, subj, obj, label_dists, boxes, sizes = ranking_inputs(h, seed)
    label_scores = label_dists.max(axis=1)
    pair_scores = label_scores[subj] * label_scores[obj]
    first, second = pair_scores * probs[:, 0], pair_scores * probs[:, 1]
    assert ((first == second) & (probs[:, 0] != probs[:, 1])).any()
    got = rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    want = five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    assert len(got) == len(want) == len(sizes)
    for g, w in zip(got, want):
        for name in ("subj", "obj", "predicate", "score", "labels", "boxes"):
            assert_same_bits(getattr(g, name), getattr(w, name))


@pytest.mark.parametrize("k", [1, 2, 3, 9])
@pytest.mark.parametrize("seed", range(4))
def test_topk_links_is_the_three_key_sort(k, seed):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(30), rng.integers(0, 7, 30))
    scores = rng.integers(-3, 4, len(rows)) / 2.0   # many ties within a row
    assert_same_bits(topk_links(scores, rows, k), three_key_topk_links(scores, rows, k))


def test_topk_links_without_candidates():
    none = np.zeros(0, dtype=np.intp)
    assert_same_bits(topk_links(np.zeros(0), none, 1), three_key_topk_links(np.zeros(0), none, 1))


def test_adam_in_place_is_the_out_of_place_formula():
    rng = np.random.default_rng(5)
    opt = Optimizer("adam", lr=1e-2)
    x = rng.normal(size=400)
    want, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
    for t in range(1, 8):
        g = rng.normal(size=400) * 10.0 ** rng.integers(-6, 3)
        stepped = opt.update(x, g)
        assert stepped is not x
        x = stepped
        want, m, v = out_of_place_adam(want, g, m, v, t, opt.lr, opt.beta1, opt.beta2, opt.eps)
        assert_same_bits(x, want)


@pytest.mark.parametrize("size", [9_500, 17_000])
def test_adam_buffers_are_the_in_place_expression(size):
    # about the parameter counts of the default model and of a wider one
    rng = np.random.default_rng(size)
    opt = Optimizer("adam", lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
    x = rng.normal(size=size)
    want, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
    buffers = None
    for t in range(1, 7):
        g = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
        stepped = opt.update(x, g)
        want = in_place_adam(want, g, m, v, t, opt.lr, opt.beta1, opt.beta2, opt.eps)
        assert_same_bits(stepped, want)
        assert_same_bits(opt._m, m)
        assert_same_bits(opt._v, v)
        # the buffers are allocated once; only the stepped vector is new
        held = (opt._m, opt._v, opt._step, opt._scratch)
        assert buffers is None or all(a is b for a, b in zip(held, buffers))
        assert all(stepped is not b and x is not b for b in held)
        buffers, x = held, stepped


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_feature_bank_is_the_frame_by_class_loop(mode):
    # generated scenes, and random ones whose frames may be empty; PredCls
    # label rows are one-hot, so two objects of a class tie on score
    dims = Dims()
    params = ModelParams.init(dims, seed=4)
    seqs = [generate_scene(dims, WorldConfig(), seed) for seed in range(12)]
    seqs += [random_sequence(RngStream(seed), dims, n_frames=4, n_min=0, n_max=4)
             for seed in range(12)]
    ties = empty = 0
    for seq in seqs:
        preds = forward_sequence(seq, params, mode, "sparse", 1)
        for variant in BANK_VARIANTS:
            assert_same_bits(build_feature_bank(preds, variant, dims),
                             loop_feature_bank(preds, variant, dims))
        for pred in preds:
            labels = np.argmax(pred.label_dists, axis=1)
            ties += len(labels) - len(set(labels.tolist()))
            empty += pred.n == 0
    assert ties > 0 and empty > 0
