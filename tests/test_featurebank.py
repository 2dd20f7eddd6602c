import re

import numpy as np
import pytest

import stsg.autodiff as ad
from conftest import random_sequence, zero_params
from fixtures import frame_prediction
from reference_kernels import composed_event_head_loss
from stsg.autodiff import Tape, Tensor, backward
from stsg.config import Dims
from stsg.errors import ContractError
from stsg.featurebank import (
    build_feature_bank,
    classify_events,
    event_mean_ap,
    pooled_feature,
    train_event_head,
)
from stsg.layers import weighted_loss
from stsg.rng import RngStream
from stsg.temporal import forward_sequence
from stsg.training import Optimizer


def prediction_with(labels, scores, dims, fused=None, gcn=None):
    n = len(labels)
    dists = np.zeros((n, dims.g))
    for i, (lab, s) in enumerate(zip(labels, scores)):
        dists[i, lab] = s
        dists[i, (lab + 1) % dims.g] = 1.0 - s
    if fused is None:
        fused = np.arange(n * dims.m, dtype=float).reshape(n, dims.m) + 1.0
    if gcn is None:
        gcn = fused * 2.0
    return frame_prediction(np.tile([0.1, 0.1, 0.2, 0.2], (n, 1)), dists,
                            np.zeros((n, n, dims.h)), fused, gcn)


def test_present_classes_fill_rows_absent_stay_zero():
    dims = Dims(g=4, c=2, h=2, d=2)
    pred = prediction_with([1, 3], [0.9, 0.8], dims)
    bank = build_feature_bank([pred], "spatial_temporal", dims)
    assert bank.shape == (1, 4, dims.m)
    np.testing.assert_array_equal(bank[0, 1], pred.fused[0])
    np.testing.assert_array_equal(bank[0, 3], pred.fused[1])
    assert np.all(bank[0, 0] == 0.0)
    assert np.all(bank[0, 2] == 0.0)


def test_duplicate_class_keeps_highest_label_score():
    dims = Dims(g=4, c=2, h=2, d=2)
    pred = prediction_with([2, 2], [0.6, 0.9], dims)
    bank = build_feature_bank([pred], "spatial_temporal", dims)
    np.testing.assert_array_equal(bank[0, 2], pred.fused[1])


def test_bank_is_order_invariant():
    dims = Dims(g=4, c=2, h=2, d=2)
    fused = np.array([[1.0] * dims.m, [2.0] * dims.m])
    a = prediction_with([2, 1], [0.9, 0.8], dims, fused=fused)
    b = prediction_with([1, 2], [0.8, 0.9], dims, fused=fused[::-1].copy())
    bank_a = build_feature_bank([a], "spatial_temporal", dims)
    bank_b = build_feature_bank([b], "spatial_temporal", dims)
    np.testing.assert_array_equal(bank_a, bank_b)


def test_spatial_variant_banks_gcn_features():
    dims = Dims(g=4, c=2, h=2, d=2)
    pred = prediction_with([0], [1.0], dims)
    bank = build_feature_bank([pred], "spatial", dims)
    np.testing.assert_array_equal(bank[0, 0], pred.gcn[0])


def test_variants_coincide_without_temporal_links(dims, params):
    seq = random_sequence(RngStream(70), dims, n_frames=3)
    preds = forward_sequence(seq, params, mode="sgcls", variant="spatial")
    bank_s = build_feature_bank(preds, "spatial", dims)
    bank_st = build_feature_bank(preds, "spatial_temporal", dims)
    np.testing.assert_array_equal(bank_s, bank_st)


def test_banks_differ_with_temporal_links(dims, params):
    seq = random_sequence(RngStream(71), dims, n_frames=3)
    preds = forward_sequence(seq, params, mode="sgcls", variant="sparse", k=1)
    bank_s = build_feature_bank(preds, "spatial", dims)
    bank_st = build_feature_bank(preds, "spatial_temporal", dims)
    assert not np.array_equal(bank_s, bank_st)


def test_zero_head_gives_half_probabilities():
    dims = Dims(g=4, c=2, h=2, d=2)
    pred = prediction_with([1], [0.9], dims)
    bank = build_feature_bank([pred], "spatial_temporal", dims)
    probs = classify_events(pooled_feature(bank), np.zeros((dims.m, 4)))
    np.testing.assert_array_equal(probs, np.full(4, 0.5))


def test_all_zero_bank_gives_half_probabilities():
    dims = Dims(g=4, c=2, h=2, d=2)
    pooled = pooled_feature(np.zeros((2, 4, dims.m)))
    head = RngStream(72).normal_array((dims.m, 4))
    np.testing.assert_array_equal(classify_events(pooled, head), np.full(4, 0.5))


def test_classify_matches_direct_substitution():
    dims = Dims(g=4, c=2, h=2, d=2)
    pred = prediction_with([0, 2], [1.0, 0.9], dims)
    bank = build_feature_bank([pred], "spatial_temporal", dims)
    head = RngStream(73).normal_array((dims.m, 3))
    got = classify_events(pooled_feature(bank), head)
    pooled = (bank[0, 0] + bank[0, 2]) / 2.0
    want = 1.0 / (1.0 + np.exp(-(pooled @ head)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.shape == (3,)


def test_bank_variant_validation():
    dims = Dims(g=4, c=2, h=2, d=2)
    with pytest.raises(ContractError):
        build_feature_bank([prediction_with([0], [1.0], dims)], "temporal", dims)


def test_event_head_learns_separable_banks():
    dims = Dims(g=4, c=2, h=2, d=2)
    rng = RngStream(74)
    banks, labels = [], []
    for i in range(40):
        cls = i % 2
        base = np.zeros((1, 2, dims.m))
        base[0, cls % 2, :] = rng.normal_array(dims.m, 3.0 if cls else -3.0, 0.3)
        banks.append(base.repeat(2, axis=1).reshape(1, -1, dims.m)[:, :2])
        labels.append([1.0, 0.0] if cls else [0.0, 1.0])
    labels = np.array(labels)
    pooled = np.stack([pooled_feature(b) for b in banks])
    head = train_event_head(pooled, labels, n_events=2, seed=0, epochs=150)
    scores = np.stack([classify_events(x, head) for x in pooled])
    assert event_mean_ap(scores, labels) > 0.95


def test_event_head_stays_finite_where_the_sigmoid_saturates():
    # pooled features of +-60 push the logits past where 1 - sigmoid rounds to 0
    dims = Dims(g=4, c=2, h=2, d=2)
    pooled = np.stack([pooled_feature(np.full((1, dims.g, dims.m), v)) for v in (60.0, -60.0)])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    head = train_event_head(pooled, labels, n_events=2, seed=0, epochs=50)
    assert np.all(np.isfinite(head))
    scores = np.stack([classify_events(x, head) for x in pooled])
    assert event_mean_ap(scores, labels) == 1.0


def test_event_head_rejects_labels_that_are_not_0_or_1():
    dims = Dims(g=4, c=2, h=2, d=2)
    pooled = np.ones((1, dims.m))
    with pytest.raises(ContractError, match="0 or 1"):
        train_event_head(pooled, np.array([[0.5]]), n_events=1, seed=0, epochs=1)


@pytest.mark.parametrize("shape", [(6, 1), (5, 4)], ids=["width", "rows"])
def test_event_head_rejects_labels_of_the_wrong_shape(shape):
    # a (6, 1) label matrix would broadcast over the 4 events
    with pytest.raises(ContractError, match=re.escape(f"labels of shape {shape}, need (6, 4)")):
        train_event_head(np.ones((6, 3)), np.zeros(shape), n_events=4, seed=0, epochs=1)


@pytest.mark.parametrize("kind", ["all-0", "all-1", "mixed"])
def test_event_head_trains_as_the_composed_bce_bit_for_bit(kind):
    rng = RngStream(75)
    pooled = rng.normal_array((6, 5), 0.0, 2.0)
    labels = {"all-0": np.zeros((6, 3)), "all-1": np.ones((6, 3)),
              "mixed": (np.arange(18).reshape(6, 3) % 4 == 1).astype(float)}[kind]
    sign = np.where(labels > 0, -1.0, 1.0).reshape(-1)
    weights = np.full(sign.size, 1.0 / sign.size)
    losses = (lambda h: weighted_loss(weights, ad.matmul(Tensor(pooled), h), sign)[0],
              lambda h: composed_event_head_loss(pooled, h, labels))
    # the head train_event_head starts from, stepped along the composed chain
    head = RngStream(4, stream=7).normal_array((5, 3), 0.0, 1.0 / np.sqrt(5))
    opt = Optimizer("adam", lr=0.05)
    for _ in range(6):
        grads = []
        for loss_of in losses:
            h = Tensor(head)
            with Tape() as tape:
                tape.watch(h)
                loss = loss_of(h)
            grads.append(backward(tape, loss)[h].data)
        assert grads[0].tobytes() == grads[1].tobytes()
        head = opt.update(head, grads[1])
    trained = train_event_head(pooled, labels, n_events=3, seed=4, epochs=6)
    assert trained.tobytes() == head.tobytes()


def test_event_mean_ap_perfect_ranking():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
    labels = np.array([[1, 0], [1, 0], [0, 1]])
    assert event_mean_ap(scores, labels) == 1.0
