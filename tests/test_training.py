import math
from dataclasses import replace

import numpy as np
import pytest

import stsg.temporal
import stsg.training
import primitives as prim
from conftest import (edit_frames, empty_frame, frame_columns, make_frame, random_sequence,
                      sequence_of)
from fixtures import pair_grid
from pins import agrees, pin_text, value_pin
from reference_backward import leaf_grads, reference_backward
from reference_losses import (
    link_loss,
    link_targets,
    node_loss,
    node_loss_from_logits,
    relation_loss,
    relation_loss_from_logits,
)
from trained_pins import TRAINED_PINS
from stsg.autodiff import Tape, Tensor, backward
import stsg.autodiff as ad
from stsg.cli import _gen_one, gradcheck_sample
from stsg.config import (VARIANTS, Dims, NoiseConfig, RunConfig, TrainConfig, WorldConfig,
                         config_with)
from stsg.errors import TrainingError
from stsg.params import Gradients, Layout, ModelParams
from stsg.rng import RngStream
from stsg.synthgen import generate_scene
from stsg.scene import iou, pairwise_iou
from stsg.temporal import forward_batch, frame_predictions, pack
from stsg.training import (
    LINK_WEIGHT,
    NEGATIVE_WEIGHT,
    Optimizer,
    Targets,
    batch_loss,
    clip_gradients,
    grad_check,
    join,
    loss_targets,
    node_identity,
    prepare,
    train,
)

LN2 = math.log(2.0)


def sequence_loss(sequence, params, mode, variant, k, lambda_node):
    """The trained objective on a batch of one sequence."""
    packed, targets = join([prepare(sequence, mode, variant, params.dims)])
    return batch_loss(packed, targets, forward_batch(packed, params, k), lambda_node)


def probs_tensor(n, h, value):
    p = np.full((n, n, h), value)
    for i in range(n):
        p[i, i] = 0.0
    return Tensor(p)


def off_diag_flat(n, h, i, j, p):
    return np.ravel_multi_index((i, j, p), (n, n, h))


def test_relation_loss_half_probability_fixture():
    probs = probs_tensor(2, 3, 0.5)
    pos = np.array([off_diag_flat(2, 3, 0, 1, 0)])
    neg = np.array([off_diag_flat(2, 3, 1, 0, 2)])
    loss, report = relation_loss(probs, pos, neg)
    assert abs(loss.item() - 1.2 * LN2) < 1e-12
    assert report.n_positive == 1 and report.n_negative == 1


def test_relation_loss_branch_isolation():
    probs = probs_tensor(2, 3, 0.5)
    only_pos, _ = relation_loss(probs, np.array([off_diag_flat(2, 3, 0, 1, 0)]),
                                np.array([], dtype=int))
    only_neg, _ = relation_loss(probs, np.array([], dtype=int),
                                np.array([off_diag_flat(2, 3, 1, 0, 2)]))
    assert abs(only_pos.item() - LN2) < 1e-12
    # no-relation branch carries exactly a fifth of the weight
    assert abs(only_neg.item() - 0.2 * LN2) < 1e-12
    assert abs(5 * only_neg.item() - only_pos.item()) < 1e-12


def test_relation_loss_perfect_predictions_vanish():
    p = np.full((2, 2, 2), 1e-14)
    p[0, 1, 0] = 1.0 - 1e-14
    for i in range(2):
        p[i, i] = 0.0
    flat_pos = np.array([np.ravel_multi_index((0, 1, 0), p.shape)])
    flat_neg = np.array([np.ravel_multi_index((1, 0, 0), p.shape)])
    loss, _ = relation_loss(Tensor(p), flat_pos, flat_neg)
    assert loss.item() < 1e-9


def test_relation_loss_negative_branch_is_mean_not_sum():
    probs = probs_tensor(3, 2, 0.5)
    slots = [off_diag_flat(3, 2, 0, 1, 0), off_diag_flat(3, 2, 0, 1, 1),
             off_diag_flat(3, 2, 1, 0, 0), off_diag_flat(3, 2, 2, 0, 1)]
    one, _ = relation_loss(probs, np.array([], dtype=int), np.array(slots[:1]))
    many, _ = relation_loss(probs, np.array([], dtype=int), np.array(slots))
    assert abs(one.item() - many.item()) < 1e-12


def test_node_loss_one_hot_correct_is_zero():
    dists = Tensor(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    loss = node_loss(dists, {0: 0, 1: 1}, [1, 0], g=3)
    assert loss.item() == 0.0


def test_node_loss_uniform_is_log_g():
    g = 8
    dists = Tensor(np.full((2, g), 1.0 / g))
    loss = node_loss(dists, {0: 0, 1: 1}, [3, 5], g=g)
    assert abs(loss.item() - math.log(8.0)) < 1e-12


def test_node_loss_empty_match_is_zero():
    assert node_loss(Tensor(np.ones((1, 2))), {}, [0], g=2).item() == 0.0


def test_predcls_total_is_relation_only(dims, params, monkeypatch):
    monkeypatch.setattr(stsg.training, "LINK_WEIGHT", 0.0)
    seq = random_sequence(RngStream(41), dims, n_frames=2)
    total, report = sequence_loss(seq, params, "predcls", "sparse", 1, lambda_node=1.0)
    assert report.node_loss == 0.0
    assert abs(total.item() - report.relation_loss) < 1e-12


def test_predcls_trained_total_is_relation_plus_link(dims, params):
    seq = random_sequence(RngStream(41), dims, n_frames=2)
    total, report = sequence_loss(seq, params, "predcls", "sparse", 1, lambda_node=1.0)
    assert report.node_loss == 0.0 and report.link_loss > 0.0
    want = report.relation_loss + LINK_WEIGHT * report.link_loss
    assert abs(total.item() - want) < 1e-12


def test_sgdet_targets_use_iou_matching(dims):
    seq = random_sequence(RngStream(42), dims, n_frames=1)
    frame = seq.frames[0]
    packed, targets = join([prepare(seq, "sgdet", "sparse", dims)])
    # conftest detections copy gt boxes, so every node matches its own gt
    assert node_identity(seq, packed).tolist() == list(range(len(frame.objects)))
    assert (targets.rel_sign < 0).sum() == len(frame.triplets)
    n = packed.n_nodes
    assert len(targets.rel_sign) == (n * n - n) * dims.h


def test_sgdet_identity_matches_from_half_iou_first_on_ties(dims):
    # powers of two keep the IoUs exact: detection 0 overlaps gt 2 at
    # exactly 0.5, detection 1 ties gt 0 and gt 1 (the same box) at 1, and
    # detection 2 overlaps gt 2 at 0.48
    def row(x, y, h, label=0):
        return np.concatenate([[x, y, 0.25, h], np.eye(dims.g)[label], np.zeros(dims.c)])

    gt = [row(0.25, 0.25, 0.25, 0), row(0.25, 0.25, 0.25, 1), row(0.5, 0.5, 0.25, 2)]
    dets = [row(0.5, 0.5, 0.125), row(0.25, 0.25, 0.25), row(0.5, 0.5, 0.12)]
    seq = sequence_of([make_frame(gt, [0, 1, 2], [], dets, dims)], dims.g)
    assert node_identity(seq, pack(seq, "sgdet", "spatial", dims)).tolist() == [2, 0, -1]


def loop_node_identity(sequence, packed):
    """Frame-by-frame reference for sgdet `node_identity`: one IoU matrix a
    frame, first highest IoU, matched from IoU 0.5."""
    gt, start = np.full(packed.n_nodes, -1), 0
    for frame, n in zip(sequence.frames, packed.sizes):
        if n and len(frame.objects):
            ious = pairwise_iou(packed.feats[start:start + n, :4], frame.objects["box"])
            best = np.argmax(ious, axis=1)
            gt[start:start + n] = np.where(ious[np.arange(n), best] >= 0.5, best, -1)
        start += n
    return gt


def test_sgdet_identity_equals_the_per_frame_loop(dims):
    # one padded pass over all frames: padding never wins, ties go to the
    # first object and an IoU of exactly 0.5 matches, as frame by frame
    def row(x, y, h, label=0):
        return np.concatenate([[x, y, 0.25, h], np.eye(dims.g)[label], np.zeros(dims.c)])

    gt = [row(0.25, 0.25, 0.25, 0), row(0.25, 0.25, 0.25, 1), row(0.5, 0.5, 0.25, 2)]
    dets = [row(0.5, 0.5, 0.125), row(0.25, 0.25, 0.25), row(0.5, 0.5, 0.12)]
    frames = [
        make_frame(gt, [0, 1, 2], [], dets, dims),          # exactly 0.5, a tie, 0.48
        make_frame([], [], [], dets[:2], dims),             # detections without gt
        empty_frame(dims),
        make_frame(gt[:1], [0], [], [], dims),              # gt without detections
        make_frame(gt[2:], [2], [], dets[::-1], dims),      # one object, two slots padded
    ]
    sequences = [sequence_of(frames, dims.g), sequence_of(frames[1:3], dims.g)]
    sequences += [generate_scene(dims, WorldConfig(), 900 + seed) for seed in range(20)]
    for seq in sequences:
        packed = pack(seq, "sgdet", "spatial", dims)
        got, want = node_identity(seq, packed), loop_node_identity(seq, packed)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert node_identity(sequences[0], pack(sequences[0], "sgdet", "spatial", dims)).tolist() \
        == [2, 0, -1, -1, -1, -1, -1, 0]
    assert node_identity(sequences[1], pack(sequences[1], "sgdet", "spatial", dims)).tolist() \
        == [-1, -1]


def frame_inputs(frame, mode):
    """A frame's input objects in a mode: its detections in sgdet, else its gt objects."""
    return frame.detections if mode == "sgdet" else frame.objects


def loop_relation_targets(frame, nodes, mode, h):
    """Per-node, per-pair reference for one frame's relation targets:
    positive and negative flat indices into the (n, n, h) grid of its pairs,
    and the node->gt map."""
    n = len(nodes)
    if mode in ("predcls", "sgcls"):
        node_to_gt = {i: i for i in range(n)}
    else:
        node_to_gt = {}
        for i, node in enumerate(nodes):
            best, best_iou = -1, 0.0
            for gi, obj in enumerate(frame.objects):
                v = iou(node.box, obj.box)
                if v > best_iou:
                    best, best_iou = gi, v
            if best >= 0 and best_iou >= 0.5:
                node_to_gt[i] = best
    positive = np.zeros((n, n, h), dtype=bool)
    for i, gi in node_to_gt.items():
        for j, gj in node_to_gt.items():
            if i != j and gi != gj:
                for (a, b, p) in frame.triplets:
                    if (a, b) == (gi, gj):
                        positive[i, j, p] = True
    negative = ~np.eye(n, dtype=bool)[:, :, None] & ~positive
    return np.flatnonzero(positive), np.flatnonzero(negative), node_to_gt


def loop_positive_pairs(pos, n, h):
    """One frame's flat (n, n, h) positive indices as flags in pair order:
    subject-major over i != j, then predicate."""
    pos = set(pos.tolist())
    return [np.ravel_multi_index((i, j, p), (n, n, h)) in pos
            for i in range(n) for j in range(n) if i != j for p in range(h)]


def test_relation_targets_match_loop_reference(dims):
    world = WorldConfig()
    checked = 0
    for seed in range(12):
        seq = generate_scene(dims, world, 500 + seed)
        for mode in ("predcls", "sgcls", "sgdet"):
            packed = pack(seq, mode, "spatial", dims)
            gt = node_identity(seq, packed)
            positive = loss_targets(seq, packed, dims.h).rel_sign < 0
            start = slot = 0
            for frame in seq.frames:
                nodes = frame_inputs(frame, mode)
                n = len(nodes)
                want_pos, _, want_map = loop_relation_targets(frame, nodes, mode, dims.h)
                got = positive[slot:slot + n * (n - 1) * dims.h]
                assert got.tolist() == loop_positive_pairs(want_pos, n, dims.h)
                got_map = {i: int(g) for i, g in enumerate(gt[start:start + n]) if g >= 0}
                assert got_map == want_map
                start, slot = start + n, slot + n * (n - 1) * dims.h
                checked += 1
    assert checked == 12 * 8 * 3


def loop_loss_targets(sequence, packed, h):
    """Frame-by-frame, pair-by-pair reference for `loss_targets`."""
    rel_positive, rel_weight, node_rows, node_labels, node_weight = [], [], [], [], []
    link_index, link_weight = [], []
    start = cand_start = frames = n_prev = 0
    prev_map = None
    for frame in sequence.frames:
        nodes = frame_inputs(frame, packed.mode)
        n = len(nodes)
        if n == 0:
            n_prev = 0
            continue
        frames += 1
        pos, neg, node_map = loop_relation_targets(frame, nodes, packed.mode, h)
        for flag in loop_positive_pairs(pos, n, h):
            rel_positive.append(flag)
            rel_weight.append(1.0 / len(pos) if flag else NEGATIVE_WEIGHT / len(neg))
        if packed.mode != "predcls":
            for i in sorted(node_map):
                node_rows.append(start + i)
                node_labels.append(frame.objects[node_map[i]].label)
                node_weight.append(-1.0 / len(node_map))
        if packed.variant != "spatial" and n_prev:
            rows = link_targets(node_map, prev_map)
            for curr, prev in rows:
                link_index.append(cand_start + curr * n_prev + prev)
                link_weight.append(-1.0 / len(rows))
            cand_start += n * n_prev
        start += n
        n_prev, prev_map = n, node_map
    scale = 1.0 / frames if frames else 0.0
    return dict(
        rel_positive=np.array(rel_positive, dtype=bool),
        rel_weight=np.array(rel_weight, dtype=np.float64) * scale,
        node_rows=np.array(node_rows, dtype=np.intp),
        node_labels=np.array(node_labels, dtype=np.intp),
        node_weight=np.array(node_weight, dtype=np.float64) * scale,
        link_index=np.array(link_index, dtype=np.intp),
        link_weight=np.array(link_weight, dtype=np.float64) * scale,
    )


def scattered(reference, packed, g):
    """The reference's node and link terms scattered into one weight per
    entry of the (N, G) label log-probabilities and the (C,) candidate links,
    as `Targets` holds them; every term has its own entry."""
    node_entries = reference["node_rows"] * g + reference["node_labels"]
    node_weight = np.zeros(packed.n_nodes * g)
    node_weight[node_entries] = reference["node_weight"]
    link_weight = np.zeros(len(packed.cand_curr))
    link_weight[reference["link_index"]] = reference["link_weight"]
    for entries in (node_entries, reference["link_index"]):
        assert len(np.unique(entries)) == len(entries)
    relation = np.stack([reference["rel_weight"], np.where(reference["rel_positive"], -1.0, 1.0)])
    return Targets(relation=relation, node_weight=node_weight, link_weight=link_weight)


def target_scenes():
    """Default scenes, 10-12-object x 16-frame scenes, and one scene with a
    frame without detections, a frame without triplets and a frame whose
    detections have no gt object to match."""
    dims, world = Dims(), WorldConfig()
    large = replace(world, n_objects_min=10, n_objects_max=12, frames=16)
    scenes = [generate_scene(dims, world, 800 + seed) for seed in range(6)]
    scenes += [generate_scene(dims, large, 900 + seed) for seed in range(2)]
    edge = generate_scene(dims, world, 806)
    f2, f4, f5 = (frame_columns(edge)[t] for t in (2, 4, 5))
    edge = edit_frames(edge, {2: dict(f2, det=f2["det"][:0]),
                              4: dict(f4, triplets=f4["triplets"][:0]),
                              5: make_frame([], [], [], f5["det"], dims)})
    assert len(edge.frames[5].detections)
    return scenes + [edge]


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
@pytest.mark.parametrize("variant", ["spatial", "sparse", "dense", "tracking"])
def test_loss_targets_match_loop_reference(mode, variant):
    dims = Dims()
    for seq in target_scenes():
        packed = pack(seq, mode, variant, dims)
        got = loss_targets(seq, packed, dims.h)
        want = scattered(loop_loss_targets(seq, packed, dims.h), packed, dims.g)
        for name in ("rel_sign", "rel_weight", "node_weight", "link_weight"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_closed_form_linear_gradient():
    rng = RngStream(43)
    w = Tensor(rng.normal_array((3, 4)))
    x = rng.normal_array(3)
    y = rng.normal_array(4)
    tape = Tape()
    tape.watch(w)
    with tape:
        resid = prim.add(ad.matmul(Tensor(x), w), Tensor(-y))
        loss = prim.reduce_sum(prim.mul(resid, resid))
    grad = backward(tape, loss).reshape(w.shape)
    closed = 2.0 * np.outer(x, x @ w.data - y)
    rel = np.abs(grad - closed) / np.maximum(1e-12, np.abs(grad) + np.abs(closed))
    assert rel.max() < 1e-9


def small_sample(dims):
    world = WorldConfig(n_objects_min=3, n_objects_max=3, frames=2,
                        noise=NoiseConfig(box_jitter_sigma=0.01, label_confusion_prob=0.2,
                                          miss_prob=0.0, false_positive_rate=0.0,
                                          occlusion_prob=0.0))
    return generate_scene(dims, world, seed=2024)


def test_grad_check_full_forward_sparse(dims):
    params = ModelParams.init(dims, seed=3)
    err = grad_check(small_sample(dims), params, mode="sgcls", variant="sparse", k=1)
    assert err < 1e-4, err


def test_grad_check_full_forward_dense(dims):
    params = ModelParams.init(dims, seed=3)
    err = grad_check(small_sample(dims), params, mode="sgcls", variant="dense")
    assert err < 1e-4, err


def test_grad_check_masked_paths_consistent(dims):
    # parameters feeding only unselected links must still agree with the oracle
    params = ModelParams.init(dims, seed=4)
    err = grad_check(small_sample(dims), params, mode="sgdet", variant="sparse", k=1,
                     max_entries=500, seed=1)
    assert err < 1e-4, err


def test_sgd_step_is_exactly_minus_lr_grad():
    dims = Dims()
    params = ModelParams.init(dims, seed=5)
    grads = Gradients(params.layout, np.full(params.count(), 0.25))
    stepped = Optimizer("sgd", lr=0.1).step(params, grads)
    for name, t in params.items():
        np.testing.assert_allclose(stepped[name].data, t.data - 0.1 * 0.25,
                                   rtol=0, atol=1e-12)


def test_adam_moments_track_shapes():
    dims = Dims()
    params = ModelParams.init(dims, seed=5)
    grads = Gradients(params.layout, np.ones(params.count()))
    opt = Optimizer("adam", lr=1e-3)
    stepped = opt.step(params, grads)
    # the moments hold one entry per parameter, in the parameters' layout
    assert params.layout.views(opt._m)["rel.w"].shape == params["rel.w"].shape
    assert not np.allclose(stepped["rel.w"].data, params["rel.w"].data)


def tiny_cfg(**train_kw):
    base = dict(epochs=2, batch_size=4, learning_rate=1e-3, seed=9, mode="sgcls",
                variant="sparse", k=1, sequences=0)
    base.update(train_kw)
    return RunConfig(train=TrainConfig(**base))


def tiny_dataset(cfg, count=6):
    # sequences 0..count-1 of base seed 1, as `stsg gen --seed 1` numbers them
    return [generate_scene(cfg.dims, cfg.world, 1 * 1_000_000 + i) for i in range(count)]


@pytest.mark.parametrize("mode, variant, k", sorted(TRAINED_PINS))
def test_trained_parameters_match_their_digest(mode, variant, k):
    cfg = tiny_cfg(mode=mode, variant=variant, k=k)
    params = train(tiny_dataset(cfg), cfg).params
    pins = TRAINED_PINS[mode, variant, k]
    assert list(pins) == params.names()
    for name in params.names():
        values = params[name].data
        assert agrees(values, pins[name]), f"{name}: {pin_text(value_pin(values))}"


def test_a_trained_parameter_moved_by_1e_8_fails_its_pin():
    # the largest entry of every named parameter, moved by 1e-8 of itself:
    # each tensor's pin tells it apart, biases as well as weights
    cfg = tiny_cfg(mode="sgdet", variant="sparse", k=1)
    params = train(tiny_dataset(cfg), cfg).params
    pins = TRAINED_PINS["sgdet", "sparse", 1]
    for name in params.names():
        values = params[name].data.ravel()
        assert agrees(values, pins[name]), name
        at = int(np.argmax(np.abs(values)))
        moved = values.copy()
        moved[at] *= 1.0 + 1e-8
        assert not agrees(moved, pins[name]), name


def test_clip_decides_on_the_global_norm():
    # the norm is one dot product of the flat vector; a gradient on or
    # inside the bound comes back itself, one outside it scaled to the bound
    params = ModelParams.init(Dims(), seed=5)
    for seed in range(8):
        for scale in (1e-12, 1e-4, 1.0, 1e4, 1e12):
            g = RngStream(100 + seed).normal_array(params.count()) * scale
            norm = float(np.sqrt(np.dot(g, g)))
            for max_norm in (2.0 * norm, norm):
                grads = Gradients(params.layout, g)
                assert clip_gradients(grads, max_norm) is grads
            for max_norm in (float(np.nextafter(norm, 0.0)), 0.5 * norm):
                clipped = clip_gradients(Gradients(params.layout, g), max_norm)
                assert np.array_equal(clipped.flat, g * (max_norm / norm))
            for max_norm in (0.0, -1.0):
                grads = Gradients(params.layout, g)
                assert clip_gradients(grads, max_norm) is grads
    # a finite gradient whose dot product with itself overflows is scaled to
    # the bound along its own direction, not zeroed
    grads = Gradients(Layout({"w": (2,)}), np.array([1e160, -2e160]))
    assert grads.norm() == pytest.approx(math.sqrt(5.0) * 1e160, rel=1e-15)
    clipped = clip_gradients(grads, 5.0)
    assert np.sqrt(np.dot(clipped.flat, clipped.flat)) == pytest.approx(5.0, rel=1e-15)
    np.testing.assert_allclose(clipped.flat, [math.sqrt(5.0), -2.0 * math.sqrt(5.0)],
                               rtol=1e-15, atol=0)
    # so is one whose norm itself lies beyond the float range
    grads = Gradients(Layout({"w": (2,)}), np.array([1.5e308, 1.5e308]))
    assert grads.norm() == math.inf
    clipped = clip_gradients(grads, 5.0)
    assert np.sqrt(np.dot(clipped.flat, clipped.flat)) == pytest.approx(5.0, rel=1e-15)
    np.testing.assert_allclose(clipped.flat, [5.0 / math.sqrt(2.0)] * 2, rtol=1e-15, atol=0)


def test_zero_learning_rate_keeps_parameters():
    cfg = tiny_cfg(learning_rate=0.0)
    data = tiny_dataset(cfg)
    init = ModelParams.init(cfg.dims, seed=cfg.train.seed, gcn_layers=cfg.train.gcn_layers)
    result = train(data, cfg)
    for name, t in init.items():
        np.testing.assert_array_equal(result.params[name].data, t.data)


def test_training_is_bitwise_deterministic():
    cfg = tiny_cfg()
    data = tiny_dataset(cfg)
    r1 = train(data, cfg)
    r2 = train(data, cfg)
    for name, t in r1.params.items():
        assert np.array_equal(t.data, r2.params[name].data)
    assert [e.train_loss for e in r1.log] == [e.train_loss for e in r2.log]


def test_training_loss_halves_in_twenty_epochs():
    cfg = tiny_cfg(epochs=20, batch_size=6, learning_rate=3e-3, mode="sgdet")
    data = tiny_dataset(cfg, count=24)
    result = train(data, cfg)
    first, last = result.log[0].train_loss, result.log[-1].train_loss
    assert last <= 0.5 * first, (first, last)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_loss_aborts_with_diagnostic():
    # clipping off so the runaway step actually saturates the loss
    cfg = tiny_cfg(learning_rate=1e9, epochs=3, optimizer="sgd", clip_norm=0.0)
    data = tiny_dataset(cfg)
    with pytest.raises(TrainingError, match="epoch"):
        train(data, cfg)


def test_logits_and_probability_losses_agree():
    rng = RngStream(77)
    z = rng.normal_array((3, 3, 4)) * 5.0
    for i in range(3):
        z[i, i] = 0.0
    p = 1.0 / (1.0 + np.exp(-z))
    for i in range(3):
        p[i, i] = 0.0
    pos = np.array([off_diag_flat(3, 4, 0, 1, 0), off_diag_flat(3, 4, 2, 0, 3)])
    neg = np.array([off_diag_flat(3, 4, 1, 0, 1), off_diag_flat(3, 4, 1, 2, 2)])
    a, _ = relation_loss(Tensor(p), pos, neg)
    b, _ = relation_loss_from_logits(Tensor(z), pos, neg)
    assert abs(a.item() - b.item()) < 1e-12


def test_logits_loss_survives_saturation():
    z = np.full((2, 2, 1), 80.0)   # sigmoid rounds to exactly 1.0 here
    loss, _ = relation_loss_from_logits(
        Tensor(z), np.array([], dtype=int), np.array([off_diag_flat(2, 1, 0, 1, 0)]))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.2 * 80.0)


# ---------------------------------------------------------------------------
# stable node loss, the link term and non-finite gradients


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_node_loss_from_logits_matches_probability_form():
    z = RngStream(78).normal_array((4, 5)) * 3.0
    node_map, labels = {0: 2, 1: 0, 3: 1}, [4, 1, 0]
    a = node_loss(Tensor(softmax_rows(z)), node_map, labels, g=5)
    b = node_loss_from_logits(Tensor(z), node_map, labels, g=5)
    assert abs(a.item() - b.item()) < 1e-12


def test_node_loss_from_logits_survives_softmax_underflow():
    z = np.zeros((2, 3))
    z[0, 1] = -800.0   # exp(-800) underflows: the gt-class probability is exactly 0
    assert softmax_rows(z)[0, 1] == 0.0
    assert not np.isfinite(node_loss(Tensor(softmax_rows(z)), {0: 0}, [1], g=3).item())
    logits = Tensor(z)
    tape = Tape()
    tape.watch(logits)
    with tape:
        loss = node_loss_from_logits(logits, {0: 0, 1: 1}, [1, 2], g=3)
    grad = backward(tape, loss).reshape(logits.shape)
    assert loss.item() == pytest.approx((800.0 + math.log(2.0) + math.log(3.0)) / 2)
    assert np.all(np.isfinite(grad))
    # d/dz of -log softmax(z)[gt] is softmax(z) - onehot(gt), halved by the mean
    np.testing.assert_allclose(grad[0], [0.25, -0.5, 0.25], rtol=0, atol=1e-12)


def test_link_loss_targets_the_same_gt_object():
    gamma = Tensor(np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    # node 0 continues gt 5 (previous nodes 1 and 2, the lower index wins);
    # node 1's gt object has no previous node, so its row is skipped
    loss = link_loss(gamma, {0: 5, 1: 9}, {0: 3, 1: 5, 2: 5})
    want = -(0.0 - math.log(math.exp(2.0) + 1.0 + math.exp(1.0)))
    assert loss.item() == pytest.approx(want, abs=1e-12)
    assert link_loss(gamma, {1: 9}, {0: 3}) is None


def test_sequence_loss_adds_link_term_only_when_weighted(dims, params, monkeypatch):
    seq = random_sequence(RngStream(44), dims, n_frames=3)
    monkeypatch.setattr(stsg.training, "LINK_WEIGHT", 0.0)
    base, base_rep = sequence_loss(seq, params, "sgcls", "sparse", 1, lambda_node=1.0)
    monkeypatch.setattr(stsg.training, "LINK_WEIGHT", 0.5)
    weighted, rep = sequence_loss(seq, params, "sgcls", "sparse", 1, lambda_node=1.0)
    assert base_rep.link_loss == 0.0 and rep.link_loss > 0.0
    assert weighted.item() == pytest.approx(base.item() + 0.5 * rep.link_loss, abs=1e-12)


def test_grad_check_full_forward_tracking(dims):
    # tracking links are chosen without gamma, which only the link term reads
    params = ModelParams.init(dims, seed=3)
    sample = gradcheck_sample(RunConfig(), n_objects=3, frames=2, seed=2024)
    err = grad_check(sample, params, mode="sgcls", variant="tracking", k=1)
    assert err < 1e-4, err


@pytest.mark.parametrize("variant", ["sparse", "tracking"])
def test_relevance_kernel_gets_gradient_only_from_link_term(dims, variant, monkeypatch):
    # a single selected link's weight cancels in the normalised mean, and
    # selection itself is not differentiable: without the link term the
    # kernel's gradient is zero up to rounding
    params = ModelParams.init(dims, seed=3)
    sample = gradcheck_sample(RunConfig(), n_objects=3, frames=2, seed=2024)
    phi_grads = {}
    for lam in (0.0, 1.0):
        monkeypatch.setattr(stsg.training, "LINK_WEIGHT", lam)
        tape = Tape()
        params.watch_all(tape)
        with tape:
            total, _ = sequence_loss(sample, params, "sgdet", variant, 1, 1.0)
        phi_grads[lam] = params.layout.views(backward(tape, total))["temporal.phi"]
    assert np.abs(phi_grads[0.0]).max() < 1e-12
    assert np.abs(phi_grads[1.0]).max() > 1e-6


def test_non_finite_gradient_aborts_naming_the_parameter(monkeypatch):
    cfg = tiny_cfg(epochs=1, batch_size=2)
    data = tiny_dataset(cfg)
    layout = ModelParams.init(cfg.dims, seed=cfg.train.seed, gcn_layers=cfg.train.gcn_layers).layout
    real_backward = stsg.training.backward
    calls = []

    def poisoned(tape, loss):
        grads = real_backward(tape, loss)
        calls.append(1)
        if len(calls) == 2:
            # watch_all watches the parameters in layout order
            grads[layout.offsets[layout.names.index("label.b")]] = np.inf
        return grads

    monkeypatch.setattr(stsg.training, "backward", poisoned)
    with pytest.raises(TrainingError, match=r"non-finite gradient in label\.b at epoch 1, batch 2"):
        train(data, cfg)


def test_gradient_norm_beyond_the_float_range_aborts(monkeypatch):
    # every entry is finite, but the norm is not a number the train log can hold
    cfg = tiny_cfg(epochs=1, batch_size=2)
    data = tiny_dataset(cfg)
    real_backward = stsg.training.backward
    calls = []

    def overflowing(tape, loss):
        grads = real_backward(tape, loss)
        calls.append(1)
        if len(calls) == 2:
            grads[:2] = 1.5e308
        return grads

    monkeypatch.setattr(stsg.training, "backward", overflowing)
    with pytest.raises(TrainingError,
                       match=r"gradient norm beyond the float range at epoch 1, batch 2"):
        train(data, cfg)


@pytest.mark.parametrize("link_weight", [0.0, LINK_WEIGHT])
def test_diverging_ablation_cell_stays_finite(monkeypatch, link_weight):
    # sparse k=2, model seed 0, on the first 150 train sequences of the
    # seed-7 benchmark: without the link term, the gt-class probability of a
    # node underflowed to 0 at epoch 2, batch 3, and log(0) made the loss
    # infinite
    monkeypatch.setattr(stsg.training, "LINK_WEIGHT", link_weight)
    cfg = config_with(RunConfig(), mode="sgdet", variant="sparse", k=2, epochs=3, seed=0)
    data = [_gen_one(cfg.dims, cfg.world, 7, i) for i in range(150)]
    result = train(data, cfg)
    assert len(result.log) == 3
    assert all(np.isfinite(e.train_loss) for e in result.log)
    for name, t in result.params.items():
        assert np.all(np.isfinite(t.data)), name


# ---------------------------------------------------------------------------
# the packed minibatch objective


def taped_batch_loss(sequences, params, mode, variant, k):
    """Loss, per-parameter gradients and tape length of one packed training step."""
    packed, targets = join([prepare(seq, mode, variant, params.dims) for seq in sequences])
    tape = Tape()
    params.watch_all(tape)
    with tape:
        total, _ = batch_loss(packed, targets, forward_batch(packed, params, k), 1.0)
    return total.item(), params.layout.views(backward(tape, total)), len(tape)


def seed7_sequences(count, frames=None):
    cfg = RunConfig()
    world = cfg.world if frames is None else replace(cfg.world, frames=frames)
    return [_gen_one(cfg.dims, world, 7, i) for i in range(count)]


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
@pytest.mark.parametrize("variant", ["spatial", "sparse", "dense", "tracking"])
def test_batch_loss_is_the_mean_of_sequence_losses(mode, variant):
    dims = Dims()
    params = ModelParams.init(dims, seed=0)
    pair = seed7_sequences(2)
    loss, grads, _ = taped_batch_loss(pair, params, mode, variant, 1)
    singles = [taped_batch_loss([seq], params, mode, variant, 1) for seq in pair]
    want = (singles[0][0] + singles[1][0]) / 2
    assert abs(loss - want) <= 1e-12 * abs(want)
    for name, g in grads.items():
        ref = (singles[0][1][name] + singles[1][1][name]) / 2
        assert np.linalg.norm(g - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300), name


def test_tape_records_per_step_do_not_depend_on_frame_count():
    params = ModelParams.init(Dims(), seed=0)
    for mode in ("predcls", "sgdet"):
        for variant in ("spatial", "sparse", "dense", "tracking"):
            records = {frames: taped_batch_loss(seed7_sequences(2, frames), params, mode,
                                                variant, 1)[2]
                       for frames in (8, 16)}
            assert records[8] == records[16], (mode, variant, records)


# one training step's tape records on two default sequences, with two GCN
# layers: one per layer (proposal, two GCN layers, relevance, temporal
# encoding, the selected links' relevance, aggregation, relation head,
# label head, loss); the spatial variant has no temporal links, and predcls
# no label head. README states these
TAPE_RECORDS = {
    ("predcls", "spatial"): 5, ("predcls", "sparse"): 9,
    ("sgcls", "spatial"): 6, ("sgcls", "sparse"): 10,
    ("sgdet", "spatial"): 6, ("sgdet", "sparse"): 10,
}


@pytest.mark.parametrize("mode, variant", sorted(TAPE_RECORDS))
def test_tape_records_per_step_are_pinned(mode, variant):
    params = ModelParams.init(Dims(), seed=0)
    records = taped_batch_loss(seed7_sequences(2), params, mode, variant, 1)[2]
    assert records == TAPE_RECORDS[mode, variant]


def reference_sequence_loss(sequence, params, mode, variant, k, lambda_node, lambda_link):
    """The objective composed frame by frame from the reference per-frame losses."""
    packed = prepare(sequence, mode, variant, params.dims).packed
    out = forward_batch(packed, params, k)
    frames = frame_predictions(packed, out, params.dims.g, sequence.frames)
    h = params.dims.h
    cand_curr = packed.cand_curr.ids
    terms, prev_map, start, pair_start = [], None, 0, 0
    for frame, fo in zip(sequence.frames, frames):
        n = fo.n
        if n == 0:
            continue
        pos, neg, node_map = loop_relation_targets(frame, fo.nodes, mode, h)
        logits = pair_grid(out.relation_logits.data[pair_start:pair_start + n * (n - 1)], n)
        term = relation_loss_from_logits(Tensor(logits), pos, neg)[0].item()
        if mode != "predcls":
            label_logits = Tensor(out.label_logits.data[start:start + n])
            term += lambda_node * node_loss_from_logits(
                label_logits, node_map, [o.label for o in frame.objects], params.dims.g).item()
        cand = (cand_curr >= start) & (cand_curr < start + n)
        if cand.any():
            gamma = Tensor(out.gamma.data[cand].reshape(n, -1))
            ll = link_loss(gamma, node_map, prev_map)
            if ll is not None:
                term += lambda_link * ll.item()
        terms.append(term)
        prev_map, start, pair_start = node_map, start + n, pair_start + n * (n - 1)
    return sum(terms) / len(terms)


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
@pytest.mark.parametrize("variant", ["spatial", "sparse", "tracking"])
def test_batch_loss_matches_per_frame_reference(mode, variant, monkeypatch):
    dims = Dims()
    params = ModelParams.init(dims, seed=3)
    monkeypatch.setattr(stsg.training, "LINK_WEIGHT", 0.5)
    for seq in seed7_sequences(3):
        got, _ = sequence_loss(seq, params, mode, variant, 1, 1.0)
        want = reference_sequence_loss(seq, params, mode, variant, 1, 1.0, 0.5)
        assert got.item() == pytest.approx(want, rel=1e-12)


def test_train_calls_clip_gradients_once_per_optimizer_step(monkeypatch):
    # the benchmark times a training step from one clip_gradients call to the next
    cfg = tiny_cfg(epochs=2, batch_size=4)
    data = tiny_dataset(cfg, count=6)
    calls = {"clip": 0, "step": 0}
    real_clip, real_step = stsg.training.clip_gradients, Optimizer.step

    def clip(grads, max_norm):
        calls["clip"] += 1
        return real_clip(grads, max_norm)

    def step(self, params, grads):
        calls["step"] += 1
        return real_step(self, params, grads)

    monkeypatch.setattr(stsg.training, "clip_gradients", clip)
    monkeypatch.setattr(Optimizer, "step", step)
    train(data, cfg)
    assert calls["clip"] == calls["step"] == 2 * 2


@pytest.mark.parametrize("mode, lambda_node", [("sgdet", 0.5), ("predcls", 1.0)])
def test_epoch_log_splits_the_loss_and_counts_clipped_steps(mode, lambda_node):
    cfg = tiny_cfg(mode=mode, lambda_node=lambda_node, clip_norm=1e-6)
    data = tiny_dataset(cfg)
    log = train(data, cfg).log
    steps = -(-len(data) // cfg.train.batch_size)
    for e in log:
        parts = e.relation_loss + lambda_node * e.node_loss + LINK_WEIGHT * e.link_loss
        assert parts == pytest.approx(e.train_loss, rel=1e-9, abs=0.0)
        assert e.relation_loss > 0.0 and e.link_loss > 0.0
        assert (e.node_loss == 0.0) == (mode == "predcls")
        assert e.clip_hits == steps   # every gradient is longer than 1e-6
    unclipped = tiny_cfg(mode=mode, lambda_node=lambda_node, clip_norm=0.0)
    assert [e.clip_hits for e in train(data, unclipped).log] == [0] * cfg.train.epochs


@pytest.mark.parametrize("clip_norm", [1e-6, 0.5, 1e6, 0.0])
def test_epoch_log_gives_the_median_and_max_pre_clip_norm(monkeypatch, clip_norm):
    cfg = tiny_cfg(mode="sgdet", epochs=3, batch_size=2, clip_norm=clip_norm)
    data = tiny_dataset(cfg)
    steps = -(-len(data) // cfg.train.batch_size)
    norms = []
    real_clip = stsg.training.clip_gradients

    def clip(grads, max_norm):
        norms.append(float(np.sqrt(np.dot(grads.flat, grads.flat))))
        return real_clip(grads, max_norm)

    monkeypatch.setattr(stsg.training, "clip_gradients", clip)
    log = train(data, cfg).log
    assert len(norms) == steps * cfg.train.epochs
    for e, epoch_norms in zip(log, np.reshape(norms, (cfg.train.epochs, steps))):
        assert e.grad_norm_median == float(np.median(epoch_norms))
        assert e.grad_norm_max == max(epoch_norms)
        assert 0.0 < e.grad_norm_median <= e.grad_norm_max
        if e.grad_norm_max < 0.999 * clip_norm or clip_norm == 0.0:
            assert e.clip_hits == 0
        if 0.0 < clip_norm < min(epoch_norms):
            assert e.clip_hits == steps


def test_tracking_links_are_found_once_per_sequence(monkeypatch):
    cfg = tiny_cfg(mode="sgdet", variant="tracking", epochs=3, batch_size=2)
    data = tiny_dataset(cfg)
    calls = []
    real = stsg.temporal.tracking_links

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(stsg.temporal, "tracking_links", counted)
    train(data, cfg)
    assert len(calls) == len(data)


@pytest.mark.parametrize("mode", ["predcls", "sgdet"])
def test_joined_data_only_arrays_equal_those_of_the_joined_rows(mode):
    # batches of 2 over 3 sequences end in a partial batch of one, the
    # prepared sequence as it is; the last sequence has a frame of one node
    # and an empty frame
    dims = Dims()
    seqs = seed7_sequences(3)
    f = frame_columns(seqs[2])[1]
    seqs[2] = edit_frames(seqs[2], {1: make_frame(f["gt"][:1], f["labels"][:1], [],
                                                  f["det"][:1], dims),
                                    2: empty_frame(dims)})
    for variant in VARIANTS:
        prepared = [prepare(seq, mode, variant, dims) for seq in seqs]
        for batch in (prepared, prepared[:2], prepared[2:]):
            packed, targets = join(batch)
            curr, prev = packed.cand_curr.ids, packed.cand_prev.ids
            if variant in ("spatial", "sparse"):
                assert packed.links is None
                assert len(curr) == 0 or variant == "sparse"
            elif variant == "dense":
                assert np.array_equal(packed.links, np.arange(len(curr)))
            else:
                labels = np.argmax(packed.feats[:, 4:4 + dims.g], axis=1)
                want = stsg.temporal.tracking_links(packed.feats[:, :4], labels, curr, prev)
                assert np.array_equal(packed.links, np.flatnonzero(want))
                assert len(packed.links) > 0
            counts = np.bincount(packed.node_frame.ids, minlength=packed.n_frames)
            assert np.array_equal(packed.frame_counts, counts.reshape(-1, 1).astype(np.float64))
            assert packed.frame_counts.dtype == np.float64
            # each weight also carries the mean over the batch's sequences
            scale = 1.0 / len(batch)
            for name in ("rel_weight", "node_weight", "link_weight"):
                want = np.concatenate([getattr(p.targets, name) for p in batch]) * scale
                assert np.array_equal(getattr(targets, name), want), name
            want = np.concatenate([p.targets.rel_sign for p in batch])
            assert np.array_equal(targets.rel_sign, want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_prepared_plans_are_views_of_their_stacked_rows(variant):
    # the prepared data is held once: every plan of a prepared sequence is a
    # view of the stacked array of its family, and so is every plan of a
    # batch of them, of the array the join made of each family
    dims = Dims()
    prepared = [prepare(seq, "sgdet", variant, dims) for seq in seed7_sequences(2)]
    packed, _ = join(prepared)
    batch_rows = {"node_frame": packed.node_frame.ids.base,
                  "frame_runs": packed.node_frame.runs()[1].base,
                  "pairs": packed.subj.ids.base, "pair_runs": packed.subj.runs()[1].base,
                  "cands": packed.cand_curr.ids.base,
                  "curr_runs": packed.cand_curr.runs()[1].base,
                  "prev_runs": packed.cand_prev.runs()[1].base,
                  "links": None if packed.links is None else packed.links.base}
    for packed, rows in [(p.packed, p.rows) for p in prepared] + [(packed, batch_rows)]:
        plans = [(packed.node_frame, "node_frame", "frame_runs"),
                 (packed.subj, "pairs", "pair_runs"), (packed.obj, "pairs", "pair_runs")]
        if variant == "spatial":
            assert rows is batch_rows or set(rows) == {"node_frame", "frame_runs", "pairs",
                                                       "pair_runs"}
        else:
            plans += [(packed.cand_curr, "cands", "curr_runs"),
                      (packed.cand_prev, "cands", "prev_runs")]
        for plan, ids, runs in plans:
            order, starts, segments = plan.runs()
            assert np.shares_memory(plan.ids, rows[ids]), ids
            assert order is None or np.shares_memory(order, rows[ids]), ids
            assert np.shares_memory(starts, rows[runs]), runs
            assert np.shares_memory(segments, rows[runs]), runs
        assert (packed.links is not None) == (variant in ("dense", "tracking"))
        assert packed.links is None or np.shares_memory(packed.links, rows["links"])


def test_flat_gradient_is_the_per_tensor_reverse_sweep_bit_for_bit():
    # each leaf's slice of backward's vector holds the bits of the per-tensor
    # sweep: its first contribution as it is and later ones added in the
    # same order; label.w is read by the label head and by a second product,
    # and a leaf the loss never reaches reads exact zeros
    params = ModelParams.init(Dims(), seed=0)
    packed, targets = join([prepare(seq, "sgdet", "sparse", params.dims)
                            for seq in seed7_sequences(2)])
    unused = Tensor(np.full((2, 3), -1.0))
    tape = Tape()
    params.watch_all(tape)
    tape.watch(unused)
    with tape:
        out = forward_batch(packed, params, 1)
        total, _ = batch_loss(packed, targets, out, 1.0)
        total = prim.add(total, prim.reduce_sum(ad.matmul(out.gcn, params["label.w"])))
    label_w = params["label.w"]
    assert sum(any(t is label_w for t in inputs) for _, inputs, _ in tape._records) == 2
    flat = backward(tape, total)
    want = reference_backward(tape, total)
    got = leaf_grads(tape, flat)
    assert list(got) == tape._watched
    for t in tape._watched:
        assert got[t].shape == want[t].shape and got[t].tobytes() == want[t].tobytes()
    assert got[unused].tobytes() == np.zeros((2, 3)).tobytes()
    assert np.abs(got[label_w]).max() > 0.0


