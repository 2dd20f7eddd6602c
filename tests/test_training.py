import math
from dataclasses import replace

import numpy as np
import pytest

import stsg.training
from conftest import random_sequence
from stsg.autodiff import Tape, Tensor, backward
import stsg.autodiff as ad
from stsg.cli import _gen_one, gradcheck_sample
from stsg.config import Dims, NoiseConfig, RunConfig, TrainConfig, WorldConfig, config_with
from stsg.errors import TrainingError
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.synthgen import generate_scene
from stsg.scene import iou
from stsg.spatial import pair_grid
from stsg.temporal import (
    forward_batch,
    forward_sequence,
    frame_outputs,
    nodes_for_mode,
)
from stsg.training import (
    LINK_WEIGHT,
    Optimizer,
    batch_loss,
    grad_check,
    join,
    link_loss,
    node_loss,
    node_loss_from_logits,
    prepare,
    relation_loss,
    relation_loss_from_logits,
    relation_targets,
    sequence_loss,
    train,
)

LN2 = math.log(2.0)


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


def test_predcls_total_is_relation_only(dims, params):
    seq = random_sequence(RngStream(41), dims, n_frames=2)
    total, report = sequence_loss(seq, params, "predcls", "sparse", 1, lambda_node=1.0,
                                  lambda_link=0.0)
    assert report.node_loss == 0.0
    assert abs(total.item() - report.relation_loss) < 1e-12


def test_predcls_trained_total_is_relation_plus_link(dims, params):
    seq = random_sequence(RngStream(41), dims, n_frames=2)
    total, report = sequence_loss(seq, params, "predcls", "sparse", 1, lambda_node=1.0)
    assert report.node_loss == 0.0 and report.link_loss > 0.0
    want = report.relation_loss + LINK_WEIGHT * report.link_loss
    assert abs(total.item() - want) < 1e-12


def test_sgdet_targets_use_iou_matching(dims, params):
    seq = random_sequence(RngStream(42), dims, n_frames=1)
    frame = seq.frames[0]
    outs = forward_sequence(seq, params, "sgdet", "sparse", 1)
    pos, neg, node_map = relation_targets(frame, outs[0].nodes, "sgdet", dims.h)
    # conftest detections copy gt boxes, so every node matches its own gt
    assert node_map == {i: i for i in range(len(frame.objects))}
    assert len(pos) == len(frame.triplets)
    n = outs[0].n
    assert len(pos) + len(neg) == (n * n - n) * dims.h


def loop_relation_targets(frame, nodes, mode, h):
    """Per-node, per-pair reference for `relation_targets`."""
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


def test_relation_targets_match_loop_reference(dims):
    world = WorldConfig()
    checked = 0
    for seed in range(12):
        seq = generate_scene(dims, world, 500 + seed)
        for frame in seq.frames:
            for mode in ("predcls", "sgcls", "sgdet"):
                nodes = nodes_for_mode(frame, mode, dims.g)
                pos, neg, node_map = relation_targets(frame, nodes, mode, dims.h)
                want_pos, want_neg, want_map = loop_relation_targets(frame, nodes, mode, dims.h)
                assert np.array_equal(pos, want_pos) and np.array_equal(neg, want_neg)
                assert node_map == want_map
                checked += 1
    assert checked == 12 * 8 * 3


def test_closed_form_linear_gradient():
    rng = RngStream(43)
    w = Tensor(rng.normal_array((3, 4)))
    x = rng.normal_array(3)
    y = rng.normal_array(4)
    tape = Tape()
    tape.watch(w)
    with tape:
        resid = ad.add(ad.matmul(Tensor(x), w), Tensor(-y))
        loss = ad.reduce_sum(ad.mul(resid, resid))
    grad = backward(tape, loss)[w].data
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
    grads = {name: np.full(t.shape, 0.25) for name, t in params.items()}
    stepped = Optimizer("sgd", lr=0.1).step(params, grads)
    for name, t in params.items():
        np.testing.assert_allclose(stepped[name].data, t.data - 0.1 * 0.25,
                                   rtol=0, atol=1e-12)


def test_adam_moments_track_shapes():
    dims = Dims()
    params = ModelParams.init(dims, seed=5)
    grads = {name: np.ones(t.shape) for name, t in params.items()}
    opt = Optimizer("adam", lr=1e-3)
    stepped = opt.step(params, grads)
    assert opt._m["rel.w"].shape == params["rel.w"].shape
    assert not np.allclose(stepped["rel.w"].data, params["rel.w"].data)


def tiny_cfg(**train_kw):
    base = dict(epochs=2, batch_size=4, learning_rate=1e-3, seed=9, mode="sgcls",
                variant="sparse", k=1, sequences=0)
    base.update(train_kw)
    return RunConfig(train=TrainConfig(**base))


def tiny_dataset(cfg, count=6):
    # sequences 0..count-1 of base seed 1, as `stsg gen --seed 1` numbers them
    return [generate_scene(cfg.dims, cfg.world, 1 * 1_000_000 + i) for i in range(count)]


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


def test_non_finite_loss_aborts_with_diagnostic():
    # clipping off so the runaway step actually saturates the loss
    cfg = tiny_cfg(learning_rate=1e9, epochs=3, optimizer="sgd", clip_norm=0.0)
    data = tiny_dataset(cfg)
    with pytest.raises(TrainingError, match="epoch"):
        train(data, cfg)


def test_logits_and_probability_losses_agree():
    from stsg.training import relation_loss_from_logits

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
    from stsg.training import relation_loss_from_logits

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
    grad = backward(tape, loss)[logits].data
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


def test_sequence_loss_adds_link_term_only_when_weighted(dims, params):
    seq = random_sequence(RngStream(44), dims, n_frames=3)
    base, base_rep = sequence_loss(seq, params, "sgcls", "sparse", 1, lambda_node=1.0,
                                   lambda_link=0.0)
    weighted, rep = sequence_loss(seq, params, "sgcls", "sparse", 1, lambda_node=1.0,
                                  lambda_link=0.5)
    assert base_rep.link_loss == 0.0 and rep.link_loss > 0.0
    assert weighted.item() == pytest.approx(base.item() + 0.5 * rep.link_loss, abs=1e-12)


def test_grad_check_full_forward_tracking(dims):
    # tracking links are chosen without gamma, which only the link term reads
    params = ModelParams.init(dims, seed=3)
    sample = gradcheck_sample(RunConfig(), n_objects=3, frames=2, seed=2024)
    err = grad_check(sample, params, mode="sgcls", variant="tracking", k=1)
    assert err < 1e-4, err


@pytest.mark.parametrize("variant", ["sparse", "tracking"])
def test_relevance_kernel_gets_gradient_only_from_link_term(dims, variant):
    # a single selected link's weight cancels in the normalised mean, and
    # selection itself is not differentiable: without the link term the
    # kernel's gradient is zero up to rounding
    params = ModelParams.init(dims, seed=3)
    sample = gradcheck_sample(RunConfig(), n_objects=3, frames=2, seed=2024)
    phi_grads = {}
    for lam in (0.0, 1.0):
        tape = Tape()
        params.watch_all(tape)
        with tape:
            total, _ = sequence_loss(sample, params, "sgdet", variant, 1, 1.0, lambda_link=lam)
        phi_grads[lam] = backward(tape, total)[params["temporal.phi"]].data
    assert np.abs(phi_grads[0.0]).max() < 1e-12
    assert np.abs(phi_grads[1.0]).max() > 1e-6


def test_non_finite_gradient_aborts_naming_the_parameter(monkeypatch):
    cfg = tiny_cfg(epochs=1, batch_size=2)
    data = tiny_dataset(cfg)
    names = ModelParams.init(cfg.dims, seed=cfg.train.seed, gcn_layers=cfg.train.gcn_layers).names()
    real_backward = stsg.training.backward
    calls = []

    def poisoned(tape, loss):
        grads = real_backward(tape, loss)
        calls.append(1)
        if len(calls) == 2:
            # watch_all watches the parameters in name order
            target = tape._watched[names.index("label.b")]
            bad = grads[target].data.copy()
            bad[0] = np.inf
            grads[target] = Tensor(bad)
        return grads

    monkeypatch.setattr(stsg.training, "backward", poisoned)
    with pytest.raises(TrainingError, match=r"non-finite gradient in label\.b at epoch 1, batch 2"):
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
    grads = backward(tape, total)
    return total.item(), {name: grads[t].data for name, t in params.items()}, len(tape)


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


def reference_sequence_loss(sequence, params, mode, variant, k, lambda_node, lambda_link):
    """The objective composed frame by frame from the reference per-frame losses."""
    packed, _ = prepare(sequence, mode, variant, params.dims)
    out = forward_batch(packed, params, k)
    frames = frame_outputs(packed, out)
    h = params.dims.h
    terms, prev_map, start, pair_start = [], None, 0, 0
    for frame, fo in zip(sequence.frames, frames):
        n = fo.n
        if n == 0:
            continue
        pos, neg, node_map = relation_targets(frame, fo.nodes, mode, h)
        logits = pair_grid(out.relation_logits.data[pair_start:pair_start + n * (n - 1)], n)
        term = relation_loss_from_logits(Tensor(logits), pos, neg)[0].item()
        if mode != "predcls":
            label_logits = Tensor(out.label_logits.data[start:start + n])
            term += lambda_node * node_loss_from_logits(
                label_logits, node_map, [o.label for o in frame.objects], params.dims.g).item()
        if fo.gamma is not None:
            ll = link_loss(fo.gamma, node_map, prev_map)
            if ll is not None:
                term += lambda_link * ll.item()
        terms.append(term)
        prev_map, start, pair_start = node_map, start + n, pair_start + n * (n - 1)
    return sum(terms) / len(terms)


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
@pytest.mark.parametrize("variant", ["spatial", "sparse", "tracking"])
def test_batch_loss_matches_per_frame_reference(mode, variant):
    dims = Dims()
    params = ModelParams.init(dims, seed=3)
    for seq in seed7_sequences(3):
        got, _ = sequence_loss(seq, params, mode, variant, 1, 1.0, 0.5)
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
