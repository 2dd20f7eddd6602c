"""The single-record layer ops against the primitive compositions they replace.

Every op of `stsg.layers` must give the values and gradients of its
composition from `stsg.autodiff` primitives (`reference_kernels.py`) bit for
bit: op by op with every input watched, and as a whole training step, where
the gradients of a tensor that several ops read add up across records. The
ops' hand-written gradients are also checked against central differences.
"""

import numpy as np
import pytest

import primitives as prim
import stsg.temporal
from conftest import edit_frames, empty_frame
from reference_kernels import (
    composed_batch_loss,
    composed_forward_batch,
    composed_fuse_link_mean,
    composed_gcn_layer,
    composed_link_relevance,
    composed_pair_linear,
    composed_proposal_sums,
    composed_temporal_encoding,
    composed_weighted_loss,
)
from stsg import layers
from stsg.autodiff import SegmentPlan, Tape, Tensor, backward
from stsg.cli import _gen_one
from stsg.config import Dims, RunConfig
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.spatial import frame_pairs
from stsg.temporal import forward_batch
from stsg.training import batch_loss, join, prepare
from test_autodiff import fd_floor, finite_diff, rel_err

# (mode, variant, k) of the bit-identity cases: every mode with the spatial
# variant, sparse k=1 and k=2, dense and tracking
CASES = [(mode, variant, k) for mode in ("predcls", "sgcls", "sgdet")
         for variant, k in (("spatial", 1), ("sparse", 1), ("sparse", 2), ("dense", 1),
                            ("tracking", 1))]


def seed7_sequences(count=2):
    cfg = RunConfig()
    return [_gen_one(cfg.dims, cfg.world, 7, i) for i in range(count)]


def with_empty_frame():
    """Two seed-7 sequences, the first with its third frame emptied."""
    seqs = seed7_sequences()
    seqs[0] = edit_frames(seqs[0], {2: empty_frame(Dims())})
    return seqs


def assert_same_bits(got, want, what=""):
    assert got.shape == want.shape and np.array_equal(got, want), what


def taped_step(sequences, params, mode, variant, k, forward, loss):
    """The outputs, total and per-parameter gradients of one packed step."""
    packed, targets = join([prepare(seq, mode, variant, params.dims) for seq in sequences])
    tape = Tape()
    params.watch_all(tape)
    with tape:
        out = forward(packed, params, k)
        total = loss(packed, targets, out, 1.0)
    grads = backward(tape, total)
    return out, total.data, {name: grads[t].data for name, t in params.items()}


def assert_step_is_the_composition(sequences, params, mode, variant, k):
    got = taped_step(sequences, params, mode, variant, k, forward_batch,
                     lambda *a: batch_loss(*a)[0])
    want = taped_step(sequences, params, mode, variant, k, composed_forward_batch,
                      composed_batch_loss)
    for name in ("gcn", "fused", "relation_logits", "label_logits", "gamma"):
        a, b = getattr(got[0], name), getattr(want[0], name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert_same_bits(a.data, b.data, name)
    assert_same_bits(got[0].links, want[0].links, "links")
    assert_same_bits(got[1], want[1], "total")
    for name in params.names():
        assert_same_bits(got[2][name], want[2][name], name)


@pytest.mark.parametrize("mode, variant, k", CASES)
def test_training_step_is_the_composition_bit_for_bit(mode, variant, k):
    assert_step_is_the_composition(seed7_sequences(), ModelParams.init(Dims(), seed=0),
                                   mode, variant, k)


@pytest.mark.parametrize("mode, variant, k", CASES)
def test_step_over_an_empty_frame_is_the_composition(mode, variant, k):
    assert_step_is_the_composition(with_empty_frame(), ModelParams.init(Dims(), seed=1),
                                   mode, variant, k)


def test_uniform_fallback_rows_are_the_composition(monkeypatch):
    # a guard at the median weight sum makes about half the linked rows fall
    # back to uniform weights; a zero relevance kernel makes every row do so
    params = ModelParams.init(Dims(), seed=0)
    seqs = seed7_sequences()
    packed, _ = join([prepare(seq, "sgdet", "dense", params.dims) for seq in seqs])
    gamma = forward_batch(packed, params).gamma.data
    sums = np.bincount(packed.cand_curr.ids, weights=gamma, minlength=packed.n_nodes)
    linked = np.bincount(packed.cand_curr.ids, minlength=packed.n_nodes) > 0
    monkeypatch.setattr(stsg.temporal, "DENOM_GUARD", float(np.median(np.abs(sums[linked]))))
    for variant, k in (("dense", 1), ("sparse", 2)):
        assert_step_is_the_composition(seqs, params, "sgdet", variant, k)
    monkeypatch.undo()
    flat = params.flat.copy()
    params.layout.views(flat)["temporal.phi"][...] = 0.0
    for variant, k in (("dense", 1), ("sparse", 1)):
        assert_step_is_the_composition(seqs, params.with_flat(flat), "sgcls", variant, k)


def test_link_mean_without_fallback_rows_is_the_general_path_bit_for_bit():
    # with no row inside the guard the op builds no fallback flags; a zero
    # weight (-0.0) among a row's links still gets the bits of
    # gamma * 1.0 + 0.0, and one link a row reduces without reduceat
    guard = stsg.temporal.DENOM_GUARD
    cases = [([3, 1, 3, 2, 1, 3], [-0.0, 0.7, 1.3, -2.1, -0.4, 0.25]),
             ([4, 1, 2], [0.5, -1.2, 2.0]),
             # rows 1 and 3 inside the guard take the uniform path
             ([1, 1, 2, 2, 3], [3e-9, 2e-9, 0.8, 0.3, -0.0])]
    for seed, (curr, gamma) in enumerate(cases):
        curr, rng = np.array(curr), RngStream(seed, stream=12)
        inputs = leaves(rng.normal_array((5, 6)), np.array(gamma),
                        rng.normal_array((len(curr), 6)))
        got_value, got_grads = watched_run(
            lambda u, g, t: layers.fuse_link_mean(u, g, t, curr, guard), inputs, seed)
        want_value, want_grads = watched_run(
            lambda u, g, t: composed_fuse_link_mean(u, g, t, curr, 5), inputs, seed)
        for got, want in zip([got_value, *got_grads], [want_value, *want_grads]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    updated, _, tau = (t.data for t in inputs)
    assert np.array_equal(got_value[1], updated[1] + (tau[0] + tau[1]) / 2.0)
    assert np.array_equal(got_value[3], updated[3] + tau[4])
    assert np.all(got_grads[1][[0, 1, 4]] == 0.0) and np.all(got_grads[1][2:4] != 0.0)


# ---------------------------------------------------------------------------
# op by op, every input watched


def watched_run(fn, leaves, seed):
    """fn's value and the gradient of each leaf under a random linear loss."""
    tape = Tape()
    tape.watch(*leaves)
    with tape:
        out = fn(*leaves)
        weights = Tensor(RngStream(seed, stream=5).normal_array((out.size,)))
        loss = prim.dot(weights, prim.reshape(out, (out.size,)))
    grads = backward(tape, loss)
    return out.data, [grads[t].data for t in leaves]


def assert_op_is_the_composition(op, composed, leaves, seed=0):
    got_value, got_grads = watched_run(op, leaves, seed)
    want_value, want_grads = watched_run(composed, leaves, seed)
    assert_same_bits(got_value, want_value, "value")
    for i, (a, b) in enumerate(zip(got_grads, want_grads)):
        assert_same_bits(a, b, f"gradient of input {i}")


def stage_inputs(sequences, params, mode, variant, k):
    """The packed batch and, from an untaped forward pass, the inputs every
    op reads: node features, GCN output, relevance, the selected links and
    their plans, tau and the fused features."""
    packed, targets = join([prepare(seq, mode, variant, params.dims) for seq in sequences])
    out = forward_batch(packed, params, k)
    s = {"packed": packed, "targets": targets, "out": out, "feats": packed.feats,
         "updated": out.gcn.data, "fused": out.fused.data}
    if len(out.links):
        n = packed.n_nodes
        curr_ids = packed.cand_curr.ids[out.links]
        s["curr"] = SegmentPlan(curr_ids, n)
        s["prev"] = SegmentPlan(packed.cand_prev.ids[out.links], n)
        s["link_frame"] = SegmentPlan(packed.node_frame.ids[curr_ids], packed.n_frames)
        s["gamma_sel"] = out.gamma.data[out.links]
        s["tau"] = layers.temporal_encoding(
            out.gcn, packed.node_frame, s["link_frame"], s["curr"], s["prev"],
            *mlp_params(params), packed.frame_counts).data
    return s


def mlp_params(params):
    return tuple(tuple(params[f"temporal.{enc}.{n}"] for n in ("w1", "b1", "w2", "b2"))
                 for enc in ("fg", "ftau"))


def leaves(*arrays):
    return [Tensor(a) for a in arrays]


def params_data(params, *names):
    return [params[name].data for name in names]


def check_ops(sequences, params, mode, variant, k):
    s = stage_inputs(sequences, params, mode, variant, k)
    p = s["packed"]
    subj, obj = p.subj, p.obj
    prop = params_data(params, "prop.w1", "prop.b1", "prop.w2", "prop.b2")
    assert_op_is_the_composition(
        lambda x, *w: layers.proposal_sums(x, subj, obj, *w),
        lambda x, *w: composed_proposal_sums(x, subj, obj, dict(zip(
            ("prop.w1", "prop.b1", "prop.w2", "prop.b2"), w))),
        leaves(s["feats"], *prop))
    sums = layers.proposal_sums(Tensor(s["feats"]), subj, obj, *map(Tensor, prop)).data
    for layer, x in enumerate((s["feats"], s["updated"])):
        gcn = params_data(params, *(f"gcn.{layer}.{n}" for n in ("w_node", "w_edge", "bias")))
        assert_op_is_the_composition(
            lambda x, e, *w: layers.gcn_layer(x, subj, obj, e, *w),
            lambda x, e, *w: composed_gcn_layer(x, subj, obj, e, *w),
            leaves(x, sums, *gcn))
    rel = params_data(params, "rel.w", "rel.b")
    assert_op_is_the_composition(
        lambda x, *w: layers.pair_linear(x, subj, obj, *w),
        lambda x, *w: composed_pair_linear(x, subj, obj, *w),
        leaves(s["fused"], *rel))
    out = s["out"]
    if out.gamma is not None:
        phi = params["temporal.phi"].data
        assert_op_is_the_composition(
            lambda x, w: layers.link_relevance(x, p.cand_curr, p.cand_prev, w),
            lambda x, w: composed_link_relevance(x, p.cand_curr, p.cand_prev, w),
            leaves(s["updated"], phi))
    if "tau" in s:
        fg, ftau = (tuple(t.data for t in enc) for enc in mlp_params(params))
        names = [f"temporal.{enc}.{n}" for enc in ("fg", "ftau") for n in ("w1", "b1", "w2", "b2")]
        assert_op_is_the_composition(
            lambda x, *w: layers.temporal_encoding(x, p.node_frame, s["link_frame"], s["curr"],
                                                   s["prev"], w[:4], w[4:], p.frame_counts),
            lambda x, *w: composed_temporal_encoding(x, p.node_frame, s["link_frame"], s["curr"],
                                                     s["prev"], dict(zip(names, w))),
            leaves(s["updated"], *fg, *ftau))
        assert_op_is_the_composition(
            lambda u, g, t: layers.fuse_link_mean(u, g, t, s["curr"], stsg.temporal.DENOM_GUARD),
            lambda u, g, t: composed_fuse_link_mean(u, g, t, s["curr"], p.n_nodes),
            leaves(s["updated"], s["gamma_sel"], s["tau"]))
    t = s["targets"]
    sign = t.rel_sign
    pieces = [out.relation_logits.data]
    weights = [t.rel_weight]
    if out.label_logits is not None:
        pieces.append(out.label_logits.data)
        weights.append(t.node_weight)
    if out.gamma is not None:
        pieces.append(out.gamma.data)
        weights.append(t.link_weight)
    weights = np.concatenate(weights)
    label = out.label_logits is not None

    def loss_args(xs):
        return (xs[0], sign, xs[1] if label else None,
                xs[-1] if out.gamma is not None else None, p.cand_curr)

    assert_op_is_the_composition(
        lambda *xs: layers.weighted_loss(weights, *loss_args(xs))[0],
        lambda *xs: composed_weighted_loss(weights, *loss_args(xs))[0],
        leaves(*pieces))


@pytest.mark.parametrize("mode, variant, k", CASES)
def test_each_op_is_its_composition_bit_for_bit(mode, variant, k):
    check_ops(seed7_sequences(), ModelParams.init(Dims(), seed=0), mode, variant, k)


@pytest.mark.parametrize("mode, variant, k", CASES)
def test_each_op_over_an_empty_frame_is_its_composition(mode, variant, k):
    check_ops(with_empty_frame(), ModelParams.init(Dims(), seed=2), mode, variant, k)


def test_ops_record_once_and_skip_untracked_inputs():
    # data inputs get no gradient: with only the weights watched, the
    # proposal's pair rows are never differentiated
    params = ModelParams.init(Dims(), seed=0)
    feats = Tensor(RngStream(3).normal_array((5, params.dims.m)))
    subj, obj = frame_pairs([3, 2])
    w = [params[n] for n in ("prop.w1", "prop.b1", "prop.w2", "prop.b2")]
    tape = Tape()
    tape.watch(*w)
    with tape:
        out = layers.proposal_sums(feats, subj, obj, *w)
    assert len(tape) == 1
    (_, inputs, vjp), = tape._records
    grads = vjp(np.ones(out.shape))
    assert inputs[:2] == (feats, feats) and grads[:2] == (None, None)
    assert all(g is not None for g in grads[2:])
    # without a tape nothing records
    assert layers.proposal_sums(feats, subj, obj, *w).shape == (5, params.dims.h)


# ---------------------------------------------------------------------------
# central differences


def small_inputs(seed):
    """Two frames of 3 and 2 nodes with their pairs, the 2 x 3 links from
    the second frame to the first, and small random weights."""
    rng = RngStream(seed, stream=11)
    m, h, d = 4, 3, 2
    subj, obj = frame_pairs([3, 2])
    curr, prev = np.repeat([3, 4], 3), np.tile([0, 1, 2], 2)
    return rng, m, h, d, subj, obj, curr, prev


def fd_error(fn, arrays, seed=0):
    """Worst relative error of fn's tape gradients against central
    differences, under a random linear loss; differences within the
    noise floor count as agreeing."""
    weights = None

    def loss(*ts):
        nonlocal weights
        out = fn(*ts)
        if weights is None:
            weights = Tensor(RngStream(seed, stream=7).normal_array((out.size,)))
        return prim.dot(weights, prim.reshape(out, (out.size,)))

    tape = Tape()
    ts = [Tensor(a) for a in arrays]
    tape.watch(*ts)
    with tape:
        total = loss(*ts)
    grads = backward(tape, total)
    numeric = finite_diff(lambda *xs: loss(*[Tensor(x) for x in xs]).item(), arrays)
    floor = fd_floor(total.item())
    worst = 0.0
    for t, num in zip(ts, numeric):
        ana = grads[t].data
        resolved = np.abs(ana - num) > floor
        if resolved.any():
            worst = max(worst, rel_err(ana[resolved], num[resolved]))
    return worst


def away_from_kinks(a):
    return np.where(np.abs(a) < 0.05, 0.5, a)


def test_proposal_gradient_matches_finite_differences():
    rng, m, h, _, subj, obj, _, _ = small_inputs(0)
    arrays = [rng.normal_array((5, m)), rng.normal_array((2 * m, m)), rng.normal_array(m),
              rng.normal_array((m, h)), rng.normal_array(h)]
    assert fd_error(lambda x, *w: layers.proposal_sums(x, subj, obj, *w), arrays) < 1e-6


def test_gcn_layer_gradient_matches_finite_differences():
    rng, m, h, _, subj, obj, _, _ = small_inputs(1)
    arrays = [rng.normal_array((5, m)), rng.normal_array((5, h)), rng.normal_array((m, m)),
              rng.normal_array((h, m)), rng.normal_array(m)]
    assert fd_error(lambda x, e, *w: layers.gcn_layer(x, subj, obj, e, *w), arrays) < 1e-6


def test_link_relevance_gradient_matches_finite_differences():
    rng, m, _, d, _, _, curr, prev = small_inputs(2)
    arrays = [rng.normal_array((5, m)), rng.normal_array((m, d))]
    assert fd_error(lambda x, w: layers.link_relevance(x, curr, prev, w), arrays) < 1e-6


def test_temporal_encoding_gradient_matches_finite_differences():
    rng, m, _, _, _, _, curr, prev = small_inputs(3)
    node_frame = SegmentPlan([0, 0, 0, 1, 1], 2)
    counts = np.bincount(node_frame.ids).reshape(-1, 1).astype(np.float64)
    shapes = [(2 * m, m), (m,), (m, m), (m,)] * 2
    arrays = [rng.normal_array((5, m))] + [rng.normal_array(s) for s in shapes]
    assert fd_error(lambda x, *w: layers.temporal_encoding(
        x, node_frame, [1] * 6, curr, prev, w[:4], w[4:], counts), arrays) < 1e-6


def test_link_mean_gradient_matches_finite_differences():
    rng, m, _, _, _, _, curr, _ = small_inputs(4)
    # weight sums away from the uniform fallback; node 0..2 have no links
    gamma = np.abs(rng.normal_array(6)) + 0.5
    arrays = [rng.normal_array((5, m)), gamma, rng.normal_array((6, m))]
    assert fd_error(lambda u, g, t: layers.fuse_link_mean(u, g, t, curr, 1e-8), arrays) < 1e-6


def test_pair_linear_gradient_matches_finite_differences():
    rng, m, h, _, subj, obj, _, _ = small_inputs(5)
    arrays = [rng.normal_array((5, m)), rng.normal_array((2 * m, h)), rng.normal_array(h)]
    assert fd_error(lambda x, *w: layers.pair_linear(x, subj, obj, *w), arrays) < 1e-6


def test_weighted_loss_gradient_matches_finite_differences():
    rng, _, h, _, subj, _, curr, _ = small_inputs(6)
    links = SegmentPlan(curr, 5)
    g = 4
    sign = np.where(rng.uniform_array(len(subj) * h) < 0.3, -1.0, 1.0)
    weights = rng.normal_array(len(subj) * h + 5 * g + len(curr))
    arrays = [rng.normal_array((len(subj), h)), rng.normal_array((5, g)),
              rng.normal_array(len(curr))]
    assert fd_error(lambda z, y, c: layers.weighted_loss(weights, z, sign, y, c, links)[0],
                    arrays) < 1e-6
