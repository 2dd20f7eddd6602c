import numpy as np
import pytest

from conftest import random_sequence, zero_params
from stsg.autodiff import Tensor
from stsg.errors import ContractError
from stsg.rng import RngStream
from stsg.scene import BoundingBox, ObjectNode
import stsg.autodiff as ad
from stsg.spatial import frame_pairs, gcn_propagate, pair_grid, propose_relations
from stsg.temporal import (
    CallCounter,
    Packed,
    aggregate_links,
    encode_temporal_pairs,
    frame_context,
    frame_outputs,
    forward_batch,
    forward_sequence,
    fuse,
    pack,
    relation_logits,
    relevance_scores,
    select_topk,
    to_predictions,
    tracking_links,
)


def make_node(x, y, label, g=4, c=2, score=1.0):
    dist = np.full(g, (1.0 - score) / (g - 1))
    dist[label] = score
    return ObjectNode(BoundingBox(x, y, 0.1, 0.1), dist, np.zeros(c))


def forward_packed(sequences, params, mode, variant="sparse", k=1):
    """Per-frame outputs of one packed forward pass over several sequences."""
    packed = Packed.join([pack(seq, mode, variant, params.dims) for seq in sequences])
    return frame_outputs(packed, forward_batch(packed, params, k))


def classify_relations(fused, params):
    """One frame's relation probabilities as an (N, N, H) grid, zero diagonal."""
    n = fused.shape[0]
    subj, obj = frame_pairs([n])
    return pair_grid(ad.sigmoid(relation_logits(fused, subj, obj, params)).data, n)


def tracking_connections(nodes_t, nodes_tm1):
    """`tracking_links` on one frame pair, as a binary (N_t, N_prev) mask."""
    nodes = nodes_t + nodes_tm1
    boxes = np.stack([o.box.as_array() for o in nodes])
    labels = np.array([o.label for o in nodes])
    curr = np.repeat(np.arange(len(nodes_t)), len(nodes_tm1))
    prev = len(nodes_t) + np.tile(np.arange(len(nodes_tm1)), len(nodes_t))
    return tracking_links(boxes, labels, curr, prev).reshape(len(nodes_t), -1).astype(int)


# ---------------------------------------------------------------------------
# relevance kernel


def test_relevance_squared_norm():
    feats = Tensor([[1.0, 2.0]])
    gamma = relevance_scores(feats, feats, Tensor(np.eye(2)))
    assert gamma.data[0, 0] == 5.0


def test_relevance_orthogonal():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0, 1.0]])
    assert relevance_scores(a, b, Tensor(np.eye(2))).data[0, 0] == 0.0


def test_relevance_matches_bruteforce_and_projects_once_per_node():
    rng = RngStream(21)
    for trial in range(20):
        nt, ntm1, m, d = rng.integer(4) + 1, rng.integer(4) + 1, 6, 3
        feats_t = rng.normal_array((nt, m))
        feats_tm1 = rng.normal_array((ntm1, m))
        phi = rng.normal_array((m, d))
        counter = CallCounter()
        got = relevance_scores(Tensor(feats_t), Tensor(feats_tm1), Tensor(phi), counter).data
        assert counter.count == nt + ntm1
        # brute force: project per pair, then dot
        want = np.zeros((nt, ntm1))
        for j in range(nt):
            for k in range(ntm1):
                want[j, k] = np.dot(feats_t[j] @ phi, feats_tm1[k] @ phi)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_kernel_symmetry():
    rng = RngStream(22)
    a = Tensor(rng.normal_array((3, 5)))
    b = Tensor(rng.normal_array((4, 5)))
    phi = Tensor(rng.normal_array((5, 2)))
    ab = relevance_scores(a, b, phi).data
    ba = relevance_scores(b, a, phi).data
    np.testing.assert_allclose(ab.T, ba, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# top-k selection


def test_topk_argmax_row():
    np.testing.assert_array_equal(select_topk(np.array([[0.1, 0.9, 0.5]]), 1), [[0, 1, 0]])


def test_topk_saturates():
    np.testing.assert_array_equal(select_topk(np.array([[0.3, 0.1, 0.2]]), 5), [[1, 1, 1]])


def test_topk_tie_breaks_to_lowest_index():
    np.testing.assert_array_equal(select_topk(np.array([[0.5, 0.5]]), 1), [[1, 0]])


def test_topk_matches_stable_sort_oracle():
    rng = RngStream(23)
    for _ in range(200):
        nt, ntm1 = rng.integer(5) + 1, rng.integer(5) + 1
        k = rng.integer(ntm1 + 2) + 1
        # coarse values force frequent ties
        gamma = np.round(rng.uniform_array((nt, ntm1)), 1)
        got = select_topk(gamma, k)
        want = np.zeros_like(got)
        for j in range(nt):
            order = sorted(range(ntm1), key=lambda i: (-gamma[j, i], i))
            want[j, order[: min(k, ntm1)]] = 1
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# context, encoding, aggregation, fusion


def one_frame(n):
    return np.zeros(n, dtype=int)


def test_frame_context_single_node():
    feats = Tensor([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(frame_context(feats, one_frame(1), 1).data[0], [1.0, 2.0, 3.0])


def test_frame_context_midpoint():
    feats = Tensor([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(frame_context(feats, one_frame(2), 1).data[0], [0.5, 0.5])


def test_frame_context_matches_column_mean():
    arr = RngStream(24).normal_array((5, 7))
    np.testing.assert_allclose(frame_context(Tensor(arr), one_frame(5), 1).data[0],
                               arr.mean(axis=0), rtol=0, atol=1e-12)
    # packed frames: one mean per frame
    frames = np.array([0, 0, 1, 1, 1])
    got = frame_context(Tensor(arr), frames, 2).data
    np.testing.assert_allclose(got, [arr[:2].mean(axis=0), arr[2:].mean(axis=0)],
                               rtol=0, atol=1e-12)


def test_frame_context_rejects_empty():
    with pytest.raises(ContractError):
        frame_context(Tensor(np.zeros((0, 3))), one_frame(0), 1)
    with pytest.raises(ContractError):
        frame_context(Tensor(np.zeros((2, 3))), np.array([0, 2]), 3)


def encode_one(feat_j, feat_k, context, params):
    """One (j, k) link encoded by the batched encoder."""
    out = encode_temporal_pairs(Tensor(np.stack([feat_j, feat_k])), np.array([0]),
                                np.array([1]), Tensor(context.reshape(1, -1)), params)
    return out.data[0]


def test_encode_temporal_zero_params_gives_zero(dims):
    p = zero_params(dims)
    rng = RngStream(25)
    out = encode_one(rng.normal_array(dims.m), rng.normal_array(dims.m),
                     rng.normal_array(dims.m), p)
    assert out.shape == (dims.m,)
    np.testing.assert_array_equal(out, np.zeros(dims.m))


def test_encode_temporal_matches_direct_substitution(dims, params):
    rng = RngStream(26)
    a, b, g = rng.normal_array(dims.m), rng.normal_array(dims.m), rng.normal_array(dims.m)
    got = encode_one(a, b, g, params)

    def mlp(x, w1, b1, w2, b2):
        return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2

    inner = mlp(np.concatenate([a, b]), params["temporal.fg.w1"].data,
                params["temporal.fg.b1"].data, params["temporal.fg.w2"].data,
                params["temporal.fg.b2"].data)
    want = mlp(np.concatenate([g, inner]), params["temporal.ftau.w1"].data,
               params["temporal.ftau.b1"].data, params["temporal.ftau.w2"].data,
               params["temporal.ftau.b2"].data)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_aggregate_single_link_cancels_weight():
    v = np.array([1.0, -2.0, 3.0])
    out = aggregate_links(Tensor([0.7]), Tensor(v.reshape(1, 3)), np.array([0]), 1).data
    np.testing.assert_allclose(out[0], v, rtol=0, atol=1e-12)


def test_aggregate_equal_weights_average():
    t1, t2 = np.array([2.0, 0.0]), np.array([0.0, 4.0])
    out = aggregate_links(Tensor([0.5, 0.5]), Tensor(np.stack([t1, t2])),
                          np.array([0, 0]), 1).data
    np.testing.assert_allclose(out[0], (t1 + t2) / 2, rtol=0, atol=1e-12)


def test_aggregate_weighted_example():
    v1, v2 = np.array([1.0, 1.0]), np.array([5.0, -3.0])
    out = aggregate_links(Tensor([1.0, 3.0]), Tensor(np.stack([v1, v2])),
                          np.array([0, 0]), 1).data
    np.testing.assert_allclose(out[0], (v1 + 3 * v2) / 4.0, rtol=0, atol=1e-12)


def test_aggregate_near_zero_denominator_falls_back_to_uniform():
    t1, t2 = np.array([2.0, 0.0]), np.array([0.0, 6.0])
    out = aggregate_links(Tensor([1.0, -1.0 + 1e-12]), Tensor(np.stack([t1, t2])),
                          np.array([0, 0]), 1).data
    np.testing.assert_allclose(out[0], (t1 + t2) / 2, rtol=0, atol=1e-12)


def test_aggregate_no_links_is_zero():
    out = aggregate_links(Tensor(np.zeros(0)), Tensor(np.zeros((0, 4))),
                          np.array([], dtype=int), 3).data
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_fuse_identities():
    a = Tensor([1.0, 2.0])
    z = Tensor([0.0, 0.0])
    np.testing.assert_array_equal(fuse(a, z).data, a.data)
    np.testing.assert_array_equal(fuse(z, a).data, a.data)
    rng = RngStream(27)
    x, y = rng.normal_array(4), rng.normal_array(4)
    np.testing.assert_array_equal(fuse(Tensor(x), Tensor(y)).data, x + y)


# ---------------------------------------------------------------------------
# relation classification


def test_classify_zero_head_gives_half(dims):
    p = zero_params(dims)
    fused = Tensor(RngStream(28).normal_array((3, dims.m)))
    probs = classify_relations(fused, p)
    off = ~np.eye(3, dtype=bool)
    assert np.all(probs[off] == 0.5)
    assert np.all(probs[~off] == 0.0)


def test_classify_is_asymmetric(dims, params):
    fused = Tensor(RngStream(29).normal_array((2, dims.m)))
    probs = classify_relations(fused, params)
    assert not np.allclose(probs[0, 1], probs[1, 0])


def test_classify_matches_direct_substitution(dims, params):
    feats = RngStream(30).normal_array((2, dims.m))
    got = classify_relations(Tensor(feats), params)
    w, b = params["rel.w"].data, params["rel.b"].data
    for i, j in [(0, 1), (1, 0)]:
        z = np.concatenate([feats[i], feats[j]]) @ w + b
        np.testing.assert_allclose(got[i, j], 1 / (1 + np.exp(-z)), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# tracking connections


def test_tracking_unique_match():
    prev = [make_node(0.1, 0.1, label=2)]
    curr = [make_node(0.5, 0.5, label=2)]
    np.testing.assert_array_equal(tracking_connections(curr, prev), [[1]])


def test_tracking_label_missing_gives_zero_row():
    prev = [make_node(0.1, 0.1, label=1)]
    curr = [make_node(0.5, 0.5, label=2)]
    np.testing.assert_array_equal(tracking_connections(curr, prev), [[0]])


def test_tracking_picks_nearest_center():
    prev = [make_node(0.1, 0.1, label=3), make_node(0.8, 0.8, label=3)]
    curr = [make_node(0.2, 0.2, label=3)]
    np.testing.assert_array_equal(tracking_connections(curr, prev), [[1, 0]])


# ---------------------------------------------------------------------------
# whole forward


def spatial_stage(feats, params):
    """One frame's proposal and GCN update."""
    subj, obj = frame_pairs([feats.shape[0]])
    proposal = propose_relations(feats, subj, obj, params)
    return gcn_propagate(feats, subj, obj, proposal, params)


def spatial_only_oracle(sequence, params, mode):
    """Compose the per-frame ops directly with no temporal stage."""
    from stsg.temporal import nodes_for_mode
    from stsg.params import linear

    result = []
    for frame in sequence.frames:
        nodes = nodes_for_mode(frame, mode, params.dims.g)
        feats = Tensor(np.stack([o.node_feat for o in nodes]))
        updated = spatial_stage(feats, params)
        probs = classify_relations(updated, params)
        if mode == "predcls":
            dists = np.stack([o.label_dist for o in nodes])
        else:
            dists = ad.softmax(linear(updated, params["label.w"], params["label.b"]), axis=-1).data
        result.append((dists, probs, updated.data))
    return result


def test_single_frame_equals_spatial_only(dims, params):
    rng = RngStream(31)
    for trial in range(10):
        seq = random_sequence(rng.split(trial), dims, n_frames=1)
        got = forward_sequence(seq, params, mode="sgcls", variant="sparse", k=1)
        want = spatial_only_oracle(seq, params, "sgcls")
        np.testing.assert_array_equal(got[0].relation_probs.data, want[0][1])
        np.testing.assert_array_equal(got[0].fused.data, want[0][2])


def test_saturated_sparse_equals_dense(dims, params):
    rng = RngStream(32)
    for trial in range(10):
        seq = random_sequence(rng.split(trial), dims, n_frames=3, n_min=2, n_max=4)
        sparse = forward_sequence(seq, params, mode="sgcls", variant="sparse", k=10)
        dense = forward_sequence(seq, params, mode="sgcls", variant="dense")
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(a.relation_probs.data, b.relation_probs.data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.fused.data, b.fused.data, rtol=0, atol=1e-12)


def test_forced_empty_links_equals_spatial_exactly(dims, params):
    rng = RngStream(33)
    for trial in range(5):
        seq = random_sequence(rng.split(trial), dims, n_frames=3)
        forced = forward_sequence(
            seq, params, mode="sgdet", variant="sparse", k=1,
            link_mask_fn=lambda gamma, a, b: np.zeros(gamma.shape, dtype=int),
        )
        plain = forward_sequence(seq, params, mode="sgdet", variant="spatial")
        for a, b in zip(forced, plain):
            np.testing.assert_array_equal(a.relation_probs.data, b.relation_probs.data)
            np.testing.assert_array_equal(a.fused.data, b.fused.data)


def test_forward_matches_step_by_step_composition(dims, params):
    rng = RngStream(34)
    seq = random_sequence(rng, dims, n_frames=3, n_min=2, n_max=3)
    other = random_sequence(rng.split(1), dims, n_frames=2)
    # seq's frames lead a packed batch that also holds another sequence
    got = forward_packed([seq, other], params, mode="sgcls", variant="sparse", k=1)

    prev_updated = None
    prev_nodes = None
    from stsg.temporal import nodes_for_mode

    for t, frame in enumerate(seq.frames):
        nodes = nodes_for_mode(frame, "sgcls", dims.g)
        feats = Tensor(np.stack([o.node_feat for o in nodes]))
        updated = spatial_stage(feats, params)
        n = len(nodes)
        if prev_updated is None:
            fused = updated
        else:
            gamma = relevance_scores(updated, prev_updated, params["temporal.phi"]).data
            eta = select_topk(gamma, 1)
            curr_idx, prev_idx = np.nonzero(eta)
            ctx = frame_context(updated, one_frame(n), 1)
            tau = encode_temporal_pairs(ad.concat([updated, prev_updated]), curr_idx,
                                        n + prev_idx,
                                        ad.gather_rows(ctx, one_frame(len(curr_idx))), params)
            zeta = aggregate_links(Tensor(gamma[curr_idx, prev_idx]), tau, curr_idx, n)
            fused = fuse(updated, zeta)
        probs = classify_relations(fused, params)
        np.testing.assert_allclose(got[t].relation_probs.data, probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[t].fused.data, fused.data, rtol=0, atol=1e-12)
        prev_updated, prev_nodes = updated, nodes


def test_sparse_link_counts(dims, params):
    rng = RngStream(35)
    seq = random_sequence(rng, dims, n_frames=4, n_min=2, n_max=5)
    for k in (1, 2):
        outs = forward_sequence(seq, params, mode="sgcls", variant="sparse", k=k)
        for t in range(1, len(outs)):
            n_prev = outs[t - 1].n
            expected = outs[t].n * min(k, n_prev)
            assert len(outs[t].links) == expected
            per_node = np.zeros(outs[t].n, dtype=int)
            for link in outs[t].links:
                per_node[link.curr_index] += 1
            assert np.all(per_node == min(k, n_prev))


def test_empty_frame_breaks_chain(dims, params):
    seq = random_sequence(RngStream(36), dims, n_frames=3)
    seq.frames[1].detections = []
    outs = forward_sequence(seq, params, mode="sgdet", variant="sparse", k=1)
    assert outs[1].n == 0
    assert outs[1].relation_probs is None
    # the frame after the gap restarts with no temporal links
    assert outs[2].links == []
    preds = to_predictions(outs, dims)
    assert preds[1].relation_probs.shape == (0, 0, dims.h)


@pytest.mark.parametrize("variant", ["sparse", "dense", "tracking"])
def test_packed_links_stay_within_a_sequence(dims, params, variant):
    rng = RngStream(40)
    gap = random_sequence(rng, dims, n_frames=3)
    gap.frames[1].objects, gap.frames[1].triplets, gap.frames[1].detections = [], [], []
    seqs = [gap, random_sequence(rng.split(1), dims, n_frames=2),
            random_sequence(rng.split(2), dims, n_frames=2)]
    for mode in ("predcls", "sgcls", "sgdet"):
        packed = Packed.join([pack(seq, mode, variant, dims) for seq in seqs])
        # every candidate joins a node to one of the frame right before it
        assert np.all(packed.node_frame[packed.cand_curr]
                      == packed.node_frame[packed.cand_prev] + 1)
        outs = frame_outputs(packed, forward_batch(packed, params, 10))
        # neither the frame after the gap nor the first frame of a sequence
        # links back, though the frame packed before each has nodes
        for t in (2, 3, 5):
            assert outs[t].n > 0 and outs[t - 1 - (t == 2)].n > 0
            assert outs[t].gamma is None and outs[t].links == []
        if variant != "tracking":
            for t in (4, 6):
                assert len(outs[t].links) == outs[t].n * outs[t - 1].n


def test_forward_permutation_equivariance(dims, params):
    rng = RngStream(37)
    for trial in range(5):
        seq = random_sequence(rng.split(trial), dims, n_frames=3, n_min=2, n_max=4)
        other = random_sequence(rng.split(100 + trial), dims, n_frames=2)
        base = forward_packed([seq, other], params, mode="sgdet", variant="sparse", k=1)
        perms = [rng.permutation(len(f.detections)) for f in seq.frames]
        import copy

        shuffled = copy.deepcopy(seq)
        for f, p in zip(shuffled.frames, perms):
            f.detections = [f.detections[i] for i in p]
        out = forward_packed([shuffled, other], params, mode="sgdet", variant="sparse", k=1)
        for t, (a, b) in enumerate(zip(base[:len(perms)], out)):
            p = perms[t]
            np.testing.assert_allclose(b.fused.data, a.fused.data[p], rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.relation_probs.data,
                                       a.relation_probs.data[np.ix_(p, p)], rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.label_dists.data, a.label_dists.data[p],
                                       rtol=0, atol=1e-12)


def test_probabilities_strictly_inside_unit_interval(dims, params):
    seq = random_sequence(RngStream(38), dims, n_frames=3)
    outs = forward_sequence(seq, params, mode="sgcls", variant="dense")
    for out in outs:
        p = out.relation_probs.data
        off = ~np.eye(out.n, dtype=bool)
        assert np.all((p[off] > 0.0) & (p[off] < 1.0))
        assert np.all(p[np.eye(out.n, dtype=bool)] == 0.0)


def test_mode_and_variant_validation(dims, params):
    seq = random_sequence(RngStream(39), dims, n_frames=1)
    with pytest.raises(ContractError):
        forward_sequence(seq, params, mode="detcls")
    with pytest.raises(ContractError):
        forward_sequence(seq, params, mode="sgdet", variant="lstm")
    with pytest.raises(ContractError):
        forward_sequence(seq, params, mode="sgdet", variant="sparse", k=0)
