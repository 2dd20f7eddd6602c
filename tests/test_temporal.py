import pickle
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primitives as prim
from conftest import (
    MatmulRows,
    edit_frames,
    empty_frame,
    encode_frame,
    frame_columns,
    frame_pair_links,
    frame_dicts,
    random_sequence,
    select_no_links,
    with_frames,
    zero_params,
)
from fixtures import pair_grid, relation_probs
from stsg import blas
from stsg.autodiff import Tensor
from stsg.config import MODES, VARIANTS, Dims, WorldConfig
from stsg.errors import ContractError
from stsg.io import sequence_from_json, sequence_to_json
from stsg.layers import frame_context
from stsg.params import ModelParams
from stsg.rng import RngStream
import stsg.autodiff as ad
from stsg.spatial import frame_pairs, gcn_propagate, propose_relations
from stsg.synthgen import generate_scene
from stsg.temporal import (
    Packed,
    aggregate_links,
    encode_temporal_pairs,
    frame_predictions,
    forward_batch,
    forward_sequence,
    link_relevance,
    pack,
    relation_logits,
    topk_links,
    tracking_links,
)


def make_node(x, y, label, g=4, c=2, score=1.0):
    """A [box | label dist | visual] node row of a 0.1-sided box."""
    dist = np.full(g, (1.0 - score) / (g - 1))
    dist[label] = score
    return np.concatenate([[x, y, 0.1, 0.1], dist, np.zeros(c)])


def forward_packed(sequences, params, mode, variant="sparse", k=1):
    """Per-frame outputs of one packed forward pass over several sequences."""
    packed = Packed.join([pack(seq, mode, variant, params.dims) for seq in sequences])
    return frame_predictions(packed, forward_batch(packed, params, k), params.dims.g,
                             [frame for seq in sequences for frame in seq.frames])


def relevance(feats_t, feats_tm1, phi):
    """`link_relevance` over every link of one frame pair, as an (N_t, N_prev) grid."""
    n_t, n_prev = feats_t.shape[0], feats_tm1.shape[0]
    curr, prev = frame_pair_links(n_t, n_prev)
    gamma = link_relevance(prim.concat([feats_t, feats_tm1]), curr, prev, phi)
    return gamma.data.reshape(n_t, n_prev)


def topk_mask(gamma, k):
    """`topk_links` over one frame pair's (N_t, N_prev) grid, as a binary mask."""
    n_t, n_prev = gamma.shape
    rows, _ = frame_pair_links(n_t, n_prev)
    return topk_links(gamma.reshape(-1), rows, k).reshape(n_t, n_prev).astype(np.int64)


def classify_relations(fused, params):
    """One frame's relation probabilities as an (N, N, H) grid, zero diagonal."""
    n = fused.shape[0]
    subj, obj = frame_pairs([n])
    return pair_grid(prim.sigmoid(relation_logits(fused, subj, obj, params)).data, n)


def tracking_connections(nodes_t, nodes_tm1, g=4):
    """`tracking_links` on one frame pair of `make_node` rows, as a binary
    (N_t, N_prev) mask."""
    nodes = np.array(nodes_t + nodes_tm1)
    boxes = nodes[:, :4]
    labels = np.argmax(nodes[:, 4:4 + g], axis=1)
    curr = np.repeat(np.arange(len(nodes_t)), len(nodes_tm1))
    prev = len(nodes_t) + np.tile(np.arange(len(nodes_tm1)), len(nodes_t))
    return tracking_links(boxes, labels, curr, prev).reshape(len(nodes_t), -1).astype(int)


# ---------------------------------------------------------------------------
# relevance kernel


def test_relevance_squared_norm():
    feats = Tensor([[1.0, 2.0]])
    gamma = relevance(feats, feats, Tensor(np.eye(2)))
    assert gamma[0, 0] == 5.0


def test_relevance_orthogonal():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0, 1.0]])
    assert relevance(a, b, Tensor(np.eye(2)))[0, 0] == 0.0


def test_relevance_matches_bruteforce_and_projects_once_per_node(monkeypatch):
    rng = RngStream(21)
    matmul = MatmulRows(monkeypatch)
    for trial in range(20):
        nt, ntm1, m, d = rng.integer(4) + 1, rng.integer(4) + 1, 6, 3
        feats_t = rng.normal_array((nt, m))
        feats_tm1 = rng.normal_array((ntm1, m))
        phi = rng.normal_array((m, d))
        matmul.rows = 0
        got = relevance(Tensor(feats_t), Tensor(feats_tm1), Tensor(phi))
        assert matmul.rows == nt + ntm1
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
    ab = relevance(a, b, phi)
    ba = relevance(b, a, phi)
    np.testing.assert_allclose(ab.T, ba, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# top-k selection


def test_topk_argmax_row():
    np.testing.assert_array_equal(topk_mask(np.array([[0.1, 0.9, 0.5]]), 1), [[0, 1, 0]])


def test_topk_saturates():
    np.testing.assert_array_equal(topk_mask(np.array([[0.3, 0.1, 0.2]]), 5), [[1, 1, 1]])


def test_topk_tie_breaks_to_lowest_index():
    np.testing.assert_array_equal(topk_mask(np.array([[0.5, 0.5]]), 1), [[1, 0]])


def test_topk_matches_stable_sort_oracle():
    rng = RngStream(23)
    for _ in range(200):
        nt, ntm1 = rng.integer(5) + 1, rng.integer(5) + 1
        k = rng.integer(ntm1 + 2) + 1
        # coarse values force frequent ties
        gamma = np.round(rng.uniform_array((nt, ntm1)), 1)
        got = topk_mask(gamma, k)
        want = np.zeros_like(got)
        for j in range(nt):
            order = sorted(range(ntm1), key=lambda i: (-gamma[j, i], i))
            want[j, order[: min(k, ntm1)]] = 1
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# context, encoding, aggregation, fusion


def one_frame(n):
    return np.zeros(n, dtype=int)


def counts_of(node_frame, n_frames):
    """The (n_frames, 1) float64 node counts of the frames node_frame names."""
    return np.bincount(node_frame, minlength=n_frames).reshape(-1, 1).astype(np.float64)


def one_frame_context(feats):
    """frame_context of rows that are all in one frame."""
    n = len(feats)
    return frame_context(feats, one_frame(n), 1, counts_of(one_frame(n), 1))[0][0]


def test_frame_context_single_node():
    feats = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(one_frame_context(feats), [1.0, 2.0, 3.0])


def test_frame_context_midpoint():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(one_frame_context(feats), [0.5, 0.5])


def test_frame_context_matches_column_mean():
    arr = RngStream(24).normal_array((5, 7))
    np.testing.assert_allclose(one_frame_context(arr), arr.mean(axis=0), rtol=0, atol=1e-12)
    # packed frames: one mean per frame
    frames = np.array([0, 0, 1, 1, 1])
    got, counts = frame_context(arr, frames, 2, counts_of(frames, 2))
    np.testing.assert_allclose(got, [arr[:2].mean(axis=0), arr[2:].mean(axis=0)],
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(counts, [[2.0], [3.0]])


def test_frame_context_divides_by_the_counts_it_is_given():
    arr = RngStream(25).normal_array((5, 4))
    plan = ad.SegmentPlan([0, 0, 1, 1, 1], 2)
    given = np.array([[2.0], [3.0]])
    got, kept = frame_context(arr, plan, 2, given)
    assert kept is given
    assert np.array_equal(got, frame_context(arr, plan.ids, 2, counts_of(plan.ids, 2))[0])


def encode_one(feat_j, feat_k, context, params):
    """One (j, k) link encoded by the batched encoder; the context is the
    one node of the link's frame."""
    out = encode_temporal_pairs(Tensor(np.stack([feat_j, feat_k, context])),
                                ad.SegmentPlan([1, 2, 0], 3), np.array([0]), np.array([0]),
                                np.array([1]), params, counts_of([1, 2, 0], 3))
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


def link_mean(gamma_sel, tau, curr, n):
    """`aggregate_links` onto zero spatial features: the link mean alone."""
    tau = np.asarray(tau, dtype=np.float64)
    return aggregate_links(Tensor(np.zeros((n, tau.shape[1]))), Tensor(gamma_sel), Tensor(tau),
                           np.asarray(curr, dtype=np.intp), n).data


def test_aggregate_single_link_cancels_weight():
    v = np.array([1.0, -2.0, 3.0])
    out = link_mean([0.7], v.reshape(1, 3), [0], 1)
    np.testing.assert_allclose(out[0], v, rtol=0, atol=1e-12)


def test_aggregate_equal_weights_average():
    t1, t2 = np.array([2.0, 0.0]), np.array([0.0, 4.0])
    out = link_mean([0.5, 0.5], np.stack([t1, t2]), [0, 0], 1)
    np.testing.assert_allclose(out[0], (t1 + t2) / 2, rtol=0, atol=1e-12)


def test_aggregate_weighted_example():
    v1, v2 = np.array([1.0, 1.0]), np.array([5.0, -3.0])
    out = link_mean([1.0, 3.0], np.stack([v1, v2]), [0, 0], 1)
    np.testing.assert_allclose(out[0], (v1 + 3 * v2) / 4.0, rtol=0, atol=1e-12)


def test_aggregate_near_zero_denominator_falls_back_to_uniform():
    t1, t2 = np.array([2.0, 0.0]), np.array([0.0, 6.0])
    out = link_mean([1.0, -1.0 + 1e-12], np.stack([t1, t2]), [0, 0], 1)
    np.testing.assert_allclose(out[0], (t1 + t2) / 2, rtol=0, atol=1e-12)


def test_aggregate_no_links_is_zero():
    out = link_mean(np.zeros(0), np.zeros((0, 4)), [], 3)
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_fuse_identities():
    # the aggregation adds each node's link mean to its spatial features
    def fuse(updated, tau):
        links = np.arange(len(tau))
        return aggregate_links(Tensor(updated), Tensor(np.ones(len(tau))), Tensor(tau), links,
                               len(updated)).data

    a, z = np.array([[1.0, 2.0]]), np.zeros((1, 2))
    np.testing.assert_array_equal(fuse(a, np.zeros((0, 2))), a)
    np.testing.assert_array_equal(fuse(a, z), a)
    np.testing.assert_array_equal(fuse(z, a), a)
    rng = RngStream(27)
    x, y = rng.normal_array((1, 4)), rng.normal_array((1, 4))
    np.testing.assert_array_equal(fuse(x, y), x + y)


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


@pytest.mark.parametrize("world", [
    WorldConfig(),
    WorldConfig(n_objects_min=10, n_objects_max=12, frames=16),
], ids=["default", "10-12-objects"])
def test_forward_tracking_links_equal_tracking_over_the_nodes(dims, params, world):
    # forward_batch reads boxes and argmax labels off the packed node rows;
    # its links are tracking_links over each node's own box and label
    seqs = [generate_scene(dims, world, seed) for seed in (3, 4)]
    for mode in MODES:
        packed = Packed.join([pack(seq, mode, "tracking", dims) for seq in seqs])
        nodes = np.concatenate([encode_frame(f, mode, dims) for seq in seqs
                                for f in frame_columns(seq)])
        boxes = nodes[:, :4]
        labels = np.argmax(nodes[:, 4:4 + dims.g], axis=1)
        want = tracking_links(boxes, labels, packed.cand_curr.ids, packed.cand_prev.ids)
        links = forward_batch(packed, params).links
        assert len(links) > 0
        np.testing.assert_array_equal(links, np.flatnonzero(want))


# ---------------------------------------------------------------------------
# whole forward


def reference_rows(frame: dict, mode: str, dims) -> np.ndarray:
    """A dataset frame record's (n, m) node inputs in a mode, one object at a
    time: [box | labels | visual], the labels one-hot (predcls), the
    detector's distribution or one-hot where none is recorded (sgcls), or a
    detection's own (sgdet)."""
    one_hot = np.eye(dims.g)
    if mode == "sgdet":
        rows = [d["box"] + d["label_dist"] + d["visual"] for d in frame["detections"]]
    else:
        rows = [o["box"] + (one_hot[o["label"]].tolist()
                            if mode == "predcls" or o["det_label_dist"] is None
                            else o["det_label_dist"]) + o["visual"] for o in frame["objects"]]
    return np.array(rows, dtype=np.float64).reshape(-1, dims.m)


def edited_frames(seq, dims) -> list[dict]:
    """A generated sequence's record decoded into frames (`frame_dicts`),
    each detection holding its own visual vector, with frame 1 emptied,
    frame 3 cut to one object and one detection, and frame 2's first object
    recording no detector distribution."""
    frames = frame_dicts(sequence_to_json(seq), dims, named=False)
    frames[1] = {"objects": [], "triplets": [], "detections": []}
    frames[3].update(objects=frames[3]["objects"][:1], triplets=[],
                     detections=frames[3]["detections"][:1])
    frames[2]["objects"][0]["det_label_dist"] = None
    return frames


def edited_record(seq, dims) -> dict:
    """A generated sequence's record with its frames edited (`edited_frames`)."""
    return with_frames(sequence_to_json(seq), edited_frames(seq, dims), dims)


@pytest.mark.parametrize("mode", MODES)
def test_packed_nodes_equal_the_frames_encoded_one_by_one(dims, mode):
    # pack stacks the node matrices the frames are made with; every row must
    # be the bytes of its object encoded on its own, for generated frames and
    # for loaded ones, with an empty frame, the frame after it, a one-node
    # frame and an object without a detector distribution
    for seed in range(5):
        seq = generate_scene(dims, WorldConfig(), seed)
        loaded = sequence_from_json(edited_record(seq, dims), Path("edited.jsonl"), 2, dims)
        for sequence, frames in ((seq, frame_dicts(sequence_to_json(seq), dims, named=False)),
                                 (loaded, edited_frames(seq, dims))):
            packed = pack(sequence, mode, "sparse", dims)
            want = [reference_rows(frame, mode, dims) for frame in frames]
            assert packed.sizes.tolist() == [len(rows) for rows in want]
            assert packed.feats.dtype == np.float64
            assert packed.feats.tobytes() == np.concatenate(want).tobytes()
        assert packed.sizes[1] == 0 and packed.sizes[3] == 1


def test_frame_views_share_the_sequence_columns(dims):
    # a frame is only slices of its sequence's columns: every field of every
    # frame that holds a row shares memory with a column, and each object's
    # box is its gt row's
    seq = generate_scene(dims, WorldConfig(), 3)
    loaded = sequence_from_json(edited_record(seq, dims), Path("edited.jsonl"), 2, dims)
    assert not loaded.frames[2].objects[0].recorded
    for sequence in (seq, loaded, random_sequence(RngStream(8), dims, n_frames=3)):
        columns = (sequence.objects, sequence.triplets, sequence.det_feats)
        for frame, want in zip(sequence.frames, frame_columns(sequence), strict=True):
            for field in fields(frame):
                view = getattr(frame, field.name)
                assert len(view) == 0 or any(np.shares_memory(view, c) for c in columns)
            np.testing.assert_array_equal(frame.objects["box"], want["gt"][:, :4])
            np.testing.assert_array_equal(frame.triplets, want["triplets"])
            np.testing.assert_array_equal(frame.detections["box"], want["det"][:, :4])
        assert sequence.objects["box"].tobytes() == sequence.gt_feats[:, :4].tobytes()


def test_a_pickled_sequence_is_the_same_sequence_and_stays_small(dims):
    # worker processes receive sequences pickled: a round trip keeps the
    # record and the packed node rows in every mode, and each column travels
    # once (the frame views travel not at all: as copies, a frame's objects,
    # triplets and detection rows would travel twice)
    seq = generate_scene(dims, WorldConfig(), 3)
    loaded = sequence_from_json(edited_record(seq, dims), Path("edited.jsonl"), 2, dims)
    for sequence in (seq, loaded, random_sequence(RngStream(8), dims, n_frames=3)):
        assert len(sequence.frames) == len(sequence.n_objects)   # the views exist
        data = pickle.dumps(sequence)
        back = pickle.loads(data)
        assert sequence_to_json(back) == sequence_to_json(sequence)
        for mode in MODES:
            want, got = pack(sequence, mode, "sparse", dims), pack(back, mode, "sparse", dims)
            assert got.feats.tobytes() == want.feats.tobytes()
            np.testing.assert_array_equal(got.sizes, want.sizes)
        # the columns pickled on their own: numpy's framing of a small array
        # is a fixed few hundred bytes, most of a 3-frame random sequence's
        columns = pickle.dumps((
            sequence.gt_feats, sequence.det_feats, sequence.objects, sequence.triplets,
            sequence.n_objects, sequence.n_detections, sequence.n_triplets, sequence.event_labels))
        assert len(data) < 1.1 * len(columns)


def spatial_stage(feats, params):
    """One frame's proposal and GCN update."""
    subj, obj = frame_pairs([feats.shape[0]])
    edge_sums = propose_relations(feats, subj, obj, params)
    return gcn_propagate(feats, subj, obj, edge_sums, params)


def spatial_only_oracle(sequence, params, mode):
    """Compose the per-frame ops directly with no temporal stage."""
    from stsg.params import linear

    result = []
    for frame in frame_columns(sequence):
        nodes = encode_frame(frame, mode, params.dims)
        feats = Tensor(nodes)
        updated = spatial_stage(feats, params)
        probs = classify_relations(updated, params)
        if mode == "predcls":
            dists = nodes[:, 4:4 + params.dims.g]
        else:
            dists = prim.softmax(linear(updated, params["label.w"], params["label.b"]), axis=-1).data
        result.append((dists, probs, updated.data))
    return result


def test_single_frame_equals_spatial_only(dims, params):
    rng = RngStream(31)
    for trial in range(10):
        seq = random_sequence(rng.split(trial), dims, n_frames=1)
        got = forward_sequence(seq, params, mode="sgcls", variant="sparse", k=1)
        want = spatial_only_oracle(seq, params, "sgcls")
        np.testing.assert_array_equal(relation_probs(got[0]), want[0][1])
        np.testing.assert_array_equal(got[0].fused, want[0][2])


def test_saturated_sparse_equals_dense(dims, params):
    rng = RngStream(32)
    for trial in range(10):
        seq = random_sequence(rng.split(trial), dims, n_frames=3, n_min=2, n_max=4)
        sparse = forward_sequence(seq, params, mode="sgcls", variant="sparse", k=10)
        dense = forward_sequence(seq, params, mode="sgcls", variant="dense")
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(relation_probs(a), relation_probs(b),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.fused, b.fused, rtol=0, atol=1e-12)


def test_forced_empty_links_equals_spatial_exactly(dims, params, monkeypatch):
    rng = RngStream(33)
    select_no_links(monkeypatch)
    for trial in range(5):
        seq = random_sequence(rng.split(trial), dims, n_frames=3)
        forced = forward_sequence(seq, params, mode="sgdet", variant="sparse", k=1)
        plain = forward_sequence(seq, params, mode="sgdet", variant="spatial")
        for a, b in zip(forced, plain):
            np.testing.assert_array_equal(relation_probs(a), relation_probs(b))
            np.testing.assert_array_equal(a.fused, b.fused)


def test_forward_matches_step_by_step_composition(dims, params):
    rng = RngStream(34)
    seq = random_sequence(rng, dims, n_frames=3, n_min=2, n_max=3)
    other = random_sequence(rng.split(1), dims, n_frames=2)
    # seq's frames lead a packed batch that also holds another sequence
    got = forward_packed([seq, other], params, mode="sgcls", variant="sparse", k=1)

    prev_updated = None
    prev_nodes = None
    for t, frame in enumerate(frame_columns(seq)):
        nodes = encode_frame(frame, "sgcls", dims)
        feats = Tensor(nodes)
        updated = spatial_stage(feats, params)
        n = len(nodes)
        if prev_updated is None:
            fused = updated
        else:
            gamma = relevance(updated, prev_updated, params["temporal.phi"])
            eta = topk_mask(gamma, 1)
            curr_idx, prev_idx = np.nonzero(eta)
            node_frame = ad.SegmentPlan(np.repeat([0, 1], [n, len(prev_nodes)]), 2)
            tau = encode_temporal_pairs(prim.concat([updated, prev_updated]), node_frame,
                                        one_frame(len(curr_idx)), curr_idx, n + prev_idx,
                                        params, counts_of(node_frame.ids, 2))
            fused = aggregate_links(updated, Tensor(gamma[curr_idx, prev_idx]), tau,
                                    curr_idx, n)
        probs = classify_relations(fused, params)
        np.testing.assert_allclose(relation_probs(got[t]), probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[t].fused, fused.data, rtol=0, atol=1e-12)
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
    f = frame_columns(seq)[1]
    seq = edit_frames(seq, {1: dict(f, det=f["det"][:0])})
    outs = forward_sequence(seq, params, mode="sgdet", variant="sparse", k=1)
    assert outs[1].n == 0
    # the frame after the gap restarts with no temporal links
    assert len(outs[2].links) == 0
    assert relation_probs(outs[1]).shape == (0, 0, dims.h)


@pytest.mark.parametrize("variant", ["spatial", "sparse"])
def test_candidates_equal_the_frame_by_frame_lists(dims, variant):
    # frame t's candidates: each of its nodes with every node of frame t - 1,
    # none after an empty frame; built frame by frame as the reference
    seq = random_sequence(RngStream(42), dims, n_frames=7, n_min=1, n_max=4)
    seq = edit_frames(seq, {t: empty_frame(dims) for t in (1, 4, 5)})
    for mode in MODES:
        packed = pack(seq, mode, variant, dims)
        sizes = packed.sizes.tolist()
        start = np.cumsum([0] + sizes)
        curr, prev = [], []
        for t in range(1, len(sizes)):
            if variant != "spatial":
                for j in range(sizes[t]):
                    curr += [start[t] + j] * sizes[t - 1]
                    prev += list(range(start[t - 1], start[t]))
        assert packed.cand_curr.ids.tolist() == curr
        assert packed.cand_prev.ids.tolist() == prev
        assert len(curr) > 0 or variant == "spatial"


@pytest.mark.parametrize("variant", ["sparse", "dense", "tracking"])
def test_packed_links_stay_within_a_sequence(dims, params, variant):
    rng = RngStream(40)
    gap = random_sequence(rng, dims, n_frames=3)
    gap = edit_frames(gap, {1: empty_frame(dims)})
    seqs = [gap, random_sequence(rng.split(1), dims, n_frames=2),
            random_sequence(rng.split(2), dims, n_frames=2)]
    for mode in ("predcls", "sgcls", "sgdet"):
        packed = Packed.join([pack(seq, mode, variant, dims) for seq in seqs])
        # every candidate joins a node to one of the frame right before it
        node_frame = packed.node_frame.ids
        assert np.all(node_frame[packed.cand_curr.ids]
                      == node_frame[packed.cand_prev.ids] + 1)
        out = forward_batch(packed, params, 10)
        outs = frame_predictions(packed, out, dims.g, [f for seq in seqs for f in seq.frames])
        starts = np.cumsum([0, *packed.sizes])
        cand_curr = packed.cand_curr.ids
        # neither the frame after the gap nor the first frame of a sequence
        # links back, though the frame packed before each has nodes
        for t in (2, 3, 5):
            assert outs[t].n > 0 and outs[t - 1 - (t == 2)].n > 0
            gamma = out.gamma.data[(cand_curr >= starts[t]) & (cand_curr < starts[t + 1])]
            assert gamma.size == 0 and len(outs[t].links) == 0
        if variant != "tracking":
            for t in (4, 6):
                assert len(outs[t].links) == outs[t].n * outs[t - 1].n


@pytest.mark.parametrize("mode", ["sgcls", "sgdet"])
def test_served_probabilities_are_the_taped_softmax_and_sigmoid(dims, params, mode):
    # serving computes them on arrays; the taped ops give the same bits
    seq = random_sequence(RngStream(41), dims, n_frames=3)
    packed = pack(seq, mode, "sparse", dims)
    with blas.one_thread():
        out = forward_batch(packed, params, 1)
    got = forward_sequence(seq, params, mode, "sparse", 1)
    assert np.array_equal(np.concatenate([p.label_dists for p in got]),
                          prim.softmax(out.label_logits, axis=-1).data)
    assert np.array_equal(np.concatenate([p.pair_probs for p in got]),
                          prim.sigmoid(out.relation_logits).data)


def test_forward_permutation_equivariance(dims, params):
    rng = RngStream(37)
    for trial in range(5):
        seq = random_sequence(rng.split(trial), dims, n_frames=3, n_min=2, n_max=4)
        other = random_sequence(rng.split(100 + trial), dims, n_frames=2)
        base = forward_packed([seq, other], params, mode="sgdet", variant="sparse", k=1)
        perms = [rng.permutation(len(f.detections)) for f in seq.frames]
        shuffled = edit_frames(seq, {t: dict(f, det=f["det"][p]) for t, (f, p)
                                     in enumerate(zip(frame_columns(seq), perms))})
        out = forward_packed([shuffled, other], params, mode="sgdet", variant="sparse", k=1)
        for t, (a, b) in enumerate(zip(base[:len(perms)], out)):
            p = perms[t]
            np.testing.assert_allclose(b.fused, a.fused[p], rtol=0, atol=1e-12)
            np.testing.assert_allclose(relation_probs(b),
                                       relation_probs(a)[np.ix_(p, p)], rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.label_dists, a.label_dists[p],
                                       rtol=0, atol=1e-12)


def test_probabilities_strictly_inside_unit_interval(dims, params):
    seq = random_sequence(RngStream(38), dims, n_frames=3)
    outs = forward_sequence(seq, params, mode="sgcls", variant="dense")
    for out in outs:
        p = relation_probs(out)
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


def test_joined_plans_equal_the_plans_of_the_concatenated_lists():
    # frames of 0 to 3 nodes give parts with no pairs or no candidates, and
    # each part's obj and cand_prev lists are unsorted
    dims = Dims()
    rng = RngStream(44)
    seqs = [random_sequence(rng.split(i), dims, n_frames=n_frames, n_min=0, n_max=3)
            for i, n_frames in enumerate((4, 1, 5, 3))]
    for variant in VARIANTS:
        parts = [pack(seq, "sgdet", variant, dims) for seq in seqs]
        joined = Packed.join(parts)
        nodes = np.cumsum([0] + [p.n_nodes for p in parts])
        frames = np.cumsum([0] + [p.n_frames for p in parts])
        for name in ("node_frame", "subj", "obj", "cand_curr", "cand_prev"):
            offsets = frames if name == "node_frame" else nodes
            whole = ad.SegmentPlan(np.concatenate([getattr(p, name).ids + o
                                                   for p, o in zip(parts, offsets)]),
                                   offsets[-1])
            plan = getattr(joined, name)
            assert plan.n == whole.n, (variant, name)
            assert np.array_equal(plan.ids, whole.ids), (variant, name)
            for got, want, field in zip(plan.runs(), whole.runs(),
                                        ("order", "starts", "segments")):
                assert (got is None) == (want is None), (variant, name, field)
                assert want is None or np.array_equal(got, want), (variant, name, field)
        # lists that run in order keep no sort order
        assert joined.node_frame.runs()[0] is None and joined.subj.runs()[0] is None
        assert joined.cand_curr.runs()[0] is None
        assert np.array_equal(joined.feats, np.concatenate([p.feats for p in parts]))
        assert not joined.feats.flags.writeable


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6),
       st.sampled_from(MODES), st.sampled_from(VARIANTS), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_every_derived_plan_passes_the_range_check_unchanged(seed, n_frames, mode, variant, k):
    # pack, join and forward_batch skip the range check of the plans they
    # derive; over frames of 0 to 3 nodes, the check accepts each as it is
    dims = Dims()
    rng = RngStream(seed)
    seqs = [random_sequence(rng.split(i), dims, n_frames=n_frames, n_min=0, n_max=3)
            for i in range(2)]
    derived = []
    build = ad.SegmentPlan.derived

    def spy(ids, n):
        plan = build(ids, n)
        derived.append(plan)
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.SegmentPlan, "derived", spy)
        packed = Packed.join([pack(seq, mode, variant, dims) for seq in seqs])
        if packed.n_nodes:
            forward_batch(packed, ModelParams.init(dims, seed=0), k)
    assert len(derived) >= 15   # five plans of each pack and of the join
    for plan in derived:
        checked = ad.SegmentPlan(plan.ids, plan.n)
        assert checked.ids is plan.ids and checked.n == plan.n and type(plan.n) is int
