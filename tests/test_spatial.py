import numpy as np

from conftest import node_frames, random_node_row, zero_params
from fixtures import pair_grid
from primitives import segment_sum
from stsg.autodiff import Tensor
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.spatial import (
    frame_pairs,
    gcn_layer,
    gcn_propagate,
    propose_relations,
)


def proposal_grid(feats, p):
    """One frame's proposal as its (N, N, H) grid. `propose_relations` sums
    each subject's pairs, so every ordered pair is put in a two-node frame of
    its own, where the subject's sum is its one pair."""
    n, m = feats.shape
    subj, obj = frame_pairs([n])
    rows = feats[np.stack([subj, obj], axis=1).reshape(-1)].reshape(-1, m)
    two_subj, two_obj = frame_pairs([2] * len(subj))
    sums = propose_relations(Tensor(rows), two_subj, two_obj, p).data
    return pair_grid(sums[0::2], n)


def edge_sums(eps, subj, n):
    """The per-node sums of the pairs' edge features that `gcn_layer` takes."""
    return segment_sum(Tensor(eps), subj, n)


def full_connectivity(n):
    return 1.0 - np.eye(n)


def numpy_proposal_oracle(feats, p):
    """Direct per-pair evaluation of the two-layer scorer."""
    n = feats.shape[0]
    h = p["prop.b2"].data.shape[0]
    out = np.zeros((n, n, h))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            z = np.concatenate([feats[i], feats[j]])
            hid = np.maximum(z @ p["prop.w1"].data + p["prop.b1"].data, 0.0)
            out[i, j] = 1.0 / (1.0 + np.exp(-(hid @ p["prop.w2"].data + p["prop.b2"].data)))
    return out


def numpy_gcn_oracle(feats, theta, eps, layers):
    """Per-node re-derivation of the propagation rule."""
    cur = feats.copy()
    for w_node, w_edge, bias in layers:
        nxt = np.zeros_like(cur)
        for i in range(cur.shape[0]):
            acc = cur[i].copy()
            for j in range(cur.shape[0]):
                if theta[i, j] != 0.0:
                    acc = acc + theta[i, j] * (cur[j] @ w_node + bias + eps[i, j] @ w_edge)
            nxt[i] = np.maximum(acc, 0.0)
        cur = nxt
    return cur


def test_zero_scorer_gives_half_everywhere_off_diagonal(dims):
    p = zero_params(dims)
    r = proposal_grid(RngStream(3).normal_array((4, dims.m)), p)
    off = ~np.eye(4, dtype=bool)
    assert np.all(r[off] == 0.5)
    assert np.all(r[np.eye(4, dtype=bool)] == 0.0)


def test_single_node_proposal_is_zero(dims, params):
    r = proposal_grid(RngStream(4).normal_array((1, dims.m)), params)
    assert r.shape == (1, 1, dims.h)
    assert np.all(r == 0.0)


def test_proposal_matches_hand_evaluated_perceptron(dims, params):
    feats = RngStream(5).normal_array((2, dims.m))
    got = proposal_grid(feats, params)
    want = numpy_proposal_oracle(feats, params)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gcn_empty_neighborhood_is_relu(dims, params):
    # three frames of one node each: no node has a partner
    rng = RngStream(6)
    feats = rng.normal_array((3, dims.m))
    subj, obj = frame_pairs([1, 1, 1])
    eps = rng.normal_array((0, dims.h))
    out = gcn_layer(Tensor(feats), node_frames([1, 1, 1]), edge_sums(eps, subj, 3),
                    params["gcn.0.w_node"], params["gcn.0.w_edge"], params["gcn.0.bias"]).data
    np.testing.assert_array_equal(out, np.maximum(feats, 0.0))


def test_gcn_two_node_identity_weights(dims):
    m = dims.m
    nu = np.zeros((2, m))
    nu[0, 0] = 1.0
    nu[1, 1] = 1.0
    subj, obj = frame_pairs([2])
    eps = np.zeros((2, dims.h))
    out = gcn_layer(Tensor(nu), node_frames([2]), edge_sums(eps, subj, 2),
                    Tensor(np.eye(m)), Tensor(np.zeros((dims.h, m))), Tensor(np.zeros(m))).data
    # each node keeps its own row and takes the other's
    expected = np.zeros((2, m))
    expected[:, :2] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_gcn_layer_permutation_equivariance(dims, params):
    rng = RngStream(7)
    n = 5
    feats = rng.normal_array((n, dims.m))
    eps = rng.normal_array((n, n, dims.h))
    subj, obj = frame_pairs([n])
    frame = node_frames([n])
    base = gcn_layer(Tensor(feats), frame, edge_sums(eps[subj, obj], subj, n),
                     params["gcn.0.w_node"], params["gcn.0.w_edge"], params["gcn.0.bias"]).data
    perm = rng.permutation(n)
    p_eps = eps[np.ix_(perm, perm)]
    shuffled = gcn_layer(Tensor(feats[perm]), frame, edge_sums(p_eps[subj, obj], subj, n),
                         params["gcn.0.w_node"], params["gcn.0.w_edge"], params["gcn.0.bias"]).data
    np.testing.assert_allclose(shuffled, base[perm], rtol=0, atol=1e-12)


def test_propagate_single_layer_equals_layer(dims):
    p = ModelParams.init(dims, seed=2, gcn_layers=1)
    rng = RngStream(8)
    feats = rng.normal_array((3, dims.m))
    subj, obj = frame_pairs([3])
    eps = rng.normal_array((3, 3, dims.h))[subj, obj]
    frame = node_frames([3])
    via_propagate = gcn_propagate(Tensor(feats), frame, edge_sums(eps, subj, 3), p).data
    via_layer = gcn_layer(Tensor(feats), frame, edge_sums(eps, subj, 3),
                          p["gcn.0.w_node"], p["gcn.0.w_edge"], p["gcn.0.bias"]).data
    np.testing.assert_array_equal(via_propagate, via_layer)


def test_propagate_two_layers_is_composition(dims, params):
    rng = RngStream(9)
    feats = rng.normal_array((3, dims.m))
    subj, obj = frame_pairs([3])
    frame = node_frames([3])
    t_feats, t_eps = Tensor(feats), Tensor(rng.normal_array((3, 3, dims.h))[subj, obj])
    sums = segment_sum(t_eps, subj, 3)
    once = gcn_layer(t_feats, frame, sums, params["gcn.0.w_node"],
                     params["gcn.0.w_edge"], params["gcn.0.bias"])
    twice = gcn_layer(once, frame, sums, params["gcn.1.w_node"],
                      params["gcn.1.w_edge"], params["gcn.1.bias"]).data
    np.testing.assert_array_equal(gcn_propagate(t_feats, frame, sums, params).data, twice)


def test_propagate_matches_rederivation_oracle(dims, params):
    rng = RngStream(10)
    feats = rng.normal_array((3, dims.m))
    theta = full_connectivity(3)
    eps = rng.normal_array((3, 3, dims.h))
    subj, obj = frame_pairs([3])
    got = gcn_propagate(Tensor(feats), node_frames([3]), edge_sums(eps[subj, obj], subj, 3),
                        params).data
    layers = [
        (params[f"gcn.{i}.w_node"].data, params[f"gcn.{i}.w_edge"].data, params[f"gcn.{i}.bias"].data)
        for i in range(2)
    ]
    np.testing.assert_allclose(got, numpy_gcn_oracle(feats, theta, eps, layers),
                               rtol=0, atol=1e-12)


def spatial_stage(node_lists, params):
    """Proposal sums and propagation over frames of node rows packed one after another."""
    feats = [row for nodes in node_lists for row in nodes]
    feats = Tensor(np.stack(feats) if feats else np.zeros((0, params.dims.m)))
    sizes = [len(nodes) for nodes in node_lists]
    subj, obj = frame_pairs(sizes)
    sums = propose_relations(feats, subj, obj, params)
    return sums.data, gcn_propagate(feats, node_frames(sizes), sums, params).data


def test_outputs_finite_for_finite_inputs(dims, params):
    rng = RngStream(11)
    nodes = [random_node_row(rng, dims) for _ in range(4)]
    relation_sums, updated_feats = spatial_stage([nodes], params)
    assert np.all(np.isfinite(updated_feats))
    assert np.all(np.isfinite(relation_sums))
    # each node sums three pair probabilities
    assert np.all((relation_sums >= 0) & (relation_sums <= 3))
    grid = proposal_grid(np.stack(nodes), params)
    assert np.all(np.isfinite(grid))
    assert np.all((grid >= 0) & (grid <= 1))


def test_spatial_stage_without_nodes(dims, params):
    relation_sums, updated_feats = spatial_stage([[]], params)
    assert relation_sums.shape == (0, dims.h)
    assert updated_feats.shape == (0, dims.m)


def test_frame_pairs_are_the_off_diagonal_pairs_of_each_frame():
    sizes = [3, 0, 1, 2]
    subj, obj = frame_pairs(sizes)
    want, start = [], 0
    for n in sizes:
        want += [(start + i, start + j) for i in range(n) for j in range(n) if i != j]
        start += n
    assert list(zip(subj.tolist(), obj.tolist())) == want


def test_packed_frames_equal_frames_one_at_a_time(dims, params):
    # no message crosses a frame boundary: packing frames changes no value
    # beyond summation order
    rng = RngStream(12)
    frames = [[random_node_row(rng, dims) for _ in range(n)] for n in (3, 1, 0, 4)]
    packed_rel, packed_upd = spatial_stage(frames, params)
    rel = [spatial_stage([nodes], params) for nodes in frames]
    np.testing.assert_allclose(packed_rel, np.concatenate([r for r, _ in rel]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(packed_upd, np.concatenate([u for _, u in rel]),
                               rtol=0, atol=1e-12)
