import numpy as np
import pytest

from conftest import random_object_node, zero_params
from fixtures import pair_grid
from stsg.autodiff import Tensor, segment_sum
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.spatial import (
    frame_pairs,
    gcn_layer,
    gcn_propagate,
    propose_relations,
)


def proposal_grid(feats, p):
    """One frame's proposal as its (N, N, H) grid."""
    subj, obj = frame_pairs([feats.shape[0]])
    return pair_grid(propose_relations(Tensor(feats), subj, obj, p).data, feats.shape[0])


def edges_of(theta):
    """Pair list of a 0/1 connectivity matrix: (i, j) wherever theta[i, j] != 0."""
    subj, obj = np.nonzero(theta)
    return subj, obj


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
    rng = RngStream(6)
    feats = rng.normal_array((3, dims.m))
    subj, obj = edges_of(np.zeros((3, 3)))
    eps = rng.normal_array((0, dims.h))
    out = gcn_layer(Tensor(feats), subj, obj, edge_sums(eps, subj, 3),
                    params["gcn.0.w_node"], params["gcn.0.w_edge"], params["gcn.0.bias"]).data
    np.testing.assert_array_equal(out, np.maximum(feats, 0.0))


def test_gcn_two_node_identity_weights(dims):
    m = dims.m
    nu = np.zeros((2, m))
    nu[0, 0] = 1.0
    nu[1, 1] = 1.0
    subj, obj = edges_of(np.array([[0.0, 1.0], [0.0, 0.0]]))
    eps = np.zeros((1, dims.h))
    out = gcn_layer(Tensor(nu), subj, obj, edge_sums(eps, subj, 2),
                    Tensor(np.eye(m)), Tensor(np.zeros((dims.h, m))), Tensor(np.zeros(m))).data
    expected = np.zeros((2, m))
    expected[0, 0] = 1.0
    expected[0, 1] = 1.0
    expected[1, 1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_gcn_layer_permutation_equivariance(dims, params):
    rng = RngStream(7)
    n = 5
    feats = rng.normal_array((n, dims.m))
    # a random graph: each ordered pair carries a message or not
    theta = (rng.uniform_array((n, n)) < 0.6).astype(float)
    np.fill_diagonal(theta, 0.0)
    eps = rng.normal_array((n, n, dims.h))
    subj, obj = edges_of(theta)
    base = gcn_layer(Tensor(feats), subj, obj, edge_sums(eps[subj, obj], subj, n),
                     params["gcn.0.w_node"], params["gcn.0.w_edge"], params["gcn.0.bias"]).data
    perm = rng.permutation(n)
    p_subj, p_obj = edges_of(theta[np.ix_(perm, perm)])
    p_eps = eps[np.ix_(perm, perm)]
    shuffled = gcn_layer(Tensor(feats[perm]), p_subj, p_obj,
                         edge_sums(p_eps[p_subj, p_obj], p_subj, n),
                         params["gcn.0.w_node"], params["gcn.0.w_edge"], params["gcn.0.bias"]).data
    np.testing.assert_allclose(shuffled, base[perm], rtol=0, atol=1e-12)


def test_propagate_single_layer_equals_layer(dims):
    p = ModelParams.init(dims, seed=2, gcn_layers=1)
    rng = RngStream(8)
    feats = rng.normal_array((3, dims.m))
    subj, obj = frame_pairs([3])
    eps = rng.normal_array((3, 3, dims.h))[subj, obj]
    via_propagate = gcn_propagate(Tensor(feats), subj, obj, Tensor(eps), p).data
    via_layer = gcn_layer(Tensor(feats), subj, obj, edge_sums(eps, subj, 3),
                          p["gcn.0.w_node"], p["gcn.0.w_edge"], p["gcn.0.bias"]).data
    np.testing.assert_array_equal(via_propagate, via_layer)


def test_propagate_two_layers_is_composition(dims, params):
    rng = RngStream(9)
    feats = rng.normal_array((3, dims.m))
    subj, obj = frame_pairs([3])
    t_feats, t_eps = Tensor(feats), Tensor(rng.normal_array((3, 3, dims.h))[subj, obj])
    sums = segment_sum(t_eps, subj, 3)
    once = gcn_layer(t_feats, subj, obj, sums, params["gcn.0.w_node"],
                     params["gcn.0.w_edge"], params["gcn.0.bias"])
    twice = gcn_layer(once, subj, obj, sums, params["gcn.1.w_node"],
                      params["gcn.1.w_edge"], params["gcn.1.bias"]).data
    np.testing.assert_array_equal(gcn_propagate(t_feats, subj, obj, t_eps, params).data, twice)


def test_propagate_matches_rederivation_oracle(dims, params):
    rng = RngStream(10)
    feats = rng.normal_array((3, dims.m))
    theta = full_connectivity(3)
    eps = rng.normal_array((3, 3, dims.h))
    subj, obj = frame_pairs([3])
    got = gcn_propagate(Tensor(feats), subj, obj, Tensor(eps[subj, obj]), params).data
    layers = [
        (params[f"gcn.{i}.w_node"].data, params[f"gcn.{i}.w_edge"].data, params[f"gcn.{i}.bias"].data)
        for i in range(2)
    ]
    np.testing.assert_allclose(got, numpy_gcn_oracle(feats, theta, eps, layers),
                               rtol=0, atol=1e-12)


def spatial_stage(node_lists, params):
    """Proposal and propagation over frames packed one after another."""
    feats = [np.concatenate([o.box.as_array(), o.label_dist, o.visual_feat])
             for nodes in node_lists for o in nodes]
    feats = Tensor(np.stack(feats) if feats else np.zeros((0, params.dims.m)))
    subj, obj = frame_pairs([len(nodes) for nodes in node_lists])
    relation = propose_relations(feats, subj, obj, params)
    return relation.data, gcn_propagate(feats, subj, obj, relation, params).data


def test_outputs_finite_for_finite_inputs(dims, params):
    rng = RngStream(11)
    nodes = [random_object_node(rng, dims) for _ in range(4)]
    relation_dist, updated_feats = spatial_stage([nodes], params)
    assert np.all(np.isfinite(updated_feats))
    assert np.all(np.isfinite(relation_dist))
    assert np.all((relation_dist >= 0) & (relation_dist <= 1))


def test_spatial_stage_without_nodes(dims, params):
    relation_dist, updated_feats = spatial_stage([[]], params)
    assert relation_dist.shape == (0, dims.h)
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
    frames = [[random_object_node(rng, dims) for _ in range(n)] for n in (3, 1, 0, 4)]
    packed_rel, packed_upd = spatial_stage(frames, params)
    rel = [spatial_stage([nodes], params) for nodes in frames]
    np.testing.assert_allclose(packed_rel, np.concatenate([r for r, _ in rel]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(packed_upd, np.concatenate([u for _, u in rel]),
                               rtol=0, atol=1e-12)
