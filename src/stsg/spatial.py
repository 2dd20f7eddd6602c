"""Within-frame stage: pairwise relation proposal and GCN message passing.

Nodes of many frames are packed into one matrix, frame after frame, and
every stage runs over all of them at once. The proposal scores every
ordered pair (i, j), i != j, of nodes of the same frame with a two-layer
perceptron on the concatenated node encodings; its output doubles as the
edge features of the graph (L == H). Message passing follows

    updated_i = relu(nu_i + sum_j theta_ij (W_node nu_j + W_edge eps_ij) + bias)

with theta fixed to 1 between distinct nodes of a frame and 0 otherwise (the
residual term already carries self-information), so the theta-weighted sums
are segment sums over the pair list. The pair lists are segment plans
(`autodiff.SegmentPlan`), so every layer reuses one sort of them; the edge
features are the same in every layer, so their per-node sums are taken once
per pass.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ModelParams, linear


def frame_pairs(sizes) -> tuple[np.ndarray, np.ndarray]:
    """(subject, object) packed indices of every ordered pair i != j within a
    frame, for frames of the given node counts packed one after another.

    Subject-major within each frame, so the subjects never decrease.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n = int(sizes.sum())
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)       # frame offset of each node
    local = np.arange(n) - start
    per_subject = np.repeat(sizes - 1, sizes)                 # partners of each node
    subj = np.repeat(np.arange(n), per_subject)
    q = np.arange(len(subj)) - np.repeat(np.cumsum(per_subject) - per_subject, per_subject)
    obj_local = q + (q >= local[subj])
    return subj, start[subj] + obj_local


def propose_relations(feats: Tensor, subj, obj, params: ModelParams) -> Tensor:
    """Initial relation distribution: sigmoid(mlp(feat_i ++ feat_j)), (P, H)
    for the P listed pairs."""
    pairs = ad.concat([ad.gather_rows(feats, subj), ad.gather_rows(feats, obj)], axis=1)
    hidden = ad.relu(linear(pairs, params["prop.w1"], params["prop.b1"]))
    return ad.sigmoid(linear(hidden, params["prop.w2"], params["prop.b2"]))


def gcn_layer(feats: Tensor, subj, obj, edge_sums: Tensor,
              w_node: Tensor, w_edge: Tensor, bias: Tensor) -> Tensor:
    """One propagation step; each pair (i, j) carries a message from j to i.

    `edge_sums` (N, H) holds sum_j eps_ij for each node i: linearity lets the
    edge features be summed before the edge transform, which then applies
    once per node. The bias sits inside the message, so a node without pairs
    reduces the layer to relu(feats) regardless of parameter values.
    """
    n = feats.shape[0]
    node_msg = ad.segment_sum(ad.gather_rows(linear(feats, w_node, bias), obj), subj, n)
    edge_msg = ad.matmul(edge_sums, w_edge)
    return ad.relu(ad.add(feats, ad.add(node_msg, edge_msg)))


def gcn_propagate(feats: Tensor, subj, obj, edge_feats: Tensor,
                  params: ModelParams) -> Tensor:
    """Apply the configured stack of propagation layers sequentially; the
    edge features of the pairs are summed per node once, for every layer."""
    edge_sums = ad.segment_sum(edge_feats, subj, feats.shape[0])
    out = feats
    for layer in range(params.gcn_layers):
        out = gcn_layer(
            out, subj, obj, edge_sums,
            params[f"gcn.{layer}.w_node"],
            params[f"gcn.{layer}.w_edge"],
            params[f"gcn.{layer}.bias"],
        )
    return out
