"""Within-frame stage: pairwise relation proposal and GCN message passing.

Nodes of many frames are packed into one matrix, frame after frame, and
every stage runs over all of them at once. The proposal scores every
ordered pair (i, j), i != j, of nodes of the same frame with a two-layer
perceptron on the concatenated node encodings; its output doubles as the
edge features of the graph (L == H). Message passing follows

    updated_i = relu(nu_i + sum_j theta_ij (W_node nu_j + W_edge eps_ij) + bias)

with theta fixed to 1 between distinct nodes of a frame and 0 otherwise (the
residual term already carries self-information), so a node's message is its
frame's sum minus its own term. Linearity lets the edge features be summed
per node before the edge transform, which then applies once per node; the
edge features are the same in every layer, so the proposal hands on their
per-node sums, taken once per pass. The bias sits inside the message, so a
node alone in its frame reduces a layer to relu(feats) regardless of
parameter values.

The tape's unit is a layer: the proposal and each GCN layer are one record
each, with hand-written gradients (`layers`). The pair lists and node frames
are segment plans (`autodiff.SegmentPlan`), so every layer reuses their sorts.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .layers import gcn_layer, proposal_sums
from .params import ModelParams


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
    """The initial relation distribution eps_ij = sigmoid(mlp(feat_i ++ feat_j))
    of the P listed pairs, as the only form the GCN reads: the (N, H) sums
    sum_j eps_ij of each node's pairs. One tape record."""
    return proposal_sums(feats, subj, obj, params["prop.w1"], params["prop.b1"],
                         params["prop.w2"], params["prop.b2"])


def gcn_propagate(feats: Tensor, node_frame, edge_sums: Tensor, params: ModelParams) -> Tensor:
    """Apply the configured stack of propagation layers (`gcn_layer`) over
    node_frame's frames, one tape record each; `edge_sums` (N, H) holds the
    summed edge features of each node's pairs, which every layer reads."""
    out = feats
    for layer in range(params.gcn_layers):
        out = gcn_layer(
            out, node_frame, edge_sums,
            params[f"gcn.{layer}.w_node"],
            params[f"gcn.{layer}.w_edge"],
            params[f"gcn.{layer}.bias"],
        )
    return out
