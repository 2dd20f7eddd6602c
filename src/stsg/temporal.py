"""Cross-frame stage: relevance scoring, sparse link selection, temporal
relation encoding, and joint refinement into relation predictions.

Every frame of a minibatch is packed into one node set (`Packed`), so the
forward pass is a fixed number of taped ops per batch rather than per
frame. Links always span adjacent frames of one sequence: the candidates of
a node are the nodes of the preceding frame, and a frame after an empty one
(or the first frame) has none. The relevance score (`layers.link_relevance`)
projects every node once and takes inner products over the candidate list;
the concatenate-and-score alternative would cost a projection per pair.

The tape's unit is a layer: the relevance, the temporal encoding (frame
context, link pairs, f_g and f_tau), the aggregation with the fusion and
each head are one record each, with hand-written gradients (`layers`).

A served pass is cut into one `FramePrediction` per frame. Its
`FrameGraph` (node labels, label scores and boxes, pair probabilities) is
what a predictions file stores and what evaluation ranks (`metrics`);
nothing here orders triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blas, layers
from .autodiff import Tensor
from .config import MODES, VARIANTS
from .errors import ContractError
from .layers import link_relevance
from .metrics import NO_CONSTRAINT_PER_PAIR
from .params import ModelParams, linear
from .scene import FrameView, SceneSequence
from .spatial import frame_pairs, gcn_propagate, propose_relations

DENOM_GUARD = 1e-8


def topk_links(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask with min(k, row size) entries per row at the largest scores.

    A row is the candidates of one current node, listed by ascending
    previous-frame index; ties go to the lowest such index (a stable sort
    on -score).
    """
    if k < 1:
        raise ContractError(f"topk_links: need k >= 1, got {k}")
    order = np.lexsort((-scores, rows))
    ranked_rows = rows[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked_rows, ranked_rows)
    mask = np.zeros(len(scores), dtype=bool)
    mask[order[rank < k]] = True
    return mask


def tracking_links(boxes: np.ndarray, labels: np.ndarray, curr: np.ndarray,
                   prev: np.ndarray) -> np.ndarray:
    """Boolean mask linking each current node to the candidate with the same
    argmax label whose box center is closest (lowest index on ties)."""
    centers = boxes[:, :2] + boxes[:, 2:] / 2.0
    same = labels[curr] == labels[prev]
    offset = centers[curr] - centers[prev]
    dist = np.where(same, np.hypot(offset[:, 0], offset[:, 1]), np.inf)
    order = np.lexsort((np.arange(len(curr)), dist, curr))
    first = order[np.r_[True, curr[order][1:] != curr[order][:-1]]] if len(order) else order
    mask = np.zeros(len(curr), dtype=bool)
    mask[first[same[first]]] = True
    return mask


def encode_temporal_pairs(feats: Tensor, node_frame: ad.SegmentPlan, link_frame,
                          curr_idx, prev_idx, params: ModelParams,
                          frame_counts: np.ndarray) -> Tensor:
    """Encode every selected (current j, previous k) link into an m-vector, as
    one tape record.

    tau = f_tau(context ++ f_g(feat[j] ++ feat[k])), batched over links, where
    a link's context is the mean of the features of the frame `link_frame`
    names; `node_frame` is the plan of each node's frame, and `frame_counts`
    its frames' node counts (`Packed.frame_counts`).
    """
    return layers.temporal_encoding(
        feats, node_frame, link_frame, curr_idx, prev_idx,
        tuple(params[f"temporal.fg.{n}"] for n in ("w1", "b1", "w2", "b2")),
        tuple(params[f"temporal.ftau.{n}"] for n in ("w1", "b1", "w2", "b2")), frame_counts)


def aggregate_links(updated: Tensor, gamma_sel: Tensor, tau: Tensor, curr_idx,
                    n_curr: int) -> Tensor:
    """The final node representation: updated plus the relevance-weighted
    mean of tau per current node, as one tape record; curr_idx is a plan or
    an index list over the n_curr nodes.

    Rows whose selected-weight sum is within DENOM_GUARD of zero fall back to
    a uniform average (gradient then skips gamma); rows with no links add 0.
    """
    return layers.fuse_link_mean(updated, gamma_sel, tau, ad.segment_plan(curr_idx, n_curr),
                                 DENOM_GUARD)


def relation_logits(fused: Tensor, subj, obj, params: ModelParams) -> Tensor:
    """Pre-sigmoid pair scores f_r(fused_i ++ fused_j), (P, H) for the listed
    pairs, as one tape record."""
    return layers.pair_linear(fused, subj, obj, params["rel.w"], params["rel.b"])


# ---------------------------------------------------------------------------
# packed minibatch forward


@dataclass
class Packed:
    """Data-only inputs of every frame of a minibatch, packed into one node set.

    Nodes are stacked frame after frame, sequence after sequence. Pairs,
    candidate links and node frames are segment plans over packed node
    (or frame) indices, built with the data, so no forward or backward call
    sorts them again; frames are counted over the frames that have nodes.
    Everything here is built once per sequence (`pack`); training prepares
    each sequence's plans with their runs once and joins them into batches
    (`training.prepare`, `training.join`), so a training step recomputes
    none of it.
    """

    mode: str
    variant: str
    sizes: np.ndarray                 # (F,) node count of each frame of the batch,
                                      #      empty frames included
    feats: np.ndarray                 # (N, m) node encodings, read-only, so that
                                      #      the forward pass wraps them uncopied
    node_frame: ad.SegmentPlan        # (N,) frame of each node, non-decreasing
    frame_counts: np.ndarray          # (F', 1) float64 node count of each frame
                                      #      with nodes: the frame context's divisor
    subj: ad.SegmentPlan              # (P,) within-frame ordered pairs i != j,
    obj: ad.SegmentPlan               #      subject-major
    cand_curr: ad.SegmentPlan         # (C,) each node x every node of the preceding
    cand_prev: ad.SegmentPlan         #      frame of its sequence, by (curr, prev)
    links: np.ndarray | None = None   # (L,) candidates linked whatever the parameters
                                      #      (dense: all, tracking: `tracking_links`);
                                      #      None where the relevance picks them

    @property
    def n_nodes(self) -> int:
        return self.feats.shape[0]

    @property
    def n_frames(self) -> int:
        """Frames that have nodes."""
        return self.node_frame.n


def pack(sequence: SceneSequence, mode: str, variant: str, dims) -> Packed:
    """The packed inputs of one sequence in the given mode and variant: its
    frames' detection rows (sgdet), or gt rows with one-hot labels (predcls)
    or the detector's label distributions (sgcls)."""
    if variant not in VARIANTS:
        raise ContractError(f"variant: must be one of {VARIANTS}, got {variant!r}")
    if mode not in MODES:
        raise ContractError(f"mode: must be one of {MODES}, got {mode!r}")
    sgdet = mode == "sgdet"
    sizes = sequence.n_detections if sgdet else sequence.n_objects
    feats = (sequence.det_feats if sgdet else sequence.gt_feats).copy()
    if mode == "predcls":
        feats[:, 4:4 + dims.g] = 0.0
        feats[np.arange(len(feats)), 4 + sequence.objects["label"]] = 1.0
    feats.setflags(write=False)
    present = sizes[sizes > 0]
    subj, obj = frame_pairs(present)
    n = len(feats)
    # each node takes every node of the preceding frame as a candidate (none
    # in the first frame or after an empty one), listed by (curr, prev)
    if variant == "spatial":
        prev_sizes = np.zeros_like(sizes)
    else:
        prev_sizes = np.concatenate([[0], sizes[:-1]]).astype(np.intp)
    per_node = np.repeat(prev_sizes, sizes)
    cand_curr = np.repeat(np.arange(n), per_node)
    rank = np.arange(len(cand_curr)) - np.repeat(np.cumsum(per_node) - per_node, per_node)
    prev_first = np.repeat(np.cumsum(sizes) - sizes - prev_sizes, sizes)   # per node
    cand_prev = prev_first[cand_curr] + rank
    links = None
    if variant == "dense":
        links = np.arange(len(cand_curr))
    elif variant == "tracking":   # boxes and argmax labels read off the node rows
        labels = np.argmax(feats[:, 4:4 + dims.g], axis=1)
        links = np.flatnonzero(tracking_links(feats[:, :4], labels, cand_curr, cand_prev))
    # every list is computed from the frame sizes, so its range holds unchecked
    plan = ad.SegmentPlan.derived
    return Packed(mode=mode, variant=variant, sizes=sizes, feats=feats,
                  node_frame=plan(np.repeat(np.arange(len(present)), present), len(present)),
                  frame_counts=present.astype(np.float64).reshape(-1, 1),
                  subj=plan(subj, n), obj=plan(obj, n),
                  cand_curr=plan(cand_curr, n), cand_prev=plan(cand_prev, n), links=links)


@dataclass
class BatchOutput:
    """Taped results of one packed forward pass (tensors stay live for the loss)."""

    gcn: Tensor                             # (N, m) after message passing
    fused: Tensor                           # (N, m) spatial + temporal context
    relation_logits: Tensor                 # (P, H) pre-sigmoid pair scores
    links: np.ndarray                       # (L,) candidate indices of the selected links
    label_logits: Tensor | None = None      # (N, G) pre-softmax scores; None in predcls
    gamma: Tensor | None = None             # (C,) relevance of every candidate link


def forward_batch(packed: Packed, params: ModelParams, k: int = 1) -> BatchOutput:
    """The full pipeline over every frame of a packed minibatch.

    Links are the top k of gamma (sparse), or the links `pack` fixed: every
    candidate (dense) or `tracking_links` (tracking); a node without
    candidates keeps its spatial features.
    """
    variant = packed.variant
    if variant == "sparse" and k < 1:
        raise ContractError(f"sparse variant requires k >= 1, got {k}")
    n = packed.n_nodes
    feats = Tensor._wrap(packed.feats)
    edge_sums = propose_relations(feats, packed.subj, packed.obj, params)
    updated = gcn_propagate(feats, packed.node_frame, edge_sums, params)

    fused = updated
    gamma = None
    chosen = np.zeros(0, dtype=np.intp)
    cand_curr = packed.cand_curr.ids
    if len(cand_curr):
        gamma = link_relevance(updated, packed.cand_curr, packed.cand_prev,
                               params["temporal.phi"])
        if packed.links is None:
            chosen = np.flatnonzero(topk_links(gamma.data, cand_curr, k))
        else:
            chosen = packed.links
        if len(chosen):
            plan = ad.SegmentPlan.derived
            if variant == "dense":
                # every candidate is a link: the links' plans are the candidates'
                curr_idx, prev_idx = packed.cand_curr, packed.cand_prev
            else:
                # the selected links' plans, shared by the forward and backward
                # calls: rows of the packed plans, so in range without a check
                curr_idx = plan(cand_curr[chosen], n)
                prev_idx = plan(packed.cand_prev.ids[chosen], n)
            frame_idx = plan(packed.node_frame.ids[curr_idx.ids], packed.n_frames)
            tau = encode_temporal_pairs(updated, packed.node_frame, frame_idx,
                                        curr_idx, prev_idx, params, packed.frame_counts)
            gamma_sel = ad.gather_rows(gamma, plan(chosen, len(cand_curr)))
            fused = aggregate_links(updated, gamma_sel, tau, curr_idx, n)

    logits = relation_logits(fused, packed.subj, packed.obj, params)
    label_logits = None
    if packed.mode != "predcls":
        label_logits = linear(fused, params["label.w"], params["label.b"])
    return BatchOutput(gcn=updated, fused=fused, relation_logits=logits,
                       label_logits=label_logits, gamma=gamma, links=chosen)


# ---------------------------------------------------------------------------
# served frames

# a plain array of numpy records: a slice is cheap, and each element keeps
# attribute access (link.curr_index)
LINK_DTYPE = np.dtype((np.record, [("curr_index", np.intp), ("prev_index", np.intp)]))


@dataclass(slots=True)
class FrameGraph:
    """One frame's served graph, as a predictions frame stores it: each
    node's argmax label, its box and its label score (the maximum of its
    label distribution), and the predicate probabilities of the frame's
    ordered pairs. Evaluation ranks its triplets (`metrics`); nothing here
    orders them. `len()` counts the triplets of its unconstrained list,
    NO_CONSTRAINT_PER_PAIR or fewer for each ordered pair, without ranking
    them."""

    labels: np.ndarray          # (N,) intp
    label_scores: np.ndarray    # (N,) float64
    boxes: np.ndarray           # (N, 4) (x, y, w, h)
    pair_probs: np.ndarray      # (N * (N - 1), H) ordered pairs i != j, in
                                #      `spatial.frame_pairs` order; a predictions
                                #      file holds its bytes (`io.float64_text`)

    def __len__(self) -> int:
        pairs, h = self.pair_probs.shape
        return pairs * min(NO_CONSTRAINT_PER_PAIR, h)


def frame_offsets(sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For frames of the given node counts packed one after another: where
    each frame's nodes start and where its ordered pairs start, each with
    the total appended (F + 1,), and each node's index within its frame (N,)."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.zeros((2, len(sizes) + 1), dtype=np.intp)
    np.cumsum(sizes, out=starts[0, 1:])
    np.cumsum(sizes * (sizes - 1), out=starts[1, 1:])
    return starts[0], starts[1], np.arange(starts[0, -1]) - np.repeat(starts[0, :-1], sizes)


@dataclass(slots=True)
class FramePrediction:
    """One frame of a forward pass, as values, for metrics, banks and serialization.

    `graph` is the frame's served graph: its nodes' argmax labels, boxes
    and label scores, and its pairs' predicate probabilities, in
    `spatial.frame_pairs` order. The selected temporal edges are `links`,
    an array of LINK_DTYPE records of frame-local (curr_index, prev_index)
    pairs: node `curr_index` of this frame takes context from node
    `prev_index` of the previous frame.
    """

    label_dists: np.ndarray           # (N, G)
    fused: np.ndarray                 # (N, m) spatial + temporal context
    gcn: np.ndarray                   # (N, m) after message passing
    graph: FrameGraph
    nodes: np.ndarray = field(default_factory=list)   # the inputs' records (`FrameView`):
                                                      #      gt objects, or detections (sgdet)
    links: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=LINK_DTYPE))

    @property
    def n(self) -> int:
        return len(self.label_dists)


def frame_predictions(packed: Packed, out: BatchOutput, g: int,
                      frames: list[FrameView]) -> list[FramePrediction]:
    """Cut a packed forward pass into one `FramePrediction` per frame,
    empty frames included; g is the label count, and `frames` the packed
    frames. The node offsets are found once, for the graphs and the links,
    and each frame's arrays are views of the batch's. Probabilities that
    are not finite are an error, raised before any frame is cut."""
    feats = packed.feats
    probs = ad._logistic(out.relation_logits.data)
    if out.label_logits is None:
        dists = feats[:, 4:4 + g]
    else:
        dists = ad._softmax(out.label_logits.data)
    label_scores = np.max(dists, axis=1)
    if not (np.isfinite(probs).all() and np.isfinite(label_scores).all()):
        raise ContractError("frame_predictions: served probabilities must be finite")
    labels, boxes = np.argmax(dists, axis=1), feats[:, :4]
    starts, pair_starts, local = frame_offsets(packed.sizes)
    # links come in candidate order, so each frame's links are one run
    curr = packed.cand_curr.ids[out.links]
    link_starts = np.searchsorted(curr, starts).tolist()
    links = np.empty(len(curr), dtype=LINK_DTYPE)
    links["curr_index"] = local[curr]
    links["prev_index"] = local[packed.cand_prev.ids[out.links]]
    fused, gcn = out.fused.data, out.gcn.data
    nodes, pairs = starts.tolist(), pair_starts.tolist()
    sgdet = packed.mode == "sgdet"
    return [
        FramePrediction(
            label_dists=dists[a:b], fused=fused[a:b], gcn=gcn[a:b],
            graph=FrameGraph(labels[a:b], label_scores[a:b], boxes[a:b],
                             probs[pairs[t]:pairs[t + 1]]),
            nodes=frame.detections if sgdet else frame.objects,
            links=links[link_starts[t]:link_starts[t + 1]],
        )
        for t, (frame, a, b) in enumerate(zip(frames, nodes[:-1], nodes[1:]))
    ]


@blas.one_thread()
def forward_sequence(sequence: SceneSequence, params: ModelParams, mode: str,
                     variant: str = "sparse", k: int = 1) -> list[FramePrediction]:
    """Run the full pipeline over one sequence: a packed batch of one.

    The first frame (and any frame after an empty one) has no predecessor and
    keeps its spatial features unchanged.
    """
    packed = pack(sequence, mode, variant, params.dims)
    out = forward_batch(packed, params, k)
    return frame_predictions(packed, out, params.dims.g, sequence.frames)
