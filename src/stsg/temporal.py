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
from .params import ModelParams, linear
from .scene import FrameRecord, SceneSequence
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
                          curr_idx, prev_idx, params: ModelParams) -> Tensor:
    """Encode every selected (current j, previous k) link into an m-vector, as
    one tape record.

    tau = f_tau(context ++ f_g(feat[j] ++ feat[k])), batched over links, where
    a link's context is the mean of the features of the frame `link_frame`
    names; `node_frame` is the plan of each node's frame.
    """
    return layers.temporal_encoding(
        feats, node_frame, link_frame, curr_idx, prev_idx,
        tuple(params[f"temporal.fg.{n}"] for n in ("w1", "b1", "w2", "b2")),
        tuple(params[f"temporal.ftau.{n}"] for n in ("w1", "b1", "w2", "b2")))


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
    """

    mode: str
    variant: str
    sizes: np.ndarray                 # (F,) node count of each frame of the batch,
                                      #      empty frames included
    feats: np.ndarray                 # (N, m) node encodings
    node_frame: ad.SegmentPlan        # (N,) frame of each node, non-decreasing
    subj: ad.SegmentPlan              # (P,) within-frame ordered pairs i != j,
    obj: ad.SegmentPlan               #      subject-major
    cand_curr: ad.SegmentPlan         # (C,) each node x every node of the preceding
    cand_prev: ad.SegmentPlan         #      frame of its sequence, by (curr, prev)

    @property
    def n_nodes(self) -> int:
        return self.feats.shape[0]

    @property
    def n_frames(self) -> int:
        """Frames that have nodes."""
        return self.node_frame.n

    @classmethod
    def join(cls, parts: list["Packed"]) -> "Packed":
        """One batch from the packed inputs of its sequences, in order."""
        first = parts[0]
        if len(parts) == 1:
            return first

        def cat(name):
            return ad.SegmentPlan.join([getattr(p, name) for p in parts])

        return cls(
            mode=first.mode, variant=first.variant,
            sizes=np.concatenate([p.sizes for p in parts]),
            feats=np.concatenate([p.feats for p in parts]),
            node_frame=cat("node_frame"), subj=cat("subj"), obj=cat("obj"),
            cand_curr=cat("cand_curr"), cand_prev=cat("cand_prev"),
        )


def pack(sequence: SceneSequence, mode: str, variant: str, dims) -> Packed:
    """The packed inputs of one sequence in the given mode and variant: its
    frames' detection rows (sgdet), or gt rows with one-hot labels (predcls)
    or the detector's label distributions (sgcls)."""
    if variant not in VARIANTS:
        raise ContractError(f"variant: must be one of {VARIANTS}, got {variant!r}")
    if mode not in MODES:
        raise ContractError(f"mode: must be one of {MODES}, got {mode!r}")
    frames = sequence.frames
    inputs = [f.det_feats if mode == "sgdet" else f.gt_feats for f in frames]
    sizes = np.fromiter(map(len, inputs), np.intp, count=len(inputs))
    feats = np.concatenate(inputs)
    if mode == "predcls":
        labels = np.concatenate([f.gt_labels for f in frames])
        feats[:, 4:4 + dims.g] = 0.0
        feats[np.arange(len(labels)), 4 + labels] = 1.0
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
    return Packed(mode=mode, variant=variant, sizes=sizes, feats=feats,
                  node_frame=ad.SegmentPlan(np.repeat(np.arange(len(present)), present),
                                            len(present)),
                  subj=ad.SegmentPlan(subj, n), obj=ad.SegmentPlan(obj, n),
                  cand_curr=ad.SegmentPlan(cand_curr, n), cand_prev=ad.SegmentPlan(cand_prev, n))


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

    Links are the top k of gamma (sparse), every candidate (dense) or
    `tracking_links` (tracking); a node without candidates keeps its spatial features.
    """
    variant = packed.variant
    if variant == "sparse" and k < 1:
        raise ContractError(f"sparse variant requires k >= 1, got {k}")
    n = packed.n_nodes
    feats = Tensor(packed.feats)
    edge_sums = propose_relations(feats, packed.subj, packed.obj, params)
    updated = gcn_propagate(feats, packed.subj, packed.obj, edge_sums, params)

    fused = updated
    gamma = None
    chosen = np.zeros(0, dtype=np.intp)
    cand_curr = packed.cand_curr.ids
    if len(cand_curr):
        gamma = link_relevance(updated, packed.cand_curr, packed.cand_prev,
                               params["temporal.phi"])
        if variant == "sparse":
            mask = topk_links(gamma.data, cand_curr, k)
        elif variant == "dense":
            mask = np.ones(len(cand_curr), dtype=bool)
        else:   # tracking: boxes and argmax labels read off the node rows
            labels = np.argmax(packed.feats[:, 4:4 + params.dims.g], axis=1)
            mask = tracking_links(packed.feats[:, :4], labels, cand_curr, packed.cand_prev.ids)
        chosen = np.flatnonzero(mask)
        if len(chosen):
            # the selected links' plans, shared by the forward and backward calls
            curr_ids = cand_curr[chosen]
            curr_idx = ad.SegmentPlan(curr_ids, n)
            prev_idx = ad.SegmentPlan(packed.cand_prev.ids[chosen], n)
            frame_idx = ad.SegmentPlan(packed.node_frame.ids[curr_ids], packed.n_frames)
            tau = encode_temporal_pairs(updated, packed.node_frame, frame_idx,
                                        curr_idx, prev_idx, params)
            fused = aggregate_links(updated, ad.gather_rows(gamma, chosen), tau, curr_idx, n)

    logits = relation_logits(fused, packed.subj, packed.obj, params)
    label_logits = None
    if packed.mode != "predcls":
        label_logits = linear(fused, params["label.w"], params["label.b"])
    return BatchOutput(gcn=updated, fused=fused, relation_logits=logits,
                       label_logits=label_logits, gamma=gamma, links=chosen)


# ---------------------------------------------------------------------------
# served frames

NO_CONSTRAINT_PER_PAIR = 6
# a plain array of numpy records: a slice is cheap, and each element keeps
# attribute access (link.curr_index)
LINK_DTYPE = np.dtype((np.record, [("curr_index", np.intp), ("prev_index", np.intp)]))


@dataclass(frozen=True, eq=False)
class RankedFrame:
    """One frame's triplets in rank order, plus the per-node argmax labels and
    boxes the matcher reads. `len()` counts triplets; indexing selects
    triplets (a slice keeps a prefix) and keeps the nodes."""

    subj: np.ndarray        # (T,) node indices
    obj: np.ndarray         # (T,)
    predicate: np.ndarray   # (T,)
    score: np.ndarray       # (T,) float64
    labels: np.ndarray      # (N,) argmax label per node
    boxes: np.ndarray       # (N, 4) (x, y, w, h)

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, rows) -> RankedFrame:
        return RankedFrame(self.subj[rows], self.obj[rows], self.predicate[rows],
                           self.score[rows], self.labels, self.boxes)


def rank_frames(probs: np.ndarray, subj: np.ndarray, obj: np.ndarray,
                label_dists: np.ndarray, boxes: np.ndarray, sizes) -> list[RankedFrame]:
    """The unconstrained ranked triplet list of each frame, empty frames
    included, from one sort over the pair rows of frames of the given node
    counts packed one after another.

    `probs` (P, H) holds the predicate probabilities of the pairs (subj, obj)
    of packed node indices, in `spatial.frame_pairs` order. A triplet's score
    is subject-label score * object-label score * predicate probability.
    Each ordered pair keeps its NO_CONSTRAINT_PER_PAIR most probable
    predicates (ties to the lower index), and a frame's list is sorted by
    (-score, subject, object, predicate).
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    p, h = probs.shape
    label_scores = np.max(label_dists, axis=1)
    pair_scores = (label_scores[subj] * label_scores[obj])[:, None]
    keep = min(NO_CONSTRAINT_PER_PAIR, h)
    if keep == h:   # every predicate is kept, in ascending order
        kept = np.tile(np.arange(h), p)
        scores = (pair_scores * probs).ravel()
    else:   # each pair's most probable predicates, in ascending order
        top = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :keep], axis=1)
        kept = top.ravel()
        scores = (pair_scores * np.take_along_axis(probs, top, axis=1)).ravel()
    if not np.isfinite(scores).all():
        raise ContractError("rank_triplets: triplet scores must be finite")
    subj, obj = np.repeat(subj, keep), np.repeat(obj, keep)
    starts = np.cumsum(sizes) - sizes
    node_frame = np.repeat(np.arange(len(sizes)), sizes)
    # the rows already run by (frame, subject, object, predicate), so a
    # stable sort on (frame, -score) breaks score ties in that order; the
    # frame is the first key, so each frame's list is one run
    order = np.lexsort((-scores, node_frame[subj]))
    local = np.arange(len(node_frame)) - np.repeat(starts, sizes)
    subj, obj, kept, scores = local[subj[order]], local[obj[order]], kept[order], scores[order]
    labels = np.argmax(label_dists, axis=1)
    nodes = np.concatenate([starts, [len(node_frame)]]).tolist()
    cuts = np.concatenate([[0], np.cumsum(sizes * (sizes - 1) * keep)]).tolist()
    return [RankedFrame(subj[a:b], obj[a:b], kept[a:b], scores[a:b], labels[x:y], boxes[x:y])
            for a, b, x, y in zip(cuts[:-1], cuts[1:], nodes[:-1], nodes[1:])]


@dataclass
class FramePrediction:
    """One frame of a forward pass, as values, for metrics, banks and serialization.

    `ranked` is the frame's unconstrained triplet list (`rank_frames`), and
    `pair_probs` its pairs' predicate probabilities, in `spatial.frame_pairs`
    order. The selected temporal edges are `links`, an array of LINK_DTYPE records of
    frame-local (curr_index, prev_index) pairs: node `curr_index` of this
    frame takes context from node `prev_index` of the previous frame.
    """

    label_dists: np.ndarray           # (N, G)
    pair_probs: np.ndarray            # (N * (N - 1), H) ordered pairs i != j
    fused: np.ndarray                 # (N, m) spatial + temporal context
    gcn: np.ndarray                   # (N, m) after message passing
    ranked: RankedFrame               # triplets in rank order
    nodes: list = field(default_factory=list)   # the inputs: gt objects, or detections (sgdet)
    links: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=LINK_DTYPE))

    @property
    def n(self) -> int:
        return len(self.label_dists)


def frame_predictions(packed: Packed, out: BatchOutput, g: int,
                      frames: list[FrameRecord]) -> list[FramePrediction]:
    """Cut a packed forward pass into one `FramePrediction` per frame,
    empty frames included; g is the label count, and `frames` the packed
    frames. Every frame's triplets are ranked in one pass, and each frame's
    arrays are views of the batch's."""
    feats = packed.feats
    probs = ad._logistic(out.relation_logits.data)
    if out.label_logits is None:
        dists = feats[:, 4:4 + g]
    else:
        dists = ad._softmax(out.label_logits.data)
    sizes = packed.sizes
    ranked = rank_frames(probs, packed.subj.ids, packed.obj.ids, dists, feats[:, :4], sizes)
    node_starts = np.concatenate([[0], np.cumsum(sizes)])
    # links come in candidate order, so each frame's links are one run
    curr = packed.cand_curr.ids[out.links]
    link_starts = np.searchsorted(curr, node_starts).tolist()
    local = np.arange(packed.n_nodes) - np.repeat(node_starts[:-1], sizes)
    links = np.empty(len(curr), dtype=LINK_DTYPE)
    links["curr_index"] = local[curr]
    links["prev_index"] = local[packed.cand_prev.ids[out.links]]
    fused, gcn = out.fused.data, out.gcn.data
    starts = node_starts.tolist()
    pair_starts = np.concatenate([[0], np.cumsum(sizes * (sizes - 1))]).tolist()
    sgdet = packed.mode == "sgdet"
    return [
        FramePrediction(
            label_dists=dists[a:b],
            pair_probs=probs[pair_starts[t]:pair_starts[t + 1]],
            fused=fused[a:b], gcn=gcn[a:b], ranked=ranked[t],
            nodes=frame.detections if sgdet else frame.objects,
            links=links[link_starts[t]:link_starts[t + 1]],
        )
        for t, (frame, a, b) in enumerate(zip(frames, starts[:-1], starts[1:]))
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
