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
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import blas, layers
from .autodiff import Tensor
from .config import MODES, VARIANTS
from .errors import ContractError
from .layers import link_relevance
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
    Everything here is built once per sequence (`pack`) and concatenated
    by `join`, so a training step recomputes none of it.
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

    @classmethod
    def join(cls, parts: list["Packed"]) -> "Packed":
        """One batch from the packed inputs of its sequences, in order.

        Where each part's nodes, frames, pairs and candidates start in the
        batch is found once; every plan's ids and runs, and the fixed links,
        are concatenated with those offsets.
        """
        first = parts[0]
        if len(parts) == 1:
            return first
        nodes, frames, pairs, cands = (list(accumulate(counts, initial=0)) for counts in zip(
            *((p.n_nodes, p.n_frames, len(p.subj), len(p.cand_curr)) for p in parts)))

        def plans(name, ids, rows):
            return ad.SegmentPlan.join([getattr(p, name) for p in parts], ids, rows)

        feats = np.concatenate([p.feats for p in parts])
        feats.setflags(write=False)
        return cls(
            mode=first.mode, variant=first.variant,
            sizes=np.concatenate([p.sizes for p in parts]), feats=feats,
            node_frame=plans("node_frame", frames, nodes),
            frame_counts=np.concatenate([p.frame_counts for p in parts]),
            subj=plans("subj", nodes, pairs), obj=plans("obj", nodes, pairs),
            cand_curr=plans("cand_curr", nodes, cands),
            cand_prev=plans("cand_prev", nodes, cands),
            links=None if first.links is None else ad._offset_cat([p.links for p in parts],
                                                                  cands))


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
    updated = gcn_propagate(feats, packed.subj, packed.obj, edge_sums, params)

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
            # the selected links' plans, shared by the forward and backward
            # calls: rows of the packed plans, so in range without a check
            plan = ad.SegmentPlan.derived
            curr_ids = cand_curr[chosen]
            curr_idx = plan(curr_ids, n)
            prev_idx = plan(packed.cand_prev.ids[chosen], n)
            frame_idx = plan(packed.node_frame.ids[curr_ids], packed.n_frames)
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

NO_CONSTRAINT_PER_PAIR = 6
# a plain array of numpy records: a slice is cheap, and each element keeps
# attribute access (link.curr_index)
LINK_DTYPE = np.dtype((np.record, [("curr_index", np.intp), ("prev_index", np.intp)]))


class RankedFrame:
    """One frame's triplets in rank order, plus the per-node argmax labels,
    boxes and label scores (the maximum of each node's label distribution).
    `len()` counts triplets.

    The triplet columns are `subj`, `obj` and `predicate`, (T,) intp, and
    `score`, (T,) float64, sorted by (-score, subject, object, predicate).
    `rank_frames` is the only maker of a RankedFrame, so every one holds
    that order. The columns are sorted on their first read: reading any of
    them or `len()` sorts every frame of that call, once. The node fields
    never sort.
    """

    __slots__ = ("labels", "boxes", "label_scores", "_triplets", "_ranking", "_index")

    def __init__(self, ranking: _Ranking, index: int, labels: np.ndarray, boxes: np.ndarray,
                 label_scores: np.ndarray):
        self._triplets, self._ranking, self._index = None, ranking, index
        self.labels = labels                # (N,) argmax label per node
        self.boxes = boxes                  # (N, 4) (x, y, w, h)
        self.label_scores = label_scores    # (N,) float64, the score of each node's label

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._triplets is None:
            self._triplets = self._ranking.frames()[self._index]
        return self._triplets

    subj = property(lambda self: self._columns()[0])
    obj = property(lambda self: self._columns()[1])
    predicate = property(lambda self: self._columns()[2])
    score = property(lambda self: self._columns()[3])

    def __len__(self) -> int:
        return len(self._columns()[3])


class _Ranking:
    """The sort one `rank_frames` call defers: its arguments to
    `_sort_frames`, called on the first `frames()`, whose result every later
    call returns."""

    __slots__ = ("_args", "_frames")

    def __init__(self, *args):
        self._args, self._frames = args, None

    def frames(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        if self._frames is None:
            self._frames, self._args = _sort_frames(*self._args), None
        return self._frames


def frame_offsets(sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For frames of the given node counts packed one after another: where
    each frame's nodes start and where its ordered pairs start, each with
    the total appended (F + 1,), and each node's index within its frame (N,)."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.zeros((2, len(sizes) + 1), dtype=np.intp)
    np.cumsum(sizes, out=starts[0, 1:])
    np.cumsum(sizes * (sizes - 1), out=starts[1, 1:])
    return starts[0], starts[1], np.arange(starts[0, -1]) - np.repeat(starts[0, :-1], sizes)


def rank_frames(probs: np.ndarray, subj: np.ndarray, obj: np.ndarray, labels: np.ndarray,
                label_scores: np.ndarray, boxes: np.ndarray, offsets) -> list[RankedFrame]:
    """The unconstrained ranked triplet list of each frame, empty frames
    included, for frames packed one after another with the given
    `frame_offsets`; each frame is sorted on its own. Serving ranks a forward
    pass with it, and `io` a predictions record read back.

    `probs` (P, H) holds the predicate probabilities of the pairs (subj, obj)
    of packed node indices, in `spatial.frame_pairs` order, and `labels` and
    `label_scores` each node's label and its score (served: the argmax and
    the maximum of its label distribution). A triplet's score is
    subject-label score * object-label score * predicate probability. Each
    ordered pair keeps its NO_CONSTRAINT_PER_PAIR most probable predicates
    (ties to the lower index), and a frame's list is sorted by (-score,
    subject, object, predicate).

    The scores are found, and checked finite, at the call. The sort waits
    for the first read of any returned frame's triplets (`RankedFrame`),
    then sorts every frame at once (`_sort_frames`): a caller that reads
    only the nodes, as `stsg infer` and `stsg bank` do, never sorts.
    """
    starts, pair_starts, local = offsets
    h = probs.shape[1]
    pair_scores = (label_scores[subj] * label_scores[obj])[:, None]
    keep = min(NO_CONSTRAINT_PER_PAIR, h)
    if keep == h:   # every predicate is kept, in ascending order
        top = None
        scores = (pair_scores * probs).ravel()
    else:   # each pair's most probable predicates, in ascending order
        top = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :keep], axis=1)
        scores = (pair_scores * np.take_along_axis(probs, top, axis=1)).ravel()
    if not np.isfinite(scores).all():
        raise ContractError("rank_frames: triplet scores must be finite")
    ranking = _Ranking(scores, top, keep, subj, obj, local, (pair_starts * keep).tolist())
    nodes = starts.tolist()
    return [RankedFrame(ranking, t, labels[x:y], boxes[x:y], label_scores[x:y])
            for t, (x, y) in enumerate(zip(nodes[:-1], nodes[1:]))]


def _sort_frames(scores: np.ndarray, top: np.ndarray | None, keep: int, subj: np.ndarray,
                 obj: np.ndarray, local: np.ndarray, cuts: list[int]) -> list[tuple]:
    """The deferred half of `rank_frames`: each frame's (subj, obj,
    predicate, score) columns in rank order, node indices local to the
    frame. `scores` holds `keep` rows per pair, frame t's at
    cuts[t]:cuts[t + 1], and `top` their predicates (None when every
    predicate is kept)."""
    # each frame's rows already run by (subject, object, predicate), so a
    # stable sort of the frame on -score breaks score ties in that order
    negated = -scores
    order = np.concatenate([negated[a:b].argsort(kind="stable") + a
                            for a, b in zip(cuts[:-1], cuts[1:])])
    pair = order // keep
    subj, obj, scores = local[subj[pair]], local[obj[pair]], scores[order]
    # with every predicate kept, a row's predicate is its place in its pair
    kept = order - pair * keep if top is None else top.ravel()[order]
    return [(subj[a:b], obj[a:b], kept[a:b], scores[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


@dataclass(slots=True)
class FramePrediction:
    """One frame of a forward pass, as values, for metrics, banks and serialization.

    `ranked` is the frame's unconstrained triplet list, in rank order
    (`rank_frames`), with its nodes' argmax labels, boxes and label scores.
    The with-constraint list is not kept: evaluation takes it from this one
    (`metrics._flatten`). A caller that reads only the nodes never sorts
    the triplets. `pair_probs` holds the frame's pairs' predicate
    probabilities, in `spatial.frame_pairs` order. The selected temporal
    edges are `links`, an array of LINK_DTYPE records of frame-local
    (curr_index, prev_index) pairs: node `curr_index` of this frame takes
    context from node `prev_index` of the previous frame.
    """

    label_dists: np.ndarray           # (N, G)
    pair_probs: np.ndarray            # (N * (N - 1), H) ordered pairs i != j, in
                                      #      `spatial.frame_pairs` order, the rows
                                      #      `rank_frames` ranks; a predictions file
                                      #      holds its bytes (`io.float64_text`)
    fused: np.ndarray                 # (N, m) spatial + temporal context
    gcn: np.ndarray                   # (N, m) after message passing
    ranked: RankedFrame               # triplets in rank order, sorted on first read
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
    frames. The node offsets are found once, for the ranking and the links,
    and each frame's arrays are views of the batch's."""
    feats = packed.feats
    probs = ad._logistic(out.relation_logits.data)
    if out.label_logits is None:
        dists = feats[:, 4:4 + g]
    else:
        dists = ad._softmax(out.label_logits.data)
    offsets = frame_offsets(packed.sizes)
    starts, pair_starts, local = offsets
    ranked = rank_frames(probs, packed.subj.ids, packed.obj.ids, np.argmax(dists, axis=1),
                         np.max(dists, axis=1), feats[:, :4], offsets)
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
            label_dists=dists[a:b], pair_probs=probs[pairs[t]:pairs[t + 1]],
            fused=fused[a:b], gcn=gcn[a:b], ranked=ranked[t],
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
