"""Cross-frame stage: relevance scoring, sparse link selection, temporal
relation encoding, and joint refinement into relation predictions.

Every frame of a minibatch is packed into one node set (`Packed`), so the
forward pass is a fixed number of taped ops per batch rather than per
frame. Links always span adjacent frames of one sequence: the candidates of
a node are the nodes of the preceding frame, and a frame after an empty one
(or the first frame) has none. The relevance score projects every node
once and takes inner products over the candidate list; the
concatenate-and-score alternative would cost a projection per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blas
from .autodiff import Tensor
from .config import MODES, VARIANTS
from .errors import ContractError
from .params import ModelParams, linear, mlp2
from .scene import FrameRecord, ObjectNode, SceneSequence, TemporalLink, gt_nodes
from .spatial import frame_pairs, gcn_propagate, pair_grid, propose_relations

DENOM_GUARD = 1e-8


class CallCounter:
    """Counts node-projection applications (rows pushed through the kernel map)."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def link_relevance(feats: Tensor, curr: np.ndarray, prev: np.ndarray, phi: Tensor,
                   counter: CallCounter | None = None) -> Tensor:
    """gamma[c] = <phi(feat[curr[c]]), phi(feat[prev[c]])> for every candidate
    link c, projecting each node once."""
    proj = ad.matmul(feats, phi)
    if counter is not None:
        counter.add(feats.shape[0])
    return ad.reduce_sum(ad.mul(ad.gather_rows(proj, curr), ad.gather_rows(proj, prev)), axis=1)


def relevance_scores(feats_t: Tensor, feats_tm1: Tensor, phi: Tensor,
                     counter: CallCounter | None = None) -> Tensor:
    """gamma[j, k] for one frame pair: `link_relevance` over all (j, k)."""
    n_t, n_prev = feats_t.shape[0], feats_tm1.shape[0]
    curr = np.repeat(np.arange(n_t), n_prev)
    prev = n_t + np.tile(np.arange(n_prev), n_t)
    gamma = link_relevance(ad.concat([feats_t, feats_tm1]), curr, prev, phi, counter)
    return ad.reshape(gamma, (n_t, n_prev))


def topk_links(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask with min(k, row size) entries per row at the largest scores.

    A row is the candidates of one current node, listed by ascending
    previous-frame index; ties go to the lowest such index (stable sort on
    (-score, index)).
    """
    if k < 1:
        raise ContractError(f"select_topk: need k >= 1, got {k}")
    order = np.lexsort((np.arange(len(scores)), -scores, rows))
    ranked_rows = rows[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked_rows, ranked_rows)
    mask = np.zeros(len(scores), dtype=bool)
    mask[order[rank < k]] = True
    return mask


def select_topk(gamma: np.ndarray, k: int) -> np.ndarray:
    """`topk_links` on one frame pair: a binary (N_t, N_prev) mask."""
    n_t, n_prev = gamma.shape
    rows = np.repeat(np.arange(n_t), n_prev)
    return topk_links(gamma.reshape(-1), rows, k).reshape(n_t, n_prev).astype(np.int64)


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


def frame_context(feats: Tensor, node_frame: np.ndarray, n_frames: int) -> Tensor:
    """(n_frames, m) mean of the GCN-updated node features of each frame;
    undefined for a frame without nodes."""
    counts = np.bincount(node_frame, minlength=n_frames)
    if len(counts) != n_frames or np.any(counts == 0):
        raise ContractError("frame_context: empty frame has no context")
    return ad.div(ad.segment_sum(feats, node_frame, n_frames),
                  Tensor(counts.reshape(-1, 1).astype(np.float64)))


def encode_temporal_pairs(feats: Tensor, curr_idx: np.ndarray, prev_idx: np.ndarray,
                          context: Tensor, params: ModelParams) -> Tensor:
    """Encode every selected (current j, previous k) link into an m-vector.

    tau = f_tau(context ++ f_g(feat[j] ++ feat[k])), batched over links;
    `context` holds each link's frame context, one row per link.
    """
    pairs = ad.concat(
        [ad.gather_rows(feats, curr_idx), ad.gather_rows(feats, prev_idx)], axis=1
    )
    inner = mlp2(pairs, params["temporal.fg.w1"], params["temporal.fg.b1"],
                 params["temporal.fg.w2"], params["temporal.fg.b2"])
    joined = ad.concat([context, inner], axis=1)
    return mlp2(joined, params["temporal.ftau.w1"], params["temporal.ftau.b1"],
                params["temporal.ftau.w2"], params["temporal.ftau.b2"])


def aggregate_links(gamma_sel: Tensor, tau: Tensor, curr_idx: np.ndarray,
                    n_curr: int) -> Tensor:
    """Relevance-weighted mean of tau per current node.

    Rows whose selected-weight sum is within DENOM_GUARD of zero fall back to
    a uniform average (gradient then skips gamma); rows with no links get 0.
    """
    n_links = tau.shape[0]
    denom_vals = np.bincount(curr_idx, weights=gamma_sel.data, minlength=n_curr)
    counts = np.bincount(curr_idx, minlength=n_curr)
    uniform_rows = (np.abs(denom_vals) < DENOM_GUARD) & (counts > 0)
    keep_gamma = (~uniform_rows[curr_idx]).astype(np.float64)
    force_one = uniform_rows[curr_idx].astype(np.float64)
    weights = ad.add(ad.mul(gamma_sel, Tensor(keep_gamma)), Tensor(force_one))
    col = ad.reshape(weights, (n_links, 1))
    numer = ad.segment_sum(ad.mul(tau, col), curr_idx, n_curr)
    denom = ad.segment_sum(col, curr_idx, n_curr)
    # empty rows divide 0 by 1, yielding the exact zero vector
    safe = ad.add(denom, Tensor((counts == 0).astype(np.float64).reshape(-1, 1)))
    return ad.div(numer, safe)


def fuse(updated: Tensor, aggregated: Tensor) -> Tensor:
    """Final node representation: elementwise sum of spatial and temporal context."""
    if updated.shape != aggregated.shape:
        raise ContractError(
            f"fuse: shapes {updated.shape} and {aggregated.shape} differ"
        )
    return ad.add(updated, aggregated)


def relation_logits(fused: Tensor, subj: np.ndarray, obj: np.ndarray,
                    params: ModelParams) -> Tensor:
    """Pre-sigmoid pair scores f_r(fused_i ++ fused_j), (P, H) for the listed pairs."""
    pairs = ad.concat([ad.gather_rows(fused, subj), ad.gather_rows(fused, obj)], axis=1)
    return linear(pairs, params["rel.w"], params["rel.b"])


# ---------------------------------------------------------------------------
# packed minibatch forward


def nodes_for_mode(frame: FrameRecord, mode: str, g: int) -> list[ObjectNode]:
    """Node inputs per evaluation protocol.

    predcls: gt boxes and labels; sgcls: gt boxes with the simulated
    detector's label distributions; sgdet: simulated detections.
    """
    if mode == "predcls":
        return gt_nodes(frame.objects, g)
    if mode == "sgcls":
        return gt_nodes(frame.objects, g, use_detector_labels=True)
    if mode == "sgdet":
        return list(frame.detections)
    raise ContractError(f"mode: must be one of {MODES}, got {mode!r}")


@dataclass
class Packed:
    """Data-only inputs of every frame of a minibatch, packed into one node set.

    Nodes are stacked frame after frame, sequence after sequence. Pairs and
    candidate links hold packed node indices; frames are counted over the
    frames that have nodes.
    """

    mode: str
    variant: str
    nodes: list[list[ObjectNode]]     # per frame of the batch, empty frames included
    feats: np.ndarray                 # (N, m) node encodings
    node_frame: np.ndarray            # (N,) frame of each node, non-decreasing
    subj: np.ndarray                  # (P,) within-frame ordered pairs i != j,
    obj: np.ndarray                   #      subject-major
    cand_curr: np.ndarray             # (C,) each node x every node of the preceding
    cand_prev: np.ndarray             #      frame of its sequence, by (curr, prev)
    tracked: np.ndarray | None = None  # (C,) the tracking variant's links

    @property
    def n_nodes(self) -> int:
        return self.feats.shape[0]

    @property
    def n_frames(self) -> int:
        """Frames that have nodes."""
        return int(self.node_frame[-1]) + 1 if len(self.node_frame) else 0

    @classmethod
    def join(cls, parts: list["Packed"]) -> "Packed":
        """One batch from the packed inputs of its sequences, in order."""
        first = parts[0]
        if len(parts) == 1:
            return first
        node_off = np.cumsum([0] + [p.n_nodes for p in parts[:-1]])
        frame_off = np.cumsum([0] + [p.n_frames for p in parts[:-1]])

        def cat(name, offsets):
            return np.concatenate([getattr(p, name) + o for p, o in zip(parts, offsets)])

        return cls(
            mode=first.mode, variant=first.variant,
            nodes=[frame for p in parts for frame in p.nodes],
            feats=np.concatenate([p.feats for p in parts]),
            node_frame=cat("node_frame", frame_off),
            subj=cat("subj", node_off), obj=cat("obj", node_off),
            cand_curr=cat("cand_curr", node_off), cand_prev=cat("cand_prev", node_off),
            tracked=None if first.tracked is None
            else np.concatenate([p.tracked for p in parts]),
        )


def pack(sequence: SceneSequence, mode: str, variant: str, dims) -> Packed:
    """The packed inputs of one sequence in the given mode and variant."""
    if variant not in VARIANTS:
        raise ContractError(f"variant: must be one of {VARIANTS}, got {variant!r}")
    nodes = [nodes_for_mode(frame, mode, dims.g) for frame in sequence.frames]
    sizes = np.array([len(f) for f in nodes], dtype=np.intp)
    flat = [o for f in nodes for o in f]
    feats = np.stack([o.node_feat for o in flat]) if flat else np.zeros((0, dims.m))
    present = sizes[sizes > 0]
    subj, obj = frame_pairs(present)
    curr, prev = [], []
    if variant != "spatial":
        start = np.cumsum(sizes) - sizes
        for t in range(1, len(sizes)):
            n_t, n_prev = sizes[t], sizes[t - 1]
            if n_t and n_prev:
                curr.append(start[t] + np.repeat(np.arange(n_t), n_prev))
                prev.append(start[t - 1] + np.tile(np.arange(n_prev), n_t))
    cand_curr = np.concatenate(curr) if curr else np.zeros(0, dtype=np.intp)
    cand_prev = np.concatenate(prev) if prev else np.zeros(0, dtype=np.intp)
    tracked = None
    if variant == "tracking":
        boxes = np.array([o.box.as_array() for o in flat]).reshape(-1, 4)
        labels = np.array([o.label for o in flat], dtype=np.intp)
        tracked = tracking_links(boxes, labels, cand_curr, cand_prev)
    return Packed(mode=mode, variant=variant, nodes=nodes, feats=feats,
                  node_frame=np.repeat(np.arange(len(present)), present),
                  subj=subj, obj=obj, cand_curr=cand_curr, cand_prev=cand_prev,
                  tracked=tracked)


@dataclass
class BatchOutput:
    """Taped results of one packed forward pass (tensors stay live for the loss)."""

    gcn: Tensor                             # (N, m) after message passing
    fused: Tensor                           # (N, m) spatial + temporal context
    relation_logits: Tensor                 # (P, H) pre-sigmoid pair scores
    links: np.ndarray                       # (L,) candidate indices of the selected links
    label_logits: Tensor | None = None      # (N, G) pre-softmax scores; None in predcls
    gamma: Tensor | None = None             # (C,) relevance of every candidate link
    tau: Tensor | None = None               # (L, m) encoding of each selected link


def _override_links(link_mask_fn, gamma: np.ndarray, packed: Packed) -> np.ndarray:
    """Candidate mask from `link_mask_fn(gamma, nodes_t, nodes_tm1)`, frame pair by frame pair."""
    frames = [f for f in packed.nodes if f]
    cand_frame = packed.node_frame[packed.cand_curr]
    mask = np.zeros(len(cand_frame), dtype=bool)
    for t in np.unique(cand_frame):
        block = cand_frame == t
        shape = (len(frames[t]), len(frames[t - 1]))
        eta = np.asarray(link_mask_fn(gamma[block].reshape(shape), frames[t], frames[t - 1]))
        mask[block] = eta.reshape(-1) != 0
    return mask


def forward_batch(packed: Packed, params: ModelParams, k: int = 1,
                  link_mask_fn=None) -> BatchOutput:
    """The full pipeline over every frame of a packed minibatch.

    A node without candidates keeps its spatial features unchanged.
    `link_mask_fn(gamma, nodes_t, nodes_tm1) -> mask` overrides link
    selection on each frame pair when given.
    """
    variant = packed.variant
    if variant == "sparse" and k < 1:
        raise ContractError(f"sparse variant requires k >= 1, got {k}")
    n = packed.n_nodes
    feats = Tensor(packed.feats)
    proposal = propose_relations(feats, packed.subj, packed.obj, params)
    updated = gcn_propagate(feats, packed.subj, packed.obj, proposal, params)

    fused = updated
    gamma = tau = None
    chosen = np.zeros(0, dtype=np.intp)
    if len(packed.cand_curr):
        gamma = link_relevance(updated, packed.cand_curr, packed.cand_prev,
                               params["temporal.phi"])
        if link_mask_fn is not None:
            mask = _override_links(link_mask_fn, gamma.data, packed)
        elif variant == "sparse":
            mask = topk_links(gamma.data, packed.cand_curr, k)
        elif variant == "dense":
            mask = np.ones(len(packed.cand_curr), dtype=bool)
        else:
            mask = packed.tracked
        chosen = np.flatnonzero(mask)
        if len(chosen):
            curr_idx, prev_idx = packed.cand_curr[chosen], packed.cand_prev[chosen]
            context = frame_context(updated, packed.node_frame, packed.n_frames)
            tau = encode_temporal_pairs(
                updated, curr_idx, prev_idx,
                ad.gather_rows(context, packed.node_frame[curr_idx]), params)
            zeta = aggregate_links(ad.gather_rows(gamma, chosen), tau, curr_idx, n)
            fused = fuse(updated, zeta)

    logits = relation_logits(fused, packed.subj, packed.obj, params)
    label_logits = None
    if packed.mode != "predcls":
        label_logits = linear(fused, params["label.w"], params["label.b"])
    return BatchOutput(gcn=updated, fused=fused, relation_logits=logits,
                       label_logits=label_logits, gamma=gamma, links=chosen, tau=tau)


# ---------------------------------------------------------------------------
# per-frame views


@dataclass
class FrameOutput:
    """Per-frame slice of a forward pass, as values."""

    nodes: list[ObjectNode]
    label_dists: Tensor | None = None
    relation_probs: Tensor | None = None    # (N, N, H), zero diagonal
    gamma: Tensor | None = None             # relevance to the previous frame's nodes
    fused: Tensor | None = None
    gcn: Tensor | None = None
    link_index: tuple[np.ndarray, np.ndarray] | None = None   # selected (current, previous)
    tau: Tensor | None = None               # encoding of each selected link

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def links(self) -> list[TemporalLink]:
        """The selected links as records, built on each access."""
        if self.link_index is None:
            return []
        curr_idx, prev_idx = self.link_index
        return [
            TemporalLink(int(p), int(c), float(self.gamma.data[c, p]), 1, self.tau.data[i])
            for i, (c, p) in enumerate(zip(curr_idx, prev_idx))
        ]


def frame_outputs(packed: Packed, out: BatchOutput) -> list[FrameOutput]:
    """Split a packed forward pass into one `FrameOutput` per frame."""
    probs = ad.sigmoid(out.relation_logits).data
    if out.label_logits is None:
        dists = np.array([o.label_dist for f in packed.nodes for o in f])
    else:
        dists = ad.softmax(out.label_logits, axis=-1).data
    cand_curr = packed.cand_curr
    link_curr, link_prev = cand_curr[out.links], packed.cand_prev[out.links]
    outputs = []
    start = pair_start = 0
    prev_start = None
    for nodes in packed.nodes:
        n = len(nodes)
        if n == 0:
            outputs.append(FrameOutput(nodes=[]))
            continue
        stop, pair_stop = start + n, pair_start + n * (n - 1)
        gamma = link_index = tau = None
        cand = (cand_curr >= start) & (cand_curr < stop)
        if out.gamma is not None and cand.any():
            gamma = Tensor(out.gamma.data[cand].reshape(n, -1))
            sel = (link_curr >= start) & (link_curr < stop)
            if sel.any():
                link_index = (link_curr[sel] - start, link_prev[sel] - prev_start)
                tau = Tensor(out.tau.data[sel])
        outputs.append(FrameOutput(
            nodes=nodes,
            label_dists=Tensor(dists[start:stop]),
            relation_probs=Tensor(pair_grid(probs[pair_start:pair_stop], n)),
            gamma=gamma,
            fused=Tensor(out.fused.data[start:stop]),
            gcn=Tensor(out.gcn.data[start:stop]),
            link_index=link_index,
            tau=tau,
        ))
        prev_start, start, pair_start = start, stop, pair_stop
    return outputs


@blas.one_thread()
def forward_sequence(sequence: SceneSequence, params: ModelParams, mode: str,
                     variant: str = "sparse", k: int = 1,
                     link_mask_fn=None) -> list[FrameOutput]:
    """Run the full pipeline over one sequence: a packed batch of one.

    The first frame (and any frame after an empty one) has no predecessor and
    keeps its spatial features unchanged. `link_mask_fn(gamma, nodes_t,
    nodes_tm1) -> mask` overrides link selection when given.
    """
    packed = pack(sequence, mode, variant, params.dims)
    return frame_outputs(packed, forward_batch(packed, params, k, link_mask_fn))


# ---------------------------------------------------------------------------
# value-level predictions


@dataclass
class FramePrediction:
    """Value-level per-frame prediction for metrics, banks and serialization."""

    boxes: np.ndarray
    label_dists: np.ndarray
    relation_probs: np.ndarray
    fused: np.ndarray
    gcn: np.ndarray
    links: list[TemporalLink] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.boxes.shape[0]


def to_predictions(outputs: list[FrameOutput], dims) -> list[FramePrediction]:
    preds = []
    for out in outputs:
        if out.n == 0:
            preds.append(FramePrediction(
                boxes=np.zeros((0, 4)),
                label_dists=np.zeros((0, dims.g)),
                relation_probs=np.zeros((0, 0, dims.h)),
                fused=np.zeros((0, dims.m)),
                gcn=np.zeros((0, dims.m)),
            ))
            continue
        preds.append(FramePrediction(
            boxes=np.stack([o.box.as_array() for o in out.nodes]),
            label_dists=out.label_dists.data,
            relation_probs=out.relation_probs.data,
            fused=out.fused.data,
            gcn=out.gcn.data,
            links=out.links,
        ))
    return preds
