"""Scene-graph evaluation and analytic efficiency accounting.

Triplets are ranked by subject-label score * object-label score * predicate
probability. The with-constraint setting keeps the best predicate per
ordered pair; no-constraint keeps up to six. Mean recall and relation AP
evaluate the per-frame list capped at 50 triplets; plain recall@K does not
cap. Detection-protocol matching requires label equality and both boxes at
IoU >= 0.5 (an IoU of exactly 0.5 counts).

A frame's ranked list is one `RankedFrame` of arrays. `constrained_view` is
the only constraint rule and `match_frame` the only matching rule: greedy
matching in rank order makes the top-k matches a prefix, so recall@K and mean
recall@K for every K read one pass, and since a triplet only consumes gt of
its own predicate, the detection-style pass over the first 50 triplets holds
every class's AP hit flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Dims
from .errors import ContractError
from .params import Layout, model_shapes
from .scene import GroundTruthObject, pairwise_iou
from .temporal import FramePrediction

IOU_THRESHOLD = 0.5
NO_CONSTRAINT_PER_PAIR = 6
FRAME_TRIPLET_CAP = 50
RECALL_KS = (10, 20, 50)


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


def rank_triplets(pred: FramePrediction, constraint: bool) -> RankedFrame:
    """Globally sorted triplet list for one frame; ties break on (i, j, h).

    Without the constraint each ordered pair keeps its NO_CONSTRAINT_PER_PAIR
    most probable predicates (ties to the lower index), sorted by (-score, i,
    j, predicate). With it the list is `constrained_view` of every pair's
    predicates ranked the same way.
    """
    n = pred.n
    labels = np.argmax(pred.label_dists, axis=1) if n else np.zeros(0, dtype=np.intp)
    if n < 2:
        empty = np.zeros(0, dtype=np.intp)
        return RankedFrame(empty, empty, empty, np.zeros(0), labels, pred.boxes)
    label_scores = np.max(pred.label_dists, axis=1)
    h = pred.relation_probs.shape[2]
    keep = h if constraint else min(NO_CONSTRAINT_PER_PAIR, h)
    subj, obj = np.nonzero(~np.eye(n, dtype=bool))     # subject-major pair order
    probs = pred.relation_probs[subj, obj]
    kept = np.argsort(-probs, axis=1, kind="stable")[:, :keep]
    scores = ((label_scores[subj] * label_scores[obj])[:, None]
              * np.take_along_axis(probs, kept, axis=1)).ravel()
    if not np.isfinite(scores).all():
        raise ContractError("rank_triplets: triplet scores must be finite")
    subj, obj, kept = np.repeat(subj, keep), np.repeat(obj, keep), kept.ravel()
    order = np.lexsort((kept, obj, subj, -scores))
    ranked = RankedFrame(subj[order], obj[order], kept[order], scores[order], labels,
                         pred.boxes)
    return constrained_view(ranked) if constraint else ranked


def constrained_view(ranked: RankedFrame) -> RankedFrame:
    """The with-constraint list: the first triplet of each ordered pair, in
    rank order."""
    _, first = np.unique(ranked.subj * len(ranked.labels) + ranked.obj, return_index=True)
    return ranked[np.sort(first)]


@dataclass
class FrameEval:
    """One frame's ranked predictions plus its ground truth."""

    ranked: RankedFrame
    gt_triplets: list[tuple[int, int, int]]
    gt_objects: list[GroundTruthObject]


def compatibility(ranked: RankedFrame, gt_triplets, gt_objects, mode: str) -> np.ndarray:
    """(triplets, gt triplets) bool matrix: equal predicate and labels, plus
    equal node indices in predcls/sgcls or both boxes at IoU >= IOU_THRESHOLD
    in sgdet."""
    if not len(ranked) or not gt_triplets:
        return np.zeros((len(ranked), len(gt_triplets)), dtype=bool)
    gi, gj, gp = np.asarray(gt_triplets).T
    gt_labels = np.array([o.label for o in gt_objects])
    subj, obj = ranked.subj[:, None], ranked.obj[:, None]
    compatible = ((ranked.predicate[:, None] == gp)
                  & (ranked.labels[subj] == gt_labels[gi])
                  & (ranked.labels[obj] == gt_labels[gj]))
    if mode in ("predcls", "sgcls"):
        return compatible & (subj == gi) & (obj == gj)
    overlaps = pairwise_iou(ranked.boxes, np.stack([o.box.as_array() for o in gt_objects]))
    overlaps = overlaps >= IOU_THRESHOLD
    return compatible & overlaps[subj, gi] & overlaps[obj, gj]


def match_frame(ranked: RankedFrame, gt_triplets, gt_objects, mode: str) -> np.ndarray:
    """Greedy matching in rank order: for each triplet, the index of the gt
    triplet it consumes (the lowest-index compatible one still free), or -1."""
    compatible = compatibility(ranked, gt_triplets, gt_objects, mode)
    taken = np.full(len(ranked), -1)
    free = np.ones(len(gt_triplets), dtype=bool)
    for t in np.flatnonzero(compatible.any(axis=1)):
        hits = np.flatnonzero(compatible[t] & free)
        if len(hits):
            taken[t] = hits[0]
            free[hits[0]] = False
    return taken


def _passes(frames: list[FrameEval], depth: int, mode: str, constraint: bool):
    """Each frame's (constrained) list cut to `depth`, and its matching pass."""
    lists = [(constrained_view(fe.ranked) if constraint else fe.ranked)[:depth]
             for fe in frames]
    return lists, [match_frame(r, fe.gt_triplets, fe.gt_objects, mode)
                   for r, fe in zip(lists, frames)]


def _recall(frames: list[FrameEval], taken: list[np.ndarray], k: int) -> float:
    recalls = [np.count_nonzero(t[:k] >= 0) / len(fe.gt_triplets)
               for fe, t in zip(frames, taken) if fe.gt_triplets]
    return float(np.mean(recalls)) if recalls else 0.0


def _mean_recall(frames: list[FrameEval], taken: list[np.ndarray], k: int) -> float:
    per_class: dict[int, list[float]] = {}
    for fe, t in zip(frames, taken):
        if not fe.gt_triplets:
            continue
        gt_pred = np.array([p for (_, _, p) in fe.gt_triplets])
        top = t[:min(k, FRAME_TRIPLET_CAP)]
        matched_pred = gt_pred[top[top >= 0]]
        for c in {p for (_, _, p) in fe.gt_triplets}:
            total = np.count_nonzero(gt_pred == c)
            got = np.count_nonzero(matched_pred == c)
            per_class.setdefault(c, []).append(got / total)
    if not per_class:
        return 0.0
    return float(np.mean([np.mean(v) for v in per_class.values()]))


def recall_at_k(frames: list[FrameEval], k: int, mode: str,
                constraint: bool) -> float:
    """Fraction of gt triplets recovered in the top-k list, averaged over frames."""
    return _recall(frames, _passes(frames, k, mode, constraint)[1], k)


def mean_recall(frames: list[FrameEval], k: int, mode: str, constraint: bool) -> float:
    """Per-predicate recall@k (of the first FRAME_TRIPLET_CAP triplets)
    macro-averaged over classes present in the gt."""
    depth = min(k, FRAME_TRIPLET_CAP)
    return _mean_recall(frames, _passes(frames, depth, mode, constraint)[1], k)


def average_precision_from_flags(flags, n_pos: int) -> float:
    """Exact precision-envelope integration over the PR staircase."""
    if n_pos == 0:
        return 0.0
    flags = np.asarray(flags, dtype=np.float64)
    tp = np.cumsum(flags)
    fp = np.cumsum(1.0 - flags)
    recall = tp / n_pos
    precision = tp / np.maximum(tp + fp, 1e-12)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _detection_passes(frames: list[FrameEval], lists: list[RankedFrame],
                      taken: list[np.ndarray] | None = None):
    """Each frame's first FRAME_TRIPLET_CAP triplets in (-score, subject,
    object) order, the order in which the corpus-wide AP list visits them,
    and their detection-style pass. A list from `rank_triplets` is already in
    that order; `taken`, an sgdet pass over `lists`, then serves unchanged."""
    out_lists, out_taken = [], []
    for i, (r, fe) in enumerate(zip(lists, frames)):
        r = r[:FRAME_TRIPLET_CAP]
        order = np.lexsort((r.obj, r.subj, -r.score))
        if taken is not None and (order == np.arange(len(r))).all():
            t = taken[i][:FRAME_TRIPLET_CAP]
        else:
            r = r[order]
            t = match_frame(r, fe.gt_triplets, fe.gt_objects, "sgdet")
        out_lists.append(r)
        out_taken.append(t)
    return out_lists, out_taken


def _class_aps(frames: list[FrameEval], lists: list[RankedFrame],
               taken: list[np.ndarray]) -> tuple[dict[int, float], dict[int, int]]:
    """Per-predicate AP over the corpus-wide list sorted by (-score, frame,
    subject, object), from `_detection_passes`; and the gt count per predicate.
    A triplet only consumes gt of its own predicate, so a frame's pass holds
    the hit flags of every class."""
    gt_count: dict[int, int] = {}
    for fe in frames:
        for (_, _, p) in fe.gt_triplets:
            gt_count[p] = gt_count.get(p, 0) + 1
    frame = np.repeat(np.arange(len(lists)), [len(r) for r in lists])
    pred, score, subj, obj = (np.concatenate([getattr(r, name) for r in lists] or [[]])
                              for name in ("predicate", "score", "subj", "obj"))
    hit = np.concatenate(taken or [[]]) >= 0
    order = np.lexsort((obj, subj, frame, -score, pred))
    pred, hit = pred[order], hit[order]
    aps = {}
    for c, n_pos in sorted(gt_count.items()):
        lo, hi = np.searchsorted(pred, [c, c + 1])
        aps[c] = average_precision_from_flags(hit[lo:hi], n_pos)
    return aps, gt_count


def _mean_ap(aps: dict[int, float], gt_count: dict[int, int], weighted: bool) -> float:
    if not aps:
        return 0.0
    if not weighted:
        return float(np.mean(list(aps.values())))
    total = sum(gt_count.values())
    return float(sum(gt_count[c] / total * aps[c] for c in aps))


def relation_map(frames: list[FrameEval], weighted: bool, constraint: bool = False) -> float:
    """Per-predicate AP over the corpus-wide score-sorted list.

    Matching is always detection style (labels plus IoU on both boxes);
    classes absent from the gt are excluded from the mean.
    """
    lists = [constrained_view(fe.ranked) if constraint else fe.ranked for fe in frames]
    return _mean_ap(*_class_aps(frames, *_detection_passes(frames, lists)), weighted)


def evaluate(frames: list[FrameEval], mode: str, constraint: bool) -> dict:
    """Full metric report for one corpus under one protocol: one matching pass
    per frame for recall and mean recall at every K, which in sgdet also
    serves relation AP; predcls and sgcls add a detection-style pass."""
    depth = max(max(RECALL_KS), FRAME_TRIPLET_CAP)
    lists, taken = _passes(frames, depth, mode, constraint)
    report = {"mode": mode, "constraint": constraint}
    for k in RECALL_KS:
        report[f"recall@{k}"] = _recall(frames, taken, k)
    for k in RECALL_KS:
        report[f"mean_recall@{k}"] = _mean_recall(frames, taken, k)
    det = _detection_passes(frames, lists, taken if mode == "sgdet" else None)
    aps, gt_count = _class_aps(frames, *det)
    report["map_rel"] = _mean_ap(aps, gt_count, weighted=False)
    report["wmap_rel"] = _mean_ap(aps, gt_count, weighted=True)
    return report


# ---------------------------------------------------------------------------
# efficiency accounting


@dataclass
class EfficiencyReport:
    parameter_count: int
    flops_per_frame: int
    n_objects: int
    variant: str
    k: int = 1
    breakdown: dict = field(default_factory=dict)


def count_params_flops(dims: Dims, n: int, variant: str = "sparse", k: int = 1,
                       gcn_layers: int = 2) -> EfficiencyReport:
    """Analytic counts read off `params.model_shapes`. A stage applies each of
    its matrices, of shape (a, b), to its rows at 2ab FLOPs a row (a
    multiply-add pair costs 2); only dense layers and the relevance dots are
    counted. Parameters do not depend on the variant."""
    if n < 0:
        raise ContractError(f"count_params_flops: need n >= 0, got {n}")
    shapes = model_shapes(dims, gcn_layers)
    temporal_on = variant != "spatial"
    links = {"dense": n * n, "sparse": n * min(k, n), "tracking": n}.get(variant, 0)
    # each stage's parameter-name prefixes and the rows its matrices apply to;
    # GCN edge features aggregate before the transform, so it sees n rows
    stages = {"proposal": ("prop.", n * n), "gcn": ("gcn.", n),
              "relevance": ("temporal.phi", n if temporal_on else 0),
              "temporal_encoding": (("temporal.fg.", "temporal.ftau."), links),
              "relation_head": ("rel.", n * n), "label_head": ("label.", n)}
    breakdown = {stage: rows * sum(2 * math.prod(shape) for name, shape in shapes.items()
                                   if len(shape) == 2 and name.startswith(prefixes))
                 for stage, (prefixes, rows) in stages.items()}
    if temporal_on:
        breakdown["relevance"] += n * n * 2 * dims.d
    return EfficiencyReport(parameter_count=Layout(shapes).size,
                            flops_per_frame=sum(breakdown.values()),
                            n_objects=n, variant=variant, k=k, breakdown=breakdown)
