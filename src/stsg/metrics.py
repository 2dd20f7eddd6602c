"""Scene-graph evaluation and analytic efficiency accounting.

Triplets are ranked by subject-label score * object-label score * predicate
probability, each frame on its own, with the frame's forward pass
(`temporal.rank_frames`). The with-constraint setting keeps the best
predicate per ordered pair; no-constraint keeps up to six. Mean recall and
relation AP evaluate the per-frame list capped at 50 triplets; plain
recall@K does not cap. Detection-protocol matching requires label equality
and both boxes at IoU >= 0.5 (an IoU of exactly 0.5 counts).

A frame's ranked list is one `RankedFrame` of arrays, which also carries its
nodes' labels, boxes and label scores; `temporal.rank_frames` makes every
one, so every list is in rank order. Evaluation works on the whole corpus
at once: it lays every frame's list, cut to the depth needed, and the
ground truth out as flat frame-major arrays, and applies the constraint
there, in one pass over the corpus (`_flatten`).
Matching is one rule, greedy in rank order: each triplet consumes the
lowest-index gt triplet of its frame still free that has its predicate and
labels, and equal node indices (predcls, sgcls) or both boxes at IoU >= 0.5
(sgdet). The candidate pairs come from one sorted-key join on (frame,
predicate, subject label, object label). Greedy matching in rank order
makes the top-k matches a prefix, so recall@K and mean recall@K for every K
are bincounts over one pass; and since a triplet only consumes gt of its
own predicate, the detection-style pass over each frame's first 50 triplets
holds every class's AP hit flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .config import Dims
from .errors import ContractError
from .params import Layout, model_shapes
from .scene import OBJECT_DTYPE, box_iou
from .temporal import FramePrediction, RankedFrame

IOU_THRESHOLD = 0.5
FRAME_TRIPLET_CAP = 50
RECALL_KS = (10, 20, 50)


def rank_triplets(pred: FramePrediction, constraint: bool) -> RankedFrame:
    """A frame's unconstrained triplets in rank order: `pred.ranked`, the
    list its forward pass ranked (`temporal.rank_frames`), as it is. It
    ranks nothing itself, and a caller that reads only the nodes (`stsg
    infer`) sorts nothing. Evaluation applies the constraint, so
    `constraint` must be False."""
    if constraint:
        raise ContractError("rank_triplets: evaluation applies the constraint; "
                            "pass constraint=False")
    return pred.ranked


def _first_per_key(key: np.ndarray, n_keys: int) -> np.ndarray:
    """Positions of the first occurrence of each key in [0, n_keys), in list
    order."""
    first = np.full(n_keys, len(key))
    np.minimum.at(first, key, np.arange(len(key)))
    return np.sort(first[first < len(key)])


@dataclass
class FrameEval:
    """One frame's ranked predictions plus its ground truth: its gt triplets,
    (subject, object, predicate) rows, and its gt objects, `OBJECT_DTYPE`
    records, each as an array (a frame's views, `scene.FrameView`) or a list
    of rows; `_flatten` converts them once per corpus."""

    ranked: RankedFrame
    gt_triplets: np.ndarray | list
    gt_objects: np.ndarray | list


@dataclass(frozen=True, eq=False)
class _Corpus:
    """A corpus's ranked lists, cut to a depth, and its ground truth, as flat
    frame-major arrays. Node and gt-object indices count across the corpus;
    `*_start` holds each frame's first one."""

    frame: np.ndarray         # (T,) frame of each triplet
    rank: np.ndarray          # (T,) position in its frame's (constrained) list
    subj: np.ndarray          # (T,) corpus node indices
    obj: np.ndarray           # (T,)
    predicate: np.ndarray     # (T,)
    score: np.ndarray         # (T,)
    labels: np.ndarray        # (N,) argmax label per node
    boxes: np.ndarray         # (N, 4)
    node_start: np.ndarray    # (F,)
    gt_frame: np.ndarray      # (G,) frame of each gt triplet
    gt_subj: np.ndarray       # (G,) corpus gt-object indices
    gt_obj: np.ndarray        # (G,)
    gt_pred: np.ndarray       # (G,)
    gt_labels: np.ndarray     # (O,)
    gt_boxes: np.ndarray      # (O, 4)
    object_start: np.ndarray  # (F,)


def _starts(counts) -> np.ndarray:
    """Where each of consecutive runs of these lengths starts."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.cumsum(counts) - counts


def _cat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays).astype(dtype, copy=False) if arrays else np.zeros(0, dtype)


def _flatten(frames: list[FrameEval], depth: int, constraint: bool) -> _Corpus:
    """Each frame's list cut to its first `depth` triplets; and the ground
    truth. With the constraint, a frame's list is the first triplet of each
    of its ordered pairs, in rank order: one first-occurrence pass over the
    corpus's ordered node pairs, a kept row's frame and rank coming from
    the lengths of the constrained lists."""
    ranked = [fe.ranked for fe in frames]
    frame_ids = np.arange(len(frames))
    cut = None if constraint else max(depth, 0)    # the constraint reads whole lists
    lengths = np.array([len(r.score[:cut]) for r in ranked], dtype=np.intp)
    n_nodes = np.array([len(r.labels) for r in ranked], dtype=np.intp)
    node_start = _starts(n_nodes)
    subj = _cat([r.subj[:cut] for r in ranked], np.intp)
    obj = _cat([r.obj[:cut] for r in ranked], np.intp)
    frame = np.repeat(frame_ids, lengths)
    rows = np.arange(len(subj))
    if constraint:   # a frame's ordered node pairs are numbered subject-major
        rows = _first_per_key(_starts(n_nodes * n_nodes)[frame] + subj * n_nodes[frame] + obj,
                              int(n_nodes @ n_nodes))
        frame = frame[rows]
        lengths = np.bincount(frame, minlength=len(frames))
    rank = np.arange(len(rows)) - np.repeat(_starts(lengths), lengths)
    keep = rank < depth
    rows, frame, rank = rows[keep], frame[keep], rank[keep]
    subj, obj = subj[rows] + node_start[frame], obj[rows] + node_start[frame]

    gt_frame = np.repeat(frame_ids, [len(fe.gt_triplets) for fe in frames])
    object_start = _starts([len(fe.gt_objects) for fe in frames])
    gt = np.array(list(chain.from_iterable(fe.gt_triplets for fe in frames)),
                  np.intp).reshape(-1, 3)
    objects = np.array(list(chain.from_iterable(fe.gt_objects for fe in frames)), OBJECT_DTYPE)
    return _Corpus(
        frame=frame,
        rank=rank,
        subj=subj,
        obj=obj,
        predicate=_cat([r.predicate[:cut] for r in ranked], np.intp)[rows],
        score=_cat([r.score[:cut] for r in ranked], np.float64)[rows],
        labels=_cat([r.labels for r in ranked], np.intp),
        boxes=_cat([r.boxes.reshape(-1, 4) for r in ranked], np.float64).reshape(-1, 4),
        node_start=node_start,
        gt_frame=gt_frame,
        gt_subj=gt[:, 0] + object_start[gt_frame],
        gt_obj=gt[:, 1] + object_start[gt_frame],
        gt_pred=gt[:, 2],
        gt_labels=objects["label"],
        gt_boxes=objects["box"],
        object_start=object_start,
    )


def _number(values: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Each value's position in the sorted `among`, or -1 if it is not there."""
    at = np.minimum(np.searchsorted(among, values), len(among) - 1)
    return np.where(among[at] == values, at, -1)


def _join_key(frame, predicate, subj_label, obj_label, n_predicates: int,
              n_labels: int) -> np.ndarray:
    """(frame, predicate, subject label, object label), each numbered among
    the gt values, as one integer; -1 where a value is not a gt value."""
    key = ((frame * n_predicates + predicate) * n_labels + subj_label) * n_labels + obj_label
    key[(predicate < 0) | (subj_label < 0) | (obj_label < 0)] = -1
    return key


def _match(c: _Corpus, rows: np.ndarray, mode: str) -> np.ndarray:
    """Greedy matching of the triplets `rows`, visited in that order: the
    corpus index of the gt triplet each consumes (the lowest-index compatible
    one of its frame still free), or -1.

    Compatible means equal predicate and labels, plus equal node indices in
    predcls/sgcls or both boxes at IoU >= IOU_THRESHOLD in sgdet. Candidates
    come from one sorted-key join on (frame, predicate, subject label, object
    label), so every transient array is O(triplets + label-compatible pairs).
    """
    taken = np.full(len(rows), -1)
    if not len(rows) or not len(c.gt_pred):
        return taken
    predicates, gt_pred = np.unique(c.gt_pred, return_inverse=True)
    labels, gt_label = np.unique(c.gt_labels, return_inverse=True)
    sizes = len(predicates), len(labels)
    gt_key = _join_key(c.gt_frame, gt_pred, gt_label[c.gt_subj], gt_label[c.gt_obj], *sizes)
    by_key = np.argsort(gt_key, kind="stable")      # ties keep the gt index order
    sorted_key = gt_key[by_key]
    node_label = _number(c.labels, labels)
    key = _join_key(c.frame[rows], _number(c.predicate[rows], predicates),
                    node_label[c.subj[rows]], node_label[c.obj[rows]], *sizes)
    lo = np.searchsorted(sorted_key, key, side="left")
    counts = np.searchsorted(sorted_key, key, side="right") - lo
    # every (row, gt) pair with equal keys, row-major and gt index ascending
    pair_row = np.repeat(np.arange(len(rows)), counts)
    pair_gt = by_key[np.arange(len(pair_row)) - np.repeat(_starts(counts) - lo, counts)]
    triplet = rows[pair_row]
    subj, obj, frame = c.subj[triplet], c.obj[triplet], c.frame[triplet]
    gs, go = c.gt_subj[pair_gt], c.gt_obj[pair_gt]
    if mode in ("predcls", "sgcls"):
        shift = (c.node_start - c.object_start)[frame]   # node index -> gt-object index
        ok = (subj - shift == gs) & (obj - shift == go)
    else:
        ok = ((box_iou(c.boxes[subj], c.gt_boxes[gs]) >= IOU_THRESHOLD)
              & (box_iou(c.boxes[obj], c.gt_boxes[go]) >= IOU_THRESHOLD))
    # the pairs are in visiting order, so the first free gt of a row is the
    # lowest-index one left to it
    done, used = set(), set()
    for r, g in zip(pair_row[ok].tolist(), pair_gt[ok].tolist()):
        if r not in done and g not in used:
            done.add(r)
            used.add(g)
            taken[r] = g
    return taken


def _recalls(c: _Corpus, taken: np.ndarray, ks) -> list[float]:
    """Recall@k for each k: the fraction of each frame's gt triplets matched
    in its top k, averaged over the frames that have gt."""
    n_frames = len(c.node_start)
    n_gt = np.bincount(c.gt_frame, minlength=n_frames)
    scored = n_gt > 0
    if not scored.any():
        return [0.0 for _ in ks]
    matched = taken >= 0
    return [float(np.mean(np.bincount(c.frame[matched & (c.rank < k)],
                                      minlength=n_frames)[scored] / n_gt[scored]))
            for k in ks]


def _class_order(c: _Corpus, classes: np.ndarray, first_frame: np.ndarray) -> list[int]:
    """The gt predicate classes by the frame that first has each, a frame's
    classes in the iteration order of the set of them. This order fixes the
    floating-point sum over classes, so every path returns the same float."""
    order = []
    for f in sorted(set(first_frame.tolist())):
        fresh = set(classes[first_frame == f].tolist())
        order += [p for p in set(c.gt_pred[c.gt_frame == f].tolist()) if p in fresh]
    return order


def _mean_recalls(c: _Corpus, taken: np.ndarray, ks) -> list[float]:
    """Mean recall@k for each k: per predicate class, the share of a frame's
    gt triplets of that class matched in its top min(k, FRAME_TRIPLET_CAP),
    averaged over the frames with that class, then over classes."""
    if not len(c.gt_pred):
        return [0.0 for _ in ks]
    n_frames = len(c.node_start)
    classes, first, cls = np.unique(c.gt_pred, return_index=True, return_inverse=True)
    # one cell per (class, frame) with gt of that class, class-major
    cells, cell, total = np.unique(cls * n_frames + c.gt_frame, return_inverse=True,
                                   return_counts=True)
    bounds = np.searchsorted(cells, np.arange(len(classes) + 1) * n_frames)
    order = np.searchsorted(classes, _class_order(c, classes, c.gt_frame[first]))
    spans = [(bounds[i], bounds[i + 1]) for i in order.tolist()]
    out = []
    for k in ks:
        hit = taken[(c.rank < min(k, FRAME_TRIPLET_CAP)) & (taken >= 0)]
        share = np.bincount(cell[hit], minlength=len(cells)) / total
        out.append(float(np.mean([np.mean(share[lo:hi]) for lo, hi in spans])))
    return out


def recall_at_k(frames: list[FrameEval], k: int, mode: str,
                constraint: bool) -> float:
    """Fraction of gt triplets recovered in the top-k list, averaged over frames."""
    c = _flatten(frames, k, constraint)
    return _recalls(c, _match(c, np.arange(len(c.score)), mode), (k,))[0]


def mean_recall(frames: list[FrameEval], k: int, mode: str, constraint: bool) -> float:
    """Per-predicate recall@k (of the first FRAME_TRIPLET_CAP triplets)
    macro-averaged over classes present in the gt."""
    c = _flatten(frames, min(k, FRAME_TRIPLET_CAP), constraint)
    return _mean_recalls(c, _match(c, np.arange(len(c.score)), mode), (k,))[0]


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


def _detection_pass(c: _Corpus, taken: np.ndarray | None = None):
    """Each frame's first FRAME_TRIPLET_CAP triplets in (frame, -score,
    subject, object) order, the order in which the corpus-wide AP list visits
    them, and their detection-style matches.

    Every list comes from `temporal.rank_frames`, which sorts each frame on
    its own, so the corpus's rows, constrained or not, are in that order
    already. `taken`, an sgdet pass over the whole corpus, serves as it is:
    greedy matches in rank order form a prefix."""
    rows = np.flatnonzero(c.rank < FRAME_TRIPLET_CAP)
    return rows, taken[rows] if taken is not None else _match(c, rows, "sgdet")


def _class_aps(c: _Corpus, rows, taken) -> tuple[dict[int, float], dict[int, int]]:
    """Per-predicate AP over the corpus-wide list sorted by (-score, frame,
    subject, object); and the gt count per predicate. `rows` and their
    matches `taken` come from `_detection_pass`, in (frame, -score, subject,
    object) order, so a stable sort on -score and then one on the predicate
    give (predicate, -score, frame, subject, object). A triplet only consumes
    gt of its own predicate, so one pass holds the hit flags of every class."""
    classes, counts = np.unique(c.gt_pred, return_counts=True)
    gt_count = dict(zip(classes.tolist(), counts.tolist()))
    order = np.argsort(-c.score[rows], kind="stable")
    order = order[np.argsort(c.predicate[rows[order]], kind="stable")]
    pred, hit = c.predicate[rows[order]], taken[order] >= 0
    aps = {}
    for cls, n_pos in sorted(gt_count.items()):
        lo, hi = np.searchsorted(pred, [cls, cls + 1])
        aps[cls] = average_precision_from_flags(hit[lo:hi], n_pos)
    return aps, gt_count


def _mean_ap(aps: dict[int, float], gt_count: dict[int, int], weighted: bool) -> float:
    if not aps:
        return 0.0
    if not weighted:
        return float(np.mean(list(aps.values())))
    total = sum(gt_count.values())
    return float(sum(gt_count[c] / total * aps[c] for c in aps))


def relation_map(frames: list[FrameEval], weighted: bool, constraint: bool = False) -> float:
    """`evaluate`'s relation mAP, in sgdet: `wmap_rel` if weighted, else
    `map_rel`. Nothing in the package calls it; the benchmark's clock
    (perfbench/workloads.py, PACE) wraps the name, so it stays."""
    return evaluate(frames, "sgdet", constraint)["wmap_rel" if weighted else "map_rel"]


def evaluate(frames: list[FrameEval], mode: str, constraint: bool) -> dict:
    """Full metric report for one corpus under one protocol: one matching pass
    over the whole corpus for recall and mean recall at every K, which in
    sgdet also serves relation AP; predcls and sgcls add a detection-style
    pass."""
    c = _flatten(frames, max(max(RECALL_KS), FRAME_TRIPLET_CAP), constraint)
    taken = _match(c, np.arange(len(c.score)), mode)
    report = {"mode": mode, "constraint": constraint}
    for k, value in zip(RECALL_KS, _recalls(c, taken, RECALL_KS)):
        report[f"recall@{k}"] = value
    for k, value in zip(RECALL_KS, _mean_recalls(c, taken, RECALL_KS)):
        report[f"mean_recall@{k}"] = value
    det = _detection_pass(c, taken if mode == "sgdet" else None)
    aps, gt_count = _class_aps(c, *det)
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
