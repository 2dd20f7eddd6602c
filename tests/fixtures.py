"""Hand-built three-frame evaluation fixture, a per-frame matcher and an
exhaustive one, per-frame triplet lists built from row tuples, and the
(N, N, H) relation grid of a served frame.

`match_frame` is the per-frame form of the corpus-wide greedy matching in
`stsg.metrics`; the exhaustive oracle enumerates every injective assignment
of predictions to ground truth, so greedy matching can be checked against
the true maximum. `triplet_list` builds the per-frame lists these take,
constrained or cut, from a ranked list's rows, apart from the package's
corpus-wide constraint.
"""

from collections import namedtuple

import numpy as np

from stsg.config import MODES, RunConfig, config_with
from stsg.metrics import IOU_THRESHOLD, FrameEval, rank_triplets
from stsg.scene import OBJECT_DTYPE, pairwise_iou
from stsg.synthgen import generate_scene
from stsg.temporal import FramePrediction, forward_sequence, frame_offsets, rank_frames
from stsg.training import train

G, H = 4, 3

# a frame's triplet list as columns: its triplets', then its nodes'
RankedColumns = namedtuple("RankedColumns", ("subj", "obj", "predicate", "score", "labels",
                                             "boxes", "label_scores"))


def pair_grid(values: np.ndarray, n: int) -> np.ndarray:
    """One frame's (n * (n - 1), H) pair values as an (n, n, H) grid, zero diagonal."""
    grid = np.zeros((n, n) + values.shape[1:])
    grid[~np.eye(n, dtype=bool)] = values
    return grid


def relation_probs(pred: FramePrediction) -> np.ndarray:
    """A served frame's relation probabilities as an (N, N, H) grid, zero diagonal."""
    return pair_grid(pred.pair_probs, pred.n)


def _gt(x, y, w, h, label):
    """A gt object's record (`scene.OBJECT_DTYPE`), as a frame's view holds it."""
    return np.array(((x, y, w, h), label, False, True), dtype=OBJECT_DTYPE)[()]


def _pred(boxes, labels, scores, rel):
    dists = np.zeros((len(labels), G))
    for i, (lab, s) in enumerate(zip(labels, scores)):
        dists[i, lab] = s
        rest = (1.0 - s) / (G - 1)
        for c in range(G):
            if c != lab:
                dists[i, c] = rest
    n = len(labels)
    return frame_prediction(np.array(boxes, dtype=float), dists, np.array(rel, dtype=float),
                            np.zeros((n, 4)), np.zeros((n, 4)))


def frame_prediction(boxes, dists, rel, fused, gcn) -> FramePrediction:
    """A hand-built frame from its (n, n, H) relation grid, its triplets
    ranked by the rule a forward pass ranks with (`rank_frames`)."""
    n = len(dists)
    pairs = ~np.eye(n, dtype=bool)     # subject-major, as spatial.frame_pairs lists them
    (ranked,) = rank_frames(rel[pairs], *np.nonzero(pairs), dists.argmax(axis=1),
                            dists.max(axis=1), boxes, frame_offsets([n]))
    return FramePrediction(label_dists=dists, pair_probs=rel[pairs], fused=fused, gcn=gcn,
                           ranked=ranked)


def three_frame_fixture() -> list[FrameEval]:
    """Three frames covering exact hits, an IoU==0.5 edge and a class split.

    Frame 0: two objects, both gt triplets recoverable at rank 1 and 3.
    Frame 1: detection overlaps gt at exactly IoU 0.5, correct predicate.
    Frame 2: two predicate classes; class 0 recovered, class 2 missed.
    """
    frames = []

    rel0 = np.zeros((2, 2, H))
    rel0[0, 1, 0] = 0.9   # matches gt (0, 1, 0)
    rel0[0, 1, 2] = 0.5   # distractor on the same pair
    rel0[1, 0, 1] = 0.6   # matches gt (1, 0, 1)
    p0 = _pred([[0.1, 0.1, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]], [1, 2], [1.0, 1.0], rel0)
    g0 = [_gt(0.1, 0.1, 0.2, 0.2, 1), _gt(0.5, 0.5, 0.2, 0.2, 2)]
    frames.append(FrameEval(rank_triplets(p0, constraint=False), [(0, 1, 0), (1, 0, 1)], g0))

    # det box nested in gt with exactly half the area: IoU is exactly 0.5
    # (all coordinates are powers of two, so the ratio is float-exact)
    rel1 = np.zeros((2, 2, H))
    rel1[0, 1, 1] = 0.8
    p1 = _pred([[0.25, 0.25, 0.25, 0.125], [0.625, 0.625, 0.25, 0.25]],
               [3, 1], [1.0, 1.0], rel1)
    g1 = [_gt(0.25, 0.25, 0.25, 0.25, 3), _gt(0.625, 0.625, 0.25, 0.25, 1)]
    frames.append(FrameEval(rank_triplets(p1, constraint=False), [(0, 1, 1)], g1))

    rel2 = np.zeros((3, 3, H))
    rel2[0, 1, 0] = 0.95  # recovers gt (0, 1, 0)
    rel2[0, 2, 1] = 0.7   # wrong predicate for gt (0, 2, 2)
    rel2[2, 1, 0] = 0.65  # recovers gt (2, 1, 0)
    p2 = _pred([[0.0, 0.0, 0.1, 0.1], [0.3, 0.3, 0.1, 0.1], [0.7, 0.7, 0.1, 0.1]],
               [0, 1, 0], [1.0, 1.0, 1.0], rel2)
    g2 = [_gt(0.0, 0.0, 0.1, 0.1, 0), _gt(0.3, 0.3, 0.1, 0.1, 1), _gt(0.7, 0.7, 0.1, 0.1, 0)]
    frames.append(FrameEval(rank_triplets(p2, constraint=False),
                            [(0, 1, 0), (0, 2, 2), (2, 1, 0)], g2))
    return frames


def served_corpus(n_train: int, n_test: int, seed: int = 7) -> dict[str, list[FrameEval]]:
    """Default-config scenes served in each mode by a sparse k=1 model trained
    for 2 epochs in sgdet on the first `n_train` of them, as the serving
    benchmark trains it; each frame ranked unconstrained, as `stsg infer`
    writes it."""
    cfg = config_with(RunConfig(), mode="sgdet", variant="sparse", k=1, epochs=2, seed=0)
    scenes = [generate_scene(cfg.dims, cfg.world, seed * 1_000_000 + i)
              for i in range(n_train + n_test)]
    params = train(scenes[:n_train], cfg).params
    return {mode: [FrameEval(rank_triplets(pred, constraint=False), list(frame.triplets),
                             list(frame.objects))
                   for seq in scenes[n_train:]
                   for pred, frame in zip(forward_sequence(seq, params, mode, "sparse", 1),
                                          seq.frames)]
            for mode in MODES}


def triplet_rows(ranked, constraint: bool = False) -> list[tuple]:
    """(subject, object, predicate, score) of each ranked triplet, in order;
    with the constraint, only the first of each ordered pair."""
    rows, seen = [], set()
    for row in zip(ranked.subj.tolist(), ranked.obj.tolist(), ranked.predicate.tolist(),
                   ranked.score.tolist()):
        if not constraint or row[:2] not in seen:
            seen.add(row[:2])
            rows.append(row)
    return rows


def triplet_list(ranked, constraint: bool, k: int | None = None) -> RankedColumns:
    """The first k of `triplet_rows(ranked, constraint)` as columns, with
    the list's nodes."""
    table = np.array(triplet_rows(ranked, constraint)[:k], dtype=np.float64).reshape(-1, 4)
    subj, obj, predicate = table[:, :3].T.astype(np.intp)
    return RankedColumns(subj, obj, predicate, table[:, 3], ranked.labels, ranked.boxes,
                         ranked.label_scores)


def compatibility(ranked, gt_triplets, gt_objects, mode: str) -> np.ndarray:
    """(triplets, gt triplets) bool matrix: equal predicate and labels, plus
    equal node indices in predcls/sgcls or both boxes at IoU >= IOU_THRESHOLD
    in sgdet."""
    if not len(ranked.score) or not gt_triplets:
        return np.zeros((len(ranked.score), len(gt_triplets)), dtype=bool)
    gi, gj, gp = np.asarray(gt_triplets).T
    gt_labels = np.array([o.label for o in gt_objects])
    subj, obj = ranked.subj[:, None], ranked.obj[:, None]
    compatible = ((ranked.predicate[:, None] == gp)
                  & (ranked.labels[subj] == gt_labels[gi])
                  & (ranked.labels[obj] == gt_labels[gj]))
    if mode in ("predcls", "sgcls"):
        return compatible & (subj == gi) & (obj == gj)
    overlaps = pairwise_iou(ranked.boxes, np.array([o.box for o in gt_objects]))
    overlaps = overlaps >= IOU_THRESHOLD
    return compatible & overlaps[subj, gi] & overlaps[obj, gj]


def match_frame(ranked, gt_triplets, gt_objects, mode: str) -> np.ndarray:
    """Greedy matching in rank order: for each triplet, the index of the gt
    triplet it consumes (the lowest-index compatible one still free), or -1."""
    compatible = compatibility(ranked, gt_triplets, gt_objects, mode)
    taken = np.full(len(ranked.score), -1)
    free = np.ones(len(gt_triplets), dtype=bool)
    for t in np.flatnonzero(compatible.any(axis=1)):
        hits = np.flatnonzero(compatible[t] & free)
        if len(hits):
            taken[t] = hits[0]
            free[hits[0]] = False
    return taken


def exhaustive_max_matches(ranked, gt_triplets, gt_objects, mode) -> int:
    """Maximum number of gt triplets coverable by an injective assignment."""
    compatible = [np.flatnonzero(row).tolist()
                  for row in compatibility(ranked, gt_triplets, gt_objects, mode)]

    best = 0

    def rec(idx: int, used: frozenset):
        nonlocal best
        best = max(best, len(used))
        if idx == len(compatible):
            return
        if len(used) + (len(compatible) - idx) <= best:
            return
        rec(idx + 1, used)
        for gi in compatible[idx]:
            if gi not in used:
                rec(idx + 1, used | {gi})

    rec(0, frozenset())
    return best


def exhaustive_recall_at_k(frames, k, mode, constraint) -> float:
    vals = []
    for fe in frames:
        if not fe.gt_triplets:
            continue
        ranked = triplet_list(fe.ranked, constraint, k)
        vals.append(exhaustive_max_matches(ranked, fe.gt_triplets, fe.gt_objects, mode)
                    / len(fe.gt_triplets))
    return float(np.mean(vals)) if vals else 0.0
