"""Hand-built three-frame evaluation fixture plus an exhaustive matcher.

The oracle enumerates every injective assignment of predictions to ground
truth, so greedy matching in the implementation can be checked against the
true maximum.
"""

import numpy as np

from stsg.metrics import FrameEval, compatibility, constrained_view, rank_triplets
from stsg.scene import BoundingBox, GroundTruthObject
from stsg.temporal import FramePrediction

G, H = 4, 3


def _gt(x, y, w, h, label):
    return GroundTruthObject(BoundingBox(x, y, w, h), label, np.zeros(2))


def _pred(boxes, labels, scores, rel):
    dists = np.zeros((len(labels), G))
    for i, (lab, s) in enumerate(zip(labels, scores)):
        dists[i, lab] = s
        rest = (1.0 - s) / (G - 1)
        for c in range(G):
            if c != lab:
                dists[i, c] = rest
    return FramePrediction(
        boxes=np.array(boxes, dtype=float),
        label_dists=dists,
        relation_probs=np.array(rel, dtype=float),
        fused=np.zeros((len(labels), 4)),
        gcn=np.zeros((len(labels), 4)),
    )


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
        ranked = constrained_view(fe.ranked) if constraint else fe.ranked
        vals.append(exhaustive_max_matches(ranked[:k], fe.gt_triplets, fe.gt_objects, mode)
                    / len(fe.gt_triplets))
    return float(np.mean(vals)) if vals else 0.0
