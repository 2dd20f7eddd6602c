"""Domain types for frames, objects and graphs.

A node is the concatenation [box(4) | label distribution(G) | visual(C)],
so the node width is always m = 4 + G + C and every slice of the encoding
can be recovered by offset. A sequence holds its node inputs as one matrix
of such rows for its gt objects and one for its detections, which its
frames view (`scene_sequence`). Those rows are the only copy of a vector.
A box has a second copy, a tuple of its row's numbers, in its record: a gt
object record keeps it with its label and two flags, a detection record
keeps only it.

Rows come from numbers the callers checked (`io` decodes a file's rows
whole and checks them finite, of the right widths, with label
distributions; `synthgen` assembles them with `object_nodes`);
`scene_sequence` checks what a scene requires, every box's range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (..., 4) arrays of (x, y, w, h) boxes, broadcast against each
    other, in [0, 1]. A box spans [x, x + w] as x + w rounds, and both the
    intersection and the areas are measured on those spans, so a box and
    itself have IoU exactly 1: against areas of w * h, a span's (x + w) - x
    left that ratio an ulp either side of 1."""
    ax1, ay1 = a[..., 0] + a[..., 2], a[..., 1] + a[..., 3]
    bx1, by1 = b[..., 0] + b[..., 2], b[..., 1] + b[..., 3]
    ix = np.maximum(0.0, np.minimum(ax1, bx1) - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(ay1, by1) - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    union = ((ax1 - a[..., 0]) * (ay1 - a[..., 1]) + (bx1 - b[..., 0]) * (by1 - b[..., 1])
             - inter)
    ratio = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return np.minimum(ratio, 1.0, out=ratio)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU matrix of (n, 4) and (m, 4) arrays of boxes."""
    return box_iou(a[:, None, :], b[None, :, :])


def iou(a, b) -> float:
    """IoU of two (x, y, w, h) boxes."""
    a, b = np.array([a, b], dtype=np.float64)
    return float(pairwise_iou(a[None], b[None])[0, 0])


def overlap_fraction(inner, outer) -> float:
    """Fraction of the (x, y, w, h) box `inner`'s area covered by `outer`."""
    x, y, w, h = inner
    ox, oy, ow, oh = outer
    ix = max(0.0, min(x + w, ox + ow) - max(x, ox))
    iy = max(0.0, min(y + h, oy + oh) - max(y, oy))
    return (ix * iy) / (w * h)


def check_boxes(boxes: np.ndarray) -> None:
    """Every (x, y, w, h) row of an (n, 4) array has its corner in [0, 1]
    and its sides in (0, 1]; the error names the first row that does not."""
    x, y, w, h = boxes.T
    corner = (0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)
    size = (0.0 < w) & (w <= 1.0) & (0.0 < h) & (h <= 1.0)
    ok = corner & size
    if not ok.all():
        i = int(np.argmin(ok))
        x, y, w, h = boxes[i].tolist()
        if not corner[i]:
            raise ContractError(f"box: corner ({x}, {y}) outside [0, 1]")
        raise ContractError(f"box: size ({w}, {h}) outside (0, 1]")


def object_nodes(boxes, label_dists, visual_feats, dims) -> np.ndarray:
    """The (n, m) node matrix of one (x, y, w, h) box, one label distribution
    and one visual vector per node, each a row of numbers its caller checked."""
    if not len(boxes):
        return np.zeros((0, dims.m))
    return np.concatenate([boxes, label_dists, visual_feats], axis=1, dtype=np.float64)


@dataclass(frozen=True, slots=True)
class ObjectNode:
    """Detection: its (x, y, w, h) box; its vectors are its row of the
    frame's `det_feats`."""

    box: tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """Scripted object state for one frame (labels are exact, occlusion is
    known); its vectors are its row of the frame's `gt_feats`."""

    box: tuple[float, float, float, float]
    label: int
    occluded: bool
    recorded: bool   # whether the row holds a detector label distribution, not one-hot


@dataclass(slots=True)
class FrameRecord:
    """Ground truth plus simulated detections for one frame, with their node rows."""

    objects: list[GroundTruthObject]
    triplets: list[tuple[int, int, int]]     # (subject idx, object idx, predicate)
    detections: list[ObjectNode]
    gt_feats: np.ndarray     # (n, m) [box | detector label dist, one-hot if none | visual]
    gt_labels: np.ndarray    # (n,) gt label of each object
    det_feats: np.ndarray    # (d, m) [box | label dist | visual] of each detection


@dataclass
class SceneSequence:
    """Ordered frames with gt predicates, detections and sequence-level event
    labels; g is the label width of the frames' node rows."""

    frames: list[FrameRecord]
    event_labels: np.ndarray
    seed: int
    g: int

    def __post_init__(self):
        if not self.frames:
            raise ContractError("sequence: needs at least one frame")


def scene_sequence(frames: list, gt_feats: np.ndarray, det_feats: np.ndarray, g: int,
                   event_labels: np.ndarray, seed: int) -> SceneSequence:
    """A sequence from its two node matrices, one row per gt object
    ([box | detector label dist | visual]) and per detection (`object_nodes`),
    frame after frame; and, per frame, its gt objects as (label, occluded,
    whether a detector dist is recorded) tuples, its triplets and its
    detection count. Every box of both matrices is range-checked. The
    frames' arrays are views of the two matrices."""
    check_boxes(gt_feats[:, :4])
    check_boxes(det_feats[:, :4])
    objects = [o for objs, _, _ in frames for o in objs]
    labels = np.array([label for label, _, _ in objects], dtype=np.intp)
    gt = [GroundTruthObject(box, *o) for box, o in zip(map(tuple, gt_feats[:, :4].tolist()),
                                                       objects)]
    detections = list(map(ObjectNode, map(tuple, det_feats[:, :4].tolist())))
    records, a, c = [], 0, 0
    for objs, triplets, n_detections in frames:
        b, d = a + len(objs), c + n_detections
        records.append(FrameRecord(gt[a:b], triplets, detections[c:d], gt_feats[a:b],
                                   labels[a:b], det_feats[c:d]))
        a, c = b, d
    return SceneSequence(records, event_labels, seed, g)
