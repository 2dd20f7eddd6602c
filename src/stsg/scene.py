"""Domain types for frames, objects and graphs.

A node is the concatenation [box(4) | label distribution(G) | visual(C)],
so the node width is always m = 4 + G + C and every slice of the encoding
can be recovered by offset. A sequence holds its node inputs as one matrix
of such rows for its gt objects and one for its detections, which its
frames and the per-object vectors view (`scene_sequence`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in normalized frame coordinates; (x, y) is the top-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ContractError(f"box: corner ({self.x}, {self.y}) outside [0, 1]")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ContractError(f"box: size ({self.w}, {self.h}) outside (0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (..., 4) arrays of (x, y, w, h) boxes, broadcast against each other."""
    ix = np.maximum(0.0, np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
                    - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
                    - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU matrix of (n, 4) and (m, 4) arrays of boxes."""
    return box_iou(a[:, None, :], b[None, :, :])


def iou(a: BoundingBox, b: BoundingBox) -> float:
    return float(pairwise_iou(a.as_array()[None], b.as_array()[None])[0, 0])


def overlap_fraction(inner: BoundingBox, outer: BoundingBox) -> float:
    """Fraction of `inner`'s area covered by `outer`."""
    ix = max(0.0, min(inner.x + inner.w, outer.x + outer.w) - max(inner.x, outer.x))
    iy = max(0.0, min(inner.y + inner.h, outer.y + outer.h) - max(inner.y, outer.y))
    return (ix * iy) / (inner.w * inner.h)


def _node_rows(rows, width: int, name: str) -> np.ndarray:
    """One `width`-number vector per node as an (n, width) array."""
    try:
        out = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):   # rows of different lengths, or not numbers
        out = None
    if out is None or out.shape[1:] != (width,):
        got = "not numbers of one length" if out is None else f"of shape {out.shape[1:]}"
        raise ShapeError(f"object_nodes: label/visual must be vectors of {width} numbers, "
                         f"got {name} rows {got}")
    return out


@dataclass(frozen=True, slots=True)
class ObjectNode:
    """Detected object: box, label distribution and visual feature (see object_nodes)."""

    box: BoundingBox
    label_dist: np.ndarray
    visual_feat: np.ndarray


def object_nodes(boxes: list[BoundingBox], label_dists, visual_feats, dims,
                 label_field: str = "label_dist") -> np.ndarray:
    """The (n, m) node matrix of one label distribution and one visual vector
    per box; errors name the label vectors `label_field`."""
    if not boxes:
        return np.zeros((0, dims.m))
    labels = _node_rows(label_dists, dims.g, label_field)
    visual = _node_rows(visual_feats, dims.c, "visual")
    if not (np.all(labels >= 0) and np.all(np.abs(labels.sum(axis=1) - 1.0) <= 1e-9)):
        raise ContractError(f"object_nodes: {label_field} must be a probability distribution")
    return np.concatenate([np.array([(b.x, b.y, b.w, b.h) for b in boxes]), labels, visual],
                          axis=1)


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """Scripted object state for one frame (labels are exact, occlusion is known)."""

    box: BoundingBox
    label: int
    visual_feat: np.ndarray
    occluded: bool = False
    detector_label_dist: np.ndarray | None = None  # noisy labels used for gt-box protocols


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
    """Ordered frames with gt predicates, detections and sequence-level event labels."""

    frames: list[FrameRecord]
    event_labels: np.ndarray
    seed: int

    def __post_init__(self):
        if not self.frames:
            raise ContractError("sequence: needs at least one frame")

    def __reduce__(self):
        """Pickle each node matrix once, for the whole sequence; the frames and
        the objects come back as views of it (`scene_sequence`)."""
        frames = self.frames
        gt_feats = np.concatenate([f.gt_feats for f in frames])
        # the label width g of the rows [box(4) | labels(g) | visual(c)]
        visual = next((o.visual_feat for f in frames for o in f.objects + f.detections), ())
        spec = [([(o.box, o.label, o.occluded, o.detector_label_dist is not None)
                  for o in f.objects], f.triplets, [d.box for d in f.detections]) for f in frames]
        return scene_sequence, (spec, gt_feats, np.concatenate([f.det_feats for f in frames]),
                                gt_feats.shape[1] - 4 - len(visual), self.event_labels, self.seed)


def scene_sequence(frames: list, gt_feats: np.ndarray, det_feats: np.ndarray, g: int,
                   event_labels: np.ndarray, seed: int) -> SceneSequence:
    """A sequence from its two node matrices, one row per gt object
    ([box | detector label dist | visual]) and per detection (`object_nodes`),
    frame after frame; and, per frame, its gt objects as (box, label,
    occluded, whether a detector dist is recorded) tuples, its triplets and
    its detections' boxes. The frames' arrays and the objects' vectors are
    views of the two matrices, so each vector is stored once."""
    objects = [o for objs, _, _ in frames for o in objs]
    labels = np.array([label for _, label, _, _ in objects], dtype=np.intp)
    gt = [GroundTruthObject(box, label, row[4 + g:], occluded, row[4:4 + g] if recorded else None)
          for (box, label, occluded, recorded), row in zip(objects, gt_feats)]
    detections = [ObjectNode(box, row[4:4 + g], row[4 + g:])
                  for box, row in zip([b for _, _, boxes in frames for b in boxes], det_feats)]
    records, a, c = [], 0, 0
    for objs, triplets, boxes in frames:
        b, d = a + len(objs), c + len(boxes)
        records.append(FrameRecord(gt[a:b], triplets, detections[c:d], gt_feats[a:b],
                                   labels[a:b], det_feats[c:d]))
        a, c = b, d
    return SceneSequence(records, event_labels, seed)
