"""Domain types for frames, objects and graphs.

A node is the concatenation [box(4) | label distribution(G) | visual(C)],
so the node width is always m = 4 + G + C and every slice of the encoding
can be recovered by offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError


@dataclass(frozen=True)
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


def _node_rows(rows, name: str) -> np.ndarray:
    """One vector per node as an (n, width) array."""
    try:
        out = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):   # rows of different lengths, or not numbers
        out = None
    if out is None or out.ndim != 2:
        got = "not numbers of one length" if out is None else f"of shape {out.shape[1:]}"
        raise ShapeError(f"object_nodes: label/visual must be vectors, got {name} rows {got}")
    return out


@dataclass(frozen=True)
class ObjectNode:
    """Detected object: box, label distribution, visual feature, encoding (see object_nodes)."""

    box: BoundingBox
    label_dist: np.ndarray
    visual_feat: np.ndarray
    node_feat: np.ndarray = field(repr=False)


def object_nodes(boxes: list[BoundingBox], label_dists, visual_feats) -> list[ObjectNode]:
    """Nodes from one label vector and one visual vector per box.

    The nodes are encoded as one (n, m) matrix; a node's node_feat is its
    row, and its label_dist and visual_feat are slices of that row.
    """
    if not boxes:
        return []
    labels = _node_rows(label_dists, "label")
    visual = _node_rows(visual_feats, "visual")
    if np.any(labels < 0) or np.any(np.abs(labels.sum(axis=1) - 1.0) > 1e-9):
        raise ContractError("object_nodes: label_dist must be a probability distribution")
    feats = np.concatenate([np.array([(b.x, b.y, b.w, b.h) for b in boxes]), labels, visual],
                           axis=1)
    visual_at = 4 + labels.shape[1]
    return [ObjectNode(box, row[4:visual_at], row[visual_at:], row)
            for box, row in zip(boxes, feats)]


@dataclass(frozen=True)
class GroundTruthObject:
    """Scripted object state for one frame (labels are exact, occlusion is known)."""

    box: BoundingBox
    label: int
    visual_feat: np.ndarray
    occluded: bool = False
    detector_label_dist: np.ndarray | None = None  # noisy labels used for gt-box protocols


def gt_nodes(objects: list[GroundTruthObject], g: int,
             use_detector_labels: bool = False) -> list[ObjectNode]:
    """Gt objects as nodes (see object_nodes): one-hot labels, or
    the detector's label distribution where requested and recorded."""
    one_hot = np.eye(g)
    dists = [o.detector_label_dist if use_detector_labels and o.detector_label_dist is not None
             else one_hot[o.label] for o in objects]
    return object_nodes([o.box for o in objects], dists, [o.visual_feat for o in objects])


@dataclass
class FrameRecord:
    """Ground truth plus simulated detections for one frame."""

    objects: list[GroundTruthObject]
    triplets: list[tuple[int, int, int]]     # (subject idx, object idx, predicate)
    detections: list[ObjectNode]


@dataclass
class SceneSequence:
    """Ordered frames with gt predicates, detections and sequence-level event labels."""

    frames: list[FrameRecord]
    event_labels: np.ndarray
    seed: int

    def __post_init__(self):
        if not self.frames:
            raise ContractError("sequence: needs at least one frame")
