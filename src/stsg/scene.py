"""Domain types for frames, objects, graphs and cross-frame links.

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

    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU matrix of (n, 4) and (m, 4) arrays of (x, y, w, h) boxes."""
    a, b = a[:, None, :], b[None, :, :]
    ix = np.maximum(0.0, np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
                    - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
                    - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


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
        raise ShapeError(f"encode_node: label/visual must be vectors, got {name} rows {got}")
    return out


def _encode_rows(boxes: np.ndarray, labels: np.ndarray, visual: np.ndarray) -> np.ndarray:
    if np.any(labels < 0) or np.any(np.abs(labels.sum(axis=1) - 1.0) > 1e-9):
        raise ContractError("encode_node: label_dist must be a probability distribution")
    return np.concatenate([boxes, labels, visual], axis=1)


def encode_node(box: BoundingBox, label_dist: np.ndarray, visual_feat: np.ndarray) -> np.ndarray:
    """Concatenate [box | labels | visual]; output length 4 + G + C."""
    return _encode_rows(box.as_array()[None], _node_rows([label_dist], "label"),
                        _node_rows([visual_feat], "visual"))[0]


def decode_node(feat: np.ndarray, g: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-trip the fixed offsets: [0,4) box, [4,4+G) labels, [4+G,m) visual."""
    feat = np.asarray(feat, dtype=np.float64)
    if feat.shape != (4 + g + c,):
        raise ShapeError(f"decode_node: expected length {4 + g + c}, got shape {feat.shape}")
    return feat[:4], feat[4:4 + g], feat[4 + g:]


@dataclass(frozen=True)
class ObjectNode:
    """Detected object: box, label distribution, visual feature, cached encoding."""

    box: BoundingBox
    label_dist: np.ndarray
    visual_feat: np.ndarray
    node_feat: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.node_feat is None:
            object.__setattr__(self, "node_feat", encode_node(self.box, self.label_dist, self.visual_feat))

    @property
    def label(self) -> int:
        return int(np.argmax(self.label_dist))

    @property
    def label_score(self) -> float:
        return float(np.max(self.label_dist))


def object_nodes(boxes: list[BoundingBox], label_dists, visual_feats) -> list[ObjectNode]:
    """One frame's nodes from one label vector and one visual vector per box.

    The frame is encoded as one (n, m) matrix; a node's node_feat is its
    row, and its label_dist and visual_feat are slices of that row.
    """
    if not boxes:
        return []
    labels = _node_rows(label_dists, "label")
    feats = _encode_rows(np.array([(b.x, b.y, b.w, b.h) for b in boxes]), labels,
                         _node_rows(visual_feats, "visual"))
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
    """One frame's gt objects as nodes (see object_nodes): one-hot labels, or
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

    def validate(self, h: int) -> None:
        n = len(self.objects)
        for (i, j, p) in self.triplets:
            if not (0 <= i < n and 0 <= j < n and i != j and 0 <= p < h):
                raise ContractError(f"frame: triplet ({i}, {j}, {p}) references invalid pair")


@dataclass
class SceneSequence:
    """Ordered frames with gt predicates, detections and sequence-level event labels."""

    frames: list[FrameRecord]
    event_labels: np.ndarray
    seed: int

    def __post_init__(self):
        if not self.frames:
            raise ContractError("sequence: needs at least one frame")


@dataclass(frozen=True)
class TemporalLink:
    """Selected cross-frame pair: previous node k -> current node j."""

    prev_index: int
    curr_index: int
    gamma: float
    eta: int = 1
    tau: np.ndarray | None = None
