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


def encode_node(box: BoundingBox, label_dist: np.ndarray, visual_feat: np.ndarray) -> np.ndarray:
    """Concatenate [box | labels | visual]; output length 4 + G + C."""
    label_dist = np.asarray(label_dist, dtype=np.float64)
    visual_feat = np.asarray(visual_feat, dtype=np.float64)
    if label_dist.ndim != 1 or visual_feat.ndim != 1:
        raise ShapeError(
            f"encode_node: label/visual must be vectors, got {label_dist.shape} and {visual_feat.shape}"
        )
    if np.any(label_dist < 0) or abs(float(label_dist.sum()) - 1.0) > 1e-9:
        raise ContractError("encode_node: label_dist must be a probability distribution")
    return np.concatenate([box.as_array(), label_dist, visual_feat])


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


@dataclass(frozen=True)
class GroundTruthObject:
    """Scripted object state for one frame (labels are exact, occlusion is known)."""

    box: BoundingBox
    label: int
    visual_feat: np.ndarray
    occluded: bool = False
    detector_label_dist: np.ndarray | None = None  # noisy labels used for gt-box protocols

    def as_node(self, g: int, use_detector_labels: bool = False) -> ObjectNode:
        if use_detector_labels and self.detector_label_dist is not None:
            dist = self.detector_label_dist
        else:
            dist = np.zeros(g)
            dist[self.label] = 1.0
        return ObjectNode(self.box, np.asarray(dist, dtype=np.float64), self.visual_feat)


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
