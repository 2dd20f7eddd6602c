"""Domain types for frames, objects and graphs.

A node is the concatenation [box(4) | label distribution(G) | visual(C)],
so the node width is always m = 4 + G + C and every slice of the encoding
can be recovered by offset.

A sequence is its columns (`SceneSequence`), frame after frame: one node
matrix of its gt objects' rows ([box | detector label dist | visual]) and
one of its detections' rows; one array of gt object records
(`OBJECT_DTYPE`: box, label, occluded, recorded); one (T, 3) array of its
triplets (subject, object, predicate, the objects numbered within their
frame); and the per-frame object, detection and triplet counts. One maker
builds it (`scene_sequence`). A frame (`FrameView`) is only views of those
columns, made on the first read of `frames` and never pickled.

Rows come from numbers the callers checked (`io` decodes a file's rows
whole and checks them finite, of the right widths, with label
distributions; `synthgen` assembles them with `object_nodes`);
`scene_sequence` checks what a scene requires, every box's range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ContractError

# a plain array of numpy records, as `temporal.LINK_DTYPE`: a slice is a
# view, and each element keeps attribute access (obj.box, obj.label)
OBJECT_DTYPE = np.dtype((np.record, [("box", np.float64, (4,)), ("label", np.intp),
                                     ("occluded", np.bool_), ("recorded", np.bool_)]))


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
class FrameView:
    """One frame of a sequence: slices of its columns, never copies."""

    objects: np.ndarray       # (n,) OBJECT_DTYPE records of its gt objects
    triplets: np.ndarray      # (t, 3) intp (subject, object, predicate)
    detections: np.ndarray    # (d,) records whose `box` views each detection's row


@dataclass(eq=False)
class SceneSequence:
    """Ordered frames with gt predicates, detections and sequence-level event
    labels, as columns (the module docstring); g is the label width of the
    node rows. Made by `scene_sequence`."""

    gt_feats: np.ndarray       # (n, m) [box | detector label dist, one-hot if none | visual]
    det_feats: np.ndarray      # (d, m) [box | label dist | visual] of each detection
    objects: np.ndarray        # (n,) OBJECT_DTYPE: box (gt_feats[:, :4]), label, flags
    triplets: np.ndarray       # (T, 3) intp (subject, object, predicate), frame-local
    n_objects: np.ndarray      # (F,) intp counts of each frame
    n_detections: np.ndarray   # (F,)
    n_triplets: np.ndarray     # (F,)
    event_labels: np.ndarray
    seed: int
    g: int

    def __post_init__(self):
        if not len(self.n_objects):
            raise ContractError("sequence: needs at least one frame")

    @cached_property
    def frames(self) -> tuple[FrameView, ...]:
        """Each frame's views of the columns, made on the first read."""
        # each detection's row, read as a record of its first 4 numbers
        row = np.dtype((np.record, {"names": ["box"], "formats": [(np.float64, (4,))],
                                    "itemsize": 8 * self.det_feats.shape[1]}))
        detections = self.det_feats.view(row)[:, 0]
        o, d, t = (list(accumulate(c.tolist(), initial=0))
                   for c in (self.n_objects, self.n_detections, self.n_triplets))
        return tuple(FrameView(self.objects[a:b], self.triplets[x:y], detections[c:e])
                     for a, b, c, e, x, y in zip(o, o[1:], d, d[1:], t, t[1:]))

    def __getstate__(self) -> dict:
        # the frame views are not pickled: a copy of each would travel
        return {k: v for k, v in self.__dict__.items() if k != "frames"}

    def object_rows(self, frame: np.ndarray) -> np.ndarray:
        """(len(frame), slots) the rows of each given frame's gt objects in
        the columns, padded to the largest frame's count with n, one past the
        last row."""
        counts = self.n_objects
        slot = np.arange(max(int(counts.max()), 1))
        starts = np.cumsum(counts) - counts
        return np.where(slot < counts[frame, None], starts[frame, None] + slot, len(self.objects))


def scene_sequence(gt_feats: np.ndarray, det_feats: np.ndarray, labels, occluded, recorded,
                   triplets: np.ndarray, counts, event_labels: np.ndarray, seed: int,
                   g: int) -> SceneSequence:
    """A sequence from its columns, which its caller checked agree: the gt
    objects' (n, m) node rows and their labels, occlusion flags and whether
    each row records a detector label distribution (not a one-hot); the
    detections' (d, m) rows; the (T, 3) intp triplets; and `counts`, the
    (n_objects, n_detections, n_triplets) of each frame. Every box of both
    matrices is range-checked."""
    check_boxes(gt_feats[:, :4])
    check_boxes(det_feats[:, :4])
    objects = np.empty(len(gt_feats), OBJECT_DTYPE)
    objects["box"], objects["label"], objects["occluded"], objects["recorded"] = \
        gt_feats[:, :4], labels, occluded, recorded
    return SceneSequence(gt_feats, det_feats, objects, triplets,
                         *(np.asarray(c, np.intp) for c in counts), event_labels, seed, g)
