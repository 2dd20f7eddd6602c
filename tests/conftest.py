import numpy as np
import pytest

from stsg.config import Dims
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.scene import (
    BoundingBox,
    FrameRecord,
    GroundTruthObject,
    ObjectNode,
    SceneSequence,
    object_nodes,
)


def random_box(rng: RngStream) -> BoundingBox:
    w = rng.uniform(0.05, 0.3)
    h = rng.uniform(0.05, 0.3)
    return BoundingBox(rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h), w, h)


def random_dist(rng: RngStream, g: int) -> np.ndarray:
    raw = rng.uniform_array(g, 0.05, 1.0)
    return raw / raw.sum()


def node_list(boxes, label_dists, visual_feats, dims: Dims) -> list[ObjectNode]:
    """`object_nodes` as a list of nodes, each a view of its row."""
    feats = object_nodes(boxes, label_dists, visual_feats, dims)
    return [ObjectNode(box, row[4:4 + dims.g], row[4 + dims.g:]) for box, row in zip(boxes, feats)]


def random_object_node(rng: RngStream, dims: Dims) -> ObjectNode:
    box, dist = random_box(rng), random_dist(rng, dims.g)
    return node_list([box], [dist], [rng.normal_array(dims.c, 0.0, 1.0)], dims)[0]


def random_gt_object(rng: RngStream, dims: Dims) -> GroundTruthObject:
    label = rng.integer(dims.g)
    noisy = np.full(dims.g, 0.1 / dims.g)
    noisy[label] += 0.9
    noisy = noisy / noisy.sum()
    return GroundTruthObject(
        box=random_box(rng),
        label=label,
        visual_feat=rng.normal_array(dims.c, 0.0, 1.0),
        detector_label_dist=noisy,
    )


def random_sequence(rng: RngStream, dims: Dims, n_frames: int = 3,
                    n_min: int = 2, n_max: int = 4) -> SceneSequence:
    frames = []
    for _ in range(n_frames):
        n = n_min + rng.integer(n_max - n_min + 1)
        objects = [random_gt_object(rng, dims) for _ in range(n)]
        triplets = []
        if n >= 2:
            for _ in range(rng.integer(3) + 1):
                i = rng.integer(n)
                j = rng.integer(n)
                if i != j:
                    triplets.append((i, j, rng.integer(dims.h)))
        detections = node_list([o.box for o in objects], [o.detector_label_dist for o in objects],
                               [o.visual_feat for o in objects], dims)
        frames.append(frame_record(objects, sorted(set(triplets)), detections, dims))
    return SceneSequence(frames=frames, event_labels=np.zeros(4), seed=rng.seed)


def encode_frame(frame: FrameRecord, mode: str, dims: Dims) -> np.ndarray:
    """A frame's (n, m) node inputs in a mode, each row encoded on its own
    from its object's fields: [box | labels | visual], the labels one-hot
    (predcls), the detector's distribution where recorded (sgcls), or a
    detection's own (sgdet)."""
    one_hot = np.eye(dims.g)
    if mode == "sgdet":
        rows = [np.concatenate([d.box.as_array(), d.label_dist, d.visual_feat])
                for d in frame.detections]
    else:
        rows = [np.concatenate([o.box.as_array(),
                                one_hot[o.label] if mode == "predcls"
                                or o.detector_label_dist is None else o.detector_label_dist,
                                o.visual_feat]) for o in frame.objects]
    return np.array(rows, dtype=np.float64).reshape(-1, dims.m)


def frame_record(objects, triplets, detections, dims: Dims) -> FrameRecord:
    """A frame of these lists, its node matrices stacked from their fields
    as `encode_frame` encodes them in sgcls and sgdet."""
    frame = FrameRecord(objects=list(objects), triplets=list(triplets),
                        detections=list(detections), gt_feats=np.zeros((0, dims.m)),
                        gt_labels=np.array([o.label for o in objects], dtype=np.intp),
                        det_feats=np.zeros((0, dims.m)))
    frame.gt_feats = encode_frame(frame, "sgcls", dims)
    frame.det_feats = encode_frame(frame, "sgdet", dims)
    return frame


def empty_frame(dims: Dims) -> FrameRecord:
    """A frame without objects, triplets or detections."""
    return frame_record([], [], [], dims)


def frame_pair_links(n_t: int, n_prev: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (current j, previous k) link of one frame pair, j-major, over
    the nodes of both frames stacked current first: (curr, prev) indices."""
    return np.repeat(np.arange(n_t), n_prev), n_t + np.tile(np.arange(n_prev), n_t)


class MatmulRows:
    """Wraps `stsg.autodiff.matmul`, counting the rows of each left operand."""

    def __init__(self, monkeypatch):
        import stsg.autodiff

        self.rows = 0
        real = stsg.autodiff.matmul

        def matmul(a, b):
            self.rows += a.shape[0]
            return real(a, b)

        monkeypatch.setattr(stsg.autodiff, "matmul", matmul)


def select_no_links(monkeypatch):
    """Make the sparse variant select no candidate link: `forward_batch`
    looks `topk_links` up in `stsg.temporal` at each call."""
    import stsg.temporal

    monkeypatch.setattr(stsg.temporal, "topk_links",
                        lambda scores, rows, k: np.zeros(len(scores), dtype=bool))


@pytest.fixture
def dims() -> Dims:
    return Dims()


@pytest.fixture
def small_dims() -> Dims:
    return Dims(g=3, c=4, h=3, d=5)


@pytest.fixture
def params(dims) -> ModelParams:
    return ModelParams.init(dims, seed=11)


def zero_params(dims: Dims, gcn_layers: int = 2) -> ModelParams:
    base = ModelParams.init(dims, seed=0, gcn_layers=gcn_layers)
    return base.with_flat(np.zeros_like(base.flat))
