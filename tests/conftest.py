import json
from pathlib import Path

import numpy as np
import pytest

from stsg.config import Dims
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.scene import FrameRecord, SceneSequence, scene_sequence


def random_box(rng: RngStream) -> list[float]:
    w = rng.uniform(0.05, 0.3)
    h = rng.uniform(0.05, 0.3)
    return [rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h), w, h]


def random_dist(rng: RngStream, g: int) -> np.ndarray:
    raw = rng.uniform_array(g, 0.05, 1.0)
    return raw / raw.sum()


def random_node_row(rng: RngStream, dims: Dims) -> np.ndarray:
    """A random [box | label dist | visual] node row."""
    box, dist = random_box(rng), random_dist(rng, dims.g)
    return np.concatenate([box, dist, rng.normal_array(dims.c, 0.0, 1.0)])


def random_gt_row(rng: RngStream, dims: Dims) -> tuple[int, np.ndarray]:
    """A random gt object: its label and its [box | detector label dist |
    visual] row, the detector putting 0.9 plus a tenth of 0.1 on the label."""
    label = rng.integer(dims.g)
    noisy = np.full(dims.g, 0.1 / dims.g)
    noisy[label] += 0.9
    noisy = noisy / noisy.sum()
    box = random_box(rng)
    return label, np.concatenate([box, noisy, rng.normal_array(dims.c, 0.0, 1.0)])


def random_sequence(rng: RngStream, dims: Dims, n_frames: int = 3,
                    n_min: int = 2, n_max: int = 4) -> SceneSequence:
    """Frames of n_min to n_max random gt objects, each detected as its gt
    row, and a few random triplets; made by `scene_sequence`."""
    frames, rows = [], []
    for _ in range(n_frames):
        n = n_min + rng.integer(n_max - n_min + 1)
        objects = [random_gt_row(rng, dims) for _ in range(n)]
        triplets = []
        if n >= 2:
            for _ in range(rng.integer(3) + 1):
                i = rng.integer(n)
                j = rng.integer(n)
                if i != j:
                    triplets.append((i, j, rng.integer(dims.h)))
        frames.append(([(label, False, True) for label, _ in objects], sorted(set(triplets)), n))
        rows += [row for _, row in objects]
    feats = np.array(rows, dtype=np.float64).reshape(-1, dims.m)
    return scene_sequence(frames, feats, feats.copy(), dims.g, np.zeros(4), rng.seed)


def old_layout(record: dict) -> dict:
    """A dataset record, in place, in the layout of files without a format
    version: each detection that names its gt object (`object`) holds a copy
    of that object's `visual` instead, as its last field."""
    for frame in record["frames"]:
        for detection in frame["detections"]:
            if "object" in detection:
                detection["visual"] = list(frame["objects"][detection.pop("object")]["visual"])
    return record


def write_old_layout(src: Path, dest: Path) -> None:
    """Write the dataset file `src` to `dest` in the layout of files without
    a format version: no `version` in the header, each record through
    `old_layout`, as compact as `stsg gen` writes."""
    header, *lines = src.read_text().splitlines()
    header = json.loads(header)
    del header["version"]
    records = [header] + [old_layout(json.loads(line)) for line in lines]
    dest.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))


def encode_frame(frame: FrameRecord, mode: str, dims: Dims) -> np.ndarray:
    """A frame's (n, m) node inputs in a mode, one frame at a time: its
    detection rows (sgdet), its gt rows (sgcls), or its gt rows with one-hot
    labels (predcls)."""
    if mode == "sgdet":
        return frame.det_feats
    rows = frame.gt_feats.copy()
    if mode == "predcls":
        rows[:, 4:4 + dims.g] = np.eye(dims.g)[frame.gt_labels]
    return rows


def frame_record(gt_feats, gt_labels, triplets, det_feats, dims: Dims) -> FrameRecord:
    """A frame of these node rows, made by `scene_sequence`: gt rows
    [box | detector label dist | visual] with their labels, and detection
    rows [box | label dist | visual]."""
    gt_feats = np.asarray(gt_feats, dtype=np.float64).reshape(-1, dims.m)
    det_feats = np.asarray(det_feats, dtype=np.float64).reshape(-1, dims.m)
    spec = [([(int(label), False, True) for label in gt_labels], list(triplets), len(det_feats))]
    return scene_sequence(spec, gt_feats, det_feats, dims.g, np.zeros(4), 0).frames[0]


def empty_frame(dims: Dims) -> FrameRecord:
    """A frame without objects, triplets or detections."""
    return frame_record([], [], [], [], dims)


def frame_pair_links(n_t: int, n_prev: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (current j, previous k) link of one frame pair, j-major, over
    the nodes of both frames stacked current first: (curr, prev) indices."""
    return np.repeat(np.arange(n_t), n_prev), n_t + np.tile(np.arange(n_prev), n_t)


class MatmulRows:
    """Wraps the matrix product of the layers' forward passes
    (`stsg.layers._linear`), counting the rows of each left operand."""

    def __init__(self, monkeypatch):
        import stsg.layers

        self.rows = 0
        real = stsg.layers._linear

        def linear(x, w, b=None):
            self.rows += x.shape[0]
            return real(x, w, b)

        monkeypatch.setattr(stsg.layers, "_linear", linear)


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
