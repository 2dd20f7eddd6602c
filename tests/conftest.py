import base64
import json
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from stsg.config import Dims
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.scene import SceneSequence, scene_sequence


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
    frames = []
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
        rows = [row for _, row in objects]
        frames.append(make_frame(rows, [label for label, _ in objects], sorted(set(triplets)),
                                 rows, dims))
    return sequence_of(frames, dims.g, seed=rng.seed)


def make_frame(gt_feats, gt_labels, triplets, det_feats, dims: Dims) -> dict:
    """A frame as a dict of its columns (`frame_columns`): gt rows
    [box | detector label dist | visual] with their labels, neither occluded
    nor one-hot, its triplets and its detection rows [box | label dist |
    visual]."""
    n = len(gt_labels)
    return {"gt": np.asarray(gt_feats, dtype=np.float64).reshape(-1, dims.m),
            "labels": np.asarray(gt_labels, dtype=np.intp), "occluded": np.zeros(n, dtype=bool),
            "recorded": np.ones(n, dtype=bool),
            "triplets": np.asarray(triplets, dtype=np.intp).reshape(-1, 3),
            "det": np.asarray(det_feats, dtype=np.float64).reshape(-1, dims.m)}


def empty_frame(dims: Dims) -> dict:
    """A frame without objects, triplets or detections."""
    return make_frame([], [], [], [], dims)


def frame_columns(seq: SceneSequence) -> list[dict]:
    """Each frame of `seq` as a dict of slices of its columns: `gt` and `det`
    node rows, the gt objects' `labels`, `occluded` and `recorded` flags, and
    `triplets`."""
    o, d, t = (np.concatenate([[0], np.cumsum(c)]).tolist()
               for c in (seq.n_objects, seq.n_detections, seq.n_triplets))
    objects = seq.objects
    return [{"gt": seq.gt_feats[a:b], "labels": objects["label"][a:b],
             "occluded": objects["occluded"][a:b], "recorded": objects["recorded"][a:b],
             "triplets": seq.triplets[x:y], "det": seq.det_feats[c:e]}
            for a, b, c, e, x, y in zip(o, o[1:], d, d[1:], t, t[1:])]


def sequence_of(frames: list[dict], g: int, event_labels=None, seed: int = 0) -> SceneSequence:
    """The sequence of these frames (dicts as `frame_columns` gives them),
    made by `scene_sequence`."""

    def cat(key):
        return np.concatenate([f[key] for f in frames])

    return scene_sequence(cat("gt"), cat("det"), cat("labels"), cat("occluded"), cat("recorded"),
                          cat("triplets"), [[len(f[key]) for f in frames]
                                            for key in ("gt", "det", "triplets")],
                          np.zeros(4) if event_labels is None else event_labels, seed, g)


def edit_frames(seq: SceneSequence, edits: dict[int, dict]) -> SceneSequence:
    """`seq` with frame t replaced by `edits[t]` (a dict as `frame_columns`
    gives it) for each t of `edits`, made by `scene_sequence`."""
    frames = frame_columns(seq)
    for t, frame in edits.items():
        frames[t] = frame
    return sequence_of(frames, seq.g, seq.event_labels, seq.seed)


def _float64s(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), "<f8")


def _float64_text(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def frame_dicts(record: dict, dims: Dims, named: bool = True) -> list[dict]:
    """A dataset record's frames, decoded one object at a time into dicts:
    each frame's gt objects (`box`, `label`, `visual`, `occluded`, and
    `det_label_dist`, None where none is recorded), its triplets as
    [subject, object, predicate] lists and its detections (`box`,
    `label_dist`, and `object`, the index of the gt object whose visual
    vector it repeats, or its own `visual` where it names none or `named`
    is off)."""
    g = dims.g
    objects = zip(_float64s(record["gt"]).reshape(-1, dims.m).tolist(), record["labels"],
                  record["occluded"], record["recorded"])
    detections = zip(_float64s(record["det"]).reshape(-1, 4 + g).tolist(), record["det_object"])
    own = iter(_float64s(record["det_visual"]).reshape(-1, dims.c).tolist())
    triplets = iter(record["triplets"])
    frames = []
    for n, d, t in zip(record["n_objects"], record["n_detections"], record["n_triplets"]):
        objs = [{"box": row[:4], "label": label, "visual": row[4 + g:], "occluded": occluded,
                 "det_label_dist": row[4:4 + g] if recorded else None}
                for row, label, occluded, recorded in islice(objects, n)]
        dets = []
        for row, i in islice(detections, d):
            det = {"box": row[:4], "label_dist": row[4:4 + g]}
            if i >= 0 and named:
                det["object"] = i
            else:
                det["visual"] = next(own) if i < 0 else list(objs[i]["visual"])
            dets.append(det)
        frames.append({"objects": objs, "triplets": [list(islice(triplets, 3)) for _ in range(t)],
                       "detections": dets})
    return frames


def with_frames(record: dict, frames: list[dict], dims: Dims) -> dict:
    """`record`, in place, with its frame fields written from `frames`
    (dicts as `frame_dicts` gives them) as they are, unchecked: a detection
    with `object` names that object, one with `visual` holds its own; an
    object whose `det_label_dist` is None holds its label's one-hot."""
    objects = [o for f in frames for o in f["objects"]]
    detections = [d for f in frames for d in f["detections"]]
    one_hot = np.eye(dims.g).tolist()
    record.update(
        n_objects=[len(f["objects"]) for f in frames],
        n_detections=[len(f["detections"]) for f in frames],
        n_triplets=[len(f["triplets"]) for f in frames],
        labels=[o["label"] for o in objects],
        occluded=[o["occluded"] for o in objects],
        recorded=[o["det_label_dist"] is not None for o in objects],
        triplets=[i for f in frames for t in f["triplets"] for i in t],
        det_object=[d.get("object", -1) for d in detections],
        gt=_float64_text([x for o in objects for x in o["box"] + (
            one_hot[o["label"]] if o["det_label_dist"] is None else o["det_label_dist"])
            + o["visual"]]),
        det=_float64_text([x for d in detections for x in d["box"] + d["label_dist"]]),
        det_visual=_float64_text([x for d in detections if "object" not in d
                                  for x in d["visual"]]))
    return record


def write_earlier_version(src: Path, dest: Path, version: int, dims: Dims) -> None:
    """Write the dataset file `src` to `dest` in an earlier format, as
    compact as `stsg gen` wrote it: version 1 (no `version` field, each
    detection with its own `visual`) or 2 (a detection that repeats its gt
    object's visual vector names it, `object`)."""
    header, *lines = src.read_text().splitlines()
    header = json.loads(header)
    if version == 1:
        del header["version"]
    else:
        header["version"] = version
    records = [header] + [{"seed": r["seed"], "event_labels": r["event_labels"],
                           "frames": frame_dicts(r, dims, named=version == 2)}
                          for r in map(json.loads, lines)]
    dest.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))


def encode_frame(frame: dict, mode: str, dims: Dims) -> np.ndarray:
    """A frame's (n, m) node inputs in a mode, one frame at a time, from its
    columns (`frame_columns`): its detection rows (sgdet), its gt rows
    (sgcls), or its gt rows with one-hot labels (predcls)."""
    if mode == "sgdet":
        return frame["det"]
    rows = frame["gt"].copy()
    if mode == "predcls":
        rows[:, 4:4 + dims.g] = np.eye(dims.g)[frame["labels"]]
    return rows


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
