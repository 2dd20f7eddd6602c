"""File formats: datasets, checkpoints, predictions and reports.

Everything is JSON (JSON-lines for per-sequence files, with a header record
on the first line). Floats serialize through Python's shortest round-trip
repr, so re-reading an artifact reproduces the exact values; artifacts
carry the resolved config and seed and never embed timestamps, which keeps
equal-seed runs byte-identical.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .config import Dims, RunConfig, parse_config_items
from .errors import ContractError, DataFormatError, ShapeError
from .params import ModelParams, model_shapes
from .scene import BoundingBox, SceneSequence, object_nodes, scene_sequence
from .temporal import FramePrediction, RankedFrame

SPLITS = ("train", "val", "test")


def runconfig_from_flat(flat: dict) -> RunConfig:
    return parse_config_items({k: str(v) for k, v in flat.items()})


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _loads(path: Path, lineno: int, line: str) -> dict:
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None


def _jsonl(path: Path, kind: str):
    """Stream a JSON-lines file: its header (line 1, of kind `<kind>-header`),
    then (line number, record) for each non-blank line after it."""
    with open(path) as fh:
        first = fh.readline()
        header = _loads(path, 1, first) if first.strip() else None
        if not isinstance(header, dict) or header.get("kind") != f"{kind}-header":
            raise DataFormatError(f"{path}:1: missing {kind} header record")
        yield header
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                yield lineno, _loads(path, lineno, line)


def _field(record: dict, name: str, path: Path, lineno: int):
    if not isinstance(record, dict):
        raise DataFormatError(f"{path}:{lineno}: expected a JSON object with field {name!r}, "
                              f"got {type(record).__name__}")
    if name not in record:
        raise DataFormatError(f"{path}:{lineno}: missing field {name!r}")
    return record[name]


# ---------------------------------------------------------------------------
# datasets


def sequence_to_json(seq: SceneSequence) -> dict:
    return {
        "seed": seq.seed,
        "event_labels": seq.event_labels.tolist(),
        "frames": [
            {
                "objects": [
                    {
                        "box": [o.box.x, o.box.y, o.box.w, o.box.h],
                        "label": o.label,
                        "visual": o.visual_feat.tolist(),
                        "occluded": o.occluded,
                        "det_label_dist": o.detector_label_dist.tolist()
                        if o.detector_label_dist is not None else None,
                    }
                    for o in frame.objects
                ],
                "triplets": [list(t) for t in frame.triplets],
                "detections": [
                    {
                        "box": [d.box.x, d.box.y, d.box.w, d.box.h],
                        "label_dist": d.label_dist.tolist(),
                        "visual": d.visual_feat.tolist(),
                    }
                    for d in frame.detections
                ],
            }
            for frame in seq.frames
        ],
    }


_NUMBER_TYPES = frozenset((int, float))


def _numbers(values) -> bool:
    """Whether every value is a JSON number: an int or a float, not a bool or
    a string."""
    return _NUMBER_TYPES.issuperset(map(type, values))


def _box(record: dict, path: Path, lineno: int) -> BoundingBox:
    box = _field(record, "box", path, lineno)
    if not (isinstance(box, list) and len(box) == 4 and _numbers(box)):
        raise DataFormatError(f"{path}:{lineno}: field 'box' must be 4 numbers, got {box!r}")
    return BoundingBox(*box)


def _index(value, bound: int, what: str, path: Path, lineno: int) -> int:
    if type(value) is not int or not 0 <= value < bound:
        raise DataFormatError(f"{path}:{lineno}: {what} must be an integer in [0, {bound}), "
                              f"got {value!r}")
    return value


def _triplet(t, n_objects: int, h: int, path: Path, lineno: int) -> tuple[int, int, int]:
    if not (isinstance(t, list) and len(t) == 3):
        raise DataFormatError(f"{path}:{lineno}: a triplet must be [subject, object, "
                              f"predicate], got {t!r}")
    s, o, p = t
    if (type(s) is type(o) is type(p) is int
            and 0 <= s < n_objects and 0 <= o < n_objects and 0 <= p < h and s != o):
        return s, o, p
    # the first check that fails names the entry
    _index(s, n_objects, "triplet subject", path, lineno)
    _index(o, n_objects, "triplet object", path, lineno)
    _index(p, h, "triplet predicate", path, lineno)
    raise DataFormatError(f"{path}:{lineno}: triplet {t!r} names object {s} as both "
                          f"subject and object")


def sequence_from_json(record: dict, path: Path, lineno: int, dims: Dims) -> SceneSequence:
    """One dataset record; object labels, triplet node indices and
    predicates are range-checked against `dims` and each frame's objects,
    the gt vectors are checked as `object_nodes` checks a detection's, and
    every vector entry, event label and the seed must be a JSON number (the
    seed an integer). The objects and detections of all frames are read
    together, one array per field."""
    def field(entry: dict, name: str):
        return _field(entry, name, path, lineno)

    def nodes(boxes, label_dists, visuals, label_field: str) -> np.ndarray:
        try:
            feats = object_nodes(boxes, label_dists, visuals, dims, label_field)
        except (ContractError, ShapeError) as e:
            raise DataFormatError(f"{path}:{lineno}: {e}") from None
        # the rows have the right lengths, but numpy also converts a numeric
        # string, a bool or a null: each entry must be a JSON number
        for name, rows in ((label_field, label_dists), ("visual", visuals)):
            if not _numbers(chain.from_iterable(rows)):
                bad = next(v for v in chain.from_iterable(rows) if type(v) not in _NUMBER_TYPES)
                raise DataFormatError(f"{path}:{lineno}: {name} entries must be numbers, "
                                      f"got {bad!r}")
        return feats

    def gt_object(o: dict) -> tuple:
        return (_box(o, path, lineno),
                _index(field(o, "label"), dims.g, "object label", path, lineno),
                bool(o.get("occluded", False)), o.get("det_label_dist") is not None)

    frames = [(field(f, "objects"), field(f, "triplets"), field(f, "detections"))
              for f in field(record, "frames")]
    spec = [([gt_object(o) for o in objects],
             [_triplet(t, len(objects), dims.h, path, lineno) for t in triplets],
             [_box(d, path, lineno) for d in dets]) for objects, triplets, dets in frames]
    objects = [o for objs, _, _ in frames for o in objs]
    gt = [o for objs, _, _ in spec for o in objs]
    # the detector's label distribution, or one-hot where none is recorded (as
    # lists of floats, like the decoded rows, for the entry check)
    one_hot = np.eye(dims.g).tolist()
    gt_feats = nodes([box for box, *_ in gt],
                     [o["det_label_dist"] if recorded else one_hot[label]
                      for o, (_, label, _, recorded) in zip(objects, gt)],
                     [field(o, "visual") for o in objects], "det_label_dist")
    dets = [d for _, _, ds in frames for d in ds]
    det_feats = nodes([box for _, _, boxes in spec for box in boxes],
                      [field(d, "label_dist") for d in dets],
                      [field(d, "visual") for d in dets], "label_dist")
    events = field(record, "event_labels")
    event_labels = _number_array(events, 1)
    if event_labels is None:
        raise DataFormatError(f"{path}:{lineno}: field 'event_labels' must be a list of "
                              f"numbers, got {events!r}")
    seed = field(record, "seed")
    if type(seed) is not int:
        raise DataFormatError(f"{path}:{lineno}: field 'seed' must be an integer, got {seed!r}")
    return scene_sequence(spec, gt_feats, det_feats, dims.g, event_labels, seed)


def write_split(path: Path, cfg: RunConfig, split: str,
                sequences: list[SceneSequence]) -> None:
    header = {"kind": "dataset-header", "split": split, "count": len(sequences),
              "seed": cfg.seed, "config": cfg.to_flat_dict()}
    with open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        for seq in sequences:
            fh.write(_dump(sequence_to_json(seq)) + "\n")


def load_split(data_dir: str | Path, split: str) -> tuple[dict, list[SceneSequence]]:
    if split not in SPLITS:
        raise DataFormatError(f"unknown split {split!r}, expected one of {SPLITS}")
    path = Path(data_dir) / f"{split}.jsonl"
    if not path.exists():
        raise DataFormatError(f"{path}: no such dataset file")
    records = _jsonl(path, "dataset")
    header = next(records)
    # the dimensions the records were generated with
    config = _field(header, "config", path, 1)
    if not isinstance(config, dict):
        raise DataFormatError(f"{path}:1: field 'config' must be an object")
    dims = runconfig_from_flat(config).dims
    with _collector_paused():   # the records and the sequences built from them hold no cycles
        sequences = [sequence_from_json(record, path, lineno, dims) for lineno, record in records]
    count = _field(header, "count", path, 1)
    if count != len(sequences):
        raise DataFormatError(f"{path}: header count {count} != {len(sequences)} sequences")
    return header, sequences


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(path: str | Path, cfg: RunConfig, params: ModelParams,
                     log: list[dict]) -> None:
    doc = {
        "kind": "checkpoint",
        "seed": cfg.train.seed,
        "config": cfg.to_flat_dict(),
        "gcn_layers": params.gcn_layers,
        "params": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in params.items()
        },
        "log": log,
    }
    Path(path).write_text(_dump(doc))


def load_checkpoint(path: str | Path) -> tuple[RunConfig, ModelParams, list[dict]]:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such checkpoint")
    doc = _loads(path, 1, path.read_text())
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise DataFormatError(f"{path}: not a checkpoint file (field 'kind')")
    cfg = runconfig_from_flat(_field(doc, "config", path, 1))
    gcn_layers = doc.get("gcn_layers", 2)
    if not isinstance(gcn_layers, int) or gcn_layers < 1:
        raise DataFormatError(f"{path}: field 'gcn_layers' must be a positive integer")
    expected = model_shapes(cfg.dims, gcn_layers)
    entries = _field(doc, "params", path, 1)
    if not isinstance(entries, dict):
        raise DataFormatError(f"{path}: field 'params' must be an object")
    unknown = sorted(set(entries) - set(expected))
    missing = [name for name in expected if name not in entries]
    if unknown or missing:
        raise DataFormatError(f"{path}: parameters do not match the config "
                              f"(unknown {unknown}, missing {missing})")
    arrays = {}
    for name, shape in expected.items():
        entry = entries[name]
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise DataFormatError(f"{path}: parameter {name!r} needs fields 'shape' and 'data'")
        if entry["shape"] != list(shape):
            raise DataFormatError(f"{path}: parameter {name!r} has shape {entry['shape']}, "
                                  f"expected {list(shape)}")
        try:
            arr = np.asarray(entry["data"], dtype=np.float64)
        except (TypeError, ValueError):
            raise DataFormatError(f"{path}: parameter {name!r} data is not a list of numbers") \
                from None
        if arr.shape != (int(np.prod(shape)),):
            raise DataFormatError(f"{path}: parameter {name!r} has {arr.size} values, "
                                  f"expected {int(np.prod(shape))}")
        arrays[name] = arr.reshape(shape)
    params = ModelParams.from_arrays(cfg.dims, arrays, gcn_layers)
    return cfg, params, doc.get("log", [])


def write_train_log(path: str | Path, cfg: RunConfig, log: list[dict]) -> None:
    doc = {"kind": "train-log", "seed": cfg.train.seed,
           "config": cfg.to_flat_dict(), "entries": log}
    Path(path).write_text(_dump(doc))


# ---------------------------------------------------------------------------
# predictions


def frame_prediction_to_json(pred: FramePrediction, ranked: RankedFrame,
                             include_features: bool) -> dict:
    record = {
        "boxes": ranked.boxes.tolist(),
        "labels": ranked.labels.tolist(),
        "label_scores": np.max(pred.label_dists, axis=1).tolist() if pred.n else [],
        "triplets": [list(t) for t in zip(ranked.subj.tolist(), ranked.obj.tolist(),
                                           ranked.predicate.tolist(), ranked.score.tolist())],
    }
    if include_features:
        record["label_dists"] = pred.label_dists.tolist()
        record["fused"] = pred.fused.tolist()
        record["gcn"] = pred.gcn.tolist()
    return record


# the numeric fields of a predictions frame, and the numbers in each row
_FRAME_ARRAYS = (("boxes", 4), ("labels", 1), ("label_scores", 1), ("triplets", 4))


def _number_array(value, width: int) -> np.ndarray | None:
    """A list of JSON numbers (width 1) or of `width`-number rows as a float64
    array of shape (rows,) or (rows, width); None for anything else, booleans
    included."""
    if not isinstance(value, list):
        return None
    numbers = value
    if width > 1:
        try:
            numbers = list(chain.from_iterable(value))
        except TypeError:   # a row that is not a list
            return None
        # width numbers a row on average, and no row longer: width in each
        if len(numbers) != width * len(value) or max(map(len, value), default=0) > width:
            return None
    if not _numbers(numbers):
        return None
    try:
        arr = np.array(numbers, dtype=np.float64)
    except OverflowError:   # an integer beyond the float range
        return None
    return arr if width == 1 else arr.reshape(len(value), width)


def _frames_to_arrays(record) -> None:
    """Replace the numeric fields of each frame of a predictions record by
    their arrays, in place; a field that is not numbers of the right shape
    stays as decoded, for `ranked_from_frame_json` to reject."""
    frames = record.get("frames") if isinstance(record, dict) else None
    for frame in frames if isinstance(frames, list) else ():
        if isinstance(frame, dict):
            for name, width in _FRAME_ARRAYS:
                arr = _number_array(frame.get(name), width)
                if arr is not None:
                    frame[name] = arr


def _index_error(path: Path, lineno: int, i: int, value: float, n: int, g, h):
    """The error for entry i of a frame's indices: its n labels, then each
    triplet's subject, object and predicate."""
    if i < n:
        what, bound = f"label of node {i}", g
    else:
        t, c = divmod(i - n, 3)
        what, bound = f"{('subject', 'object', 'predicate')[c]} of triplet {t}", (n, n, h)[c]
    return DataFormatError(f"{path}:{lineno}: {what} must be an integer in [0, {bound}), "
                           f"got {value:g}")


def ranked_from_frame_json(frame: dict, path: Path, lineno: int,
                           dims: Dims | None = None) -> RankedFrame:
    """A frame of a record from `numbered_predictions` as a ranked list.

    Labels, triplet node indices and predicates must be non-negative
    integers, node indices below the frame's node count; with `dims`, labels
    must be below dims.g and predicates below dims.h.
    """
    def rows(name: str, width: int) -> np.ndarray:
        value = _field(frame, name, path, lineno)
        if not isinstance(value, np.ndarray):
            raise DataFormatError(f"{path}:{lineno}: {name} must be a list of "
                                  f"{'numbers' if width == 1 else f'{width}-number rows'}")
        return value

    boxes, labels, scores = rows("boxes", 4), rows("labels", 1), rows("label_scores", 1)
    n = len(boxes)
    if len(labels) != n or len(scores) != n:
        raise DataFormatError(f"{path}:{lineno}: frame has {n} boxes but "
                              f"{len(labels)} labels and {len(scores)} label scores")
    triplets = rows("triplets", 4)
    g, h = (dims.g, dims.h) if dims else (math.inf, math.inf)
    # every label and triplet index of the frame: a finite non-negative integer
    index = np.concatenate([labels, triplets[:, :3].ravel()])
    whole = (index >= 0) & (index < math.inf) & (np.floor(index) == index)
    if not whole.all():
        i = int(np.argmin(whole))
        raise _index_error(path, lineno, i, index[i], n, g, h)
    labels = labels.astype(np.intp)
    subj, obj, predicate = triplets[:, :3].astype(np.intp).T
    outside = (subj >= n) | (obj >= n)
    if outside.any():
        t = np.flatnonzero(outside)[0]
        raise DataFormatError(f"{path}:{lineno}: triplet references node {max(subj[t], obj[t])} "
                              f"but frame has {n} nodes")
    if (subj == obj).any():
        t = np.flatnonzero(subj == obj)[0]
        raise DataFormatError(f"{path}:{lineno}: triplet {t} has subject and object "
                              f"both node {subj[t]}")
    if (labels >= g).any() or (predicate >= h).any():
        over = np.flatnonzero(labels >= g)
        i = over[0] if len(over) else n + 3 * np.flatnonzero(predicate >= h)[0] + 2
        raise _index_error(path, lineno, i, index[i], n, g, h)
    if not np.isfinite(triplets[:, 3]).all():
        raise DataFormatError(f"{path}:{lineno}: triplet scores must be finite")
    return RankedFrame(subj, obj, predicate, triplets[:, 3], labels, boxes)


def write_predictions(path: str | Path, header: dict, records: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(_dump({"kind": "predictions-header", **header}) + "\n")
        for record in records:
            fh.write(_dump(record) + "\n")


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    Decoded JSON holds no reference cycles, so the collector has nothing to
    free in it. Left on while a whole file's records pile up, it promotes
    them and runs full collections over the process's every object, which
    costs more than the decoding itself and varies with the rest of the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def numbered_predictions(path: str | Path) -> tuple[dict, list[tuple[int, dict]]]:
    """A predictions file's header, and each record with its line number.

    Each line's frames hold their numeric fields (_FRAME_ARRAYS) as arrays,
    converted as the line is decoded: the lists they replace never pile up
    for the collector to walk once it runs again.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such predictions file")
    records = _jsonl(path, "predictions")
    with _collector_paused():
        header, numbered = next(records), []
        for lineno, record in records:
            _frames_to_arrays(record)
            numbered.append((lineno, record))
        return header, numbered


def load_predictions(path: str | Path) -> tuple[dict, list[dict]]:
    """`numbered_predictions` without the line numbers."""
    header, numbered = numbered_predictions(path)
    return header, [record for _, record in numbered]


# ---------------------------------------------------------------------------
# reports


def write_report(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")


def format_table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for ri, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[ci]) for ci, cell in enumerate(row)).rstrip())
        if ri == 0:
            lines.append("  ".join("-" * widths[ci] for ci in range(len(headers))))
    return "\n".join(lines)
