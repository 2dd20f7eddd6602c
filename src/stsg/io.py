"""File formats: datasets, checkpoints, predictions and reports.

Everything is JSON (JSON-lines for per-sequence files, with a header record
on the first line). Floats serialize through Python's shortest round-trip
repr, except a dataset record's node matrices and a predictions frame's
pair probabilities, which are written as the base64 text of their
little-endian float64 bytes (`float64_text`); either way re-reading an
artifact reproduces the exact values. Artifacts carry the resolved config
and seed and never embed timestamps, which keeps equal-seed runs
byte-identical.

Three readers read every field of every input file: `_field`, optionally
of a JSON kind, `_number_array`, only JSON numbers of one kind (finite
numbers, integers or booleans) in rows of one width, and `_float64_rows`,
only strict base64 text of whole rows of float64 values of one width,
finite where asked (a dataset record's `gt`, `det` and `det_visual`, a
predictions frame's `pair_probs`). A loader adds its format's checks
(ranges, distributions, counts, seeds) and locates every error at its file
and line.

A dataset file of format version 3 (`DATASET_VERSION`, in its header)
holds, per sequence, its frames' object, detection and triplet counts,
short integer and boolean columns of its gt objects (`labels`, `occluded`,
`recorded`), its triplets and its detections' gt objects (`det_object`),
and three node matrices as base64 text: the gt rows whole (`gt`), each
detection's [box | label dist] (`det`), and the visual vectors of the
detections that repeat no gt object's vector of their frame
(`det_visual`); the others name that object in `det_object`, so each
vector is written once. These are the sequence's own columns
(`scene.SceneSequence`): a writer reads them and a reader hands them to
`scene.scene_sequence`, with no per-frame or per-object step. A frame of
more than `config.MAX_FRAME_NODES` objects or detections is an error, and
so is a file of an earlier version, which says to regenerate it with
`stsg gen`.

A predictions file holds, for each frame, its nodes' boxes, labels and
label scores and its ordered pairs' predicate probabilities (`pair_probs`,
the base64 text of their little-endian float64 bytes, the predicate varying
fastest), not a triplet list: a frame's served graph
(`temporal.FrameGraph`), which evaluation ranks (`metrics`). One reader
(`_predictions`) reads it, once: the header's config gives the dims (g
bounds the labels, h sets the count of `pair_probs`); every line is
decoded, then the frames of every record are checked at once and become
the graphs served, bit for bit. A label score must be in (0, 1], and a pair
probability in [0, 1]. Errors come in line order: the header's, then each
record's in turn (where the file fails, its records are checked one by one
to find the first), then a count of records that is not the split's. A
header that names a split must name the one evaluated.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import gc
import json
import reprlib
from itertools import chain
from pathlib import Path

import numpy as np

from .config import EVENT_NAMES, MAX_FRAME_NODES, MODES, Dims, RunConfig, parse_config_items
from .errors import ConfigError, ContractError, DataFormatError
from .params import ModelParams, model_shapes
from .scene import SceneSequence, check_boxes, scene_sequence
from .temporal import FrameGraph, FramePrediction, frame_offsets

SPLITS = ("train", "val", "test")


def runconfig_from_flat(flat: dict) -> RunConfig:
    return parse_config_items({k: str(v) for k, v in flat.items()})


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _loads(path: Path, lineno: int, line: str | bytes) -> dict:
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
    except RecursionError:
        raise DataFormatError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text ({e.reason})") from None


def _jsonl(path: Path, kind: str):
    """Stream a JSON-lines file: its header (line 1, of kind `<kind>-header`),
    then (line number, record) for each non-blank line after it."""
    try:   # text mode: it decodes in blocks, faster than line by line
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            header = _loads(path, 1, first) if first.strip() else None
            if not isinstance(header, dict) or header.get("kind") != f"{kind}-header":
                raise DataFormatError(f"{path}:1: missing {kind} header record")
            yield header
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    yield lineno, _loads(path, lineno, line)
    except UnicodeDecodeError as e:   # a block's, so no line number
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


@contextlib.contextmanager
def _located(where: str):
    """Prefix `where`, a file (and line), to the errors of reading it."""
    try:
        yield
    except (ConfigError, ContractError, DataFormatError) as e:
        raise DataFormatError(f"{where}: {e}") from None


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", int: "an integer", bool: "a boolean"}


def _field(record, name: str, kind: type | None = None, default=_REQUIRED):
    """Field `name` of the JSON object `record`, required unless a default is
    given, and of `kind` (dict, list, int or bool; a bool is not an int). A
    kind error shows the value cut to a few entries (`reprlib`)."""
    if type(record) is not dict:
        raise DataFormatError(f"expected a JSON object with field {name!r}, "
                              f"got {type(record).__name__}")
    if name not in record:
        if default is _REQUIRED:
            raise DataFormatError(f"missing field {name!r}")
        return default
    value = record[name]
    if kind is not None and type(value) is not kind:
        raise DataFormatError(f"field {name!r} must be {_KINDS[kind]}, "
                              f"got {reprlib.repr(value)}")
    return value


# what `_number_array` reads, by kind: the JSON types of an entry, the
# array's dtype and the entries' name in an error
_ARRAY_KINDS = {float: (frozenset((int, float)), np.float64, "finite numbers"),
                int: (frozenset((int,)), np.intp, "integers"),
                bool: (frozenset((bool,)), np.bool_, "booleans")}


def _json_array(value, width: int, kind: type = float) -> np.ndarray | None:
    """`_number_array`'s array, or None where it raises."""
    if type(value) is not list:
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
    types, dtype, _ = _ARRAY_KINDS[kind]
    if not types.issuperset(map(type, numbers)):
        return None
    try:
        arr = np.array(numbers, dtype=dtype)
    except OverflowError:   # an integer beyond the range of the dtype
        return None
    if kind is float and not np.isfinite(arr).all():
        return None
    return arr if width == 1 else arr.reshape(len(value), width)


def _number_array(value, width: int, name: str, kind: type = float) -> np.ndarray:
    """`value`, a JSON list of entries of `kind` (width 1) or of rows of
    exactly `width` of them, as an array of shape (rows,) or (rows, width):
    float64 of finite numbers (a bool, a string, a null, a NaN or an
    infinity is not one), intp of integers (a bool is not one) or bool of
    booleans. The error names `name` and the first bad entry (for rows, the
    first bad row), in a repr cut to a few entries, as `_field` does."""
    arr = _json_array(value, width, kind)
    if arr is None:
        bad = (next((e for e in value if _json_array([e], width, kind) is None), value)
               if type(value) is list else value)
        raise DataFormatError(f"{name} must be {'' if width == 1 else f'{width} '}"
                              f"{_ARRAY_KINDS[kind][2]}, got {reprlib.repr(bad)}")
    return arr


def float64_text(values: np.ndarray) -> str:
    """`values` as a file holds float64 values: the base64 text of their
    little-endian bytes (`'<f8'`), row by row."""
    return binascii.b2a_base64(np.ascontiguousarray(values, "<f8"), newline=False).decode("ascii")


def _float64_rows(text, name: str, width: int = 1, finite: bool = False) -> np.ndarray:
    """Field `name`, `float64_text`'s text, as a float64 array of shape
    (rows,) (width 1) or (rows, width): strict base64 (no character outside
    its alphabet, padding only at the end) of whole rows of `width`
    little-endian float64 values, each finite where `finite` is set. The
    array is a read-only view of the decoded bytes."""
    if type(text) is not str:
        raise DataFormatError(f"field {name!r} must be base64 text of float64 values, "
                              f"got {reprlib.repr(text)}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:   # binascii.Error, or a character beyond ASCII
        raise DataFormatError(f"field {name!r} must be strict base64 text ({e})") from None
    if len(raw) % (8 * width):
        whole = ("whole float64 values, 8 bytes each" if width == 1 else
                 f"whole rows of {width} float64 values, {8 * width} bytes each")
        raise DataFormatError(f"field {name!r} must encode {whole}, got {len(raw)} bytes")
    arr = np.frombuffer(raw, "<f8")
    if finite:
        ok = np.isfinite(arr)
        if not ok.all():
            k = int(np.argmin(ok))
            raise DataFormatError(f"field {name!r} must be finite, got {float(arr[k])!r} "
                                  f"in row {k // width}")
    return arr if width == 1 else arr.reshape(-1, width)


# ---------------------------------------------------------------------------
# datasets


# the format a dataset file is written in; a header without the field is
# version 1
DATASET_VERSION = 3

# how far a label distribution's sum may be from 1; a label score, a
# distribution's largest entry, may exceed 1 by as much
_SUM_SLACK = 1e-9


def _object_refs(seq: SceneSequence, visual: int) -> np.ndarray:
    """Each detection's first gt object of its frame whose visual vector (its
    row from column `visual` on) has the same bits as its own, -1 where none
    has: bits, so that a row gathered by the index is the row itself."""
    det_frame = np.repeat(np.arange(len(seq.n_detections)), seq.n_detections)
    rows = seq.object_rows(det_frame)   # padding names a zero row, appended
    gt = seq.gt_feats[:, visual:]
    bits = np.concatenate([gt, np.zeros((1, gt.shape[1]))]).view(np.uint64)
    same = (bits[rows] == seq.det_feats[:, None, visual:].view(np.uint64)).all(axis=2)
    same &= rows < len(gt)
    return np.where(same.any(axis=1), same.argmax(axis=1), -1)


def sequence_to_json(seq: SceneSequence) -> dict:
    """A dataset record (format version 3): the sequence's columns, the node
    matrices as `float64_text`. `gt` holds the gt rows whole; `det` holds
    each detection's [box | label dist], and its visual vector is that of
    the first gt object of its frame whose vector has the same bits
    (`det_object`), or, where none has (`det_object` -1), its row of
    `det_visual`."""
    visual = 4 + seq.g
    det_object, objects = _object_refs(seq, visual), seq.objects
    return {
        "seed": seq.seed,
        "event_labels": seq.event_labels.tolist(),
        "n_objects": seq.n_objects.tolist(),
        "n_detections": seq.n_detections.tolist(),
        "n_triplets": seq.n_triplets.tolist(),
        "labels": objects["label"].tolist(),
        "occluded": objects["occluded"].tolist(),
        "recorded": objects["recorded"].tolist(),
        "triplets": seq.triplets.ravel().tolist(),
        "det_object": det_object.tolist(),
        "gt": float64_text(seq.gt_feats),
        "det": float64_text(seq.det_feats[:, :visual]),
        "det_visual": float64_text(seq.det_feats[det_object < 0, visual:]),
    }


def _check_index(value: int, bound: int, what: str) -> None:
    if not 0 <= value < bound:
        raise DataFormatError(f"{what} must be an integer in [0, {bound}), got {value}")


def _check_triplet(s: int, o: int, p: int, n_objects: int, h: int) -> None:
    """Raise the error of the first check of triplet (s, o, p) that fails."""
    _check_index(s, n_objects, "triplet subject")
    _check_index(o, n_objects, "triplet object")
    _check_index(p, h, "triplet predicate")
    if s == o:
        raise DataFormatError(f"triplet {[s, o, p]} names object {s} as both subject and "
                              f"object")


def _first_false(ok: np.ndarray) -> int | None:
    """The index of the first False of the bool array `ok`, None if none is."""
    return None if ok.all() else int(np.argmin(ok))


def _counted(values: np.ndarray, count: int, name: str, what: str) -> np.ndarray:
    if len(values) != count:
        raise DataFormatError(f"field {name!r} must hold {count} {what}, got {len(values)}")
    return values


def _distributions(rows: np.ndarray, name: str) -> None:
    k = _first_false((rows >= 0).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= _SUM_SLACK))
    if k is not None:
        raise DataFormatError(f"row {k} of field {name!r}: the label distribution must be a "
                              f"probability distribution, got {rows[k].tolist()}")


_COUNTS = ("n_objects", "n_detections", "n_triplets")


def sequence_from_json(record: dict, path: Path, lineno: int, dims: Dims) -> SceneSequence:
    """One dataset record (`sequence_to_json`'s), its errors located at
    `path`:`lineno`, read with checks over whole columns: counts of 0 or
    more, one of each per frame; as many labels, flags and `gt` rows as
    objects, labels below g; as many `det` rows and `det_object` entries as
    detections, each entry -1 or an object of its frame, and a
    `det_visual` row for each -1; three entries per triplet, its subject
    and object distinct objects of its frame and its predicate below h;
    finite node rows whose label distributions are distributions, one-hot
    at the label where an object records no detector distribution; event
    labels one 0 or 1 per event class; and every box (`scene_sequence`).
    The first check that fails raises its error, which names an entry by
    its place in its column."""
    g, visual = dims.g, 4 + dims.g

    def ints(name: str) -> np.ndarray:
        return _number_array(_field(record, name), 1, f"field {name!r}", int)

    def rows(name: str, width: int, count: int, what: str) -> np.ndarray:
        return _counted(_float64_rows(_field(record, name), name, width, finite=True),
                        count, name, f"rows, one per {what}")

    with _located(f"{path}:{lineno}"):
        counts = [ints(name) for name in _COUNTS]
        if len({len(col) for col in counts}) > 1:
            raise DataFormatError(f"fields {', '.join(map(repr, _COUNTS))} must hold one count "
                                  f"per frame, got {', '.join(str(len(c)) for c in counts)}")
        for name, col in zip(_COUNTS, counts):
            if (col < 0).any():
                raise DataFormatError(f"field {name!r} must hold counts of 0 or more, "
                                      f"got {int(col.min())}")
        for name, col in zip(_COUNTS[:2], counts):   # before a row is decoded
            if (col > MAX_FRAME_NODES).any():
                k = int(np.argmax(col > MAX_FRAME_NODES))
                raise DataFormatError(f"entry {k} of field {name!r} must be at most "
                                      f"{MAX_FRAME_NODES}, the most a frame may hold, got {col[k]}")
        n_objects, n_detections, n_triplets = counts
        # Python sums: a count near the intp bound would wrap round in numpy's
        n, d, t = (sum(col.tolist()) for col in counts)
        labels = _counted(ints("labels"), n, "labels", "labels, one per object")
        k = _first_false((labels >= 0) & (labels < g))
        if k is not None:
            _check_index(int(labels[k]), g, "object label")
        occluded, recorded = (
            _counted(_number_array(_field(record, name), 1, f"field {name!r}", bool), n, name,
                     "flags, one per object") for name in ("occluded", "recorded"))
        gt = rows("gt", dims.m, n, "object")
        det = rows("det", visual, d, "detection")
        # each detection's gt row: its frame's first, plus `det_object`
        frame = np.arange(len(n_objects))
        det_frame = np.repeat(frame, n_detections)
        det_object = _counted(ints("det_object"), d, "det_object", "entries, one per detection")
        k = _first_false((det_object >= -1) & (det_object < n_objects[det_frame]))
        if k is not None:
            raise DataFormatError(f"entry {k} of field 'det_object' must be -1 or an integer in "
                                  f"[0, {n_objects[det_frame[k]]}), got {det_object[k]}")
        own = det_object < 0
        det_visual = rows("det_visual", dims.c, int(own.sum()),
                          "detection that names no gt object")
        triplets = _counted(ints("triplets"), 3 * t, "triplets",
                            "entries, 3 per triplet").reshape(t, 3)
        bound = n_objects[np.repeat(frame, n_triplets)]
        s, o, p = triplets.T
        k = _first_false((s >= 0) & (s < bound) & (o >= 0) & (o < bound) & (p >= 0)
                         & (p < dims.h) & (s != o))
        if k is not None:
            _check_triplet(*triplets[k].tolist(), int(bound[k]), dims.h)
        _distributions(gt[:, 4:visual], "gt")
        _distributions(det[:, 4:visual], "det")
        if not recorded.all():
            shown = gt[~recorded, 4:visual] == np.eye(g)[labels[~recorded]]
            k = _first_false(shown.all(axis=1))
            if k is not None:
                k = int(np.flatnonzero(~recorded)[k])
                raise DataFormatError(f"row {k} of field 'gt': an object that records no "
                                      f"detector distribution must hold its label's one-hot, "
                                      f"got {gt[k, 4:visual].tolist()}")
        det_feats = np.empty((d, dims.m))
        det_feats[:, :visual] = det
        det_feats[own, visual:] = det_visual
        starts = np.cumsum(n_objects) - n_objects
        det_feats[~own, visual:] = gt[(starts[det_frame] + det_object)[~own], visual:]
        events = _number_array(_field(record, "event_labels"), 1, "field 'event_labels'")
        if len(events) != len(EVENT_NAMES) or not ((events == 0) | (events == 1)).all():
            raise DataFormatError(f"field 'event_labels' must be {len(EVENT_NAMES)} labels "
                                  f"of 0 or 1, got {events.tolist()}")
        return scene_sequence(gt, det_feats, labels, occluded, recorded, triplets, counts, events,
                              _field(record, "seed", int), g)


def sequence_line(seq: SceneSequence) -> str:
    """A sequence's line of a dataset file, its newline included."""
    return _dump(sequence_to_json(seq)) + "\n"


def write_split_lines(path: Path, cfg: RunConfig, split: str, count: int, lines) -> None:
    """A dataset file: the header, which gives the format version
    (`DATASET_VERSION`) and promises `count` sequences, then each of `lines`
    (`sequence_line`s) as it comes. Lines that stop short leave a
    file that `load_split` refuses by its header count."""
    header = {"kind": "dataset-header", "version": DATASET_VERSION, "split": split,
              "count": count, "seed": cfg.seed, "config": cfg.to_flat_dict()}
    with open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        fh.writelines(lines)


def write_split(path: Path, cfg: RunConfig, split: str,
                sequences: list[SceneSequence]) -> None:
    write_split_lines(path, cfg, split, len(sequences), map(sequence_line, sequences))


def load_split(data_dir: str | Path, split: str) -> tuple[dict, list[SceneSequence]]:
    """A split file's header and sequences. A file of an earlier format
    version is an error that says to regenerate it: `stsg gen` with the
    same config and seed writes the same sequences."""
    if split not in SPLITS:
        raise DataFormatError(f"unknown split {split!r}, expected one of {SPLITS}")
    path = Path(data_dir) / f"{split}.jsonl"
    if not path.exists():
        raise DataFormatError(f"{path}: no such dataset file")
    records = _jsonl(path, "dataset")
    header = next(records)
    with _located(f"{path}:1"):
        # the dimensions the records were generated with
        version = _field(header, "version", int, 1)
        if version < DATASET_VERSION:
            raise DataFormatError(f"dataset format version {version} is no longer read; "
                                  f"regenerate the split with `stsg gen` (the same config and "
                                  f"seed give the same sequences)")
        if version != DATASET_VERSION:
            raise DataFormatError(f"field 'version' must be {DATASET_VERSION}, got {version}")
        dims = runconfig_from_flat(_field(header, "config", dict)).dims
        count = _field(header, "count", int)
    with _collector_paused():   # the records and the sequences built from them hold no cycles
        sequences = [sequence_from_json(record, path, lineno, dims) for lineno, record in records]
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
    """A checkpoint's config, parameters and training log; each parameter
    has the shape its config gives it, as that many finite numbers, and the
    GCN layer count is the config's."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such checkpoint")
    doc = _loads(path, 1, path.read_bytes())
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise DataFormatError(f"{path}: not a checkpoint file (field 'kind')")
    with _located(str(path)):
        cfg = runconfig_from_flat(_field(doc, "config", dict))
        gcn_layers = cfg.train.gcn_layers
        written = _field(doc, "gcn_layers", int, gcn_layers)
        if written != gcn_layers:
            raise DataFormatError(f"field 'gcn_layers' is {written}, but the config has "
                                  f"train.gcn_layers = {gcn_layers}")
        expected = model_shapes(cfg.dims, gcn_layers)
        entries = _field(doc, "params", dict)
        unknown = sorted(set(entries) - set(expected))
        if unknown:   # a missing one is a missing field
            raise DataFormatError(f"parameters {unknown} are not in the model of the config")
        arrays = {}
        for name, shape in expected.items():
            entry = _field(entries, name, dict)
            arr = _number_array(_field(entry, "data"), 1, f"parameter {name!r} data")
            if _field(entry, "shape") != list(shape) or arr.size != np.prod(shape):
                raise DataFormatError(f"parameter {name!r} has shape {entry['shape']} and "
                                      f"{arr.size} values, expected shape {list(shape)}")
            arrays[name] = arr.reshape(shape)
        return (cfg, ModelParams.from_arrays(cfg.dims, arrays, gcn_layers),
                _field(doc, "log", list, []))


def write_train_log(path: str | Path, cfg: RunConfig, log: list[dict]) -> None:
    doc = {"kind": "train-log", "seed": cfg.train.seed,
           "config": cfg.to_flat_dict(), "entries": log}
    Path(path).write_text(_dump(doc))


# ---------------------------------------------------------------------------
# predictions


def frame_prediction_to_json(pred: FramePrediction, graph: FrameGraph,
                             include_features: bool) -> dict:
    """A predictions frame: the frame's served graph `graph`, its nodes'
    boxes, labels and label scores, and `pair_probs`, one base64 text of
    n(n - 1) * h float64 values (`float64_text`), pairs in
    `spatial.frame_pairs` order and the predicate varying fastest; and, with
    `include_features`, `pred`'s label distributions and features.
    Evaluation ranks the triplets, so the file lists none."""
    record = {
        "boxes": graph.boxes.tolist(),
        "labels": graph.labels.tolist(),
        "label_scores": graph.label_scores.tolist(),
        "pair_probs": float64_text(graph.pair_probs),
    }
    if include_features:
        record["label_dists"] = pred.label_dists.tolist()
        record["fused"] = pred.fused.tolist()
        record["gcn"] = pred.gcn.tolist()
    return record


def _column(owners: list, name: str, width: int = 1) -> tuple[np.ndarray, list[int]]:
    """Field `name` of each of the JSON objects `owners`, read as one array
    (`_number_array`'s, of all their rows in turn), and each one's row count.
    The error, where there is one, is that of the first owner whose own field
    fails: all of them pass exactly when their rows together do."""
    values = [_field(owner, name) for owner in owners]
    arr = (_json_array(list(chain.from_iterable(values)), width)
           if all(type(value) is list for value in values) else None)
    if arr is None:
        for value in values:
            _number_array(value, width, f"field {name!r}")
    return arr, list(map(len, values))


# the first float beyond the intp range: every whole number below it casts
# to intp exactly
_INTP_END = 2.0 ** (8 * np.dtype(np.intp).itemsize - 1)


def _number_text(value: float) -> str:
    """A label value for a message: exact when it is a whole number within
    the intp range, else in `:g` form."""
    return str(int(value)) if value == np.floor(value) and abs(value) < _INTP_END else f"{value:g}"


def _frame_graphs(frames: list, g: int, h: int) -> list[FrameGraph]:
    """Check predictions frames all at once, and return each one's graph,
    its arrays views of one array per field.

    Boxes, labels and label scores must be finite numbers (`_number_array`),
    with a label and a label score per box; pair probabilities must be
    base64 text of float64 values (`_float64_rows`), read as one array of
    all the frames' values, n(n - 1) * h of them for a frame of n nodes,
    each in [0, 1] (a NaN or an infinity is not). Labels must be whole
    numbers below g, label scores in (0, 1] (with the slack a label
    distribution's sum has, `_SUM_SLACK`) and every box a box
    (`scene.check_boxes`). The first check that fails raises its error,
    which names an entry by its place in its frame.
    """
    if not frames:
        return []
    boxes, n = _column(frames, "boxes", 4)
    labels, n_labels = _column(frames, "labels")
    label_scores, n_scores = _column(frames, "label_scores")
    for nodes, n_label, n_score in zip(n, n_labels, n_scores):
        if n_label != nodes or n_score != nodes:
            raise DataFormatError(f"frame has {nodes} boxes but {n_label} labels and "
                                  f"{n_score} label scores")
    starts, pair_starts, local = frame_offsets(n)
    ends = pair_starts * h
    # each frame's values copied in as it is decoded, so that its bytes are
    # freed before the next frame's; a wrong count is an error once every
    # frame's text has decoded
    probs, miscounted = np.empty(ends[-1]), None
    for frame, nodes, p, a in zip(frames, n, np.diff(pair_starts).tolist(), ends.tolist()):
        values = _float64_rows(_field(frame, "pair_probs"), "pair_probs")
        if len(values) == p * h:
            probs[a:a + p * h] = values
        elif miscounted is None:
            miscounted = nodes, p, len(values)
    if miscounted is not None:
        nodes, p, count = miscounted
        raise DataFormatError(f"frame has {nodes} nodes, so field 'pair_probs' must hold "
                              f"{p * h} probabilities, {h} for each of its {p} ordered "
                              f"pairs, got {count}")
    outside = ~((probs >= 0) & (probs <= 1))   # a NaN too
    if outside.any():
        k = int(np.argmax(outside))
        place = k - ends[np.searchsorted(ends, k, side="right") - 1]
        raise DataFormatError(f"entry {place} of field 'pair_probs' must be a probability "
                              f"in [0, 1], got {float(probs[k])!r}")
    # checked on the numbers before they become intp, where a number beyond
    # the intp range would wrap round
    whole = (labels >= 0) & (labels < g) & (np.floor(labels) == labels)
    if not whole.all():
        i = int(np.argmin(whole))
        raise DataFormatError(f"label of node {local[i]} must be an integer in [0, {g}), "
                              f"got {_number_text(labels[i])}")
    scored = (label_scores > 0) & (label_scores <= 1 + _SUM_SLACK)
    if not scored.all():
        i = int(np.argmin(scored))
        raise DataFormatError(f"label score of node {local[i]} must be in (0, 1], "
                              f"got {float(label_scores[i])!r}")
    try:
        check_boxes(boxes)
    except ContractError as e:
        raise DataFormatError(str(e)) from None
    labels, probs = labels.astype(np.intp), probs.reshape(-1, h)
    nodes, pairs = starts.tolist(), pair_starts.tolist()
    return [FrameGraph(labels[a:b], label_scores[a:b], boxes[a:b], probs[p:q])
            for a, b, p, q in zip(nodes[:-1], nodes[1:], pairs[:-1], pairs[1:])]


def ranked_from_frame_json(frame: FrameGraph, path: Path, lineno: int) -> FrameGraph:
    """A frame of a record from `load_predictions`, which the loader checked
    with every frame of `path`: its served graph, as it is."""
    return frame


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


def _decoded(records) -> tuple[list, DataFormatError | None]:
    """The (line number, record) pairs `records` yields, and the error that
    stopped it, None if none did."""
    numbered = []
    try:
        for item in records:
            numbered.append(item)
    except DataFormatError as e:
        return numbered, e
    return numbered, None


def _frames_at_once(records: list, g: int, h: int) -> bool:
    """Set each record's `frames` to its frames' graphs, from one
    `_frame_graphs` call over all of them, and return True; or return False,
    no record changed, where a check fails. The records pass exactly when
    each one's own frames do, so the first that fails is found record by
    record."""
    try:
        frames = [_field(record, "frames", list) for record in records]
        graphs = _frame_graphs(list(chain.from_iterable(frames)), g, h)
    except (ConfigError, ContractError, DataFormatError):
        return False
    end = 0
    for record, own in zip(records, frames):
        end += len(own)
        record["frames"] = graphs[end - len(own):end]
    return True


def _predictions(path: str | Path):
    """Read a predictions file, once, with the collector paused: yield its
    header and the dims its config gives (the defaults where it has none),
    then (line number, record) for each record, `frames` set to its frames'
    graphs (`_frame_graphs`, with those dims). Every line is decoded, then
    every record's frames are checked at once; where a line does not decode
    or a check fails, each record is checked in turn as it is yielded, and
    the decoding error comes after the records before it. So each error is
    located at its file and line, in line order."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such predictions file")
    with _collector_paused():
        records = _jsonl(path, "predictions")
        header = next(records)
        with _located(f"{path}:1"):
            dims = runconfig_from_flat(_field(header, "config", dict, {})).dims
        yield header, dims
        numbered, undecoded = _decoded(records)
        checked = undecoded is None and _frames_at_once([record for _, record in numbered],
                                                        dims.g, dims.h)
        for lineno, record in numbered:
            if not checked:
                with _located(f"{path}:{lineno}"):
                    record["frames"] = _frame_graphs(_field(record, "frames", list),
                                                     dims.g, dims.h)
            yield lineno, record
        if undecoded is not None:
            raise undecoded


def load_predictions(path: str | Path) -> tuple[dict, list[dict]]:
    """A predictions file's header and records, every record read and
    checked (`_predictions`): each record's `frames` are its graphs."""
    (header, _), *numbered = _predictions(path)
    return header, [record for _, record in numbered]


def predicted_graphs(path: str | Path, sequences: list[SceneSequence], dims: Dims,
                     split: str) -> tuple[str | None, dict, list[list[FrameGraph]]]:
    """A predictions file read against the sequences and dims of a dataset
    split: the mode its header names (None if none), the config it echoes,
    and each sequence's frame graphs.

    Errors come in line order. The header's mode must be known, its split,
    where it names one, the given `split`, and its dims.g and dims.h the
    split's, before any record is read; each record must pass its frames'
    checks, then match its sequence's seed and frame count; and at the end
    the file must hold a record for each sequence.
    """
    path = Path(path)
    graphs = []
    with contextlib.closing(_predictions(path)) as records:
        header, made = next(records)
        with _located(f"{path}:1"):
            mode = _field(header, "mode", default=None)
            if mode is not None and mode not in MODES:
                raise DataFormatError(f"field 'mode' must be one of {MODES}, got {mode!r}")
            made_on = _field(header, "split", default=split)
            if made_on != split:
                raise DataFormatError(f"split: the predictions were made on the "
                                      f"{reprlib.repr(made_on)} split, not {split!r}")
            for name in ("g", "h"):
                got, want = getattr(made, name), getattr(dims, name)
                if got != want:
                    raise DataFormatError(f"dims.{name}: the predictions were made with {got}, "
                                          f"but the {split} split has {want}")
        for lineno, record in records:
            if len(graphs) < len(sequences):
                seq = sequences[len(graphs)]
                with _located(f"{path}:{lineno}"):
                    seed = _field(record, "seq_seed", int)
                    if seed != seq.seed:
                        raise DataFormatError(f"sequence seed {seed} does not match dataset "
                                              f"seed {seq.seed}")
                    if len(record["frames"]) != len(seq.frames):
                        raise DataFormatError(f"field 'frames' must list the sequence's "
                                              f"{len(seq.frames)} frames")
            graphs.append(record["frames"])
    if len(graphs) != len(sequences):
        raise DataFormatError(f"{path}: {len(graphs)} prediction records for "
                              f"{len(sequences)} sequences")
    return mode, header.get("config", {}), graphs   # the config echoed as written


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
