"""File formats: datasets, checkpoints, predictions and reports.

Everything is JSON (JSON-lines for per-sequence files, with a header record
on the first line). Floats serialize through Python's shortest round-trip
repr, so re-reading an artifact reproduces the exact values; artifacts
carry the resolved config and seed and never embed timestamps, which keeps
equal-seed runs byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config_items
from .errors import DataFormatError
from .metrics import RankedFrame
from .params import ModelParams
from .scene import BoundingBox, FrameRecord, GroundTruthObject, SceneSequence, object_nodes
from .temporal import FramePrediction

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


def _box(record: dict, path: Path, lineno: int) -> BoundingBox:
    box = _field(record, "box", path, lineno)
    if not (isinstance(box, list) and len(box) == 4 and _NUMBER_TYPES.issuperset(map(type, box))):
        raise DataFormatError(f"{path}:{lineno}: field 'box' must be 4 numbers, got {box!r}")
    return BoundingBox(*box)


def sequence_from_json(record: dict, path: Path, lineno: int) -> SceneSequence:
    def floats(entry: dict, name: str) -> np.ndarray:
        return np.asarray(_field(entry, name, path, lineno), dtype=np.float64)

    frames = []
    for frame in _field(record, "frames", path, lineno):
        objects = [
            GroundTruthObject(
                box=_box(o, path, lineno),
                label=int(_field(o, "label", path, lineno)),
                visual_feat=floats(o, "visual"),
                occluded=bool(o.get("occluded", False)),
                detector_label_dist=None if o.get("det_label_dist") is None
                else floats(o, "det_label_dist"),
            )
            for o in _field(frame, "objects", path, lineno)
        ]
        dets = _field(frame, "detections", path, lineno)
        detections = object_nodes([_box(d, path, lineno) for d in dets],
                                  [_field(d, "label_dist", path, lineno) for d in dets],
                                  [_field(d, "visual", path, lineno) for d in dets])
        triplets = [tuple(map(int, t)) for t in _field(frame, "triplets", path, lineno)]
        frames.append(FrameRecord(objects=objects, triplets=triplets, detections=detections))
    return SceneSequence(
        frames=frames,
        event_labels=np.asarray(_field(record, "event_labels", path, lineno), dtype=np.float64),
        seed=int(_field(record, "seed", path, lineno)),
    )


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
    header: dict | None = None
    sequences: list[SceneSequence] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = _loads(path, lineno, line)
            if lineno == 1:
                if not isinstance(record, dict) or record.get("kind") != "dataset-header":
                    raise DataFormatError(f"{path}:1: missing dataset header record")
                header = record
                continue
            sequences.append(sequence_from_json(record, path, lineno))
    if header is None:
        raise DataFormatError(f"{path}: empty file")
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
    # the names and shapes the model of this config has
    expected = {name: t.shape for name, t in
                ModelParams.init(cfg.dims, seed=0, gcn_layers=gcn_layers).items()}
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


def _number_rows(value, width: int, what: str, path: Path, lineno: int) -> np.ndarray:
    """A list of `width`-number rows (or of numbers, for width 1) as a
    (rows, width) float64 array."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not isinstance(value, list) or arr.size != len(value) * width:
        raise DataFormatError(f"{path}:{lineno}: {what} must be a list of "
                              f"{'numbers' if width == 1 else f'{width}-number rows'}")
    return arr.reshape(len(value), width)


def ranked_from_frame_json(frame: dict, path: Path, lineno: int) -> RankedFrame:
    def rows(name: str, width: int) -> np.ndarray:
        return _number_rows(_field(frame, name, path, lineno), width, name, path, lineno)

    boxes, labels, scores = rows("boxes", 4), rows("labels", 1), rows("label_scores", 1)
    n = len(boxes)
    if len(labels) != n or len(scores) != n:
        raise DataFormatError(f"{path}:{lineno}: frame has {n} boxes but "
                              f"{len(labels)} labels and {len(scores)} label scores")
    triplets = rows("triplets", 4)
    subj, obj, predicate = triplets[:, :3].astype(np.intp).T
    outside = (subj < 0) | (subj >= n) | (obj < 0) | (obj >= n)
    if outside.any():
        t = np.flatnonzero(outside)[0]
        raise DataFormatError(f"{path}:{lineno}: triplet references node {max(subj[t], obj[t])} "
                              f"but frame has {n} nodes")
    if (subj == obj).any():
        t = np.flatnonzero(subj == obj)[0]
        raise DataFormatError(f"{path}:{lineno}: triplet {t} has subject and object "
                              f"both node {subj[t]}")
    if not np.isfinite(triplets[:, 3]).all():
        raise DataFormatError(f"{path}:{lineno}: triplet scores must be finite")
    return RankedFrame(subj, obj, predicate, triplets[:, 3], labels[:, 0].astype(np.intp), boxes)


def write_predictions(path: str | Path, header: dict, records: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(_dump({"kind": "predictions-header", **header}) + "\n")
        for record in records:
            fh.write(_dump(record) + "\n")


def load_predictions(path: str | Path) -> tuple[dict, list[dict]]:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such predictions file")
    header: dict | None = None
    records: list[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = _loads(path, lineno, line)
            if lineno == 1:
                if not isinstance(record, dict) or record.get("kind") != "predictions-header":
                    raise DataFormatError(f"{path}:1: missing predictions header record")
                header = record
                continue
            records.append(record)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    return header, records


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
