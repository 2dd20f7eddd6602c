import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stsg import io
from stsg.cli import main
from stsg.config import RunConfig, load_config, parse_config_items
from stsg.errors import ConfigError, DataFormatError

TINY_CFG = """
# tiny benchmark for fast end-to-end runs; small scenes keep every frame's
# gt list under the recall cutoffs
split.train_sequences = 10
split.val_sequences = 4
split.test_sequences = 4
world.n_objects_min = 2
world.n_objects_max = 4
train.epochs = 2
train.batch_size = 4
"""


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, tiny_config_path) -> Path:
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["gen", "--config", str(tiny_config_path), "--out", str(out),
                 "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory, tiny_config_path, dataset_dir) -> Path:
    ckpt = tmp_path_factory.mktemp("ckpt") / "model.json"
    assert main(["train", "--config", str(tiny_config_path), "--data", str(dataset_dir),
                 "--out", str(ckpt), "--mode", "sgdet"]) == 0
    return ckpt


# ---------------------------------------------------------------------------
# config loading


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert (cfg.dims.g, cfg.dims.c, cfg.dims.h, cfg.dims.d) == (8, 16, 6, 16)
    assert cfg.train.k == 1
    assert cfg.world.frames == 8
    assert cfg.dims.m == 28


def test_sparse_with_k_zero_rejected():
    with pytest.raises(ConfigError, match="k"):
        parse_config_items({"train.k": "0", "train.variant": "sparse"})


def test_explicit_m_contradiction_rejected():
    with pytest.raises(ConfigError, match="dims.m"):
        parse_config_items({"dims.m": "99"})
    # a consistent explicit value passes
    parse_config_items({"dims.m": "28"})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dims.q = 3\n")
    with pytest.raises(ConfigError, match="dims.q"):
        load_config(path)


def test_malformed_line_names_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dims.g 8\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        load_config(path)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["flops", "--wat"]) == 2


def test_missing_data_is_runtime_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "x.json")]) == 1


def test_eval_requires_exactly_one_source(dataset_dir):
    assert main(["eval", "--data", str(dataset_dir)]) == 1


def test_console_entry_point_usage():
    proc = subprocess.run([sys.executable, "-m", "stsg", "definitely-not-a-command"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


# ---------------------------------------------------------------------------
# gen determinism


def test_gen_twice_is_byte_identical(tmp_path, tiny_config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", str(tiny_config_path), "--out", str(a), "--seed", "7"]) == 0
    assert main(["gen", "--config", str(tiny_config_path), "--out", str(b), "--seed", "7"]) == 0
    for split in ("train", "val", "test"):
        assert (a / f"{split}.jsonl").read_bytes() == (b / f"{split}.jsonl").read_bytes()


def test_gen_jobs_matches_sequential(tmp_path, tiny_config_path):
    a, b = tmp_path / "seq", tmp_path / "par"
    assert main(["gen", "--config", str(tiny_config_path), "--out", str(a), "--seed", "3"]) == 0
    assert main(["gen", "--config", str(tiny_config_path), "--out", str(b), "--seed", "3",
                 "--jobs", "3"]) == 0
    for split in ("train", "val", "test"):
        assert (a / f"{split}.jsonl").read_bytes() == (b / f"{split}.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# dataset and checkpoint round trips


def test_dataset_roundtrip(dataset_dir):
    header, seqs = io.load_split(dataset_dir, "train")
    assert header["count"] == len(seqs) == 10
    assert header["config"]["dims.g"] == 8
    rewritten = [io.sequence_from_json(io.sequence_to_json(s), Path("mem"), 0) for s in seqs]
    for a, b in zip(seqs, rewritten):
        assert a.seed == b.seed
        for fa, fb in zip(a.frames, b.frames):
            assert fa.triplets == fb.triplets
            for oa, ob in zip(fa.objects, fb.objects):
                assert oa.box == ob.box
                assert np.array_equal(oa.visual_feat, ob.visual_feat)


def test_checkpoint_roundtrip_is_exact(checkpoint_path):
    cfg, params, log = io.load_checkpoint(checkpoint_path)
    assert log and "train_loss" in log[0]
    reloaded_cfg, params2, _ = io.load_checkpoint(checkpoint_path)
    for name, t in params.items():
        assert np.array_equal(t.data, params2[name].data)
    assert cfg.to_flat_dict() == reloaded_cfg.to_flat_dict()


def test_corrupt_checkpoint_reports_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "not-a-checkpoint"}')
    with pytest.raises(DataFormatError, match="kind"):
        io.load_checkpoint(path)


def test_train_is_byte_identical_across_runs(tmp_path, tiny_config_path, dataset_dir):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["train", "--config", str(tiny_config_path), "--data", str(dataset_dir),
            "--mode", "sgdet"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# eval / infer


def gt_prediction_records(seqs):
    records = []
    for seq in seqs:
        frames = []
        for frame in seq.frames:
            boxes = [[o.box.x, o.box.y, o.box.w, o.box.h] for o in frame.objects]
            frames.append({
                "boxes": boxes,
                "labels": [o.label for o in frame.objects],
                "label_scores": [1.0] * len(frame.objects),
                "triplets": [[i, j, p, 1.0] for (i, j, p) in frame.triplets],
            })
        records.append({"seq_seed": seq.seed, "frames": frames})
    return records


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_eval_on_ground_truth_predictions_is_perfect(tmp_path, dataset_dir, mode):
    _, seqs = io.load_split(dataset_dir, "test")
    preds = tmp_path / "gt_preds.jsonl"
    io.write_predictions(preds, {"mode": mode, "config": {}}, gt_prediction_records(seqs))
    out = tmp_path / f"report_{mode}.json"
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test", "--mode", mode, "--constraint", "no",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # k=50 covers every frame's gt list; smaller k cannot by pigeonhole
    assert report["metrics"]["recall@50"] == 1.0
    assert report["metrics"]["mean_recall@50"] == 1.0
    assert report["metrics"]["map_rel"] == 1.0
    assert report["metrics"]["wmap_rel"] == 1.0


def test_infer_then_eval_matches_in_process(tmp_path, checkpoint_path, dataset_dir):
    preds = tmp_path / "preds.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    out_file = tmp_path / "file_report.json"
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val", "--constraint", "with", "--out", str(out_file)]) == 0
    out_ckpt = tmp_path / "ckpt_report.json"
    assert main(["eval", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--constraint", "with",
                 "--out", str(out_ckpt)]) == 0
    file_metrics = json.loads(out_file.read_text())["metrics"]
    ckpt_metrics = json.loads(out_ckpt.read_text())["metrics"]
    assert file_metrics == ckpt_metrics

    # the checkpoint's logged validation recall equals the post-hoc eval exactly
    _, _, log = io.load_checkpoint(checkpoint_path)
    assert log[-1]["val_recall20"] == ckpt_metrics["recall@20"]


def test_eval_mode_mismatch_with_prediction_header(tmp_path, checkpoint_path, dataset_dir):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "predcls"]) == 1


# ---------------------------------------------------------------------------
# reports


def test_ablate_report_structure(tmp_path, tiny_config_path, dataset_dir):
    out = tmp_path / "ablation.json"
    assert main(["ablate", "--config", str(tiny_config_path), "--data", str(dataset_dir),
                 "--out", str(out), "--seeds", "1", "--epochs", "1",
                 "--train-sequences", "4", "--test-sequences", "2"]) == 0
    report = json.loads(out.read_text())
    variants = [r["variant"] for r in report["rows"]]
    assert variants == ["spatial-only", "sparse[k=1]", "sparse[k=2]", "sparse[k=3]",
                        "dense", "tracking"]
    for row in report["rows"]:
        for col in ("predcls_r20", "sgcls_r20", "sgdet_r20"):
            assert 0.0 <= row[col] <= 1.0


def test_ablate_report_is_identical_for_any_jobs(tmp_path, tiny_config_path, dataset_dir):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"ablation-{jobs}.json"
        assert main(["ablate", "--config", str(tiny_config_path), "--data", str(dataset_dir),
                     "--out", str(out), "--seeds", "1", "--epochs", "1",
                     "--train-sequences", "4", "--test-sequences", "2",
                     "--jobs", jobs]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ablate_rejects_zero_jobs(tmp_path, tiny_config_path, dataset_dir, capsys):
    assert main(["ablate", "--config", str(tiny_config_path), "--data", str(dataset_dir),
                 "--jobs", "0"]) == 1
    assert "error: ablate: --jobs" in capsys.readouterr().err


def test_flops_report(tmp_path):
    out = tmp_path / "flops.json"
    assert main(["flops", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [r["n_objects"] for r in report["rows"]] == list(range(1, 9))
    for row in report["rows"]:
        if row["n_objects"] >= 2:
            assert row["sparse_flops_per_frame"] < row["dense_flops_per_frame"]


def test_bank_report(tmp_path, checkpoint_path, dataset_dir):
    out = tmp_path / "bank.json"
    assert main(["bank", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--seeds", "1", "--head-epochs", "30", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [r["bank"] for r in report["rows"]] == ["spatial", "spatial_temporal"]


def test_gradcheck_command(tiny_config_path):
    assert main(["gradcheck", "--config", str(tiny_config_path), "--variants", "sparse",
                 "--objects", "2", "--frames", "2", "--entries", "500"]) == 0


# ---------------------------------------------------------------------------
# malformed inputs end in `error: ...` and exit 1


def _drop(key):
    def mutate(params):
        del params["rel.w"][key]
    return mutate


def _short_data(params):
    params["rel.w"]["data"] = params["rel.w"]["data"][:-1]


def _wrong_shape(params):
    params["rel.w"]["shape"] = params["rel.w"]["shape"][::-1]


def _unknown_name(params):
    params["rel.extra"] = {"shape": [1], "data": [0.0]}


def _missing_name(params):
    del params["label.b"]


@pytest.mark.parametrize("mutate", [_drop("data"), _drop("shape"), _short_data, _wrong_shape,
                                    _unknown_name, _missing_name],
                         ids=["no-data", "no-shape", "wrong-size", "wrong-shape",
                              "unknown-name", "missing-name"])
def test_malformed_checkpoint_is_an_error(tmp_path, checkpoint_path, dataset_dir, capsys,
                                          mutate):
    doc = json.loads(checkpoint_path.read_text())
    mutate(doc["params"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _corrupt_first_prediction(preds, edit) -> None:
    """Apply `edit` to the first frame with triplets of a predictions file."""
    lines = preds.read_text().splitlines()
    record = json.loads(lines[1])
    edit(next(f for f in record["frames"] if f["triplets"]))
    lines[1] = json.dumps(record)
    preds.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("field", ["labels", "label_scores"])
def test_prediction_frame_with_short_label_list_is_an_error(tmp_path, checkpoint_path,
                                                            dataset_dir, capsys, field):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    _corrupt_first_prediction(preds, lambda frame: frame.update({field: frame[field][:-1]}))
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _set_self_pair(frame):
    frame["triplets"][0][1] = frame["triplets"][0][0]


def _set_nan_score(frame):
    frame["triplets"][0][3] = float("nan")


@pytest.mark.parametrize("edit", [_set_self_pair, _set_nan_score], ids=["self-pair", "nan-score"])
def test_malformed_prediction_triplet_is_an_error(tmp_path, checkpoint_path, dataset_dir,
                                                  capsys, edit):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    _corrupt_first_prediction(preds, edit)
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _record_array(records):
    records[0] = [1, 2]


def _record_number(records):
    records[0] = 3


def _seed_string(records):
    records[0]["seq_seed"] = "x"


def _seed_float(records):
    records[0]["seq_seed"] = float(records[0]["seq_seed"])


@pytest.mark.parametrize("edit, message", [
    (_record_array, "expected a JSON object"),
    (_record_number, "expected a JSON object"),
    (_seed_string, "'seq_seed' must be an integer"),
    (_seed_float, "'seq_seed' must be an integer"),
], ids=["record-array", "record-number", "seed-string", "seed-float"])
def test_malformed_prediction_record_is_an_error(tmp_path, dataset_dir, capsys, edit, message):
    _, seqs = io.load_split(dataset_dir, "test")
    records = gt_prediction_records(seqs)
    edit(records)
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, records)
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p.jsonl:2" in err and message in err


def _edited_train_split(tmp_path, dataset_dir, lineno, edit):
    """A copy of the train split whose JSON line `lineno` (0 = header) went
    through `edit`."""
    data = tmp_path / "ds"
    data.mkdir()
    lines = (dataset_dir / "train.jsonl").read_text().splitlines()
    record = json.loads(lines[lineno])
    edit(record)
    lines[lineno] = json.dumps(record)
    (data / "train.jsonl").write_text("\n".join(lines) + "\n")
    return data


def _train(data, tmp_path) -> int:
    return main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--no-val"])


def test_dataset_header_without_count_is_an_error(tmp_path, dataset_dir, capsys):
    data = _edited_train_split(tmp_path, dataset_dir, 0, lambda header: header.pop("count"))
    assert _train(data, tmp_path) == 1
    assert "missing field 'count'" in capsys.readouterr().err


@pytest.mark.parametrize("box", [None, [0.1, 0.1, 0.2], "0.1 0.1 0.2 0.2"],
                         ids=["missing", "three-numbers", "string"])
def test_malformed_dataset_box_is_an_error(tmp_path, dataset_dir, capsys, box):
    def edit(record):
        detection = record["frames"][0]["detections"][0]
        if box is None:
            del detection["box"]
        else:
            detection["box"] = box

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.jsonl:2" in err and "'box'" in err


def test_shape_error_is_an_error(tmp_path, dataset_dir, capsys):
    # a visual feature that is not a vector fails node encoding with ShapeError
    def edit(record):
        detection = record["frames"][0]["detections"][0]
        detection["visual"] = [detection["visual"]]

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    assert _train(data, tmp_path) == 1
    assert "error: encode_node" in capsys.readouterr().err


def _short_label_dist(detection):
    detection["label_dist"] = detection["label_dist"][:-1]


def _label_dist_not_a_distribution(detection):
    detection["label_dist"] = [0.5] * len(detection["label_dist"])


@pytest.mark.parametrize("edit, message", [
    (_short_label_dist, "error: encode_node: label/visual must be vectors"),
    (_label_dist_not_a_distribution, "error: encode_node: label_dist must be a probability"),
], ids=["short-label-dist", "not-a-distribution"])
def test_malformed_detection_labels_are_an_error(tmp_path, dataset_dir, capsys, edit, message):
    def edit_record(record):
        frame = next(f for f in record["frames"] if len(f["detections"]) > 1)
        edit(frame["detections"][0])

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit_record)
    assert _train(data, tmp_path) == 1
    assert message in capsys.readouterr().err


def test_forward_sequence_outputs_serve_to_predictions(checkpoint_path, dataset_dir):
    # the benchmark harness calls these two names with these arguments
    from stsg import cli

    cfg, params, _ = io.load_checkpoint(checkpoint_path)
    _, seqs = io.load_split(dataset_dir, "test")
    for variant, k in (("spatial", 1), ("sparse", 2), ("tracking", 1)):
        outs = cli.forward_sequence(seqs[0], params, "sgdet", variant, k)
        assert len(outs) == len(seqs[0].frames)
        for out in outs:
            assert out.n == len(out.nodes)
            assert all(link.curr_index < out.n for link in out.links)
        preds = cli.to_predictions(outs, cfg.dims)
        assert [p.n for p in preds] == [out.n for out in outs]
