import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stsg import io
from stsg.cli import main
from stsg.config import Dims, load_config, parse_config_items
from stsg.errors import ConfigError, DataFormatError
from stsg.params import ModelParams

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
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "stsg", "definitely-not-a-command"],
                          capture_output=True, text=True, env=env)
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
    dims = io.runconfig_from_flat(header["config"]).dims
    rewritten = [io.sequence_from_json(io.sequence_to_json(s), Path("mem"), 0, dims)
                 for s in seqs]
    for a, b in zip(seqs, rewritten):
        assert a.seed == b.seed
        for fa, fb in zip(a.frames, b.frames):
            assert fa.triplets == fb.triplets
            assert fa.objects == fb.objects
            assert np.array_equal(fa.gt_feats, fb.gt_feats)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_refuses_parameters_that_the_last_update_made_non_finite(tmp_path, capsys):
    # the one batch's gradients are finite, its update overflows, and no
    # later loss is left to catch it before the checkpoint
    cfg = tmp_path / "c.cfg"
    cfg.write_text("split.train_sequences = 2\nsplit.val_sequences = 1\n"
                   "split.test_sequences = 1\ntrain.clip_norm = 0\n")
    data, ckpt = tmp_path / "ds", tmp_path / "model.json"
    assert main(["gen", "--config", str(cfg), "--out", str(data), "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt),
                 "--optimizer", "sgd", "--lr", "1e308", "--epochs", "1", "--batch-size", "2",
                 "--no-val"]) == 1
    assert capsys.readouterr().err == \
        "error: non-finite parameter prop.w1 at epoch 1, batch 1\n"
    assert not ckpt.exists()


# ---------------------------------------------------------------------------
# eval / infer


def gt_prediction_records(seqs):
    records = []
    for seq in seqs:
        frames = []
        for frame in seq.frames:
            boxes = [list(o.box) for o in frame.objects]
            subj, obj, predicate = ([t[c] for t in frame.triplets] for c in range(3))
            frames.append({
                "boxes": boxes,
                "labels": [o.label for o in frame.objects],
                "label_scores": [1.0] * len(frame.objects),
                "triplets": {"subj": subj, "obj": obj, "predicate": predicate,
                             "score": [1.0] * len(subj)},
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


# sha256 of `stsg flops --out` (default config, k = 1), taken while the FLOP
# accounting still wrote out every layer's shape by hand
FLOPS_REPORT_SHA256 = "43165cc04682855fc42db2e8dcbe196d5dac66ee403724e8840556e356460f94"


def test_flops_report_is_pinned(tmp_path):
    out = tmp_path / "flops.json"
    assert main(["flops", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FLOPS_REPORT_SHA256


# sha256 of `stsg bank --seeds 2 --head-epochs 40 --out` over a seed-7
# dataset of BANK_CFG's size and a checkpoint trained on it with --no-val,
# taken while the banks were still filled frame by frame and class by class
BANK_CFG = """
split.train_sequences = 12
split.val_sequences = 1
split.test_sequences = 6
train.epochs = 2
"""
BANK_REPORT_SHA256 = "adf7fc869a2e88b816e1ab63d0b80fe8c62b9c607d0c0f2033c3ec4482c28026"


def test_bank_report_is_pinned(tmp_path):
    cfg, data, ckpt, out = (tmp_path / name for name in ("bank.cfg", "ds", "model.json",
                                                         "bank.json"))
    cfg.write_text(BANK_CFG)
    assert main(["gen", "--config", str(cfg), "--seed", "7", "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt),
                 "--no-val"]) == 0
    assert main(["bank", "--ckpt", str(ckpt), "--data", str(data), "--seeds", "2",
                 "--head-epochs", "40", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BANK_REPORT_SHA256


# an explicit --k 0 fell back to the checkpoint's k, so it served as --k 1 did
@pytest.mark.parametrize("command", ["eval", "infer"])
def test_explicit_k_zero_overrides_the_checkpoint(tmp_path, checkpoint_path, dataset_dir,
                                                  capsys, command):
    assert main([command, "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--k", "0", "--out", str(tmp_path / "out.json")]) == 1
    assert "error: sparse variant requires k >= 1, got 0" in capsys.readouterr().err


def test_eval_from_checkpoint_draws_no_model(tmp_path, checkpoint_path, dataset_dir,
                                            monkeypatch):
    # the checkpoint's names and shapes are checked against params.model_shapes;
    # no random model is drawn to learn them
    argv = ["eval", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir), "--split", "val"]
    assert main(argv + ["--out", str(tmp_path / "drawn.json")]) == 0

    def no_init(*args, **kwargs):
        raise AssertionError("ModelParams.init called")

    monkeypatch.setattr(ModelParams, "init", no_init)
    assert main(argv + ["--out", str(tmp_path / "undrawn.json")]) == 0
    assert (tmp_path / "drawn.json").read_bytes() == (tmp_path / "undrawn.json").read_bytes()


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


@pytest.mark.parametrize("value, message", [
    ("0.25", "data must be finite numbers, got '0.25'"),
    (True, "data must be finite numbers, got True"),
    (None, "data must be finite numbers, got None"),
    (float("nan"), "data must be finite numbers, got nan"),
    (float("inf"), "data must be finite numbers, got inf"),
    (-float("inf"), "data must be finite numbers, got -inf"),
], ids=["string", "bool", "null", "nan", "infinity", "minus-infinity"])
def test_checkpoint_parameters_must_be_finite_numbers(tmp_path, checkpoint_path, dataset_dir,
                                                      capsys, value, message):
    # numpy read these as numbers ("0.25" -> 0.25, true -> 1.0, null -> nan);
    # a nan or an infinity then surfaced as a ranking error far from its cause
    doc = json.loads(checkpoint_path.read_text())
    doc["params"]["rel.w"]["data"][3] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: parameter 'rel.w' {message}\n"


def test_checkpoint_gcn_layers_must_be_an_integer(tmp_path, checkpoint_path, dataset_dir, capsys):
    doc = json.loads(checkpoint_path.read_text())
    doc["gcn_layers"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: field 'gcn_layers' must be an integer, got True\n"


def _corrupt_first_prediction(preds, edit) -> None:
    """Apply `edit` to the first frame with triplets of a predictions file."""
    lines = preds.read_text().splitlines()
    record = json.loads(lines[1])
    edit(next(f for f in record["frames"] if f["triplets"]["subj"]))
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
    frame["triplets"]["obj"][0] = frame["triplets"]["subj"][0]


def _set_nan_score(frame):
    frame["triplets"]["score"][0] = float("nan")


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


def _set(field, index, value):
    """Set entry `index` of a frame field or triplet column."""
    def edit(frame):
        column = frame["triplets"][field] if field in io.TRIPLET_COLUMNS else frame[field]
        column[index] = value(column[index]) if callable(value) else value
    return edit


def _set_boolean_triplet(frame):
    for column, value in zip(io.TRIPLET_COLUMNS, [True, False, 1, 0.5]):
        frame["triplets"][column][0] = value


def _one_predicate(frame):
    del frame["triplets"]["predicate"][1:]


# each of these was evaluated with exit 0 (the numbers were truncated to
# integers, or used as they were, whatever their range) or, for an integer
# beyond the float range, ended in an OverflowError traceback
@pytest.mark.parametrize("edit, message", [
    (_set("predicate", 0, 99), "predicate of triplet 0 must be an integer in [0, 6), got 99"),
    (_set("predicate", 0, -1), "predicate of triplet 0 must be an integer in [0, 6), got -1"),
    (_set("predicate", 0, 2.5), "predicate of triplet 0 must be an integer in [0, 6), got 2.5"),
    (_set("subj", 0, lambda i: i + 0.9), "subject of triplet 0 must be an integer"),
    (_set("obj", 0, -2), "object of triplet 0 must be an integer"),
    (_set("labels", 0, -5), "label of node 0 must be an integer in [0, 8), got -5"),
    (_set("labels", 1, 2.5), "label of node 1 must be an integer in [0, 8), got 2.5"),
    (_set("labels", 0, 8), "label of node 0 must be an integer in [0, 8), got 8"),
    (_set("labels", 0, True), "field 'labels' must be finite numbers, got True"),
    (_set("labels", 0, 10 ** 400), "field 'labels' must be finite numbers, got 1000"),
    (_set_boolean_triplet, "field 'subj' must be finite numbers, got True"),
    (_one_predicate, "objects, 1 predicates and "),
    # these wrapped round to negative numbers when cast to intp before their
    # bounds were checked: evaluated with exit 0, or an IndexError traceback
    (_set("predicate", 0, 2 ** 64),
     "predicate of triplet 0 must be an integer in [0, 6), got 1.84467e+19"),
    (_set("labels", 0, 1e30), "label of node 0 must be an integer in [0, 8), got 1e+30"),
    (_set("subj", 0, 1e19), "triplet references node 1e+19 but frame has "),
    # a whole number within the intp range is printed exactly
    (_set("subj", 0, 1234567), "triplet references node 1234567 but frame has "),
    (_set("labels", 0, 1234567), "label of node 0 must be an integer in [0, 8), got 1234567"),
], ids=["predicate-99", "predicate-negative", "predicate-fraction", "subject-fraction",
        "object-negative", "label-negative", "label-fraction", "label-g", "label-boolean",
        "label-beyond-float", "boolean-triplet", "short-column", "predicate-beyond-intp",
        "label-beyond-intp", "subject-beyond-intp", "subject-seven-digits",
        "label-seven-digits"])
def test_malformed_prediction_number_is_an_error(tmp_path, checkpoint_path, dataset_dir,
                                                 capsys, edit, message):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    _corrupt_first_prediction(preds, edit)
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}:2: ") and message in err, err


@pytest.mark.parametrize("mode", ["foo", 3, ""], ids=["name", "number", "empty"])
def test_unknown_prediction_mode_is_an_error(tmp_path, dataset_dir, capsys, mode):
    _, seqs = io.load_split(dataset_dir, "test")
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": mode, "config": {}}, gt_prediction_records(seqs))
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 1
    assert capsys.readouterr().err == (f"error: {preds}:1: field 'mode' must be one of "
                                       f"('predcls', 'sgcls', 'sgdet'), got {mode!r}\n")


@pytest.mark.parametrize("column, value, message", [
    ("predicate", 2.0 ** 64, "predicate of triplet 0 must be an integer in [0, "),
    ("labels", 1e30, "label of node 0 must be an integer in [0, "),
    ("obj", 1e19, "triplet references node 1e+19 but frame has 2 nodes"),
], ids=["predicate", "label", "object"])
def test_index_beyond_intp_without_dims_is_an_error(column, value, message):
    # without dims, labels and predicates are bounded by the intp range alone
    frame = {"boxes": [[0.0, 0.0, 1.0, 1.0]] * 2, "labels": [0.0, 1.0],
             "label_scores": [1.0, 1.0],
             "triplets": {"subj": [0.0], "obj": [1.0], "predicate": [2.0], "score": [0.5]}}
    (frame["triplets"] if column in io.TRIPLET_COLUMNS else frame)[column][0] = value
    with pytest.raises(DataFormatError) as e:
        io.ranked_from_frame_json(frame, Path("p.jsonl"), 2)
    assert str(e.value).startswith("p.jsonl:2: " + message), str(e.value)


def test_decoded_predictions_hold_arrays(tmp_path, checkpoint_path, dataset_dir):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    _, numbered = io.numbered_predictions(preds)
    lines = preds.read_text().splitlines()
    shapes = {"boxes": 4, "labels": None, "label_scores": None,
              **dict.fromkeys(io.TRIPLET_COLUMNS)}
    for (lineno, record), line in zip(numbered, lines[1:]):
        for frame, raw in zip(record["frames"], json.loads(line)["frames"]):
            for name, width in shapes.items():
                arr, value = ((frame["triplets"][name], raw["triplets"][name])
                              if name in io.TRIPLET_COLUMNS else (frame[name], raw[name]))
                assert isinstance(arr, np.ndarray) and arr.dtype == np.float64, name
                want = (len(value),) if width is None else (len(value), width)
                assert arr.shape == want
                np.testing.assert_array_equal(arr, np.array(value, dtype=float).reshape(want))


def test_bad_number_after_a_blank_line_names_its_line(tmp_path, dataset_dir, capsys):
    _, seqs = io.load_split(dataset_dir, "test")
    records = gt_prediction_records(seqs)
    frame = next(f for f in records[1]["frames"] if f["labels"])
    frame["labels"][0] = 2.5
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, records)
    header, *lines = preds.read_text().splitlines(keepends=True)
    preds.write_text(header + "\n" + "".join(lines))
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 1
    assert capsys.readouterr().err == \
        f"error: {preds}:4: label of node 0 must be an integer in [0, 8), got 2.5\n"


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


@pytest.mark.parametrize("kind", ["dataset", "predictions"])
def test_blank_first_line_is_a_missing_header(tmp_path, dataset_dir, capsys, kind):
    # the header is line 1: with a blank line there, a dataset load ended in
    # an UnboundLocalError traceback and a predictions load reported "empty file"
    data = tmp_path / "ds"
    data.mkdir()
    (data / "test.jsonl").write_bytes((dataset_dir / "test.jsonl").read_bytes())
    _, seqs = io.load_split(data, "test")
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, gt_prediction_records(seqs))
    blanked = data / "test.jsonl" if kind == "dataset" else preds
    blanked.write_text("\n" + blanked.read_text())
    assert main(["eval", "--preds", str(preds), "--data", str(data), "--split", "test"]) == 1
    assert capsys.readouterr().err == f"error: {blanked}:1: missing {kind} header record\n"


def test_eval_reads_the_predictions_file_once(tmp_path, dataset_dir, monkeypatch):
    _, seqs = io.load_split(dataset_dir, "test")
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, gt_prediction_records(seqs))
    calls = []
    read = io._jsonl     # the one reader of JSON-lines files

    def counted(path, kind):
        calls.append(Path(path))
        return read(path, kind)

    monkeypatch.setattr(io, "_jsonl", counted)
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test", "--out", str(tmp_path / "r.json")]) == 0
    assert calls.count(preds) == 1


def test_prediction_errors_name_the_file_line(tmp_path, dataset_dir, capsys):
    # blank lines are skipped, so a record's line is not its position: a bad
    # seq_seed on line 3 after a blank line 2 was reported as line 2
    _, seqs = io.load_split(dataset_dir, "test")
    records = gt_prediction_records(seqs)
    records[0]["seq_seed"] = "x"
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, records)
    header, *lines = preds.read_text().splitlines(keepends=True)
    preds.write_text(header + "\n" + "".join(lines))
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 1
    assert capsys.readouterr().err == \
        f"error: {preds}:3: field 'seq_seed' must be an integer, got 'x'\n"


def test_reading_predictions_pauses_the_garbage_collector(tmp_path, dataset_dir,
                                                          monkeypatch):
    # decoded JSON holds no reference cycles; collections over a file's worth
    # of records were most of an `eval --preds` read, and its noisiest part
    _, seqs = io.load_split(dataset_dir, "test")
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, gt_prediction_records(seqs))
    bad = tmp_path / "bad.jsonl"
    bad.write_text(preds.read_text() + "{\n")
    collecting = []
    loads = io._loads

    def record_state(*args):
        collecting.append(gc.isenabled())
        return loads(*args)

    monkeypatch.setattr(io, "_loads", record_state)
    try:
        io.load_predictions(preds)
        assert collecting == [False] * (1 + len(seqs)) and gc.isenabled()
        with pytest.raises(DataFormatError):
            io.load_predictions(bad)
        assert gc.isenabled()
        gc.disable()
        io.load_predictions(preds)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_loading_a_split_pauses_the_garbage_collector(tmp_path, dataset_dir, monkeypatch):
    # the records and the sequences built from them hold no reference cycles
    collecting = []
    build = io.sequence_from_json

    def record_state(*args):
        collecting.append(gc.isenabled())
        return build(*args)

    monkeypatch.setattr(io, "sequence_from_json", record_state)
    bad = _edited_train_split(tmp_path, dataset_dir, 1, _set("seed", "7"))
    try:
        _, seqs = io.load_split(dataset_dir, "test")
        assert collecting == [False] * len(seqs) and gc.isenabled()
        with pytest.raises(DataFormatError):
            io.load_split(bad, "train")
        assert gc.isenabled()
    finally:
        gc.enable()


# a negative count sliced from the end of a split, a zero seed or epoch
# count wrote NaN into a report or trained nothing, and a zero job count
# generated serially, all with exit 0
@pytest.mark.parametrize("command, flags, message", [
    ("gen", ["--jobs", "0"], "gen: --jobs must be >= 1"),
    ("train", ["--sequences", "-3"], "train.sequences: must be >= 0"),
    ("train", ["--val-sequences", "-1"], "train: --val-sequences must be >= 0"),
    ("ablate", ["--seeds", "0"], "ablate: --seeds must be >= 1"),
    ("ablate", ["--train-sequences", "-2"], "ablate: --train-sequences must be >= 1"),
    ("ablate", ["--test-sequences", "-1"], "ablate: --test-sequences must be >= 0"),
    ("bank", ["--seeds", "0"], "bank: --seeds must be >= 1"),
    ("bank", ["--head-epochs", "0"], "bank: --head-epochs must be >= 1"),
    ("bank", ["--train-sequences", "-1"], "bank: --train-sequences must be >= 0"),
], ids=["gen-jobs", "train-sequences", "train-val-sequences", "ablate-seeds",
        "ablate-train-sequences", "ablate-test-sequences", "bank-seeds", "bank-head-epochs",
        "bank-train-sequences"])
def test_counts_below_their_range_are_an_error(tmp_path, tiny_config_path, dataset_dir,
                                               checkpoint_path, capsys, command, flags,
                                               message):
    common = ["--out", str(tmp_path / "out.json")]
    if command != "gen":
        common += ["--data", str(dataset_dir)]
    # small runs where the flag under test is in range; a flag given twice
    # keeps its last value
    base = {
        "gen": ["--config", str(tiny_config_path)],
        "train": ["--config", str(tiny_config_path), "--epochs", "1"],
        "ablate": ["--config", str(tiny_config_path), "--seeds", "1", "--epochs", "1",
                   "--train-sequences", "2", "--test-sequences", "2", "--jobs", "1"],
        "bank": ["--ckpt", str(checkpoint_path), "--seeds", "1", "--head-epochs", "1"],
    }[command]
    assert main([command, *common, *base, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


@pytest.mark.parametrize("kind, box, message", [
    ("objects", [1.5, 0.25, 0.1, 0.1], "box: corner (1.5, 0.25) outside [0, 1]"),
    ("objects", [0.25, 0.25, 0.1, 1.25], "box: size (0.1, 1.25) outside (0, 1]"),
    ("detections", [0.25, -0.5, 0.1, 0.1], "box: corner (0.25, -0.5) outside [0, 1]"),
    ("detections", [0.25, 0.25, 0.0, 0.1], "box: size (0.0, 0.1) outside (0, 1]"),
], ids=["gt-corner", "gt-size", "detection-corner", "detection-size-zero"])
def test_dataset_box_out_of_range_names_its_line(tmp_path, dataset_dir, capsys, kind, box,
                                                 message):
    # the range check used to end in the bare message, without file or line
    def edit(record):
        frame = next(f for f in record["frames"][1:] if f[kind])
        frame[kind][-1]["box"] = box

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {data / 'train.jsonl'}:2: {message}\n"


def _label_out_of_range(frame):
    frame["objects"][0]["label"] = 99


def _subject_not_an_object(frame):
    frame["triplets"][0][0] = len(frame["objects"])


def _object_negative(frame):
    frame["triplets"][0][1] = -1


def _predicate_out_of_range(frame):
    frame["triplets"][0][2] = 6


def _self_pair(frame):
    frame["triplets"].append([0, 0, 1])


@pytest.mark.parametrize("edit, message", [
    (_label_out_of_range, "object label must be an integer in [0, 8), got 99"),
    (_subject_not_an_object, "triplet subject must be an integer in [0, "),
    (_object_negative, "triplet object must be an integer in [0, "),
    (_predicate_out_of_range, "triplet predicate must be an integer in [0, 6), got 6"),
    (_self_pair, "triplet [0, 0, 1] names object 0 as both subject and object"),
], ids=["label", "subject", "object", "predicate", "self-pair"])
def test_ground_truth_out_of_range_is_an_error(tmp_path, dataset_dir, capsys, edit, message):
    # predcls one-hot encodes the gt labels and indexes the triplets: without
    # the range check these ended in an IndexError traceback; a self-pair
    # triplet was ignored by the loss and could never be matched
    def edit_record(record):
        edit(next(f for f in record["frames"] if f["triplets"]))

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit_record)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--no-val", "--mode", "predcls"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.jsonl:2" in err and message in err


def test_shape_error_is_an_error(tmp_path, dataset_dir, capsys):
    # a visual feature that is not a vector fails node encoding with ShapeError
    def edit(record):
        detection = record["frames"][0]["detections"][0]
        detection["visual"] = [detection["visual"]]

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.jsonl:2: field 'visual' must be 16 finite numbers, got [[" in err


def _short_label_dist(detection):
    detection["label_dist"] = detection["label_dist"][:-1]


def _label_dist_not_a_distribution(detection):
    detection["label_dist"] = [0.5] * len(detection["label_dist"])


@pytest.mark.parametrize("edit, message", [
    (_short_label_dist, "field 'label_dist' must be 8 finite numbers, got ["),
    (_label_dist_not_a_distribution,
     "field 'label_dist' must be a probability distribution, got [0.5, "),
], ids=["short-label-dist", "not-a-distribution"])
def test_malformed_detection_labels_are_an_error(tmp_path, dataset_dir, capsys, edit, message):
    def edit_record(record):
        frame = next(f for f in record["frames"] if len(f["detections"]) > 1)
        edit(frame["detections"][0])

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit_record)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    # located like a gt vector's error: the file and line, then the check
    assert err.startswith("error: ") and f"train.jsonl:2: {message}" in err


def _string_in_detection_visual(record):
    record["frames"][0]["detections"][0]["visual"][0] = "0.25"


def _bool_in_detection_label_dist(record):
    detection = next(d for f in record["frames"] for d in f["detections"])
    top = max(range(len(detection["label_dist"])), key=detection["label_dist"].__getitem__)
    detection["label_dist"] = [i == top for i in range(len(detection["label_dist"]))]


def _bool_in_object_visual(record):
    next(o for f in record["frames"] for o in f["objects"])["visual"][3] = True


def _null_in_object_visual(record):
    record["frames"][-1]["objects"][-1]["visual"][0] = None


def _int_beyond_floats_in_object_box(record):
    record["frames"][0]["objects"][0]["box"][2] = 10 ** 400


def _nan_in_object_visual(record):
    record["frames"][1]["objects"][0]["visual"][0] = float("nan")


def _infinity_in_detection_visual(record):
    next(d for f in record["frames"] for d in f["detections"])["visual"][0] = float("inf")


def _set(name, value):
    def edit(record):
        record[name] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_string_in_detection_visual, "field 'visual' must be 16 finite numbers, got ['0.25', "),
    (_bool_in_detection_label_dist, "field 'label_dist' must be 8 finite numbers, got ["),
    (_bool_in_object_visual, "field 'visual' must be 16 finite numbers, got ["),
    (_null_in_object_visual, "field 'visual' must be 16 finite numbers, got [None, "),
    (_int_beyond_floats_in_object_box, "field 'box' must be 4 finite numbers, got ["),
    (_set("event_labels", ["0", "1", "0", "0"]),
     "field 'event_labels' must be finite numbers, got '0'"),
    (_set("event_labels", [[0, 1]]), "field 'event_labels' must be finite numbers, got [0, 1]"),
    # these loaded: a nan or an infinity then ended in a ranking error with no
    # file or line, six event labels in a traceback from `bank`
    (_nan_in_object_visual, "field 'visual' must be 16 finite numbers, got [nan, "),
    (_infinity_in_detection_visual, "field 'visual' must be 16 finite numbers, got [inf, "),
    (_set("event_labels", [0, 1, 0, 0, 0, 0]),
     "field 'event_labels' must be 4 labels of 0 or 1, got [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]"),
    (_set("event_labels", [0, 2.5, 0, 0]),
     "field 'event_labels' must be 4 labels of 0 or 1, got [0.0, 2.5, 0.0, 0.0]"),
    (_set("seed", 7.9), "field 'seed' must be an integer, got 7.9"),
    (_set("seed", True), "field 'seed' must be an integer, got True"),
    (_set("seed", "7"), "field 'seed' must be an integer, got '7'"),
    (_set("seed", "abc"), "field 'seed' must be an integer, got 'abc'"),
], ids=["det-visual-string", "det-label-bool", "gt-visual-bool", "gt-visual-null",
        "gt-box-beyond-floats", "event-label-strings", "event-label-rows", "gt-visual-nan",
        "det-visual-infinity", "event-labels-six", "event-label-fraction", "seed-float",
        "seed-bool", "seed-string", "seed-not-a-number"])
def test_dataset_numbers_are_type_checked(tmp_path, dataset_dir, capsys, edit, message):
    # numpy would read these as numbers ('0.25' -> 0.25, true -> 1.0, null ->
    # nan, 7.9 -> 7); 'abc' and an integer beyond the float range ended in a
    # traceback
    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"train.jsonl:2: {message}" in err


def _first_frame(name, value):
    def edit(record):
        record["frames"][0][name] = value
    return edit


def _occluded(value):
    def edit(record):
        record["frames"][0]["objects"][0]["occluded"] = value
    return edit


# a list field that is a number ended in a TypeError traceback; "no" loaded
# as occluded
@pytest.mark.parametrize("edit, message", [
    (_set("frames", 5), "field 'frames' must be a list, got 5"),
    (_first_frame("objects", 5), "field 'objects' must be a list, got 5"),
    (_first_frame("triplets", 5), "field 'triplets' must be a list, got 5"),
    (_first_frame("detections", 5), "field 'detections' must be a list, got 5"),
    (_occluded("no"), "field 'occluded' must be a boolean, got 'no'"),
], ids=["frames", "objects", "triplets", "detections", "occluded"])
def test_dataset_fields_are_kind_checked(tmp_path, checkpoint_path, dataset_dir, capsys, edit,
                                         message):
    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(checkpoint_path), "--data", str(data),
                 "--split", "train"]) == 1
    assert capsys.readouterr().err == f"error: {data / 'train.jsonl'}:2: {message}\n"


def test_dataset_header_config_errors_name_the_file(tmp_path, dataset_dir, capsys):
    # printed as "error: train.k: expected integer, got 'x'", with no file
    data = _edited_train_split(tmp_path, dataset_dir, 0,
                               lambda header: header["config"].update({"train.k": "x"}))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == \
        f"error: {data / 'train.jsonl'}:1: train.k: expected integer, got 'x'\n"


# a config that is a number ended in an AttributeError traceback; a bad
# config value was reported with no file
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(config=5), "field 'config' must be an object, got 5"),
    (lambda doc: doc["config"].update({"train.k": "x"}), "train.k: expected integer, got 'x'"),
    # this one loaded: see test_a_config_file_number_must_be_finite
    (lambda doc: doc["config"].update({"noise.box_jitter_sigma": float("inf")}),
     "noise.box_jitter_sigma: expected a finite number, got 'inf'"),
    # this one was served as a one-layer model, its report echoing two layers
    (lambda doc: doc.update(gcn_layers=1, params={
        name: p for name, p in doc["params"].items() if not name.startswith("gcn.1.")}),
     "field 'gcn_layers' is 1, but the config has train.gcn_layers = 2"),
], ids=["config-number", "config-value", "config-infinity", "config-gcn-layers"])
def test_checkpoint_config_errors_name_the_file(tmp_path, checkpoint_path, dataset_dir, capsys,
                                                edit, message):
    doc = json.loads(checkpoint_path.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


# these loaded: NaN fails every range check of `validate`, so a NaN learning
# rate or noise level was taken as given
@pytest.mark.parametrize("key, raw", [("train.learning_rate", "nan"),
                                      ("noise.box_jitter_sigma", "inf"),
                                      ("train.clip_norm", "-inf")])
def test_a_config_file_number_must_be_finite(tmp_path, capsys, key, raw):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == \
        f"error: {cfg}:1: {key}: expected a finite number, got {raw!r}\n"
    assert not (tmp_path / "d").exists()


# these named no file, while a duplicate key named the file and its line;
# beta1 = 1 and eps = 0 trained into a non-finite loss, the other optimizer
# values trained with exit 0, val_every = 0 as if it were 1
@pytest.mark.parametrize("text, line, message", [
    ("train.epochs = x", 2, "train.epochs: expected integer, got 'x'"),
    ("bogus.key = 1", 2, "bogus.key: unknown configuration section 'bogus'"),
    ("train.batch_size = 0", 2, "train.batch_size: must be >= 1"),
    # the error is about a key the file does not set: the file alone
    ("world.n_objects_min = 9", None, "world.n_objects_max: must be >= world.n_objects_min"),
    ("train.beta1 = 1.0", 2, "train.beta1: must be in [0, 1), got 1.0"),
    ("train.beta1 = -0.5", 2, "train.beta1: must be in [0, 1), got -0.5"),
    ("train.beta2 = 1.5", 2, "train.beta2: must be in [0, 1), got 1.5"),
    ("train.eps = 0", 2, "train.eps: must be > 0, got 0.0"),
    ("train.eps = -1", 2, "train.eps: must be > 0, got -1.0"),
    ("train.val_every = 0", 2, "train.val_every: must be >= 1, got 0"),
], ids=["not-integer", "unknown-section", "out-of-range", "default-key", "beta1-one",
        "beta1-negative", "beta2-above-one", "eps-zero", "eps-negative", "val-every-zero"])
def test_config_file_errors_name_the_file_and_line(tmp_path, capsys, text, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# one bad key\n{text}\nseed = 3\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    where = f"{cfg}:{line}" if line else cfg
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not (tmp_path / "d").exists()


def test_a_split_header_config_number_must_be_finite(tmp_path, dataset_dir, capsys):
    data = _edited_train_split(tmp_path, dataset_dir, 0, lambda header: header["config"].update(
        {"train.learning_rate": float("nan")}))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == (f"error: {data / 'train.jsonl'}:1: train.learning_rate: "
                                       f"expected a finite number, got 'nan'\n")


def _one_detection_record(label_dist) -> dict:
    return {"seed": 0, "event_labels": [0, 0, 0, 0],
            "frames": [{"objects": [], "triplets": [], "detections": [
                {"box": [0, 0, 0.1, 0.1], "label_dist": label_dist, "visual": [0.0]}]}]}


def test_load_rejects_a_bad_label_distribution():
    dims = Dims(g=2, c=1)
    with pytest.raises(DataFormatError, match="must be a probability distribution"):
        io.sequence_from_json(_one_detection_record([0.7, 0.7]), Path("d.jsonl"), 2, dims)
    with pytest.raises(DataFormatError, match="must be 2 finite numbers"):
        io.sequence_from_json(_one_detection_record((np.ones((2, 2)) / 4).tolist()),
                              Path("d.jsonl"), 2, dims)


def _short_visual(obj):
    obj["visual"] = obj["visual"][:-1]


def _long_det_label_dist(obj):
    obj["det_label_dist"] = obj["det_label_dist"] + [0.0]


def _det_label_dist_not_a_distribution(obj):
    obj["det_label_dist"] = [0.5] * len(obj["det_label_dist"])


def _negative_det_label_dist(obj):
    obj["det_label_dist"] = [1.5, -0.5] + [0.0] * (len(obj["det_label_dist"]) - 2)


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
@pytest.mark.parametrize("edit, message", [
    (_short_visual, "field 'visual' must be 16 finite numbers, got ["),
    (_long_det_label_dist, "field 'det_label_dist' must be 8 finite numbers, got ["),
    (_det_label_dist_not_a_distribution,
     "field 'det_label_dist' must be a probability distribution, got [0.5, "),
    (_negative_det_label_dist,
     "field 'det_label_dist' must be a probability distribution, got [1.5, -0.5, "),
], ids=["short-visual", "long-det-label-dist", "not-a-distribution", "negative"])
def test_malformed_gt_vector_is_an_error_at_load(tmp_path, dataset_dir, capsys, edit, message,
                                                 mode):
    # every mode loads the whole record, so every mode rejects it, at its line
    def edit_record(record):
        edit(record["frames"][2]["objects"][1])

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit_record)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--no-val", "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'train.jsonl'}:2: ") and message in err


# each of these ended in an OSError traceback
@pytest.mark.parametrize("case", ["ckpt-dir", "eval-out-dir", "config-dir", "gen-out-file"])
def test_os_errors_are_errors(tmp_path, checkpoint_path, dataset_dir, capsys, case):
    taken = tmp_path / "file"
    taken.write_text("")
    argv = {
        "ckpt-dir": ["eval", "--ckpt", str(tmp_path), "--data", str(dataset_dir)],
        "eval-out-dir": ["eval", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                         "--out", str(tmp_path)],
        "config-dir": ["flops", "--config", str(tmp_path)],
        "gen-out-file": ["gen", "--out", str(taken)],
    }[case]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken if case == "gen-out-file" else tmp_path) in err


# each of these ended in a UnicodeDecodeError traceback
@pytest.mark.parametrize("kind", ["dataset", "config", "checkpoint"])
def test_input_that_is_not_utf8_is_an_error(tmp_path, checkpoint_path, dataset_dir, capsys, kind):
    data = tmp_path / "ds"
    data.mkdir()
    (data / "train.jsonl").write_bytes((dataset_dir / "train.jsonl").read_bytes())
    config, ckpt = tmp_path / "run.cfg", tmp_path / "model.json"
    config.write_text("")
    ckpt.write_bytes(checkpoint_path.read_bytes())
    bad = {"dataset": data / "train.jsonl", "config": config, "checkpoint": ckpt}[kind]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    capsys.readouterr()
    if kind == "checkpoint":
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(data), "--split", "train"]
    else:
        argv = ["train", "--config", str(config), "--data", str(data),
                "--out", str(tmp_path / "m.json"), "--no-val", "--epochs", "0"]
    assert main(argv) == 1
    where = f"{bad}:1" if kind == "checkpoint" else bad
    assert capsys.readouterr().err == f"error: {where}: not UTF-8 text (invalid start byte)\n"


FUZZ_VALUES = [5, "x", None, True, [], {}, float("nan"), 2.5, -1]


def _field_paths(doc, depth: int = 3):
    """The key paths of every field of `doc` up to `depth` deep, taking the
    first two entries of each list."""
    if depth == 0:
        return
    keys = list(doc) if isinstance(doc, dict) else \
        range(min(2, len(doc))) if isinstance(doc, list) else ()
    for key in keys:
        yield (key,)
        for rest in _field_paths(doc[key], depth - 1):
            yield (key, *rest)


def _escapes(doc, read, depth: int = 3) -> list:
    """(path, value, exception name) for each replacement of a field of `doc`,
    up to `depth` deep, by a FUZZ_VALUES entry on which `read` raises anything
    but DataFormatError."""
    escaped = []
    for path in _field_paths(doc, depth):
        for value in FUZZ_VALUES:
            mutant = json.loads(json.dumps(doc))
            target = mutant
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            try:
                read(mutant)
            except DataFormatError:
                pass
            except Exception as e:   # noqa: BLE001 -- any other exception is the finding
                escaped.append((path, value, type(e).__name__))
    return escaped


def test_no_malformed_record_escapes_as_another_exception(tmp_path):
    # a record whose frames, a frame's objects, triplets or detections, or a
    # checkpoint whose config was a number ended in a traceback
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text("split.train_sequences = 1\nsplit.val_sequences = 1\n"
                        "split.test_sequences = 1\nworld.frames = 2\n"
                        "dims.g = 3\ndims.c = 2\ndims.d = 2\n")
    data = tmp_path / "ds"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    header, line = (data / "test.jsonl").read_text().splitlines()
    dims = io.runconfig_from_flat(json.loads(header)["config"]).dims
    _, seqs = io.load_split(data, "test")

    dataset = _escapes(json.loads(line),
                       lambda record: io.sequence_from_json(record, Path("t.jsonl"), 2, dims))

    # a new file for each read: rewriting one file in place is far slower
    files = (tmp_path / f"{i}.json" for i in itertools.count())
    cfg = load_config(cfg_path)
    ckpt = next(files)
    io.write_checkpoint(ckpt, cfg, ModelParams.init(cfg.dims, seed=0),
                        [{"epoch": 1, "train_loss": 0.5}])

    def read_checkpoint(doc):
        path = next(files)
        path.write_text(json.dumps(doc))
        io.load_checkpoint(path)

    checkpoint = _escapes(json.loads(ckpt.read_text()), read_checkpoint)

    def read_predictions(record):
        path = next(files)
        io.write_predictions(path, {"mode": "sgdet", "config": {}}, [record])
        io.ranked_predictions(path, seqs, dims)

    (record,) = gt_prediction_records(seqs)
    predictions = _escapes(record, read_predictions, depth=4)   # the triplet columns too
    assert (dataset, checkpoint, predictions) == ([], [], [])


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


# a dataset whose records have g = 5 object classes; the tiny model has 8
@pytest.fixture(scope="module")
def g5_config_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cfg") / "g5.cfg"
    path.write_text(TINY_CFG + "dims.g = 5\n")
    return path


def test_train_rejects_a_split_of_other_dims(tmp_path, g5_config_path, dataset_dir, capsys):
    assert main(["train", "--config", str(g5_config_path), "--data", str(dataset_dir),
                 "--out", str(tmp_path / "m.json"), "--mode", "predcls"]) == 1
    assert "error: dims.g: the run uses 5, but the train split" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_checkpoint_rejects_a_split_of_other_dims(tmp_path, g5_config_path, checkpoint_path,
                                                  capsys, command):
    data = tmp_path / "g5"
    assert main(["gen", "--config", str(g5_config_path), "--out", str(data)]) == 0
    argv = [command, "--ckpt", str(checkpoint_path), "--data", str(data)]
    if command == "infer":
        argv += ["--out", str(tmp_path / "preds.jsonl")]
    assert main(argv) == 1
    assert "error: dims.g: the run uses 8, but the test split" in capsys.readouterr().err


def in_row_layout(text: str) -> str:
    """A predictions file re-encoded with each frame's triplets as
    [subject, object, predicate, score] rows, the layout files were written
    in before the columns."""
    header, *lines = text.splitlines()
    rows = [header]
    for line in lines:
        record = json.loads(line)
        for frame in record["frames"]:
            frame["triplets"] = [list(t) for t in zip(*(frame["triplets"][c]
                                                        for c in io.TRIPLET_COLUMNS))]
        rows.append(json.dumps(record, separators=(",", ":")))
    return "".join(row + "\n" for row in rows)


# sha256 of `stsg infer` files from the tiny checkpoint, in the row layout
# (`in_row_layout`), taken before serving cut its frames straight from the
# packed forward pass; any change to a served float, label or ordering shows
# here
INFER_SHA256 = {
    ("predcls", "spatial", 1, False): "e1cc89e1e9865d05825498a63e5de9a984391141c364c08c11a73e840f4992fc",
    ("predcls", "spatial", 1, True): "d86bb9328a7281460de37ffba41bbeb82f4989abafab8309df183ea823697bc6",
    ("predcls", "sparse", 1, False): "74275697f54e71beeac569d1cb0837a12f28ae5bd5ccd28947e0e6f25a5ec986",
    ("predcls", "sparse", 1, True): "8508d16e9f24c62332e2287f263cee7b04f2c90ce8640f9bc24c3f3f7d605719",
    ("predcls", "sparse", 2, False): "a303707564049149ff16748d53f4ed6ac4f4822a082a9c2bd99a2e4911f8429f",
    ("predcls", "sparse", 2, True): "4832447c2918b369ff9a5d1c35587764a5a8d1210928fa44f68c76f45ad17624",
    ("predcls", "dense", 1, False): "68e7d4a11c704929b2f341c77ccf1386bb9a358e1caaa72dbdb9a26d0aeb8a47",
    ("predcls", "dense", 1, True): "ecebca816bfd374c3087133474a0889b292b817034c2967da011be3d75c9dc0b",
    ("predcls", "tracking", 1, False): "dcba6fa601038ff797992a14cea70fd9a715380b47d1292cd057b5562bd641d6",
    ("predcls", "tracking", 1, True): "2a634fd789f13ade6ff6cf6a01a993a2054c6397c255b1f17ae6dce283f2a4b1",
    ("sgcls", "spatial", 1, False): "14a7f6a4d1c2b2d95d81dbcc0269cd23a21866dc0feb5ada01acc7e7032f8f4c",
    ("sgcls", "spatial", 1, True): "1df955fdbc3844d7b784eeac264235847b4a1fb2f44a6be384181a696beb3a82",
    ("sgcls", "sparse", 1, False): "d4a63d4e50e56c38b511e84b4625dd635a32c3a4b1cda9169402f1cc6378f45d",
    ("sgcls", "sparse", 1, True): "091471c62932a67b3ba50f3fb66cc108086d85aafb421381b16ab7236c3143e5",
    ("sgcls", "sparse", 2, False): "d7a4f0e90b15a015c481b84e604302c724f3af40ef798778184fba70fc451c0c",
    ("sgcls", "sparse", 2, True): "3d92744cf1fb4342a623cd0e2acb9d48aaab516be98f6533bb595871eefe4436",
    ("sgcls", "dense", 1, False): "f30c87ad8ef3a22d56afe0eba62dc766240a2d1686ba403d236f3d03b2956ffc",
    ("sgcls", "dense", 1, True): "e011f51a04b42f9a5498c2cd05eaefc2930a4ab9f3d2ec31efaad7b062f5c291",
    ("sgcls", "tracking", 1, False): "d048f79b7b9b76e97cb05ce59e99425edc1179996df6bb6a46bb87bb9369b9d2",
    ("sgcls", "tracking", 1, True): "f8b8e145d368da78ff980b95f08cbde511eb5843dfd9949226919aa3c222e141",
    ("sgdet", "spatial", 1, False): "3958790de07d43a09510a0ba874eee3e5897e15cc7eb2bc8da08b3b588e30b96",
    ("sgdet", "spatial", 1, True): "fe9569b9aeac3bc1a850627b374f7464554dafae5e642ee659a2b36a5b052de2",
    ("sgdet", "sparse", 1, False): "7d51c262d0a2108d804bab3633517f991da6433fa56f0eae73337b3d745e8b00",
    ("sgdet", "sparse", 1, True): "f1833299ba6b39cf2e65e6d66712a5d83c668cfbdcbcce7919475f729b81514f",
    ("sgdet", "sparse", 2, False): "8edfb1c76ab18609353e9c170a342f5b8dfd815fbf2cc68c5328277b1842b694",
    ("sgdet", "sparse", 2, True): "3544cb88f42e92b9f2d36eaffaa0dbda87458aa7c7e5f0f35edf546afa6401b6",
    ("sgdet", "dense", 1, False): "0b7bbfd3b0c254126fb49bde1c74a251330698c3bdd7e8441152f14e2ce4ba5b",
    ("sgdet", "dense", 1, True): "188c4f8a1890de2bb6cfa8cdefe696dfa58eb8a448547f76b3ef4ab3287187a7",
    ("sgdet", "tracking", 1, False): "a301ca3b93090e4c9aa5039150a008f39c64725459aa754c61a8c9309b74e315",
    ("sgdet", "tracking", 1, True): "49a4e92bf9ce7250ff4470705e8540e6a1a6851f692f6e54f70101b9a5c2f46c",
}


@pytest.mark.parametrize("mode, variant, k, features", list(INFER_SHA256))
def test_infer_files_are_pinned(tmp_path, checkpoint_path, dataset_dir, mode, variant, k,
                                features):
    out = tmp_path / "preds.jsonl"
    argv = ["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir), "--mode", mode,
            "--variant", variant, "--k", str(k), "--out", str(out)]
    assert main(argv + ["--include-features"] * features) == 0
    rows = in_row_layout(out.read_text()).encode()
    assert hashlib.sha256(rows).hexdigest() == INFER_SHA256[mode, variant, k, features]


def test_a_predictions_file_in_the_row_layout_is_a_short_error(tmp_path, checkpoint_path,
                                                                dataset_dir, capsys):
    # each frame's triplets were [subject, object, predicate, score] rows; the
    # kind error showed the whole list, 2,273 characters for 140 triplets
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    preds.write_text(in_row_layout(preds.read_text()))
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}:2: field 'triplets' must be an object, got [[")
    assert err.count("\n") == 1 and len(err) < len(str(preds)) + 300, err


def _tracked_containers(value) -> int:
    """The GC-tracked lists and dicts in the JSON value `value`."""
    items = value.values() if type(value) is dict else value if type(value) is list else ()
    return gc.is_tracked(value) + sum(map(_tracked_containers, items))


def test_a_served_frame_holds_no_container_per_triplet(checkpoint_path, dataset_dir):
    # a frame record of one list per triplet kept ~140 lists alive a frame,
    # which set off full garbage collections while a split was served
    from stsg.cli import forward_sequence, to_predictions

    cfg, params, _ = io.load_checkpoint(checkpoint_path)
    _, seqs = io.load_split(dataset_dir, "val")
    preds = [p for p in to_predictions(forward_sequence(seqs[0], params, "sgdet", "sparse", 1),
                                       cfg.dims) if p.n >= 2]
    pred = max(preds, key=lambda p: len(p.ranked))
    counts = {len(pred.ranked[:t]): _tracked_containers(io.frame_prediction_to_json(
        pred, pred.ranked[:t], False)) for t in (0, 1, len(pred.ranked))}
    assert len(counts) == 3 and len(set(counts.values())) == 1, counts
