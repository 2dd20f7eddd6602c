import base64
import gc
import hashlib
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import (edit_frames, empty_frame, frame_columns, frame_dicts, make_frame,
                      random_gt_row, random_sequence, sequence_of, with_frames,
                      write_earlier_version)

from stsg import cli, io, temporal
from stsg.cli import main
from stsg.config import (EVENT_NAMES, MAX_FRAME_NODES, Dims, WorldConfig, load_config,
                         parse_config_items)
from stsg.errors import ConfigError, ContractError, DataFormatError
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.scene import scene_sequence

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
    runs = {"seq": ["--jobs", "1"], "default": [], "par": ["--jobs", "3"]}
    for name, jobs in runs.items():
        assert main(["gen", "--config", str(tiny_config_path), "--out", str(tmp_path / name),
                     "--seed", "3", *jobs]) == 0
    for split in ("train", "val", "test"):
        files = {(tmp_path / name / f"{split}.jsonl").read_bytes() for name in runs}
        assert len(files) == 1


def test_write_split_writes_what_gen_writes(tmp_path, tiny_config_path, dataset_dir):
    # gen's workers send finished lines; write_split encodes sequences here,
    # through the same header and line encoder
    cfg = replace(load_config(tiny_config_path), seed=7)
    start = 0
    for split, count in (("train", cfg.split.train_sequences), ("val", cfg.split.val_sequences),
                         ("test", cfg.split.test_sequences)):
        seqs = [cli._gen_one(cfg.dims, cfg.world, 7, i) for i in range(start, start + count)]
        io.write_split(tmp_path / f"{split}.jsonl", cfg, split, seqs)
        assert (tmp_path / f"{split}.jsonl").read_bytes() == \
            (dataset_dir / f"{split}.jsonl").read_bytes()
        start += count


class _InProcessExecutor:
    """ProcessPoolExecutor's stand-in: records the worker count asked of it,
    and runs the initializer and the tasks in this process, in order."""

    def __init__(self, started, max_workers, initializer, initargs):
        started.append(max_workers)
        initializer(*initargs)

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("cpus", [3, 64])
def test_workers_never_outnumber_the_cpus_or_the_items(tmp_path, tiny_config_path, dataset_dir,
                                                       monkeypatch, cpus):
    # `--jobs 500` started 500 processes on a machine of a few CPUs
    started = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", partial(_InProcessExecutor, started))
    monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_worker_fn", None)
    base = ["--config", str(tiny_config_path), "--seed", "7"]
    # 18 sequences, then 6 ablation cells
    assert main(["gen", *base, "--out", str(tmp_path / "d"), "--jobs", "500"]) == 0
    assert main(["ablate", *base, "--data", str(dataset_dir), "--seeds", "1", "--epochs", "1",
                 "--train-sequences", "1", "--test-sequences", "1", "--jobs", "500"]) == 0
    assert started == [min(cpus, 18), min(cpus, 6)]
    for split in ("train", "val", "test"):
        assert (tmp_path / "d" / f"{split}.jsonl").read_bytes() == \
            (dataset_dir / f"{split}.jsonl").read_bytes()
    # the default is the CPUs available; one worker runs here, with no pool
    started.clear()
    assert main(["gen", *base, "--out", str(tmp_path / "e")]) == 0
    assert main(["gen", *base, "--out", str(tmp_path / "f"), "--jobs", "1"]) == 0
    assert started == [min(cpus, 18)]


def test_an_error_in_a_gen_worker_is_an_error(tmp_path, tiny_config_path, monkeypatch, capsys):
    # forked workers (on one CPU, this process) run the failing generator;
    # sequence 6 fails, within the train split, and ends the run with its error
    generate = cli.generate_scene

    def failing(dims, world, seed):
        if seed == 7_000_006:
            raise ContractError("sequence 6 cannot be generated")
        return generate(dims, world, seed)

    monkeypatch.setattr(cli, "generate_scene", failing)
    data = tmp_path / "d"
    assert main(["gen", "--config", str(tiny_config_path), "--out", str(data), "--seed", "7",
                 "--jobs", "2"]) == 1
    assert capsys.readouterr().err == "error: sequence 6 cannot be generated\n"
    # the train split's header promised 10 sequences; fewer came
    with pytest.raises(DataFormatError, match=r"train.jsonl: header count 10 != \d sequences"):
        io.load_split(data, "train")
    assert not (data / "val.jsonl").exists()


# `stsg ablate` whose dense cell fails in a worker, in a pool of two workers
# whatever the machine's CPUs
ABLATE_WITH_A_FAILING_CELL = """
import sys
from stsg import cli
from stsg.errors import TrainingError

train = cli.train


def failing(data, cfg):
    if cfg.train.variant == "dense":
        raise TrainingError("the dense cell diverged")
    return train(data, cfg)


cli.train = failing
cli._available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_an_error_in_an_ablate_worker_ends_the_run(tmp_path, tiny_config_path, dataset_dir):
    # the pool's exit, which killed the workers, could then wait forever on a
    # queue lock that a killed worker held
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = tmp_path / "ablation.json"
    proc = subprocess.Popen(
        [sys.executable, "-c", ABLATE_WITH_A_FAILING_CELL, "ablate",
         "--config", str(tiny_config_path), "--data", str(dataset_dir), "--out", str(out),
         "--seeds", "1", "--epochs", "1", "--train-sequences", "1", "--test-sequences", "1",
         "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the run and its workers
        proc.communicate()
        pytest.fail("ablate did not end within 120 s of a cell's error")
    assert (proc.returncode, err) == (1, "error: the dense cell diverged\n")
    assert not out.exists()


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
        for name in ("n_objects", "n_triplets", "triplets", "objects", "gt_feats"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _with_signed_zeros(seq, dims):
    """`seq` with the first visual entry of its first frame's gt objects
    -0.0 and 0.0 in turn, and its first detection's visual vector the first
    object's with the sign of that zero flipped."""
    gt, det = seq.gt_feats.copy(), seq.det_feats.copy()
    visual, n = 4 + dims.g, seq.n_objects[0]
    gt[:n, visual] = [(-0.0, 0.0)[i % 2] for i in range(n)]
    det[0, visual:] = gt[0, visual:]
    det[0, visual] = 0.0
    objects = seq.objects
    return scene_sequence(gt, det, objects["label"], objects["occluded"], objects["recorded"],
                          seq.triplets, (seq.n_objects, seq.n_detections, seq.n_triplets),
                          seq.event_labels, seq.seed, dims.g)


def test_a_loaded_sequence_is_the_generated_one_bit_for_bit():
    # the node matrices travel as their float64 bytes: signed zeros and every
    # last bit come back, and a detection names a gt object only where its
    # vector has the object's bytes, not merely equal numbers
    dims = Dims()
    for seed in range(20):
        seq = cli._gen_one(dims, WorldConfig(), 7, seed)
        if seed == 0:
            seq = _with_signed_zeros(seq, dims)
            record = io.sequence_to_json(seq)
            assert record["det_object"][0] == -1
            assert np.signbit(seq.gt_feats[0, 4 + dims.g])
        line = io.sequence_line(seq)
        loaded = io.sequence_from_json(json.loads(line), Path("mem"), 2, dims)
        assert (loaded.seed, loaded.g, loaded.event_labels.tobytes()) == \
            (seq.seed, seq.g, seq.event_labels.tobytes())
        for name in ("gt_feats", "det_feats", "objects", "triplets", "n_objects",
                     "n_detections", "n_triplets"):
            x, y = getattr(seq, name), getattr(loaded, name)
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
        assert io.sequence_line(loaded) == line


SEQUENCE_COLUMNS = ("gt_feats", "det_feats", "objects", "triplets", "n_objects", "n_detections",
                    "n_triplets", "event_labels")


@pytest.mark.parametrize("t, kind", [(0, "empty"), (1, "empty"), (3, "empty"),
                                     (2, "objects-only")],
                         ids=["empty-first", "empty-middle", "empty-last", "objects-only"])
def test_edge_frames_round_trip(t, kind):
    # a dataset line and a pickle each bring back every column bit for bit,
    # and the frames viewed in them, with an empty frame first, in the middle
    # or last, or a frame of objects without detections or triplets
    dims = Dims()
    seq = random_sequence(RngStream(12), dims, n_frames=4)
    frame = frame_columns(seq)[t]
    edited = empty_frame(dims) if kind == "empty" else dict(frame, det=frame["det"][:0],
                                                            triplets=frame["triplets"][:0])
    seq = edit_frames(seq, {t: edited})
    counts = [(len(f.objects), len(f.detections), len(f.triplets)) for f in seq.frames]
    assert counts[t] == ((0, 0, 0) if kind == "empty" else (len(frame["gt"]), 0, 0))
    line = io.sequence_line(seq)
    for back in (io.sequence_from_json(json.loads(line), Path("mem"), 2, dims),
                 pickle.loads(pickle.dumps(seq))):
        for name in SEQUENCE_COLUMNS:
            x, y = getattr(seq, name), getattr(back, name)
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
        assert [(len(f.objects), len(f.detections), len(f.triplets))
                for f in back.frames] == counts
        assert io.sequence_line(back) == line


def test_checkpoint_roundtrip_is_exact(checkpoint_path):
    cfg, params, log = io.load_checkpoint(checkpoint_path)
    assert log and "train_loss" in log[0]
    reloaded_cfg, params2, _ = io.load_checkpoint(checkpoint_path)
    for name, t in params.items():
        assert np.array_equal(t.data, params2[name].data)
    assert cfg.to_flat_dict() == reloaded_cfg.to_flat_dict()


def test_only_the_train_log_splits_the_loss(checkpoint_path):
    _, _, log = io.load_checkpoint(checkpoint_path)
    kept = {"epoch", "train_loss", "val_recall20"}
    assert log and all(set(e) == kept for e in log)
    entries = json.loads(checkpoint_path.with_suffix(".log.json").read_text())["entries"]
    assert [{k: e[k] for k in kept} for e in entries] == log
    for e in entries:
        assert set(e) - kept == {"relation_loss", "node_loss", "link_loss", "clip_hits",
                                 "grad_norm_median", "grad_norm_max"}
        assert isinstance(e["clip_hits"], int)
        assert 0.0 < e["grad_norm_median"] <= e["grad_norm_max"]


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
    """Predictions records of each frame's ground truth: its objects' boxes
    and labels, each label of score 1, and each pair's predicate probability
    1 where the pair holds the predicate, 0 elsewhere, written as the package
    writes them (`io.float64_text`). The records are for a header config
    of no items, so of the default h."""
    h = Dims().h
    records = []
    for seq in seqs:
        frames = []
        for frame in seq.frames:
            n = len(frame.objects)
            probs = np.zeros(n * (n - 1) * h)
            for s, o, p in frame.triplets:   # pairs in `spatial.frame_pairs` order
                probs[(s * (n - 1) + o - (o > s)) * h + p] = 1.0
            frames.append({
                "boxes": frame.objects["box"].tolist(),
                "labels": frame.objects["label"].tolist(),
                "label_scores": [1.0] * n,
                "pair_probs": io.float64_text(probs),
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


def _refuse_to_sort(*args):
    raise AssertionError("sorted triplets that nothing reads")


def test_only_evaluation_sorts_and_once_a_sequence(tmp_path, checkpoint_path, dataset_dir,
                                                   monkeypatch):
    # `infer` reads each frame's nodes, never its triplets, so it sorts
    # nothing; evaluation sorts each served sequence, or each record read
    # back, exactly once
    preds = tmp_path / "p.jsonl"
    sort_frames = temporal._sort_frames
    monkeypatch.setattr(temporal, "_sort_frames", _refuse_to_sort)
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    sorts = []

    def counted(*args):
        sorts.append(len(args[-1]) - 1)   # the call's frame count, from its cuts
        return sort_frames(*args)

    monkeypatch.setattr(temporal, "_sort_frames", counted)
    _, seqs = io.load_split(dataset_dir, "val")
    for source in (["--preds", str(preds)], ["--ckpt", str(checkpoint_path), "--mode", "sgdet"]):
        sorts.clear()
        assert main(["eval", *source, "--data", str(dataset_dir), "--split", "val"]) == 0
        assert sorts == [len(seq.frames) for seq in seqs]


def test_non_finite_scores_end_infer_before_anything_is_written(
        tmp_path, checkpoint_path, dataset_dir, monkeypatch, capsys):
    # the scores are checked when a pass is ranked, not when its triplets
    # are sorted, which `infer` never does
    cfg, params, log = io.load_checkpoint(checkpoint_path)
    arrays = params.as_arrays()
    arrays["rel.b"] = np.where(np.arange(cfg.dims.h) == 2, np.nan, arrays["rel.b"])
    broken = ModelParams.from_arrays(cfg.dims, arrays, params.gcn_layers)
    monkeypatch.setattr(io, "load_checkpoint", lambda path: (cfg, broken, log))
    monkeypatch.setattr(temporal, "_sort_frames", _refuse_to_sort)
    out = tmp_path / "p.jsonl"
    for mode in ("predcls", "sgdet"):
        assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                     "--mode", mode, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: rank_frames: triplet scores must be finite\n"
        assert not out.exists()


def test_predictions_of_another_split_are_an_error(tmp_path, checkpoint_path, dataset_dir,
                                                   capsys):
    # a file inferred on the test split and read against the val split
    # ended in an error about its first record's seed
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "test", "--mode", "sgdet", "--out", str(preds)]) == 0
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    assert capsys.readouterr().err == (f"error: {preds}:1: split: the predictions were made on "
                                       f"the 'test' split, not 'val'\n")
    # a header that names no split is read against any
    header, *lines = preds.read_text().splitlines(keepends=True)
    edited = json.loads(header)
    del edited["split"]
    preds.write_text(json.dumps(edited) + "\n" + "".join(lines))
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 0


def test_eval_mode_mismatch_with_prediction_header(tmp_path, checkpoint_path, dataset_dir):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "predcls"]) == 1


@pytest.mark.parametrize("flags", [["--variant", "dense"], ["--k", "3"],
                                   ["--variant", "dense", "--k", "3"]],
                         ids=["variant", "k", "both"])
def test_eval_of_predictions_refuses_model_flags(tmp_path, dataset_dir, capsys, flags):
    # a predictions file names the model that made it; both flags were
    # ignored, exit 0
    _, seqs = io.load_split(dataset_dir, "test")
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, gt_prediction_records(seqs))
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir), *flags]) == 1
    assert capsys.readouterr().err == \
        f"error: eval: {flags[0]} applies only to --ckpt, not to --preds\n"


def test_predictions_header_config_is_checked_and_echoed(tmp_path, dataset_dir, capsys):
    # a config the run could not have had was echoed into the report, exit 0
    _, seqs = io.load_split(dataset_dir, "test")
    preds, out = tmp_path / "p.jsonl", tmp_path / "report.json"
    config = {"train.k": "3", "seed": 5}
    io.write_predictions(preds, {"mode": "sgdet", "config": config}, gt_prediction_records(seqs))
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir), "--split", "test",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == config   # the header's own dict
    io.write_predictions(preds, {"mode": "sgdet", "config": {"train.k": "x"}},
                         gt_prediction_records(seqs))
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 1
    assert capsys.readouterr().err == f"error: {preds}:1: train.k: expected integer, got 'x'\n"


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
@pytest.mark.parametrize("argv", [
    ["train", "--data", "{data}"],
    ["infer", "--ckpt", "{ckpt}", "--data", "{data}"],
    ["eval", "--ckpt", "{ckpt}", "--data", "{data}"],
    ["bank", "--ckpt", "{ckpt}", "--data", "{data}"],
    ["ablate", "--data", "{data}", "--seeds", "1", "--epochs", "1"],
    ["flops"],
], ids=lambda argv: argv[0])
def test_an_out_path_without_its_directory_fails_before_any_work(
        tmp_path, checkpoint_path, dataset_dir, monkeypatch, capsys, argv):
    # the run used to end with this error only after all its work
    def no_load(*args, **kwargs):
        raise AssertionError("loaded before the output directory was checked")

    monkeypatch.setattr(io, "load_split", no_load)
    monkeypatch.setattr(io, "load_checkpoint", no_load)
    missing = tmp_path / "missing"
    argv = [a.format(data=dataset_dir, ckpt=checkpoint_path) for a in argv]
    assert main(argv + ["--out", str(missing / "out.json")]) == 1
    assert capsys.readouterr().err == f"error: {missing}: no such directory\n"
    assert list(tmp_path.iterdir()) == []


BANK_CFG = """
split.train_sequences = 12
split.val_sequences = 1
split.test_sequences = 6
train.epochs = 2
"""
BANK_REPORT_SHA256 = "adf7fc869a2e88b816e1ab63d0b80fe8c62b9c607d0c0f2033c3ec4482c28026"


def test_bank_report_is_pinned(tmp_path, monkeypatch):
    # `bank` reads each frame's nodes, never its triplets, so it sorts nothing
    cfg, data, ckpt, out = (tmp_path / name for name in ("bank.cfg", "ds", "model.json",
                                                         "bank.json"))
    cfg.write_text(BANK_CFG)
    assert main(["gen", "--config", str(cfg), "--seed", "7", "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt),
                 "--no-val"]) == 0
    monkeypatch.setattr(temporal, "_sort_frames", _refuse_to_sort)
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
    """Apply `edit` to the first frame with pairs of a predictions file."""
    lines = preds.read_text().splitlines()
    record = json.loads(lines[1])
    edit(next(f for f in record["frames"] if f["pair_probs"]))
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


def _set(field, index, value):
    """Set entry `index` of a frame field."""
    def edit(frame):
        column = frame[field]
        column[index] = value(column[index]) if callable(value) else value
    return edit


def _decoded(text: str) -> np.ndarray:
    """The pair probabilities a `pair_probs` text encodes, as a new array."""
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def _pair_probs(value):
    """Set a frame's `pair_probs` to `value`, or to `value` of its text
    where `value` is callable."""
    def edit(frame):
        frame["pair_probs"] = value(frame["pair_probs"]) if callable(value) else value
    return edit


def _set_prob(index, value):
    """Set pair probability `index` of a frame, written back by the package's
    writer (`io.float64_text`)."""
    def edit(text):
        probs = _decoded(text)
        probs[index] = value
        return io.float64_text(probs)
    return _pair_probs(edit)


def _extend_pair_probs(count):
    """Make a frame's `pair_probs` `count` entries longer (shorter, below 0)."""
    def edit(text):
        probs = _decoded(text)
        return io.float64_text(probs[:count] if count < 0 else
                               np.concatenate([probs, np.full(count, 0.5)]))
    return _pair_probs(edit)


def _add_self_pairs(frame):
    _extend_pair_probs(len(frame["labels"]) * Dims().h)(frame)


def _drop_last_byte(text: str) -> str:
    return base64.b64encode(base64.b64decode(text)[:-1]).decode()


# the test ids below that name a subject, object or predicate name the
# pair_probs case that replaced the check of that triplet column, from when
# files listed their triplets
@pytest.mark.parametrize("edit", [_add_self_pairs, _set_prob(0, float("nan"))],
                         ids=["self-pair", "nan-score"])
def test_malformed_prediction_triplet_is_an_error(tmp_path, checkpoint_path, dataset_dir,
                                                  capsys, edit):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    _corrupt_first_prediction(preds, edit)
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}:2: ") and "field 'pair_probs' must" in err, err


# each label case was evaluated with exit 0 (the numbers were truncated to
# integers, or used as they were, whatever their range) or, for an integer
# beyond the float range, ended in an OverflowError traceback. The
# pair_probs cases under ids of earlier number checks check its base64 text:
# its characters, padding, kind and values
MALFORMED_NUMBERS = [
    (_set_prob(0, 99),
     "entry 0 of field 'pair_probs' must be a probability in [0, 1], got 99.0"),
    (_set_prob(0, -0.1),
     "entry 0 of field 'pair_probs' must be a probability in [0, 1], got -0.1"),
    (_set_prob(2, 1.5),
     "entry 2 of field 'pair_probs' must be a probability in [0, 1], got 1.5"),
    # a character outside the alphabet, which a lax decoder would skip
    (_pair_probs(lambda text: text[:4] + "*" + text[4:]),
     "field 'pair_probs' must be strict base64 text ("),
    (_set_prob(0, -float("inf")),
     "entry 0 of field 'pair_probs' must be a probability in [0, 1], got -inf"),
    (_set("labels", 0, -5), "label of node 0 must be an integer in [0, 8), got -5"),
    (_set("labels", 1, 2.5), "label of node 1 must be an integer in [0, 8), got 2.5"),
    (_set("labels", 0, 8), "label of node 0 must be an integer in [0, 8), got 8"),
    (_set("labels", 0, True), "field 'labels' must be finite numbers, got True"),
    (_set("labels", 0, 10 ** 400), "field 'labels' must be finite numbers, got 1000"),
    (_pair_probs(True), "field 'pair_probs' must be base64 text of float64 values, got True"),
    (_extend_pair_probs(-1), "probabilities, 6 for each of its "),
    (_set_prob(0, 2 ** 64),
     "entry 0 of field 'pair_probs' must be a probability in [0, 1], got 1.8446744073709552e+19"),
    # this label wrapped round to a negative number when cast to intp before
    # its bound was checked: evaluated with exit 0, or an IndexError traceback
    (_set("labels", 0, 1e30), "label of node 0 must be an integer in [0, 8), got 1e+30"),
    (_pair_probs(lambda text: text[:-2]),
     "field 'pair_probs' must be strict base64 text (Incorrect padding)"),
    (_pair_probs(None), "field 'pair_probs' must be base64 text of float64 values, got None"),
    # a whole number within the intp range is printed exactly
    (_set("labels", 0, 1234567), "label of node 0 must be an integer in [0, 8), got 1234567"),
    # these label scores were evaluated with exit 0; -3 turned its node's
    # triplet scores negative and reordered the frame
    (_set("label_scores", 0, -3), "label score of node 0 must be in (0, 1], got -3.0"),
    (_set("label_scores", 0, 0), "label score of node 0 must be in (0, 1], got 0.0"),
    (_set("label_scores", 1, 1.5), "label score of node 1 must be in (0, 1], got 1.5"),
    # a file of the previous layout, a number list, is a short error
    (_pair_probs(lambda text: _decoded(text).tolist()),
     "field 'pair_probs' must be base64 text of float64 values, got [0."),
    (_pair_probs(_drop_last_byte),
     "field 'pair_probs' must encode whole float64 values, 8 bytes each, got "),
    # binary text carries what JSON numbers could not
    (_set_prob(1, float("nan")),
     "entry 1 of field 'pair_probs' must be a probability in [0, 1], got nan"),
    (_set_prob(0, float("inf")),
     "entry 0 of field 'pair_probs' must be a probability in [0, 1], got inf"),
]
MALFORMED_NUMBER_IDS = [
    "predicate-99", "predicate-negative", "predicate-fraction", "subject-fraction",
    "object-negative", "label-negative", "label-fraction", "label-g", "label-boolean",
    "label-beyond-float", "boolean-triplet", "short-column", "predicate-beyond-intp",
    "label-beyond-intp", "subject-beyond-intp", "subject-seven-digits", "label-seven-digits",
    "label-score-negative", "label-score-zero", "label-score-above-1", "probs-number-list",
    "probs-partial-float", "probs-nan", "probs-infinity"]


@pytest.mark.parametrize("edit, message", MALFORMED_NUMBERS, ids=MALFORMED_NUMBER_IDS)
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


def _two_node_frame() -> dict:
    """A predictions frame that passes every check: 2 nodes, 2 pairs of 6
    predicate probabilities."""
    return {"boxes": [[0.0, 0.0, 0.5, 0.5], [0.25, 0.25, 0.5, 0.5]], "labels": [0, 1],
            "label_scores": [0.9, 0.8],
            "pair_probs": io.float64_text(np.array([0.5, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.0,
                                                    1.0, 0.25, 0.75, 0.125]))}


# a frame with one probability too many, a label beyond the intp range and
# an infinite probability; the ids are those of cases that once checked a
# frame without dims
BEYOND_INTP = [
    (_extend_pair_probs(1), "frame has 2 nodes, so field 'pair_probs' must hold 12 "
                            "probabilities, 6 for each of its 2 ordered pairs, got 13"),
    (_set("labels", 0, 1e30), "label of node 0 must be an integer in [0, "),
    (_set_prob(0, float("inf")),
     "entry 0 of field 'pair_probs' must be a probability in [0, 1], got inf"),
]
BEYOND_INTP_IDS = ["predicate", "label", "object"]


# the triplet columns of a ranked list
TRIPLET_COLUMNS = ("subj", "obj", "predicate", "score")
# every column of a RankedFrame: its triplets', then its nodes'
RANKED_COLUMNS = TRIPLET_COLUMNS + ("labels", "boxes", "label_scores")


@pytest.fixture(scope="module")
def three_frame_dir(tmp_path_factory) -> Path:
    cfg = tmp_path_factory.mktemp("cfg") / "three.cfg"
    cfg.write_text(TINY_CFG + "world.frames = 3\n")
    out = tmp_path_factory.mktemp("data") / "ds3"
    assert main(["gen", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    return out


# the loader checks a record's frames at once; the first check that fails
# names its frame's entry
PER_RECORD_CASES = [
    *MALFORMED_NUMBERS,
    *BEYOND_INTP,
    (_extend_pair_probs(1), "frame has 2 nodes, so field 'pair_probs' must hold 12 "
                            "probabilities, 6 for each of its 2 ordered pairs, got 13"),
    # text beyond ASCII, which base64 is not
    (_pair_probs(lambda text: "\u00e9" + text[1:]),
     "field 'pair_probs' must be strict base64 text (string argument should contain only "
     "ASCII characters)"),
    # a whole 7 probabilities a pair: the dims decide
    (_extend_pair_probs(2), "frame has 2 nodes, so field 'pair_probs' must hold 12 "
                            "probabilities, 6 for each of its 2 ordered pairs, got 14"),
    # these boxes were evaluated with exit 0; with sides of 1e200, box_iou
    # overflowed
    (_set("boxes", 0, [0.1, 0.1, -0.5, 0.3]), "box: size (-0.5, 0.3) outside (0, 1]"),
    (_set("boxes", 0, [0.1, 0.1, 1e200, 1e200]), "box: size (1e+200, 1e+200) outside (0, 1]"),
]
PER_RECORD_IDS = [*MALFORMED_NUMBER_IDS, *(f"no-dims-{i}" for i in BEYOND_INTP_IDS),
                  "node-bound", "self-pair", "predicate-h", "box-negative-side", "box-1e200"]


@pytest.mark.parametrize("position", [1, 2], ids=["middle-frame", "last-frame"])
@pytest.mark.parametrize("edit, message", PER_RECORD_CASES, ids=PER_RECORD_IDS)
def test_a_bad_frame_of_a_record_gives_its_error(tmp_path, three_frame_dir, capsys, edit,
                                                 message, position):
    # the record on line 3 is valid but for one of its three frames
    _, seqs = io.load_split(three_frame_dir, "test")
    records = [{"seq_seed": seq.seed, "frames": [_two_node_frame() for _ in range(3)]}
               for seq in seqs]
    edit(records[1]["frames"][position])
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, records)
    assert main(["eval", "--preds", str(preds), "--data", str(three_frame_dir),
                 "--split", "test"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}:3: ") and message in err, err
    with pytest.raises(DataFormatError) as e:
        io.load_predictions(preds)
    assert str(e.value).startswith(f"{preds}:3: ") and message in str(e.value), str(e.value)


@pytest.mark.parametrize("edit", [edit for edit, _ in PER_RECORD_CASES], ids=PER_RECORD_IDS)
def test_the_record_check_agrees_with_each_frames_own(edit):
    # the reader checks and ranks a record's frames with one call: it fails
    # exactly when a frame fails a call of its own, with that frame's error,
    # and a record that passes gets the lists each frame's own call builds
    g, h = Dims().g, Dims().h   # the dims of a header config of no items
    for position in (0, 1, 2, None):
        frames = [_two_node_frame() for _ in range(3)]
        if position is not None:
            edit(frames[position])
        errors = []
        for frame in frames:
            try:
                io._ranked_frames([frame], g, h)
            except DataFormatError as e:
                errors.append(str(e))
        try:
            record = io._ranked_frames(frames, g, h)
        except DataFormatError as e:
            assert errors and str(e) == errors[0], (position, str(e), errors)
            continue
        assert not errors and position is None
        for ranked, frame in zip(record, frames):
            (own,) = io._ranked_frames([frame], g, h)
            written = np.array(frame["label_scores"], dtype=np.float64)
            pairs = [(ranked.label_scores, written),
                     *((getattr(ranked, name), getattr(own, name))
                       for name in RANKED_COLUMNS)]
            for got, want in pairs:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_a_served_list_reads_back_bit_for_bit(tmp_path, checkpoint_path, dataset_dir, mode):
    # served, written by `stsg infer` and read back: every RankedFrame field
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", mode, "--out", str(preds)]) == 0
    cfg, params, _ = io.load_checkpoint(checkpoint_path)
    _, seqs = io.load_split(dataset_dir, "val")
    _, records = io.load_predictions(preds)
    decoded = [json.loads(line) for line in preds.read_text().splitlines()[1:]]
    names = list(RANKED_COLUMNS)
    assert len(names) == 7
    assert len(records) == len(decoded) == len(seqs)
    for lineno, (seq, record, raw) in enumerate(zip(seqs, records, decoded), start=2):
        served = cli.forward_sequence(seq, params, mode, cfg.train.variant, cfg.train.k)
        assert len(record["frames"]) == len(raw["frames"]) == len(served)
        for pred, loaded in zip(served, record["frames"]):
            ranked = io.ranked_from_frame_json(loaded, preds, lineno)
            for name in names:
                got, want = getattr(ranked, name), getattr(pred.ranked, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name


@pytest.fixture(scope="module")
def sized_frames_run(tmp_path_factory) -> tuple[Path, Path]:
    """A test split of one sequence whose frames have 1, 2, 0 and 6 nodes,
    each detected as its gt row, and a checkpoint of initial parameters."""
    out = tmp_path_factory.mktemp("sized")
    cfg = parse_config_items({})
    dims, rng = cfg.dims, RngStream(3)
    frames = []
    for n in (1, 2, 0, 6):
        objects = [random_gt_row(rng, dims) for _ in range(n)]
        rows = [row for _, row in objects]
        frames.append(make_frame(rows, [label for label, _ in objects],
                                 [(0, 1, 2)] if n >= 2 else [], rows, dims))
    seq = sequence_of(frames, dims.g, np.zeros(len(EVENT_NAMES)), 11)
    (out / "ds").mkdir()
    io.write_split(out / "ds" / "test.jsonl", cfg, "test", [seq])
    io.write_checkpoint(out / "model.json", cfg, ModelParams.init(dims, seed=0), [])
    return out / "ds", out / "model.json"


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_frames_of_any_size_read_back_bit_for_bit(tmp_path, sized_frames_run, mode):
    # frames of 1, 2, 0 and 6 nodes, the empty one mid-sequence, served with
    # their features: the lists the loader ranks from each frame's pair
    # probabilities are the served lists
    data, ckpt = sized_frames_run
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(ckpt), "--data", str(data), "--mode", mode,
                 "--include-features", "--out", str(preds)]) == 0
    cfg, params, _ = io.load_checkpoint(ckpt)
    _, (seq,) = io.load_split(data, "test")
    served = cli.forward_sequence(seq, params, mode, cfg.train.variant, cfg.train.k)
    assert [pred.n for pred in served] == [1, 2, 0, 6]
    _, (record,) = io.load_predictions(preds)
    raw = json.loads(preds.read_text().splitlines()[1])["frames"]
    assert [len(_decoded(frame["pair_probs"])) for frame in raw] == [0, 2 * 6, 0, 30 * 6]
    for pred, loaded, frame in zip(served, record["frames"], raw):
        assert len(pred.ranked) == len(_decoded(frame["pair_probs"]))
        ranked = io.ranked_from_frame_json(loaded, preds, 2)
        for name in RANKED_COLUMNS:
            got, want = getattr(ranked, name), getattr(pred.ranked, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("mode", ["predcls", "sgdet"])
def test_served_pair_probs_decode_to_their_bytes(tmp_path, sized_frames_run, mode):
    # a frame's `pair_probs` text is base64 of the little-endian float64
    # bytes of `FramePrediction.pair_probs`, for frames of 1, 2, 0 and 6 nodes
    data, ckpt = sized_frames_run
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(ckpt), "--data", str(data), "--mode", mode,
                 "--out", str(preds)]) == 0
    cfg, params, _ = io.load_checkpoint(ckpt)
    _, (seq,) = io.load_split(data, "test")
    served = cli.forward_sequence(seq, params, mode, cfg.train.variant, cfg.train.k)
    raw = json.loads(preds.read_text().splitlines()[1])["frames"]
    assert [pred.n for pred in served] == [1, 2, 0, 6]
    for pred, frame in zip(served, raw):
        decoded = np.frombuffer(base64.b64decode(frame["pair_probs"]), "<f8")
        assert pred.pair_probs.dtype == np.dtype("<f8")
        assert decoded.size == pred.pair_probs.size == pred.n * (pred.n - 1) * cfg.dims.h
        assert decoded.tobytes() == pred.pair_probs.tobytes()


@pytest.mark.parametrize("sides", [(-0.5, 0.3), (1e200, 1e200)], ids=["negative", "1e200"])
def test_a_served_box_that_is_no_box_is_an_error(tmp_path, checkpoint_path, dataset_dir,
                                                 capsys, sides):
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0

    def edit(frame):
        frame["boxes"][0][2:] = sides

    _corrupt_first_prediction(preds, edit)
    capsys.readouterr()
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "val"]) == 1
    message = f"box: size ({sides[0]!r}, {sides[1]!r}) outside (0, 1]"
    assert capsys.readouterr().err == f"error: {preds}:2: {message}\n"
    with pytest.raises(DataFormatError) as e:
        io.load_predictions(preds)
    assert str(e.value) == f"{preds}:2: {message}"


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


def test_a_bad_record_is_reported_before_the_record_count(tmp_path, dataset_dir, capsys):
    # errors come in line order: a bad frame on line 2 of a file one record
    # short was reported as the record count
    _, seqs = io.load_split(dataset_dir, "test")
    records = gt_prediction_records(seqs)[:-1]
    frame = next(f for f in records[0]["frames"] if f["labels"])
    frame["labels"][0] = 2.5
    preds = tmp_path / "p.jsonl"
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, records)
    assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                 "--split", "test"]) == 1
    assert capsys.readouterr().err == \
        f"error: {preds}:2: label of node 0 must be an integer in [0, 8), got 2.5\n"


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


# the dims of the tiny benchmark's records
TINY_DIMS = Dims()


def _frames_edit(edit, named=True):
    """An edit of a dataset record that applies `edit` to its frames, decoded
    object by object (`frame_dicts`, each detection with its own visual
    vector unless `named`), and writes them back (`with_frames`)."""
    def edit_record(record):
        frames = frame_dicts(record, TINY_DIMS, named)
        edit(frames)
        with_frames(record, frames, TINY_DIMS)
    return edit_record


def _float64_field(name, edit):
    """An edit of a dataset record that applies `edit` to the float64 values
    of its base64 field `name`, a flat array, and writes back what it returns."""
    def edit_record(record):
        values = np.frombuffer(base64.b64decode(record[name]), "<f8").copy()
        record[name] = io.float64_text(edit(values))
    return edit_record


def _set_value(index, value):
    def edit(values):
        values[index] = value
        return values
    return edit


def test_dataset_header_without_count_is_an_error(tmp_path, dataset_dir, capsys):
    data = _edited_train_split(tmp_path, dataset_dir, 0, lambda header: header.pop("count"))
    assert _train(data, tmp_path) == 1
    assert "missing field 'count'" in capsys.readouterr().err


# the detections' boxes are the first 4 values of each row of `det`
@pytest.mark.parametrize("edit, message", [
    (lambda record: record.pop("det"), "missing field 'det'"),
    (_float64_field("det", lambda values: values[1:]),
     "field 'det' must encode whole rows of 12 float64 values, 96 bytes each, got "),
    (lambda record: record.update(det="0.1 0.1 0.2 0.2"),
     "field 'det' must be strict base64 text ("),
], ids=["missing", "three-numbers", "string"])
def test_malformed_dataset_box_is_an_error(tmp_path, dataset_dir, capsys, edit, message):
    data = _edited_train_split(tmp_path, dataset_dir, 1, edit)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'train.jsonl'}:2: {message}"), err


@pytest.mark.parametrize("kind, box, message", [
    ("objects", [1.5, 0.25, 0.1, 0.1], "box: corner (1.5, 0.25) outside [0, 1]"),
    ("objects", [0.25, 0.25, 0.1, 1.25], "box: size (0.1, 1.25) outside (0, 1]"),
    ("detections", [0.25, -0.5, 0.1, 0.1], "box: corner (0.25, -0.5) outside [0, 1]"),
    ("detections", [0.25, 0.25, 0.0, 0.1], "box: size (0.0, 0.1) outside (0, 1]"),
], ids=["gt-corner", "gt-size", "detection-corner", "detection-size-zero"])
def test_dataset_box_out_of_range_names_its_line(tmp_path, dataset_dir, capsys, kind, box,
                                                 message):
    # the range check used to end in the bare message, without file or line
    def edit(frames):
        frame = next(f for f in frames[1:] if f[kind])
        frame[kind][-1]["box"] = box

    data = _edited_train_split(tmp_path, dataset_dir, 1, _frames_edit(edit))
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
    def edit_frames(frames):
        edit(next(f for f in frames if f["triplets"]))

    data = _edited_train_split(tmp_path, dataset_dir, 1, _frames_edit(edit_frames))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--no-val", "--mode", "predcls"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.jsonl:2" in err and message in err


def test_shape_error_is_an_error(tmp_path, dataset_dir, capsys):
    # a visual feature that is not a vector failed node encoding with
    # ShapeError; now the detections' own vectors that are not whole rows
    data = _edited_train_split(tmp_path, dataset_dir, 1, _float64_field(
        "det_visual", lambda values: np.append(values, 0.5)))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'train.jsonl'}:2: field 'det_visual' must encode "
                          f"whole rows of 16 float64 values, 128 bytes each, got "), err


def _short_label_dist(detection):
    detection["label_dist"] = detection["label_dist"][:-1]


def _label_dist_not_a_distribution(detection):
    detection["label_dist"] = [0.5] * len(detection["label_dist"])


@pytest.mark.parametrize("edit, message", [
    (_short_label_dist,
     "field 'det' must encode whole rows of 12 float64 values, 96 bytes each, got "),
    (_label_dist_not_a_distribution,
     "row {row} of field 'det': the label distribution must be a probability distribution, "
     "got [0.5, "),
], ids=["short-label-dist", "not-a-distribution"])
def test_malformed_detection_labels_are_an_error(tmp_path, dataset_dir, capsys, edit, message):
    rows = []

    def edit_frames(frames):
        k = next(k for k, f in enumerate(frames) if len(f["detections"]) > 1)
        rows.append(sum(len(f["detections"]) for f in frames[:k]))
        edit(frames[k]["detections"][0])

    data = _edited_train_split(tmp_path, dataset_dir, 1, _frames_edit(edit_frames))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    # located like a gt vector's error: the file and line, then the check
    assert err.startswith(f"error: {data / 'train.jsonl'}:2: {message.format(row=rows[0])}"), err


def _infinity_in_detection_visual(frames):
    next(d for f in frames for d in f["detections"])["visual"][0] = float("inf")


def _nan_in_object_visual(frames):
    frames[1]["objects"][0]["visual"][0] = float("nan")


def _set(name, value):
    def edit(record):
        record[name] = value
    return edit


def _first_entry(name, value):
    def edit(record):
        record[name][0] = value
    return edit


# the ids name the number checks of the JSON-number layout; binary text holds
# no string, boolean or null, so those cases check the base64 fields' kind
# and text and the integer columns' kind instead, and the NaN and infinity
# cases the finite check of the node matrices
@pytest.mark.parametrize("edit, message", [
    (_set("det_visual", "0.25"), "field 'det_visual' must be strict base64 text ("),
    (_set("det", True), "field 'det' must be base64 text of float64 values, got True"),
    (_first_entry("labels", True), "field 'labels' must be integers, got True"),
    (_set("gt", None), "field 'gt' must be base64 text of float64 values, got None"),
    (_float64_field("gt", _set_value(2, float("inf"))), "field 'gt' must be finite, got inf in "
                                                        "row 0"),
    (_set("event_labels", ["0", "1", "0", "0"]),
     "field 'event_labels' must be finite numbers, got '0'"),
    (_set("event_labels", [[0, 1]]), "field 'event_labels' must be finite numbers, got [0, 1]"),
    # these loaded: a nan or an infinity then ended in a ranking error with no
    # file or line, six event labels in a traceback from `bank`
    (_frames_edit(_nan_in_object_visual), "field 'gt' must be finite, got nan in row "),
    (_frames_edit(_infinity_in_detection_visual, named=False),
     "field 'det_visual' must be finite, got inf in row 0"),
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
    assert err.startswith(f"error: {data / 'train.jsonl'}:2: {message}"), err


def _drop_last(name):
    def edit(record):
        record[name] = record[name][:-1]
    return edit


def _unrecorded_first_object(record):
    # its row keeps the detector's distribution, not its label's one-hot
    record["recorded"][0] = False


# each column holds one entry per object, detection or triplet, as the
# per-frame counts give them; these loaded short columns into a traceback
# or into frames that took another frame's objects
@pytest.mark.parametrize("edit, message", [
    (_drop_last("n_triplets"), "fields 'n_objects', 'n_detections', 'n_triplets' must hold one "
                               "count per frame, got {f}, {f}, {f1}"),
    (_first_entry("n_detections", -1), "field 'n_detections' must hold counts of 0 or more, "
                                       "got -1"),
    (_drop_last("labels"), "field 'labels' must hold {n} labels, one per object, got {n1}"),
    (_drop_last("recorded"), "field 'recorded' must hold {n} flags, one per object, got {n1}"),
    (_float64_field("gt", lambda values: values[:-TINY_DIMS.m]),
     "field 'gt' must hold {n} rows, one per object, got {n1}"),
    (_drop_last("det_object"), "field 'det_object' must hold {d} entries, one per detection, "
                               "got {d1}"),
    (_drop_last("triplets"), "field 'triplets' must hold {t} entries, 3 per triplet, got {t1}"),
    (_unrecorded_first_object, "row 0 of field 'gt': an object that records no detector "
                               "distribution must hold its label's one-hot, got ["),
], ids=["frame-counts", "negative-count", "labels", "flags", "gt-rows", "det-object",
        "triplets", "unrecorded-one-hot"])
def test_dataset_columns_must_match_their_counts(tmp_path, dataset_dir, capsys, edit, message):
    found = {}

    def edit_record(record):
        f, n = len(record["n_objects"]), sum(record["n_objects"])
        d, t = sum(record["n_detections"]), 3 * sum(record["n_triplets"])
        found.update(f=f, f1=f - 1, n=n, n1=n - 1, d=d, d1=d - 1, t=t, t1=t - 1)
        edit(record)

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit_record)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'train.jsonl'}:2: {message.format(**found)}"), err


@pytest.mark.parametrize("version", [1, 2])
def test_a_split_of_an_earlier_version_is_an_error(tmp_path, dataset_dir, capsys, version):
    # these loaded through a second reader; the same config and seed give
    # the same sequences, so a file of an earlier version is regenerated
    header, *lines = (dataset_dir / "train.jsonl").read_text().splitlines()
    assert json.loads(header)["version"] == io.DATASET_VERSION == 3
    data = tmp_path / "old"
    data.mkdir()
    write_earlier_version(dataset_dir / "train.jsonl", data / "train.jsonl", version, TINY_DIMS)
    records = [json.loads(line) for line in (data / "train.jsonl").read_text().splitlines()[1:]]
    assert len(records) == len(lines) and all("frames" in r and "gt" not in r for r in records)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'train.jsonl'}:1: dataset format version {version} is no longer read; "
        f"regenerate the split with `stsg gen` (the same config and seed give the same "
        f"sequences)\n")


def _named_detection(record) -> tuple[int, int]:
    """The index of a detection of `record` that names its object, and its
    frame's object count."""
    frame = np.repeat(np.arange(len(record["n_objects"])), record["n_detections"])
    k = next(k for k, i in enumerate(record["det_object"]) if i >= 0)
    return k, record["n_objects"][frame[k]]


_add_visual_row = _float64_field("det_visual", lambda values: np.append(values,
                                                                        np.zeros(TINY_DIMS.c)))


def _own_rows(record) -> int:
    return sum(i < 0 for i in record["det_object"])


# the ids name the cases of a detection's `object` and `visual` fields: a
# detection that names its object and holds its vector too ("both") is a
# `det_visual` row too many, one that does neither a row too few
@pytest.mark.parametrize("edit, message", [
    (lambda r, k, n: r["det_object"].__setitem__(k, -2),
     "entry {k} of field 'det_object' must be -1 or an integer in [0, {n}), got -2"),
    (lambda r, k, n: r["det_object"].__setitem__(k, n),
     "entry {k} of field 'det_object' must be -1 or an integer in [0, {n}), got {n}"),
    (lambda r, k, n: r["det_object"].__setitem__(k, 0.0),
     "field 'det_object' must be integers, got 0.0"),
    (lambda r, k, n: r["det_object"].__setitem__(k, False),
     "field 'det_object' must be integers, got False"),
    (lambda r, k, n: _add_visual_row(r),
     "field 'det_visual' must hold {own} rows, one per detection that names no gt object, "
     "got {more}"),
    (lambda r, k, n: r["det_object"].__setitem__(k, -1),
     "field 'det_visual' must hold {more} rows, one per detection that names no gt object, "
     "got {own}"),
], ids=["negative", "object-count", "float", "bool", "both", "neither"])
def test_a_detection_names_one_object_of_its_frame(tmp_path, dataset_dir, capsys, edit,
                                                   message):
    found = {}

    def edit_record(record):
        k, n = _named_detection(record)
        found.update(k=k, n=n, own=_own_rows(record), more=_own_rows(record) + 1)
        edit(record, k, n)

    data = _edited_train_split(tmp_path, dataset_dir, 1, edit_record)
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == \
        f"error: {data / 'train.jsonl'}:2: {message.format(**found)}\n"


@pytest.mark.parametrize("version, message", [
    (4, "field 'version' must be 3, got 4"),
    ("2", "field 'version' must be an integer, got '2'"),
], ids=["unknown", "string"])
def test_a_split_of_an_unknown_version_is_an_error(tmp_path, dataset_dir, capsys, version,
                                                   message):
    data = _edited_train_split(tmp_path, dataset_dir, 0,
                               lambda header: header.update(version=version))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {data / 'train.jsonl'}:1: {message}\n"


# a list field that is a number ended in a TypeError traceback; "no" loaded
# as occluded. The ids name the fields of the layout with frame objects:
# each case sets the column that holds what that field held
@pytest.mark.parametrize("edit, message", [
    (_set("n_objects", 5), "field 'n_objects' must be integers, got 5"),
    (_set("labels", 5), "field 'labels' must be integers, got 5"),
    (_set("triplets", 5), "field 'triplets' must be integers, got 5"),
    (_set("det_object", 5), "field 'det_object' must be integers, got 5"),
    (_first_entry("occluded", "no"), "field 'occluded' must be booleans, got 'no'"),
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


# a frame's pair work grows with the square of its nodes: a frame of 5,000
# objects would ask for about 11 GB in the first pair layer
@pytest.mark.parametrize("text, total", [
    ("world.n_objects_max = 64", "64 + 0.1"),
    ("world.n_objects_max = 63\nnoise.false_positive_rate = 1.5", "63 + 1.5"),
], ids=["objects", "false-positives"])
def test_a_config_whose_frames_exceed_the_bound_is_an_error(tmp_path, capsys, text, total):
    # MAX_FRAME_NODES + 1 detections at the most: the objects and the
    # false positives rounded up
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"# frames one detection beyond the bound\n{text}\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: world.n_objects_max: a frame may hold at most {MAX_FRAME_NODES} "
        f"detections, but world.n_objects_max + noise.false_positive_rate is {total}\n")
    assert not (tmp_path / "d").exists()
    for at_bound in ({"world.n_objects_max": "64", "noise.false_positive_rate": "0"},
                     {"world.n_objects_max": "63", "noise.false_positive_rate": "1"}):
        parse_config_items(at_bound)


def _beyond_the_bound(kind):
    """A frames edit that gives frame 0 MAX_FRAME_NODES + 1 `kind` (objects
    or detections), copies of its first."""
    def edit(frames):
        items = frames[0][kind]
        items[:] = [dict(items[0]) for _ in range(MAX_FRAME_NODES + 1)]
    return edit


@pytest.mark.parametrize("kind, name", [("objects", "n_objects"),
                                        ("detections", "n_detections")])
def test_a_dataset_frame_beyond_the_bound_is_an_error(tmp_path, dataset_dir, capsys, kind,
                                                      name):
    data = _edited_train_split(tmp_path, dataset_dir, 1, _frames_edit(_beyond_the_bound(kind)))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'train.jsonl'}:2: entry 0 of field {name!r} must be at most "
        f"{MAX_FRAME_NODES}, the most a frame may hold, got {MAX_FRAME_NODES + 1}\n")


def test_a_split_header_config_number_must_be_finite(tmp_path, dataset_dir, capsys):
    data = _edited_train_split(tmp_path, dataset_dir, 0, lambda header: header["config"].update(
        {"train.learning_rate": float("nan")}))
    capsys.readouterr()
    assert _train(data, tmp_path) == 1
    assert capsys.readouterr().err == (f"error: {data / 'train.jsonl'}:1: train.learning_rate: "
                                       f"expected a finite number, got 'nan'\n")


def _one_detection_record(label_dist) -> dict:
    """A record of one frame with no gt object and one detection of a
    label distribution over g = 2 classes and a visual vector of c = 1."""
    return {"seed": 0, "event_labels": [0, 0, 0, 0], "n_objects": [0], "n_detections": [1],
            "n_triplets": [0], "labels": [], "occluded": [], "recorded": [], "triplets": [],
            "det_object": [-1], "gt": "",
            "det": io.float64_text(np.concatenate([[0, 0, 0.1, 0.1], np.ravel(label_dist)])),
            "det_visual": io.float64_text(np.zeros(1))}


def test_load_rejects_a_bad_label_distribution():
    dims = Dims(g=2, c=1)
    with pytest.raises(DataFormatError, match="must be a probability distribution"):
        io.sequence_from_json(_one_detection_record([0.7, 0.7]), Path("d.jsonl"), 2, dims)
    with pytest.raises(DataFormatError, match="must encode whole rows of 6 float64 values"):
        io.sequence_from_json(_one_detection_record(np.ones((2, 2)) / 4), Path("d.jsonl"), 2,
                              dims)
    # the record as built loads
    io.sequence_from_json(_one_detection_record([0.25, 0.75]), Path("d.jsonl"), 2, dims)


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
    (_short_visual, "field 'gt' must encode whole rows of 28 float64 values, 224 bytes each, "
                    "got "),
    (_long_det_label_dist, "field 'gt' must encode whole rows of 28 float64 values, 224 bytes "
                           "each, got "),
    (_det_label_dist_not_a_distribution, "of field 'gt': the label distribution must be a "
                                         "probability distribution, got [0.5, "),
    (_negative_det_label_dist, "of field 'gt': the label distribution must be a probability "
                               "distribution, got [1.5, -0.5, "),
], ids=["short-visual", "long-det-label-dist", "not-a-distribution", "negative"])
def test_malformed_gt_vector_is_an_error_at_load(tmp_path, dataset_dir, capsys, edit, message,
                                                 mode):
    # every mode loads the whole record, so every mode rejects it, at its line
    def edit_frames(frames):
        edit(frames[2]["objects"][1])

    data = _edited_train_split(tmp_path, dataset_dir, 1, _frames_edit(edit_frames))
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


# each of these ended in a RecursionError traceback
@pytest.mark.parametrize("kind", ["dataset", "predictions", "checkpoint"])
def test_deeply_nested_json_is_an_error(tmp_path, checkpoint_path, dataset_dir, capsys, kind):
    data = tmp_path / "ds"
    data.mkdir()
    (data / "test.jsonl").write_bytes((dataset_dir / "test.jsonl").read_bytes())
    ckpt, preds = tmp_path / "model.json", tmp_path / "preds.jsonl"
    ckpt.write_bytes(checkpoint_path.read_bytes())
    _, seqs = io.load_split(data, "test")
    io.write_predictions(preds, {"mode": "sgdet", "config": {}}, gt_prediction_records(seqs))
    nested = "[" * 100_000
    if kind == "checkpoint":
        ckpt.write_text(nested)
        where = f"{ckpt}:1"
    else:
        path = data / "test.jsonl" if kind == "dataset" else preds
        lines = path.read_text().splitlines()
        lines[1] = nested
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}:2"
    capsys.readouterr()
    if kind == "predictions":
        argv = ["eval", "--preds", str(preds), "--data", str(data), "--split", "test"]
    else:
        argv = ["infer", "--ckpt", str(ckpt), "--data", str(data), "--split", "test",
                "--out", str(tmp_path / "again.jsonl")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {where}: invalid JSON (nested too deeply)\n"


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

    # the split's config, so that the header's dims pass and each mutant
    # reaches the record; a header of no items stopped every read at dims.g
    def read_predictions(record):
        path = next(files)
        io.write_predictions(path, {"mode": "sgdet", "config": json.loads(header)["config"]},
                             [record])
        io.ranked_predictions(path, seqs, dims, "test")

    (record,) = gt_prediction_records(seqs)
    read_predictions(record)   # the record as built reads
    predictions = _escapes(record, read_predictions, depth=4)   # the frames' entries too
    assert (dataset, checkpoint, predictions) == ([], [], [])


def test_forward_sequence_outputs_serve_to_predictions(checkpoint_path, dataset_dir):
    # the benchmark harness calls these two names with these arguments
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


def in_triplet_layout(path: Path, rows: bool) -> str:
    """The predictions file `path` re-encoded in a layout of files that listed
    their triplets: each frame's ranked list, as the loader ranks it
    (`load_predictions`, `ranked_from_frame_json`), under `triplets` in
    place of `pair_probs`, as [subject, object, predicate, score] rows or as
    one list per column; the other fields as written, in order."""
    header, *lines = path.read_text().splitlines()
    _, records = io.load_predictions(path)
    out = [header]
    for lineno, (line, loaded) in enumerate(zip(lines, records), start=2):
        record = json.loads(line)
        for f, frame in enumerate(record["frames"]):
            ranked = io.ranked_from_frame_json(loaded["frames"][f], path, lineno)
            columns = [getattr(ranked, c).tolist() for c in TRIPLET_COLUMNS]
            triplets = ([list(t) for t in zip(*columns)] if rows
                        else dict(zip(TRIPLET_COLUMNS, columns)))
            record["frames"][f] = dict(("triplets", triplets) if k == "pair_probs" else (k, v)
                                       for k, v in frame.items())
        out.append(json.dumps(record, separators=(",", ":")))
    return "".join(row + "\n" for row in out)


# sha256 of `stsg infer` files from the tiny checkpoint, in the row layout
# (`in_triplet_layout`), taken before serving cut its frames straight from
# the packed forward pass; any change to a served float, label or ordering
# shows here, as does any change to the list the loader ranks
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
def test_infer_files_are_pinned(tmp_path, checkpoint_path, dataset_dir, monkeypatch, mode,
                                variant, k, features):
    # `infer` sorts no triplets; the loader sorts what the file holds
    out = tmp_path / "preds.jsonl"
    argv = ["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir), "--mode", mode,
            "--variant", variant, "--k", str(k), "--out", str(out)]
    with monkeypatch.context() as refused:
        refused.setattr(temporal, "_sort_frames", _refuse_to_sort)
        assert main(argv + ["--include-features"] * features) == 0
    rows = in_triplet_layout(out, rows=True).encode()
    assert hashlib.sha256(rows).hexdigest() == INFER_SHA256[mode, variant, k, features]


def test_a_predictions_file_in_the_row_layout_is_a_short_error(tmp_path, checkpoint_path,
                                                                dataset_dir, capsys):
    # files that listed each frame's triplets, as [subject, object, predicate,
    # score] rows or as one list per column, hold no pair probabilities; a
    # kind error on the rows showed the whole list, 2,273 characters for 140
    # triplets
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "val", "--mode", "sgdet", "--out", str(preds)]) == 0
    for rows in (True, False):
        old = tmp_path / f"old-{rows}.jsonl"
        old.write_text(in_triplet_layout(preds, rows))
        capsys.readouterr()
        assert main(["eval", "--preds", str(old), "--data", str(dataset_dir),
                     "--split", "val"]) == 1
        assert capsys.readouterr().err == f"error: {old}:2: missing field 'pair_probs'\n"


def test_predictions_of_other_dims_are_an_error(tmp_path, checkpoint_path, dataset_dir, capsys):
    # a header's dims.h sets the width of each frame's pair probabilities; a
    # file whose header said h = 9 was evaluated against a split of h = 6,
    # exit 0, and the report echoed dims.h 9
    preds = tmp_path / "p.jsonl"
    assert main(["infer", "--ckpt", str(checkpoint_path), "--data", str(dataset_dir),
                 "--split", "test", "--mode", "sgdet", "--out", str(preds)]) == 0
    header, *lines = preds.read_text().splitlines(keepends=True)
    for name, value, items in (("h", 9, {}), ("g", 5, {"dims.m": 4 + 5 + 16})):
        edited = json.loads(header)
        edited["config"].update({f"dims.{name}": value, **items})
        preds.write_text(json.dumps(edited) + "\n" + "".join(lines))
        capsys.readouterr()
        assert main(["eval", "--preds", str(preds), "--data", str(dataset_dir),
                     "--split", "test", "--out", str(tmp_path / "r.json")]) == 1
        want = {"h": 6, "g": 8}[name]
        assert capsys.readouterr().err == (f"error: {preds}:1: dims.{name}: the predictions were "
                                           f"made with {value}, but the test split has {want}\n")


def _tracked_containers(value) -> int:
    """The GC-tracked lists and dicts in the JSON value `value`."""
    items = value.values() if type(value) is dict else value if type(value) is list else ()
    return gc.is_tracked(value) + sum(map(_tracked_containers, items))


def test_a_served_frame_holds_no_container_per_triplet(checkpoint_path, dataset_dir):
    # a frame record of one list per triplet kept ~140 lists alive a frame,
    # which set off full garbage collections while a split was served. A
    # record holds one box list per node; beyond those, a 2-node frame and
    # the split's largest frame hold as many containers
    _, params, _ = io.load_checkpoint(checkpoint_path)
    _, seqs = io.load_split(dataset_dir, "val")
    preds = [p for seq in seqs for p in cli.forward_sequence(seq, params, "sgdet", "sparse", 1)]
    small = next(p for p in preds if p.n == 2)
    large = max(preds, key=lambda p: p.n)
    assert len(small.pair_probs) == 2 < len(large.pair_probs)
    counts = [_tracked_containers(io.frame_prediction_to_json(p, p.ranked, False)) - p.n
              for p in (small, large)]
    assert counts[0] == counts[1], counts
