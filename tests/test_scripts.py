"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import write_earlier_version

from stsg.cli import main
from stsg.config import Dims

ROOT = Path(__file__).resolve().parents[1]


def _inspect(data, split):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "inspect_benchmark.py"),
                           str(data), "--split", split],
                          capture_output=True, text=True, env=env, check=False)


def _tiny_split(tmp_path) -> Path:
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("split.train_sequences = 2\nsplit.val_sequences = 1\n"
                   "split.test_sequences = 3\n")
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--seed", "7", "--out", str(data)]) == 0
    return data


def test_inspect_benchmark_summarises_a_generated_split(tmp_path):
    data = _tiny_split(tmp_path)
    proc = _inspect(data, "test")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("test: 3 sequences, 24 frames, ")
    assert "predicate distribution:" in proc.stdout and "event distribution:" in proc.stdout
    lines = (data / "test.jsonl").read_text().splitlines()[1:]
    det_object = [i for line in lines for i in json.loads(line)["det_object"]]
    named = sum(i >= 0 for i in det_object) / len(det_object)
    size = sum(len(line) + 1 for line in lines) / 3
    assert 0.5 < named < 1.0
    assert proc.stdout.splitlines()[2] == (f"format version 3, {size:.0f} bytes/sequence, "
                                           f"{named:.3f} of detections name their gt object")


@pytest.mark.parametrize("version", [1, 2])
def test_inspect_benchmark_reports_a_split_of_an_earlier_version(tmp_path, version):
    # a version-2 file ended in a KeyError traceback once the script read
    # the raw lines of version 3
    data = _tiny_split(tmp_path)
    path = data / "test.jsonl"
    write_earlier_version(path, path, version, Dims())
    proc = _inspect(data, "test")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: {path}:1: dataset format version {version} is no longer "
                           f"read; regenerate the split with `stsg gen` (the same config and "
                           f"seed give the same sequences)\n")


def test_inspect_benchmark_reports_a_missing_split(tmp_path):
    data = _tiny_split(tmp_path)
    (data / "val.jsonl").unlink()
    proc = _inspect(data, "val")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {data / 'val.jsonl'}: no such dataset file\n"


def test_inspect_benchmark_summarises_a_split_without_triplets(tmp_path):
    data = _tiny_split(tmp_path)
    path = data / "test.jsonl"
    header, *records = path.read_text().splitlines()
    records = [json.loads(line) for line in records]
    for record in records:
        record.update(triplets=[], n_triplets=[0] * len(record["n_triplets"]))
    path.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")
    proc = _inspect(data, "test")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("test: 3 sequences, 24 frames, 0 gt triplets\n")
    shares = proc.stdout.split("predicate distribution:\n")[1].split("\n\n")[0].splitlines()
    assert shares and all(line.split()[-2:] == ["0", "0.000"] for line in shares)


def test_reproduce_trends_writes_every_report(tmp_path):
    # a tiny benchmark: 16 train, 2 val and 2 test sequences
    out = tmp_path / "results"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_trends.py"),
                           "--out", str(out), "--seeds", "1", "--epochs", "1",
                           "--train-sequences", "4", "--benchmark-sequences", "20"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    kinds = {name: json.loads((out / f"{name}.json").read_text())["kind"]
             for name in ("ablation", "bank", "efficiency")}
    assert kinds == {"ablation": "ablation-report", "bank": "bank-report",
                     "efficiency": "efficiency-report"}
    assert len((out / "benchmark" / "test.jsonl").read_text().splitlines()) == 1 + 2
