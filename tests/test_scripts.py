"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from stsg.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_inspect_benchmark_summarises_a_generated_split(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("split.train_sequences = 2\nsplit.val_sequences = 1\n"
                   "split.test_sequences = 3\n")
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--seed", "7", "--out", str(data)]) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "inspect_benchmark.py"),
                           str(data), "--split", "test"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("test: 3 sequences, 24 frames, ")
    assert "predicate distribution:" in proc.stdout and "event distribution:" in proc.stdout


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
