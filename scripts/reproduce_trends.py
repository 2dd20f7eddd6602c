#!/usr/bin/env python3
"""End-to-end trend reproduction: benchmark, variant ablation, feature banks.

Writes the dataset and all reports under ./results (override with --out).
With default settings and --jobs 1 it runs in about 30 s on one core of an
AMD EPYC server CPU; without --jobs, gen and ablate use the CPUs available.
"""

import argparse
import sys
from pathlib import Path

from stsg.cli import main as stsg_main


def run(args: list[str]) -> None:
    code = stsg_main(args)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seeds", type=int, default=5, help="training seeds per variant")
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--train-sequences", type=int, default=120)
    ap.add_argument("--benchmark-sequences", type=int, default=1000,
                    help="sequences generated: a tenth each for val and test, the rest train")
    ap.add_argument("--jobs", type=int,
                    help="worker processes for gen and for the ablation cells "
                         "(default: each command's own, the CPUs available)")
    args = ap.parse_args()
    if args.benchmark_sequences < 10:
        ap.error("--benchmark-sequences must be at least 10")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "benchmark"
    held_out = args.benchmark_sequences // 10
    split = out / "benchmark.cfg"
    split.write_text(f"split.train_sequences = {args.benchmark_sequences - 2 * held_out}\n"
                     f"split.val_sequences = {held_out}\n"
                     f"split.test_sequences = {held_out}\n")

    print("== generating benchmark ==")
    # --jobs only where given, so that the commands' defaults apply
    jobs = [] if args.jobs is None else ["--jobs", str(args.jobs)]
    run(["gen", "--config", str(split), "--out", str(data), "--seed", str(args.seed), *jobs])

    print("== variant ablation (this is the long step) ==")
    run(["ablate", "--data", str(data), "--seeds", str(args.seeds),
         "--epochs", str(args.epochs), "--train-sequences", str(args.train_sequences),
         *jobs, "--out", str(out / "ablation.json")])

    print("== training the bank checkpoint ==")
    run(["train", "--data", str(data), "--out", str(out / "model.json"),
         "--mode", "sgdet", "--variant", "sparse", "--k", "1",
         "--epochs", str(args.epochs), "--batch-size", "4",
         "--sequences", str(args.train_sequences)])

    print("== feature-bank event classification ==")
    run(["bank", "--ckpt", str(out / "model.json"), "--data", str(data),
         "--seeds", str(args.seeds), "--train-sequences", "300",
         "--out", str(out / "bank.json")])

    print("== efficiency accounting ==")
    run(["flops", "--out", str(out / "efficiency.json")])

    print(f"\nall reports under {out}/")


if __name__ == "__main__":
    main()
