"""Command-line entry point.

Subcommands: gen, train, eval, infer, ablate, flops, gradcheck, bank.
Exit codes: 0 success, 2 usage error (argparse), 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import io
from .config import (
    MODES,
    Dims,
    NoiseConfig,
    RunConfig,
    WorldConfig,
    config_with,
    load_config,
)
from .errors import ConfigError, ContractError, DataFormatError, ShapeError, TrainingError
from .featurebank import (
    BANK_VARIANTS,
    build_feature_bank,
    classify_events,
    event_mean_ap,
    train_event_head,
)
from .metrics import FrameEval, count_params_flops, evaluate, rank_triplets, recall_at_k
from .params import ModelParams
from .synthgen import generate_scene
from .temporal import forward_sequence, to_predictions
from .training import grad_check, train

ABLATION_VARIANTS = [
    ("spatial", 1, "spatial-only"),
    ("sparse", 1, "sparse[k=1]"),
    ("sparse", 2, "sparse[k=2]"),
    ("sparse", 3, "sparse[k=3]"),
    ("dense", 1, "dense"),
    ("tracking", 1, "tracking"),
]


def _gen_one(dims: Dims, world: WorldConfig, base_seed: int, index: int):
    return generate_scene(dims, world, base_seed * 1_000_000 + index)


# set once in each worker process by the pool initializer
_worker_fn = None


def _install_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _apply_worker_fn(item):
    return _worker_fn(item)


def _parallel_map(fn, items, jobs: int, chunksize: int | None = None):
    """[fn(x) for x in items], across `jobs` worker processes; order is kept.

    fn, with whatever data it binds, reaches each worker once (through the
    pool initializer) rather than with every item.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (jobs * 4))
    with Pool(processes=min(jobs, len(items)),
              initializer=_install_worker_fn, initargs=(fn,)) as pool:
        return pool.map(_apply_worker_fn, items, chunksize=chunksize)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    overrides = {}
    for name in ("mode", "variant", "k", "epochs", "batch_size", "learning_rate",
                 "optimizer", "sequences", "train_seed"):
        value = getattr(args, name, None)
        if value is not None:
            overrides["seed" if name == "train_seed" else name] = value
    if overrides:
        cfg = config_with(cfg, **overrides)
    cfg.validate()
    return cfg


def _serve(sequences, params: ModelParams, mode: str, variant: str, k: int, dims: Dims):
    """(sequence, its per-frame predictions) for each sequence, in order.

    `forward_sequence` and `to_predictions` are looked up in this module's
    globals at each call, so a wrapper bound to those names sees every call.
    """
    for seq in sequences:
        yield seq, to_predictions(forward_sequence(seq, params, mode, variant, k), dims)


def _forward_frames(sequences, params: ModelParams, mode: str, variant: str,
                    k: int, dims: Dims, constraint: bool = False) -> list[FrameEval]:
    """Ranked predictions per frame; constraint=True ranks only the best
    triplet per pair, which serves with-constraint metrics alone."""
    frames: list[FrameEval] = []
    for seq, preds in _serve(sequences, params, mode, variant, k, dims):
        for pred, frame in zip(preds, seq.frames):
            frames.append(FrameEval(rank_triplets(pred, constraint=constraint),
                                    list(frame.triplets), list(frame.objects)))
    return frames


def _print_report_table(headers, rows) -> None:
    print(io.format_table(headers, rows))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = {"train": cfg.split.train_sequences, "val": cfg.split.val_sequences,
              "test": cfg.split.test_sequences}
    start = 0
    for split in ("train", "val", "test"):
        indices = list(range(start, start + counts[split]))
        seqs = _parallel_map(partial(_gen_one, cfg.dims, cfg.world, cfg.seed),
                             indices, args.jobs)
        io.write_split(out / f"{split}.jsonl", cfg, split, seqs)
        start += counts[split]
    print(f"wrote {sum(counts.values())} sequences to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _, data = io.load_split(args.data, "train")
    if cfg.train.sequences:
        data = data[: cfg.train.sequences]
    eval_fn = None
    if not args.no_val:
        _, val = io.load_split(args.data, "val")
        val = val[: args.val_sequences] if args.val_sequences else val

        def eval_fn(params):
            frames = _forward_frames(val, params, cfg.train.mode, cfg.train.variant,
                                     cfg.train.k, cfg.dims, constraint=True)
            return recall_at_k(frames, 20, cfg.train.mode, constraint=True)

    result = train(data, cfg, eval_fn=eval_fn)
    log = [
        {"epoch": e.epoch, "train_loss": e.train_loss, "val_recall20": e.val_recall20}
        for e in result.log
    ]
    io.write_checkpoint(args.out, cfg, result.params, log)
    io.write_train_log(Path(args.out).with_suffix(".log.json"), cfg, log)
    if log:
        last = log[-1]
        val_txt = "" if last["val_recall20"] is None else f", val R@20 {last['val_recall20']:.4f}"
        print(f"trained {cfg.train.epochs} epochs on {len(data)} sequences; "
              f"final loss {last['train_loss']:.4f}{val_txt}")
    print(f"checkpoint written to {args.out}")
    return 0


def _frames_from_prediction_file(preds_path: str, sequences) -> list[FrameEval]:
    path = Path(preds_path)
    _, records = io.load_predictions(path)
    if len(records) != len(sequences):
        raise DataFormatError(
            f"{path}: {len(records)} prediction records for {len(sequences)} sequences"
        )
    frames: list[FrameEval] = []
    for lineno, (record, seq) in enumerate(zip(records, sequences), start=2):
        seed = io._field(record, "seq_seed", path, lineno)
        if type(seed) is not int:
            raise DataFormatError(f"{path}:{lineno}: field 'seq_seed' must be an integer, "
                                  f"got {seed!r}")
        if seed != seq.seed:
            raise DataFormatError(
                f"{path}:{lineno}: sequence seed {seed} does not match dataset seed {seq.seed}"
            )
        frame_records = io._field(record, "frames", path, lineno)
        if not isinstance(frame_records, list) or len(frame_records) != len(seq.frames):
            raise DataFormatError(f"{path}:{lineno}: field 'frames' must list the sequence's "
                                  f"{len(seq.frames)} frames")
        for fr, frame in zip(frame_records, seq.frames):
            frames.append(FrameEval(io.ranked_from_frame_json(fr, path, lineno),
                                    list(frame.triplets), list(frame.objects)))
    return frames


def cmd_eval(args) -> int:
    if bool(args.ckpt) == bool(args.preds):
        raise ConfigError("eval: give exactly one of --ckpt or --preds")
    _, seqs = io.load_split(args.data, args.split)
    constraint = args.constraint == "with"
    if args.ckpt:
        cfg, params, _ = io.load_checkpoint(args.ckpt)
        mode = args.mode or cfg.train.mode
        variant = args.variant or cfg.train.variant
        k = args.k or cfg.train.k
        frames = _forward_frames(seqs, params, mode, variant, k, cfg.dims)
        config_echo = cfg.to_flat_dict()
    else:
        header, _ = io.load_predictions(args.preds)
        file_mode = header.get("mode")
        if args.mode and file_mode and args.mode != file_mode:
            raise ConfigError(
                f"eval: predictions were produced in mode {file_mode!r}, not {args.mode!r}"
            )
        mode = args.mode or file_mode
        if mode is None:
            raise ConfigError("eval: --mode required when the predictions carry none")
        frames = _frames_from_prediction_file(args.preds, seqs)
        config_echo = header.get("config", {})
    metrics = evaluate(frames, mode, constraint)
    doc = {"kind": "eval-report", "split": args.split,
           "mode": mode, "constraint": constraint, "config": config_echo,
           "metrics": metrics}
    keys = [k for k in metrics if k not in ("mode", "constraint")]
    _print_report_table(["metric", "value"], [[k, float(metrics[k])] for k in keys])
    if args.out:
        io.write_report(args.out, doc)
        print(f"report written to {args.out}")
    return 0


def cmd_infer(args) -> int:
    cfg, params, _ = io.load_checkpoint(args.ckpt)
    _, seqs = io.load_split(args.data, args.split)
    mode = args.mode or cfg.train.mode
    variant = args.variant or cfg.train.variant
    k = args.k or cfg.train.k
    records = [
        {"seq_seed": seq.seed,
         "frames": [io.frame_prediction_to_json(p, rank_triplets(p, constraint=False),
                                                args.include_features) for p in preds]}
        for seq, preds in _serve(seqs, params, mode, variant, k, cfg.dims)
    ]
    header = {"mode": mode, "variant": variant, "k": k, "split": args.split,
              "seed": cfg.train.seed, "include_features": bool(args.include_features),
              "config": cfg.to_flat_dict()}
    io.write_predictions(args.out, header, records)
    print(f"predictions for {len(seqs)} sequences written to {args.out}")
    return 0


def _ablation_cell(cfg: RunConfig, train_data, test_data, cell) -> dict[str, float]:
    """Train one (variant, k, seed) cell in sgdet; R@20 with constraint per mode."""
    variant, k, seed = cell
    result = train(train_data, config_with(cfg, mode="sgdet", variant=variant, k=k, seed=seed))
    return {
        mode: recall_at_k(_forward_frames(test_data, result.params, mode, variant, k, cfg.dims,
                                          constraint=True), 20, mode, constraint=True)
        for mode in MODES
    }


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    if args.jobs < 1:
        raise ConfigError(f"ablate: --jobs must be >= 1, got {args.jobs}")
    _, train_data = io.load_split(args.data, "train")
    _, test_data = io.load_split(args.data, "test")
    train_data = train_data[: args.train_sequences]
    test_data = test_data[: args.test_sequences] if args.test_sequences else test_data
    # the cells are independent and deterministic, so the results (collected
    # in cell order) do not depend on the number of workers
    cells = [(variant, k, cfg.train.seed + s)
             for variant, k, _ in ABLATION_VARIANTS for s in range(args.seeds)]
    results = _parallel_map(
        partial(_ablation_cell, config_with(cfg, epochs=args.epochs), train_data, test_data),
        cells, args.jobs, chunksize=1)
    rows = []
    for i, (_, _, label) in enumerate(ABLATION_VARIANTS):
        cell_results = results[i * args.seeds:(i + 1) * args.seeds]
        per_mode = {mode: [r[mode] for r in cell_results] for mode in MODES}
        rows.append({
            "variant": label,
            "predcls_r20": float(np.mean(per_mode["predcls"])),
            "sgcls_r20": float(np.mean(per_mode["sgcls"])),
            "sgdet_r20": float(np.mean(per_mode["sgdet"])),
            "per_seed_sgdet_r20": per_mode["sgdet"],
        })
    doc = {"kind": "ablation-report", "seeds": args.seeds, "epochs": args.epochs,
           "train_sequences": len(train_data), "test_sequences": len(test_data),
           "config": cfg.to_flat_dict(), "rows": rows}
    _print_report_table(
        ["variant", "PredCls-R@20", "SGCls-R@20", "SGDet-R@20"],
        [[r["variant"], r["predcls_r20"], r["sgcls_r20"], r["sgdet_r20"]] for r in rows],
    )
    if args.out:
        io.write_report(args.out, doc)
        print(f"report written to {args.out}")
    return 0


def cmd_flops(args) -> int:
    cfg = _resolve_config(args)
    rows = []
    doc_rows = []
    for n in range(1, 9):
        sparse = count_params_flops(cfg.dims, n, "sparse", k=args.k,
                                    gcn_layers=cfg.train.gcn_layers)
        dense = count_params_flops(cfg.dims, n, "dense",
                                   gcn_layers=cfg.train.gcn_layers)
        ratio = dense.flops_per_frame / sparse.flops_per_frame if sparse.flops_per_frame else 1.0
        rows.append([n, sparse.parameter_count, sparse.flops_per_frame,
                     dense.flops_per_frame, f"{ratio:.3f}"])
        doc_rows.append({
            "n_objects": n,
            "parameter_count": sparse.parameter_count,
            "sparse_flops_per_frame": sparse.flops_per_frame,
            "dense_flops_per_frame": dense.flops_per_frame,
            "dense_over_sparse": ratio,
        })
    _print_report_table(
        ["N", "params", f"flops sparse[k={args.k}]", "flops dense", "dense/sparse"], rows
    )
    doc = {"kind": "efficiency-report", "k": args.k, "config": cfg.to_flat_dict(),
           "rows": doc_rows}
    if args.out:
        io.write_report(args.out, doc)
        print(f"report written to {args.out}")
    return 0


def gradcheck_sample(cfg: RunConfig, n_objects: int = 3, frames: int = 2, seed: int = 2024):
    world = WorldConfig(
        n_objects_min=n_objects, n_objects_max=n_objects, frames=frames,
        noise=NoiseConfig(box_jitter_sigma=0.01, label_confusion_prob=0.2,
                          miss_prob=0.0, false_positive_rate=0.0, occlusion_prob=0.0),
    )
    return generate_scene(cfg.dims, world, seed)


def cmd_gradcheck(args) -> int:
    cfg = _resolve_config(args)
    sample = gradcheck_sample(cfg, n_objects=args.objects, frames=args.frames,
                              seed=cfg.seed)
    params = ModelParams.init(cfg.dims, seed=cfg.train.seed,
                              gcn_layers=cfg.train.gcn_layers)
    worst = 0.0
    for variant in args.variants.split(","):
        err = grad_check(sample, params, mode=cfg.train.mode, variant=variant.strip(),
                         k=cfg.train.k, lambda_node=cfg.train.lambda_node,
                         max_entries=args.entries, seed=cfg.seed)
        print(f"{variant.strip():8s} max relative error {err:.3e}")
        worst = max(worst, err)
    if worst >= args.tol:
        print(f"gradcheck FAILED: {worst:.3e} >= {args.tol:.1e}", file=sys.stderr)
        return 1
    print(f"gradcheck passed at tolerance {args.tol:.1e}")
    return 0


def cmd_bank(args) -> int:
    cfg, params, _ = io.load_checkpoint(args.ckpt)
    _, train_seqs = io.load_split(args.data, "train")
    _, test_seqs = io.load_split(args.data, "test")
    if args.train_sequences:
        train_seqs = train_seqs[: args.train_sequences]
    mode = args.mode or cfg.train.mode

    def banks_for(seqs):
        banks = {v: [] for v in BANK_VARIANTS}
        labels = []
        for seq, preds in _serve(seqs, params, mode, cfg.train.variant, cfg.train.k, cfg.dims):
            for v in BANK_VARIANTS:
                banks[v].append(build_feature_bank(preds, v, cfg.dims))
            labels.append(seq.event_labels)
        return banks, np.stack(labels)

    train_banks, train_labels = banks_for(train_seqs)
    test_banks, test_labels = banks_for(test_seqs)
    rows = []
    for v in BANK_VARIANTS:
        aps = []
        for s in range(args.seeds):
            head = train_event_head(train_banks[v], train_labels,
                                    n_events=cfg.world.n_events, seed=s,
                                    epochs=args.head_epochs)
            scores = np.stack([classify_events(b, head) for b in test_banks[v]])
            aps.append(event_mean_ap(scores, test_labels))
        rows.append({"bank": v, "mean_ap": float(np.mean(aps)), "per_seed": aps})
    _print_report_table(["bank", "event mAP"], [[r["bank"], r["mean_ap"]] for r in rows])
    doc = {"kind": "bank-report", "mode": mode, "seeds": args.seeds,
           "config": cfg.to_flat_dict(), "rows": rows}
    if args.out:
        io.write_report(args.out, doc)
        print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stsg",
                                     description="dynamic scene graph pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("gen", help="write the synthetic benchmark")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--jobs", type=int, default=1, help="sequence-level parallelism")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--variant", choices=("spatial", "sparse", "dense", "tracking"))
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--sequences", type=int, help="limit training sequences")
    p.add_argument("--train-seed", dest="train_seed", type=int)
    p.add_argument("--val-sequences", dest="val_sequences", type=int)
    p.add_argument("--no-val", dest="no_val", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or a predictions file")
    p.add_argument("--ckpt")
    p.add_argument("--preds")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--variant", choices=("spatial", "sparse", "dense", "tracking"))
    p.add_argument("--k", type=int)
    p.add_argument("--constraint", choices=("with", "no"), default="with")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="write per-frame predictions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--variant", choices=("spatial", "sparse", "dense", "tracking"))
    p.add_argument("--k", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--include-features", action="store_true",
                   help="embed fused/gcn features for bank building")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("ablate", help="compare link-selection variants")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=14)
    p.add_argument("--train-sequences", dest="train_sequences", type=int, default=150)
    p.add_argument("--test-sequences", dest="test_sequences", type=int)
    p.add_argument("--jobs", type=int, default=_available_cpus(),
                   help="cells trained in parallel (default: the CPUs available)")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("flops", help="analytic efficiency table over N=1..8")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    common(p)
    p.add_argument("--variants", default="sparse,dense")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--k", type=int)
    p.add_argument("--objects", type=int, default=3)
    p.add_argument("--frames", type=int, default=2)
    p.add_argument("--entries", type=int, default=600)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bank", help="feature-bank event classification comparison")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--head-epochs", dest="head_epochs", type=int, default=300)
    p.add_argument("--train-sequences", dest="train_sequences", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, DataFormatError, ShapeError, TrainingError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
