"""Command-line entry point.

Subcommands: gen, train, eval, infer, ablate, flops, gradcheck, bank.
Exit codes: 0 success, 2 usage error (argparse), 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import replace
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import io
from .config import (
    MODES,
    VARIANTS,
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
    pooled_feature,
    train_event_head,
)
from .metrics import FrameEval, count_params_flops, evaluate, rank_triplets, recall_at_k
from .params import ModelParams
from .scene import SceneSequence
from .synthgen import generate_scene
from .temporal import FramePrediction, forward_sequence
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


def _gen_line(dims: Dims, world: WorldConfig, base_seed: int, index: int) -> str:
    """Sequence `index` as its finished dataset line: what a `gen` worker
    sends back, so the encoding runs in the workers too."""
    return io.sequence_line(_gen_one(dims, world, base_seed, index))


# set once in each worker process by the pool initializer
_worker_fn = None


def _install_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _apply_worker_fn(item):
    return _worker_fn(item)


def _parallel_imap(fn, items, jobs: int, chunksize: int | None = None):
    """Yield fn(x) for x in items, in order, each as soon as it and those
    before it are done.

    The work runs in min(jobs, len(items), the CPUs available) worker
    processes; with one, in this process, through the same stream. fn, with
    whatever data it binds, reaches each worker once (through the pool
    initializer) rather than with every item. Close the iterator (or run it
    out, or let fn's error end it) to stop the workers: the tasks not yet
    started are cancelled, and each worker ends once its task is done.
    """
    workers = min(jobs, len(items), _available_cpus())
    if workers <= 1:
        yield from map(fn, items)
        return
    if chunksize is None:
        chunksize = max(1, len(items) // (workers * 4))
    # not multiprocessing.Pool: its exit kills the workers, and one killed
    # while it holds the result queue's lock leaves the exit waiting forever
    pool = ProcessPoolExecutor(workers, initializer=_install_worker_fn, initargs=(fn,))
    try:
        yield from pool.map(_apply_worker_fn, items, chunksize=chunksize)
    finally:
        pool.shutdown(cancel_futures=True)


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


def _load_split(data_dir, split: str, dims: Dims) -> list[SceneSequence]:
    """A split's sequences; its records must be shaped by the run's dims.

    The model's d does not shape any record, so only g, c and h are compared.
    """
    header, seqs = io.load_split(data_dir, split)
    data_dims = io.runconfig_from_flat(header["config"]).dims
    for name in ("g", "c", "h"):
        want, got = getattr(dims, name), getattr(data_dims, name)
        if want != got:
            raise ConfigError(f"dims.{name}: the run uses {want}, but the {split} split "
                              f"in {data_dir} was generated with {got}")
    return seqs


def _serve(sequences, params: ModelParams, mode: str, variant: str, k: int):
    """(sequence, its per-frame predictions) for each sequence, in order.

    `forward_sequence` is looked up in this module's globals at each call, so
    a wrapper bound to that name sees every call.
    """
    for seq in sequences:
        yield seq, forward_sequence(seq, params, mode, variant, k)


def to_predictions(frames: list[FramePrediction], dims: Dims) -> list[FramePrediction]:
    """`forward_sequence`'s frames, unchanged. perfbench's serving workload is
    the only caller; ROADMAP item 1 removes its call and this function."""
    return frames


def _frame_evals(sequences, ranked) -> list[FrameEval]:
    """One FrameEval per frame; `ranked` holds each sequence's ranked frames."""
    return [FrameEval(r, frame.triplets, frame.objects)
            for seq, seq_ranked in zip(sequences, ranked)
            for r, frame in zip(seq_ranked, seq.frames)]


def _forward_frames(sequences, params: ModelParams, mode: str, variant: str,
                    k: int) -> list[FrameEval]:
    """Each frame's ranked predictions, unconstrained: evaluation applies the
    graph constraint to the whole corpus, and its first read of a
    sequence's triplets sorts them, once (`temporal.rank_frames`)."""
    return _frame_evals(sequences, ([pred.ranked for pred in preds]
                                    for _, preds in _serve(sequences, params, mode, variant, k)))


def _checkpoint_run(args):
    """A checkpoint's config and parameters, the split to serve, and the mode,
    variant and k of the run: the flags where given, else the checkpoint's."""
    cfg, params, _ = io.load_checkpoint(args.ckpt)
    seqs = _load_split(args.data, args.split, cfg.dims)
    t = cfg.train
    k = t.k if args.k is None else args.k
    return cfg, params, seqs, args.mode or t.mode, args.variant or t.variant, k


def _check_counts(command: str, args, **lowest) -> None:
    """Each named count flag, where given, is at least its lowest value."""
    for name, low in lowest.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise ConfigError(f"{command}: --{name.replace('_', '-')} must be >= {low}, "
                              f"got {value}")


def _check_out_dir(args) -> None:
    """The directory of a command's output file exists, checked before any
    work starts; `gen` makes its own."""
    out = getattr(args, "out", None)
    if out and args.command != "gen" and not Path(out).parent.is_dir():
        raise ConfigError(f"{Path(out).parent}: no such directory")


def _report(out, doc, headers, rows) -> None:
    """Print a report's table; write the report to `out` when given."""
    print(io.format_table(headers, rows))
    if out:
        io.write_report(out, doc)
        print(f"report written to {out}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    _check_counts("gen", args, jobs=1)
    cfg = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = {"train": cfg.split.train_sequences, "val": cfg.split.val_sequences,
              "test": cfg.split.test_sequences}
    # one ordered stream of finished lines fills the splits in turn: this
    # process holds the lines of a few tasks at a time, never a whole split
    lines = _parallel_imap(partial(_gen_line, cfg.dims, cfg.world, cfg.seed),
                           range(sum(counts.values())), args.jobs)
    with closing(lines):
        for split, count in counts.items():
            io.write_split_lines(out / f"{split}.jsonl", cfg, split, count, islice(lines, count))
    print(f"wrote {sum(counts.values())} sequences to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _check_counts("train", args, val_sequences=0)
    data = _load_split(args.data, "train", cfg.dims)
    if cfg.train.sequences:
        data = data[: cfg.train.sequences]
    eval_fn = None
    if not args.no_val:
        val = _load_split(args.data, "val", cfg.dims)
        val = val[: args.val_sequences] if args.val_sequences else val

        def eval_fn(params):
            frames = _forward_frames(val, params, cfg.train.mode, cfg.train.variant, cfg.train.k)
            return recall_at_k(frames, 20, cfg.train.mode, constraint=True)

    result = train(data, cfg, eval_fn=eval_fn)
    log = [
        {"epoch": e.epoch, "train_loss": e.train_loss, "val_recall20": e.val_recall20}
        for e in result.log
    ]
    io.write_checkpoint(args.out, cfg, result.params, log)
    # the train log also splits each epoch's loss, counts its clipped steps
    # and gives the median and max of its steps' pre-clip gradient norms
    io.write_train_log(Path(args.out).with_suffix(".log.json"), cfg, [
        {**entry, "relation_loss": e.relation_loss, "node_loss": e.node_loss,
         "link_loss": e.link_loss, "clip_hits": e.clip_hits,
         "grad_norm_median": e.grad_norm_median, "grad_norm_max": e.grad_norm_max}
        for entry, e in zip(log, result.log)
    ])
    if log:
        last = log[-1]
        val_txt = "" if last["val_recall20"] is None else f", val R@20 {last['val_recall20']:.4f}"
        print(f"trained {cfg.train.epochs} epochs on {len(data)} sequences; "
              f"final loss {last['train_loss']:.4f}{val_txt}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if bool(args.ckpt) == bool(args.preds):
        raise ConfigError("eval: give exactly one of --ckpt or --preds")
    if args.preds:   # a predictions file names the model that made it
        for flag in ("variant", "k"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"eval: --{flag} applies only to --ckpt, not to --preds")
    constraint = args.constraint == "with"
    if args.ckpt:
        cfg, params, seqs, mode, variant, k = _checkpoint_run(args)
        frames = _forward_frames(seqs, params, mode, variant, k)
        config_echo = cfg.to_flat_dict()
    else:
        split_header, seqs = io.load_split(args.data, args.split)
        dims = io.runconfig_from_flat(split_header["config"]).dims
        file_mode, config_echo, ranked = io.ranked_predictions(args.preds, seqs, dims, args.split)
        if args.mode and file_mode and args.mode != file_mode:
            raise ConfigError(
                f"eval: predictions were produced in mode {file_mode!r}, not {args.mode!r}"
            )
        mode = args.mode or file_mode
        if mode is None:
            raise ConfigError("eval: --mode required when the predictions carry none")
        frames = _frame_evals(seqs, ranked)
    metrics = evaluate(frames, mode, constraint)
    doc = {"kind": "eval-report", "split": args.split,
           "mode": mode, "constraint": constraint, "config": config_echo,
           "metrics": metrics}
    keys = [k for k in metrics if k not in ("mode", "constraint")]
    _report(args.out, doc, ["metric", "value"], [[k, float(metrics[k])] for k in keys])
    return 0


def cmd_infer(args) -> int:
    cfg, params, seqs, mode, variant, k = _checkpoint_run(args)
    records = [
        {"seq_seed": seq.seed,
         "frames": [io.frame_prediction_to_json(p, rank_triplets(p, constraint=False),
                                                args.include_features) for p in preds]}
        for seq, preds in _serve(seqs, params, mode, variant, k)
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
        mode: recall_at_k(_forward_frames(test_data, result.params, mode, variant, k), 20, mode,
                          constraint=True)
        for mode in MODES
    }


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    _check_counts("ablate", args, jobs=1, seeds=1, train_sequences=1, test_sequences=0)
    train_data = _load_split(args.data, "train", cfg.dims)
    test_data = _load_split(args.data, "test", cfg.dims)
    train_data = train_data[: args.train_sequences]
    test_data = test_data[: args.test_sequences] if args.test_sequences else test_data
    # the cells are independent and deterministic, so the results (collected
    # in cell order) do not depend on the number of workers
    cells = [(variant, k, cfg.train.seed + s)
             for variant, k, _ in ABLATION_VARIANTS for s in range(args.seeds)]
    results = list(_parallel_imap(
        partial(_ablation_cell, config_with(cfg, epochs=args.epochs), train_data, test_data),
        cells, args.jobs, chunksize=1))
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
    _report(args.out, doc, ["variant", "PredCls-R@20", "SGCls-R@20", "SGDet-R@20"],
            [[r["variant"], r["predcls_r20"], r["sgcls_r20"], r["sgdet_r20"]] for r in rows])
    return 0


def cmd_flops(args) -> int:
    cfg = _resolve_config(args)
    doc_rows = []
    for n in range(1, 9):
        sparse = count_params_flops(cfg.dims, n, "sparse", k=args.k,
                                    gcn_layers=cfg.train.gcn_layers)
        dense = count_params_flops(cfg.dims, n, "dense",
                                   gcn_layers=cfg.train.gcn_layers)
        ratio = dense.flops_per_frame / sparse.flops_per_frame if sparse.flops_per_frame else 1.0
        doc_rows.append({
            "n_objects": n,
            "parameter_count": sparse.parameter_count,
            "sparse_flops_per_frame": sparse.flops_per_frame,
            "dense_flops_per_frame": dense.flops_per_frame,
            "dense_over_sparse": ratio,
        })
    doc = {"kind": "efficiency-report", "k": args.k, "config": cfg.to_flat_dict(),
           "rows": doc_rows}
    _report(args.out, doc,
            ["N", "params", f"flops sparse[k={args.k}]", "flops dense", "dense/sparse"],
            [[*list(r.values())[:4], f"{r['dense_over_sparse']:.3f}"] for r in doc_rows])
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
    _check_counts("bank", args, seeds=1, head_epochs=1, train_sequences=0)
    cfg, params, _ = io.load_checkpoint(args.ckpt)
    train_seqs = _load_split(args.data, "train", cfg.dims)
    test_seqs = _load_split(args.data, "test", cfg.dims)
    if args.train_sequences:
        train_seqs = train_seqs[: args.train_sequences]
    mode = args.mode or cfg.train.mode

    def pooled_for(seqs):
        """Each variant's (sequences, m) pooled bank features, and the event labels."""
        pooled = {v: [] for v in BANK_VARIANTS}
        labels = []
        for seq, preds in _serve(seqs, params, mode, cfg.train.variant, cfg.train.k):
            for v in BANK_VARIANTS:
                pooled[v].append(pooled_feature(build_feature_bank(preds, v, cfg.dims)))
            labels.append(seq.event_labels)
        return {v: np.stack(p) for v, p in pooled.items()}, np.stack(labels)

    train_pooled, train_labels = pooled_for(train_seqs)
    test_pooled, test_labels = pooled_for(test_seqs)
    rows = []
    for v in BANK_VARIANTS:
        aps = []
        for s in range(args.seeds):
            head = train_event_head(train_pooled[v], train_labels,
                                    n_events=cfg.world.n_events, seed=s,
                                    epochs=args.head_epochs)
            # one product per pooled vector: a product of the stacked matrix
            # differs from the per-row products in the last bits
            scores = np.stack([classify_events(x, head) for x in test_pooled[v]])
            aps.append(event_mean_ap(scores, test_labels))
        rows.append({"bank": v, "mean_ap": float(np.mean(aps)), "per_seed": aps})
    doc = {"kind": "bank-report", "mode": mode, "seeds": args.seeds,
           "config": cfg.to_flat_dict(), "rows": rows}
    _report(args.out, doc, ["bank", "event mAP"], [[r["bank"], r["mean_ap"]] for r in rows])
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
    p.add_argument("--jobs", type=int, default=_available_cpus(),
                   help="worker processes that generate and encode the sequences "
                        "(default: the CPUs available; never more than those or than "
                        "the sequences); the files are the same for every value")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--sequences", type=int,
                   help="train on the first N sequences (default: the config's "
                        "train.sequences; 0: the whole split)")
    p.add_argument("--train-seed", dest="train_seed", type=int)
    p.add_argument("--val-sequences", dest="val_sequences", type=int,
                   help="validate on the first N sequences (default or 0: the whole split)")
    p.add_argument("--no-val", dest="no_val", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or a predictions file")
    p.add_argument("--ckpt")
    p.add_argument("--preds")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--k", type=int)
    p.add_argument("--constraint", choices=("with", "no"), default="with")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="write per-frame predictions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--variant", choices=VARIANTS)
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
    p.add_argument("--test-sequences", dest="test_sequences", type=int,
                   help="evaluate on the first N test sequences "
                        "(default or 0: the whole split)")
    p.add_argument("--jobs", type=int, default=_available_cpus(),
                   help="cells trained in parallel (default: the CPUs available; never "
                        "more workers than those or than the cells)")
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
    p.add_argument("--train-sequences", dest="train_sequences", type=int,
                   help="train the event heads on the first N sequences "
                        "(default or 0: the whole split)")
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
        _check_out_dir(args)
        return args.fn(args)
    except (ConfigError, ContractError, DataFormatError, ShapeError, TrainingError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
