"""Workloads of the stsg benchmark: set-up, the measured pass, and output checks.

Every workload follows the same shape. Set-up runs `stsg gen` through the CLI
entry point, loads the splits with `io.load_split` and, for `infer_eval`,
trains the checkpoint that the pass serves. A pass then runs each cell: train
it with `training.train` (or take the set-up checkpoint); a cell that serves
then infers every test sequence through the path `stsg infer` takes, writes
the predictions file, and evaluates it through the path `stsg eval --preds`
takes. The workloads differ in which cells they train and serve, and in how
much of the pass is training, ranking or evaluation; README.md says why each
was chosen.

The package is always reached through module attributes (`cli.forward_sequence`,
`training.train`, ...) at call time, so a tracer that rebinds those names sees
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as text_io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from stsg import cli, config, metrics, synthgen, training
from stsg import io as sio
from stsg.errors import TrainingError
from stsg.params import ModelParams

from clock import Clock
from tracer import Tracer

SETUP_REPEATS = 2
# Each test sequence is inferred once per sweep, and its latency is the fastest
# sweep's. A sample takes ~15 ms, so a few-ms stall of the shared host (which
# the calibration bursts of clock.py are too short to see) would otherwise
# land in more than a tenth of some runs' samples and move their p90.
SWEEPS = 2
CHECK_SEQUENCES = 3       # test sequences re-run through the CLI in the output check
TRAIN_SEED = 0            # model seed of every trained cell, as in `stsg ablate`

# package functions after whose every call an untraced run ticks its clock, so
# that `stsg gen` and `evaluate` are scaled piece by piece (clock.py)
PACE = ((cli, "generate_scene"), (sio, "write_split"), (sio, "load_split"),
        (sio, "load_predictions"), (metrics, "recall_at_k"), (metrics, "mean_recall"),
        (metrics, "relation_map"))


@dataclass(frozen=True)
class Cell:
    label: str
    variant: str
    k: int
    train: bool = True        # False: serve the checkpoint trained in set-up
    serve: bool = True        # infer and evaluate the test split with the model


@dataclass(frozen=True)
class Workload:
    name: str
    train_sequences: int
    test_sequences: int
    cells: tuple
    epochs: int               # of every training run: pass cells or the set-up checkpoint
    modes: tuple              # inferred, each over the whole test split
    evals: tuple              # (mode, graph constraint) of each eval --preds call
    workers: int = 1          # processes that train the cells of a pass


# Every ablation cell trains; two serve. Serving each surviving model would
# make the infer and eval mix depend on which cells diverge for the seed.
SERVED_ABLATION_CELLS = ("spatial-only", "sparse[k=1]")
ABLATION_CELLS = tuple(Cell(label, variant, k, serve=label in SERVED_ABLATION_CELLS)
                       for variant, k, label in cli.ABLATION_VARIANTS)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_ablation",
            train_sequences=150, test_sequences=50,
            cells=ABLATION_CELLS, epochs=2, modes=("sgdet",),
            evals=(("sgdet", True), ("sgdet", False)),
            workers=2,
        ),
        Workload(
            name="infer_eval",
            train_sequences=40, test_sequences=100,
            cells=(Cell("sparse[k=1]", "sparse", 1, train=False),), epochs=2,
            modes=config.MODES,
            evals=(("sgdet", True), ("sgdet", False), ("sgcls", True), ("predcls", True)),
        ),
    )
}


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def run_config(wl: Workload, seed: int) -> config.RunConfig:
    return config.parse_config_items(config_items(wl, seed))


def config_items(wl: Workload, seed: int) -> dict[str, str]:
    # val is unused; one sequence keeps `gen` from spending time on it
    return {"seed": str(seed), "split.train_sequences": str(wl.train_sequences),
            "split.val_sequences": "1", "split.test_sequences": str(wl.test_sequences)}


def stsg(*argv: str) -> None:
    """Run a CLI command through the entry point, its table output swallowed."""
    with contextlib.redirect_stdout(text_io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise CheckFailed(f"stsg {argv[0]} exited with {code}")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def params_digest(params) -> str:
    return _sha(*(name.encode() + params[name].data.tobytes() for name in sorted(params.names())))


# ---------------------------------------------------------------------------
# set-up


def setup(wl: Workload, seed: int, out: Path, clock: Clock) -> dict:
    """`stsg gen`, split load and, for a cell that does not train in the pass,
    training its checkpoint (infer_eval); timed as one."""
    out.mkdir(parents=True)
    cfg_path = out / "bench.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config_items(wl, seed).items()))
    data = out / "data"
    start = clock.tick()
    stsg("gen", "--config", str(cfg_path), "--out", str(data))
    _, train_seqs = sio.load_split(data, "train")
    _, test_seqs = sio.load_split(data, "test")
    result = {"dir": out, "data": data, "train": train_seqs, "test": test_seqs}
    served = next((cell for cell in wl.cells if not cell.train), None)
    if served is not None:
        cell = served
        cell_cfg = config.config_with(run_config(wl, seed), mode="sgdet", variant=cell.variant,
                                      k=cell.k, epochs=wl.epochs, seed=TRAIN_SEED)
        trained, result["step_rates"] = timed_train(train_seqs, cell_cfg, clock)
        if isinstance(trained, TrainingError):
            raise trained   # nothing to serve; the run cannot measure this workload
        result["params"] = trained.params
        result["ckpt"] = out / "model.json"
        sio.write_checkpoint(result["ckpt"], cell_cfg, trained.params,
                             [{"epoch": e.epoch, "train_loss": e.train_loss} for e in trained.log])
    result["seconds"] = clock.tick() - start
    files = sorted(data.glob("*.jsonl")) + ([result["ckpt"]] if served is not None else [])
    result["digest"] = _sha(*(f.name.encode() + f.read_bytes() for f in files))
    return result


def check_reload(wl: Workload, seed: int, s: dict) -> None:
    """Sequences read back by io.load_split equal freshly generated ones."""
    cfg = run_config(wl, seed)
    index = {"train": 0, "test": wl.train_sequences + 1}   # val holds one sequence
    for split in ("train", "test"):
        for i, loaded in enumerate(s[split][:2]):
            fresh = synthgen.generate_scene(cfg.dims, cfg.world,
                                            seed * 1_000_000 + index[split] + i)
            if sio.sequence_to_json(loaded) != sio.sequence_to_json(fresh):
                raise CheckFailed(f"{split} sequence {i} differs after write_split/load_split")


# ---------------------------------------------------------------------------
# one pass


def frames_from_predictions(path: Path, seqs, limit: int | None = None,
                            clock: Clock | None = None):
    """The `eval --preds` path: read the file back and rebuild ranked lists.

    A `clock` ticks after each sequence's frames.
    """
    _, records = sio.load_predictions(path)
    records = records[:limit]
    seqs = seqs[:limit]
    if len(records) != len(seqs):
        raise CheckFailed(f"{path.name}: {len(records)} records for {len(seqs)} sequences")
    frames = []
    for lineno, (record, seq) in enumerate(zip(records, seqs), start=2):
        if record["seq_seed"] != seq.seed:
            raise CheckFailed(f"{path.name}:{lineno}: sequence seed mismatch")
        for fr, frame in zip(record["frames"], seq.frames):
            frames.append(cli.FrameEval(sio.ranked_from_frame_json(fr, path, lineno),
                                        list(frame.triplets), list(frame.objects)))
        if clock is not None:
            clock.tick()
    return frames


def timed_train(train_seqs, cell_cfg, clock: Clock):
    """`training.train` with a tick of `clock` at each optimizer step.

    A step ends where the training loop calls `training.clip_gradients`, once
    per batch; the tick wraps that name for the call and leaves its arguments
    and result untouched. Returns the result (or the TrainingError that stopped
    it) and the training rate, in sequences per second, of every completed step.
    """
    original = training.clip_gradients
    batch = cell_cfg.train.batch_size
    rates = []
    last = [clock.tick()]

    def clip_then_tick(grads, max_norm):
        result = original(grads, max_norm)
        now = clock.tick()
        rates.append(batch / (now - last[0]))
        last[0] = now
        return result

    training.clip_gradients = clip_then_tick
    try:
        outcome = training.train(train_seqs, cell_cfg)
    except TrainingError as e:
        outcome = e
    finally:
        training.clip_gradients = original
    return outcome, rates


def _steps_run(error: TrainingError, batches_per_epoch: int) -> int:
    """Optimizer steps completed before the batch that raised."""
    found = re.search(r"epoch (\d+), batch (\d+)", str(error))
    if not found:
        return 0
    epoch, batch = int(found.group(1)), int(found.group(2))
    return (epoch - 1) * batches_per_epoch + batch - 1


def train_cell(job: dict, clock: Clock | None = None) -> dict:
    """Train one cell with `training.train` and write its checkpoint.

    In a worker process (no `clock` given) the job times its steps on a
    clock of its own, and `job["trace"]` installs a tracer there whose
    summary comes back with the result.
    """
    clock = clock or Clock()
    if not job["trace"]:
        return _train_cell(job, clock)
    with Tracer() as tracer:
        res = _train_cell(job, clock)
    res["trace"] = tracer.summary()
    return res


def _train_cell(job: dict, clock: Clock) -> dict:
    cell, cell_cfg, train_seqs = job["cell"], job["cell_cfg"], job["train"]
    per_epoch = math.ceil(len(train_seqs) / cell_cfg.train.batch_size)
    planned = cell_cfg.train.epochs * per_epoch
    trained, step_rates = timed_train(train_seqs, cell_cfg, clock)
    res = {"label": cell.label, "attempted": planned, "failed": 0, "failures": [],
           "step_rates": step_rates}
    if isinstance(trained, TrainingError):
        done = _steps_run(trained, per_epoch)
        res["failed"] = planned - done
        res["failures"].append({"cell": cell.label, "op": "train", "error": str(trained),
                                "steps_run": done, "steps_planned": planned})
        res["digest"] = _sha(str(trained).encode())
        return res
    res["arrays"] = trained.params.as_arrays()
    res["ckpt"] = job["out"] / f"{job['slug']}.ckpt.json"
    sio.write_checkpoint(res["ckpt"], cell_cfg, trained.params,
                         [{"epoch": e.epoch, "train_loss": e.train_loss} for e in trained.log])
    return res


def serve_cell(wl: Workload, cell: Cell, cell_cfg, params, test_seqs, out: Path,
               slug: str, clock: Clock) -> dict:
    """Infer the test split along the `stsg infer` path (SWEEPS times) and
    evaluate the file along the `stsg eval --preds` path, once per mode."""
    res = {"attempted": 0, "failed": 0, "failures": [], "latencies_s": [],
           "eval_frames": 0, "eval_s": 0.0, "r20": {}, "preds": {},
           "digest": [params_digest(params)]}
    for mode in wl.modes:
        res["attempted"] += len(test_seqs)
        by_index, best = {}, {}
        for sweep in range(SWEEPS):
            last = clock.tick()
            for i, seq in enumerate(test_seqs):
                if sweep and i not in by_index:
                    continue   # failed in an earlier sweep
                try:
                    outs = cli.forward_sequence(seq, params, mode, cell.variant, cell.k)
                    preds = cli.to_predictions(outs, cell_cfg.dims)
                    record = {"seq_seed": seq.seed, "frames": [
                        sio.frame_prediction_to_json(p, cli.rank_triplets(p, constraint=False),
                                                     False)
                        for p in preds]}
                except Exception as e:  # a failed sequence is counted, the rest still run
                    res["failed"] += 1
                    res["failures"].append({"cell": cell.label, "op": f"infer {mode}",
                                            "seq_seed": seq.seed, "error": repr(e)})
                    by_index.pop(i, None)
                    best.pop(i, None)
                    last = clock.tick()
                    continue
                now = clock.tick()
                if sweep and record != by_index[i]:
                    raise CheckFailed(f"{cell.label}: sequence {seq.seed} inferred differently "
                                      f"in sweep {sweep + 1}")
                by_index[i] = record
                best[i] = min(best.get(i, math.inf), now - last)
                last = now
        res["latencies_s"] += [best[i] for i in sorted(best)]
        records = [by_index[i] for i in sorted(by_index)]
        path = out / f"{slug}.{mode}.preds.jsonl"
        header = {"mode": mode, "variant": cell.variant, "k": cell.k, "split": "test",
                  "seed": cell_cfg.train.seed, "include_features": False,
                  "config": cell_cfg.to_flat_dict()}
        sio.write_predictions(path, header, records)
        res["preds"][mode] = path
        res["digest"].append(_sha(path.read_bytes()))
        for constraint in (c for m, c in wl.evals if m == mode):
            res["attempted"] += 1
            if len(records) != len(test_seqs):
                res["failed"] += 1
                continue
            start = clock.tick()
            try:
                frames = frames_from_predictions(path, test_seqs, clock=clock)
                report = cli.evaluate(frames, mode, constraint)
            except Exception as e:
                res["failed"] += 1
                res["failures"].append({"cell": cell.label, "op": f"eval {mode}",
                                        "error": repr(e)})
                continue
            res["eval_s"] += clock.tick() - start
            res["eval_frames"] += len(frames)
            res["digest"].append(_sha(json.dumps(report, sort_keys=True).encode()))
            if constraint:
                res["r20"][mode] = report["recall@20"]
    return res


def run_pass(wl: Workload, cfg, s: dict, out: Path, clock: Clock, pool=None,
             trace: bool = False) -> dict:
    """One pass: train the cells (in `pool` when given), then serve each model.

    Serving always runs in this process, after training has finished, so no
    latency sample shares the machine with a training worker.
    """
    out.mkdir(parents=True)
    start = clock.tick()
    cell_cfgs = [config.config_with(cfg, mode="sgdet", variant=cell.variant, k=cell.k,
                                    epochs=wl.epochs, seed=TRAIN_SEED) for cell in wl.cells]
    jobs = [{"cell": cell, "cell_cfg": cell_cfg, "out": out, "slug": f"cell{i}",
             "train": s["train"], "trace": trace and pool is not None}
            for i, (cell, cell_cfg) in enumerate(zip(wl.cells, cell_cfgs)) if cell.train]
    trained = iter(pool.map(train_cell, jobs, chunksize=1) if pool is not None
                   else [train_cell(j, clock) for j in jobs])
    cells = [next(trained) if cell.train else
             {"label": cell.label, "attempted": 0, "failed": 0, "failures": [],
              "params": s["params"], "ckpt": s["ckpt"]}
             for cell in wl.cells]
    traces = [c.pop("trace") for c in cells if "trace" in c]
    for i, (cell, cell_cfg, c) in enumerate(zip(wl.cells, cell_cfgs, cells)):
        if "arrays" in c:
            c["params"] = ModelParams.from_arrays(cfg.dims, c.pop("arrays"), cfg.train.gcn_layers)
        if "params" not in c:
            continue   # training diverged: nothing to serve
        params = c.pop("params")
        if not cell.serve:
            c["digest"] = params_digest(params)
            continue
        served = serve_cell(wl, cell, cell_cfg, params, s["test"], out, f"cell{i}", clock)
        c["attempted"] += served.pop("attempted")
        c["failed"] += served.pop("failed")
        c["failures"] += served.pop("failures")
        c.update(served)
    digest = _sha(*(str(c.get("digest")).encode() for c in cells))
    return {"seconds": clock.tick() - start, "cells": cells, "traces": traces,
            "digest": digest}


# ---------------------------------------------------------------------------
# output checks


def check_cli(wl: Workload, seed: int, s: dict, p: dict, out: Path) -> None:
    """The CLI reproduces the pass on a few test sequences.

    `stsg infer` writes the same records as the pass; `stsg eval --preds` and
    `stsg eval --ckpt` report the same metrics, as the README promises, and
    those equal the pass's own evaluation of its predictions file.
    """
    cell = next((c for c in p["cells"] if "preds" in c), None)
    if cell is None:
        return   # no cell was served
    out.mkdir(parents=True)
    cfg = run_config(wl, seed)
    sio.write_split(out / "test.jsonl", cfg, "test", s["test"][:CHECK_SEQUENCES])
    ckpt, preds = str(cell["ckpt"]), str(out / "cli.preds.jsonl")
    stsg("infer", "--ckpt", ckpt, "--data", str(out), "--split", "test", "--out", preds)
    ours_path = cell["preds"]["sgdet"]
    ours = ours_path.read_text().splitlines()[1:1 + CHECK_SEQUENCES]
    theirs = Path(preds).read_text().splitlines()[1:]
    if ours != theirs:
        raise CheckFailed(f"{cell['label']}: stsg infer records differ from the measured path")
    reports = []
    for source in (["--preds", preds], ["--ckpt", ckpt]):
        report = out / f"report{len(reports)}.json"
        stsg("eval", *source, "--data", str(out), "--split", "test", "--mode", "sgdet",
             "--constraint", "with", "--out", str(report))
        reports.append(json.loads(report.read_text())["metrics"])
    frames = frames_from_predictions(ours_path, s["test"], limit=CHECK_SEQUENCES)
    ours_metrics = json.loads(json.dumps(cli.evaluate(frames, "sgdet", True)))
    if not reports[0] == reports[1] == ours_metrics:
        raise CheckFailed(f"{cell['label']}: eval --preds, eval --ckpt and the measured "
                          f"evaluation disagree: {reports[0]} / {reports[1]} / {ours_metrics}")
