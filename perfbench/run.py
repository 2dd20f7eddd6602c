"""stsg benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload infer_eval --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from `src/`
(the PYTHONPATH=src of the test command), never from an installed copy. The
last line of standard output is the JSON result; the lines before it are the
human-readable report. README.md in this directory documents the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from multiprocessing import get_context, resource_tracker
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(1, str(ROOT / "src"))

WORKLOAD_NAMES = ("train_ablation", "infer_eval")



def env_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # show_config's layout differs across numpy versions
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": _loadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0     # ru_maxrss is in KiB on Linux


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1] if len(samples) > 1 else samples[0]


def new_pool(workers: int):
    # created after set-up, so the workers' start-up is not timed as set-up
    return get_context("spawn").Pool(workers) if workers > 1 else None


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    import workloads as W
    from clock import Clock
    from tracer import Tracer, layer_metrics, merge, stage_table

    wl = W.WORKLOADS[name]
    cfg = W.run_config(wl, seed)
    checks: list[str] = []
    clock = Clock()
    pool = None
    try:
        if not trace:
            # pacing ticks rebind package names, as the tracer does: never both
            with clock.ticking(W.PACE):
                setups = [W.setup(wl, seed, run_dir / f"setup{i}", clock)
                          for i in range(W.SETUP_REPEATS)]
                if len({s["digest"] for s in setups}) != 1:
                    raise W.CheckFailed("repeated set-ups wrote different datasets or checkpoints")
                checks.append(f"{len(setups)} set-ups wrote byte-identical files")
                s = setups[-1]
                pool = new_pool(wl.workers)
                passes = []
                start = perf_counter()
                while not passes or perf_counter() - start < seconds:
                    passes.append(W.run_pass(wl, cfg, s, run_dir / f"pass{len(passes)}",
                                             clock, pool))
            if len({p["digest"] for p in passes}) != 1:
                raise W.CheckFailed("repeated passes produced different outputs")
            checks.append(f"{len(passes)} pass(es) produced identical outputs")
            layer = None
        else:
            # untraced and traced halves alternate, so slow spells of the
            # machine bias the overhead less
            tracer = Tracer()
            s0 = W.setup(wl, seed, run_dir / "setup_plain", clock)
            with tracer:
                s1 = W.setup(wl, seed, run_dir / "setup_traced", clock)
            pool = new_pool(wl.workers)
            p0 = W.run_pass(wl, cfg, s0, run_dir / "pass_plain", clock, pool)
            with tracer:
                p1 = W.run_pass(wl, cfg, s1, run_dir / "pass_traced", clock, pool, trace=True)
            if s0["digest"] != s1["digest"] or p0["digest"] != p1["digest"]:
                raise W.CheckFailed("traced run produced different outputs from the untraced run")
            checks.append("traced and untraced runs produced byte-identical outputs")
            s, setups, passes = s0, [s0], [p0]
            summary = merge([tracer.summary()] + p1["traces"])
            plain, traced = s0["seconds"] + p0["seconds"], s1["seconds"] + p1["seconds"]
            layer = {"metrics": layer_metrics(summary), "stages": stage_table(summary),
                     "overhead_pct": 100.0 * (traced / plain - 1.0),
                     "untraced_s": plain, "traced_s": traced, "missing_hooks": summary["missing"],
                     "summary": summary}
    finally:
        if pool is not None:
            pool.close()
            pool.join()
            # release the pool's semaphores before the resource tracker goes
            del pool
            gc.collect()
            # the spawn pool also started multiprocessing's resource tracker;
            # stop it and wait for it rather than let it outlive the run
            stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
            if stop is not None:
                stop()

    W.check_reload(wl, seed, s)
    checks.append("reloaded sequences equal freshly generated ones")
    W.check_cli(wl, seed, s, passes[0], run_dir / "cli_check")
    checks.append("stsg infer / eval --preds / eval --ckpt agree with the measured path")

    cells = [c for p in passes for c in p["cells"]]
    # set-up steps count where set-up trains the served checkpoint (infer_eval)
    train_rates = [r for x in setups + cells for r in x.get("step_rates", ())]
    latencies = [1e3 * x for c in cells for x in c.get("latencies_s", ())]
    eval_frames = sum(c.get("eval_frames", 0) for c in cells)
    eval_s = sum(c.get("eval_s", 0.0) for c in cells)
    r20 = [c["r20"]["sgdet"] for c in cells if "sgdet" in c.get("r20", {})]
    attempted = sum(c["attempted"] for c in cells)
    failed = sum(c["failed"] for c in cells)
    if not latencies or not eval_frames:
        raise W.CheckFailed("no sequence was inferred and evaluated")
    values = {
        "setup_s": median([x["seconds"] for x in setups]),
        "train_seq_per_s": median(train_rates),
        "infer_seq_ms_p50": median(latencies),
        "infer_seq_ms_p90": percentile(latencies, 90),
        "eval_frames_per_s": eval_frames / eval_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    for key, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise W.CheckFailed(f"{key} = {v} is not a positive number")
    return {
        "workload": name, "seed": seed, "trace": trace, "values": values,
        "r20_sgdet": statistics.fmean(r20) if r20 else None, "r20_cells": len(r20),
        "attempted": attempted, "failed": failed,
        "failures": [f for c in passes[0]["cells"] for f in c["failures"]],
        "samples": {"setups": len(setups), "passes": len(passes), "infer": len(latencies),
                    "eval_frames": eval_frames, "train_steps": len(train_rates),
                    "pass_s": [p["seconds"] for p in passes]},
        "infer_ms": latencies, "train_rates": train_rates,
        "digest": passes[0]["digest"], "setup_digest": s["digest"],
        "checks": checks, "layer": layer, "machine_speed": clock.speed(),
        "calibration_bursts": len(clock.bursts),
    }


def print_report(r: dict, env: dict, declared: dict) -> None:
    print(f"== stsg benchmark: workload {r['workload']}, seed {r['seed']}, "
          f"trace {int(r['trace'])}")
    blas = env["blas"] or {}
    print(f"environment: nproc {env['nproc']} (usable {env['cpus_usable']}), loadavg "
          f"{env['loadavg_start']} -> {env['loadavg_end']}, python {env['python']}, numpy "
          f"{env['numpy']}, blas {blas.get('name')} {blas.get('version')}, commit "
          f"{env['git_commit']}")
    n = r["samples"]
    notes = {
        "setup_s": f"median of {n['setups']} set-ups",
        "train_seq_per_s": f"median of {n['train_steps']} optimizer steps",
        "infer_seq_ms_p50": f"{n['infer']} sequences",
        "infer_seq_ms_p90": f"{n['infer']} sequences",
        "eval_frames_per_s": f"{n['eval_frames']} frames through eval --preds",
        "peak_rss_mb": "this process and its workers",
    }
    print(f"end-to-end metrics (times scaled to the reference machine speed; this run "
          f"measured {r['machine_speed']:.3f}x it over {r['calibration_bursts']} "
          f"calibration bursts, see clock.py):")
    for m in declared["end_to_end"]:
        key = m["name"]
        print(f"  {key:20s} {r['values'][key]:14.4f} {m['unit']:9s} {notes[key]}")
    # reported beside the bounded metrics, without a bound (README.md says why)
    r20 = "n/a" if r["r20_sgdet"] is None else f"{r['r20_sgdet']:14.4f}"
    print(f"  {'r20_sgdet':20s} {r20:>14s} {'ratio':9s} with-constraint SGDet R@20, "
          f"mean of {r['r20_cells']} model(s); unbounded")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 0.0
    print(f"  {'failed_frac':20s} {frac:14.4f} {'ratio':9s} {r['failed']} failed of "
          f"{r['attempted']} attempted (train steps, infer sequences, eval calls); unbounded")
    for f in r["failures"]:
        print(f"failure: {json.dumps(f, default=str)}")
    for c in r["checks"]:
        print(f"check ok: {c}")
    print(f"output digest {r['digest']}  set-up digest {r['setup_digest']}")
    if r["layer"]:
        layer = r["layer"]
        print("per-layer metrics (self time of each layer's spans):")
        for key, (value, unit) in layer["metrics"].items():
            print(f"  {key:38s} {value:14.5f} {unit}")
        print(f"  {'trace.overhead_pct':38s} {layer['overhead_pct']:14.5f} %  "
              f"(traced {layer['traced_s']:.2f} s vs untraced {layer['untraced_s']:.2f} s)")
        print("forward stages: measured time beside analytic FLOPs (count_params_flops):")
        for row in layer["stages"]:
            print(f"  {row['stage']:18s} {row['ms']:12.2f} ms {row['flops']:16d} flop "
                  f"{row['mflop_per_s']:10.1f} Mflop/s")
        if layer["missing_hooks"]:
            print(f"hooks not found (metrics read 0): {', '.join(layer['missing_hooks'])}")


def result_line(r: dict, declared: dict) -> dict:
    """The last line: exactly the metrics BENCHMARK.json declares for the mode."""
    if r["layer"]:
        measured = {k: v for k, (v, _) in r["layer"]["metrics"].items()}
        measured["trace.overhead_pct"] = r["layer"]["overhead_pct"]
        wanted = declared["per_layer"]
    else:
        measured, wanted = r["values"], declared["end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(measured):
        raise RuntimeError(f"BENCHMARK.json declares {[m['name'] for m in wanted]}, "
                           f"the run measured {sorted(measured)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": True, "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7,
                        help="dataset seed; 7 is the acceptance dataset")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stsg" / "__init__.py").is_file():
        print(f"error: no stsg package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads as W

    env = env_record()
    run_dir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except W.CheckFailed as e:
        print(f"error: output check failed: {e}", file=sys.stderr)
        return 1
    except W.TrainingError as e:
        print(f"error: set-up training failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    report["env"] = env
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print_report(report, env, declared)
    reports = ROOT / ".perfbench" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result_line(report, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
