"""In-memory span tracer for the stsg layers, installed from outside the package.

`Tracer.install()` replaces each hooked function at the name its callers
look up -- `stsg.training.forward_sequence` is the name the training loop
resolves through its own module globals, `stsg.temporal.propose_relations`
the one `forward_sequence` resolves -- with a wrapper that records a span
(name, start, end, parent index) and, for some hooks, counts work from the
call's arguments and result. `restore()` puts every original back. No file
of the package is touched.

A span's self time is its duration minus the time its child spans cover.
Counting done after a call is itself recorded as a `trace.observe` child of
the caller, so it never inflates a layer's self time. Autodiff primitives
get counting-only wrappers (no span): they run thousands of times per
sequence and a span each would swamp the layers they belong to.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

import numpy as np

PRIMITIVES = ("matmul", "add", "scale", "mul", "div", "concat", "relu", "sigmoid",
              "reduce_mean", "reduce_sum", "dot", "log", "softplus", "softmax",
              "reshape", "transpose", "gather_rows")

# analytic stage names of metrics.count_params_flops, in report order
FLOP_STAGES = ("proposal", "gcn", "relevance", "temporal_encoding",
               "relation_head", "label_head")


# ---------------------------------------------------------------------------
# observers: (tracer, bound arguments, result) -> None, run after the span


def _count(key):
    def observe(tr, args, result):
        tr.counters[key] += 1
    return observe


def _observe_write_split(tr, args, result):
    tr.counters["io.split_seqs_written"] += len(args["sequences"])
    tr.counters["io.split_bytes_written"] += os.path.getsize(args["path"])


def _observe_load_split(tr, args, result):
    tr.counters["io.split_seqs_loaded"] += len(result[1])


def _observe_write_predictions(tr, args, result):
    tr.counters["io.prediction_seqs"] += len(args["records"])


def _observe_backward(tr, args, result):
    tr.counters["autodiff.backward_calls"] += 1
    tr.counters["autodiff.tape_records"] += len(args["tape"])


def _observe_clip(tr, args, result):
    # clip_gradients hands back its input unchanged when the norm is in bounds
    if args["max_norm"] > 0 and result is not args["grads"]:
        tr.counters["training.clip_hits"] += 1


def _observe_rank(tr, args, result):
    tr.counters["metrics.rank_frames"] += 1
    tr.counters["metrics.triplets_ranked"] += len(result)


def _observe_evaluate(tr, args, result):
    tr.counters["metrics.evaluate_calls"] += 1
    tr.counters["metrics.eval_frames"] += len(args["frames"])


def _observe_aggregate(tr, args, result):
    temporal = importlib.import_module("stsg.temporal")
    curr_idx, n_curr = np.asarray(args["curr_idx"]), args["n_curr"]
    denom = np.bincount(curr_idx, weights=args["gamma_sel"].data, minlength=n_curr)
    linked = np.bincount(curr_idx, minlength=n_curr) > 0
    tr.counters["temporal.aggregated_rows"] += int(linked.sum())
    tr.counters["temporal.uniform_fallback_rows"] += int(
        ((np.abs(denom) < temporal.DENOM_GUARD) & linked).sum())


def _observe_forward(tr, args, result):
    """Frames, links, link precision and analytic FLOPs of one forward pass."""
    seq, params, mode = args["sequence"], args["params"], args["mode"]
    variant, k = args["variant"], args["k"]
    tr.counters["temporal.forward_seqs"] += 1
    tr.counters["temporal.forward_frames"] += len(result)
    tr.counters["autodiff.forward_primitive_calls"] += tr.primitive_calls - tr.forward_mark
    prev_map = None
    for t, out in enumerate(result):
        gt_map = _node_to_gt(out.nodes, seq.frames[t].objects, mode)
        has_prev = t > 0 and result[t - 1].n > 0 and variant != "spatial"
        if out.n and has_prev:
            tr.counters["temporal.nodes_with_prev"] += out.n
            tr.counters["temporal.links"] += len(out.links)
            for link in out.links:
                gi = gt_map.get(link.curr_index)
                if gi is not None and gi == prev_map.get(link.prev_index):
                    tr.counters["temporal.correct_links"] += 1
        if out.n:
            flops = tr.frame_flops(params, out.n, variant if has_prev else "spatial", k)
            for stage in FLOP_STAGES:
                tr.flops[stage] += flops[stage]
            tr.flops["temporal_encoding"] += len(out.links) * tr.link_flops(params)
        prev_map = gt_map


def _node_to_gt(nodes, objects, mode: str) -> dict[int, int]:
    """Ground-truth identity of each node, by the rule `relation_targets` uses."""
    if mode in ("predcls", "sgcls"):
        return {i: i for i in range(len(nodes))}
    training = importlib.import_module("stsg.training")
    scene = importlib.import_module("stsg.scene")
    out = {}
    for i, node in enumerate(nodes):
        best, best_iou = -1, 0.0
        for gi, obj in enumerate(objects):
            v = scene.iou(node.box, obj.box)
            if v > best_iou:
                best, best_iou = gi, v
        if best >= 0 and best_iou >= training.IOU_MATCH:
            out[i] = best
    return out


# (module, attribute, span name, observer). Several attributes may share a
# span name; their self times add up.
HOOKS = (
    ("stsg.cli", "generate_scene", "synthgen.generate", _count("synthgen.seqs")),
    ("stsg.io", "write_split", "io.write_split", _observe_write_split),
    ("stsg.io", "load_split", "io.load_split", _observe_load_split),
    ("stsg.training", "train", "training.train", None),
    ("stsg.training", "forward_sequence", "temporal.forward_sequence", _observe_forward),
    ("stsg.cli", "forward_sequence", "temporal.forward_sequence", _observe_forward),
    ("stsg.temporal", "propose_relations", "proposal", None),
    ("stsg.temporal", "gcn_propagate", "gcn", None),
    ("stsg.temporal", "relevance_scores", "relevance", None),
    ("stsg.temporal", "select_topk", "link_select", None),
    ("stsg.temporal", "tracking_connections", "link_select", None),
    ("stsg.temporal", "encode_temporal_pairs", "temporal_encoding", None),
    ("stsg.temporal", "aggregate_links", "aggregate", _observe_aggregate),
    ("stsg.temporal", "fuse", "aggregate", None),
    ("stsg.temporal", "relation_logits", "relation_head", None),
    # forward_sequence's label head; relation_logits resolves the same name
    ("stsg.temporal", "linear", "label_head", None),
    ("stsg.training", "sequence_loss", "training.loss", _count("training.loss_seqs")),
    ("stsg.training", "relation_targets", "training.targets", _count("training.target_frames")),
    ("stsg.training", "backward", "autodiff.backward", _observe_backward),
    ("stsg.training", "Optimizer.step", "training.optimizer", _count("training.steps")),
    ("stsg.training", "clip_gradients", "training.optimizer", _observe_clip),
    ("stsg.cli", "to_predictions", "temporal.to_predictions", None),
    ("stsg.cli", "rank_triplets", "metrics.rank", _observe_rank),
    ("stsg.cli", "evaluate", "metrics.evaluate", _observe_evaluate),
    ("stsg.metrics", "match_frame", "metrics.match", _count("metrics.match_calls")),
    ("stsg.metrics", "relation_map", "metrics.relation_map", _count("metrics.relation_map_calls")),
    ("stsg.io", "frame_prediction_to_json", "io.predictions", None),
    ("stsg.io", "write_predictions", "io.predictions", _observe_write_predictions),
    ("stsg.io", "load_predictions", "io.predictions", None),
    ("stsg.io", "ranked_from_frame_json", "io.predictions", None),
)

# a hooked call made from inside a span of this name keeps the parent's name
INHERIT = {"label_head": "relation_head"}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []            # (name, start, end, parent index)
        self.counters: Counter = Counter()
        self.flops: Counter = Counter()
        self.primitive_calls = 0
        self.forward_mark = 0
        self.missing: list[str] = []     # hooks whose target no longer exists
        self._stack: list[tuple[int, str]] = []   # open spans: (index, name)
        self._patches: list = []
        self._flop_cache: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, attr, span, observe in HOOKS:
            owner, name = _resolve(module_name, attr)
            if owner is None or not hasattr(owner, name):
                self._missing(f"{module_name}.{attr}")
                continue
            self._patch(owner, name, self._span_wrapper(getattr(owner, name), span, observe))
        autodiff = importlib.import_module("stsg.autodiff")
        for name in PRIMITIVES:
            if hasattr(autodiff, name):
                self._patch(autodiff, name, self._count_wrapper(getattr(autodiff, name)))
            else:
                self._missing(f"stsg.autodiff.{name}")
        return self

    def _missing(self, hook: str) -> None:
        if hook not in self.missing:
            self.missing.append(hook)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _span_wrapper(self, original, span: str, observe):
        tracer, spans, stack = self, self.spans, self._stack
        signature = inspect.signature(original) if observe is not None else None
        inherit = INHERIT.get(span)
        forward = span == "temporal.forward_sequence"

        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, None)
            name = inherit if inherit is not None and parent_name == inherit else span
            if forward:
                tracer.forward_mark = tracer.primitive_calls
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer, bound.arguments, result)
                spans.append(("trace.observe", end, perf_counter(), parent))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_wrapper(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.primitive_calls += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- analytic FLOPs -----------------------------------------------------

    def frame_flops(self, params, n: int, variant: str, k: int) -> dict:
        key = (params.dims, params.gcn_layers, n, variant, k)
        if key not in self._flop_cache:
            metrics = importlib.import_module("stsg.metrics")
            report = metrics.count_params_flops(params.dims, n, variant, k=k,
                                                gcn_layers=params.gcn_layers)
            # temporal encoding is charged per actual link in _observe_forward
            self._flop_cache[key] = {**report.breakdown, "temporal_encoding": 0}
        return self._flop_cache[key]

    def link_flops(self, params) -> int:
        key = ("link", params.dims)
        if key not in self._flop_cache:
            metrics = importlib.import_module("stsg.metrics")
            # the tracking variant charges exactly one link per node
            report = metrics.count_params_flops(params.dims, 1, "tracking")
            self._flop_cache[key] = report.breakdown["temporal_encoding"]
        return self._flop_cache[key]

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name, counters and FLOPs; mergeable."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
            calls[name] += 1
        counters = Counter(self.counters)
        counters["autodiff.primitive_calls"] += self.primitive_calls
        return {"self_s": dict(self_s), "calls": dict(calls), "counters": dict(counters),
                "flops": dict(self.flops), "missing": list(self.missing)}


def _resolve(module_name: str, attr: str):
    """(object holding the hooked name, the name); attr may be `Class.method`."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, name


def merge(summaries: list[dict]) -> dict:
    out = {"self_s": Counter(), "calls": Counter(), "counters": Counter(),
           "flops": Counter(), "missing": []}
    for s in summaries:
        for key in ("self_s", "calls", "counters", "flops"):
            out[key].update(s[key])
        out["missing"] += [m for m in s["missing"] if m not in out["missing"]]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


FRAMES, SEQS, STEPS = "temporal.forward_frames", "temporal.forward_seqs", "training.steps"

# (metric, unit, numerator, denominator). An "ms" numerator is a tuple of span
# names whose self times add up; any other numerator is a counter. The
# denominator is a counter, or None for a plain count.
LAYER_METRICS = (
    ("autodiff.backward_ms_per_step", "ms", ("autodiff.backward",), "autodiff.backward_calls"),
    ("autodiff.tape_records_per_seq", "count", "autodiff.tape_records", "training.loss_seqs"),
    ("autodiff.primitive_calls_per_seq", "count", "autodiff.forward_primitive_calls", SEQS),
    ("spatial.proposal_ms_per_frame", "ms", ("proposal",), FRAMES),
    ("spatial.gcn_ms_per_frame", "ms", ("gcn",), FRAMES),
    ("temporal.forward_ms_per_seq", "ms", ("temporal.forward_sequence",), SEQS),
    ("temporal.relevance_ms_per_frame", "ms", ("relevance",), FRAMES),
    ("temporal.link_select_ms_per_frame", "ms", ("link_select",), FRAMES),
    ("temporal.encode_ms_per_frame", "ms", ("temporal_encoding",), FRAMES),
    ("temporal.aggregate_ms_per_frame", "ms", ("aggregate",), FRAMES),
    ("temporal.heads_ms_per_frame", "ms", ("relation_head", "label_head"), FRAMES),
    ("temporal.links_per_node", "ratio", "temporal.links", "temporal.nodes_with_prev"),
    ("temporal.uniform_fallback_rows", "count", "temporal.uniform_fallback_rows", None),
    ("temporal.link_precision", "ratio", "temporal.correct_links", "temporal.links"),
    ("training.loss_ms_per_seq", "ms", ("training.loss",), "training.loss_seqs"),
    ("training.targets_ms_per_frame", "ms", ("training.targets",), "training.target_frames"),
    ("training.optimizer_ms_per_step", "ms", ("training.optimizer",), STEPS),
    ("training.clip_hit_frac", "ratio", "training.clip_hits", STEPS),
    ("metrics.rank_ms_per_frame", "ms", ("metrics.rank",), "metrics.rank_frames"),
    ("metrics.triplets_ranked_per_frame", "count", "metrics.triplets_ranked",
     "metrics.rank_frames"),
    ("metrics.match_ms_per_frame", "ms", ("metrics.match",), "metrics.eval_frames"),
    ("metrics.match_calls_per_frame", "count", "metrics.match_calls", "metrics.eval_frames"),
    ("metrics.relation_map_ms", "ms", ("metrics.relation_map",), "metrics.relation_map_calls"),
    ("io.write_split_ms_per_seq", "ms", ("io.write_split",), "io.split_seqs_written"),
    ("io.load_split_ms_per_seq", "ms", ("io.load_split",), "io.split_seqs_loaded"),
    ("io.split_bytes_per_seq", "bytes", "io.split_bytes_written", "io.split_seqs_written"),
    ("io.predictions_roundtrip_ms_per_seq", "ms", ("io.predictions",), "io.prediction_seqs"),
    ("synthgen.generate_ms_per_seq", "ms", ("synthgen.generate",), "synthgen.seqs"),
)


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json: name -> (value, unit).

    A metric whose denominator never occurred reads 0.
    """
    self_s, counters = summary["self_s"], summary["counters"]
    out = {}
    for name, unit, numerator, denominator in LAYER_METRICS:
        if unit == "ms":
            value = 1e3 * sum(self_s.get(span, 0.0) for span in numerator)
        else:
            value = float(counters.get(numerator, 0))
        if denominator is not None:
            count = counters.get(denominator, 0)
            value = value / count if count else 0.0
        out[name] = (value, unit)
    return out


def stage_table(summary: dict) -> list[dict]:
    """Measured forward time beside analytic forward FLOPs, per stage.

    The span behind each stage carries the stage's own name.
    """
    rows = []
    for stage in FLOP_STAGES:
        seconds = summary["self_s"].get(stage, 0.0)
        flops = summary["flops"].get(stage, 0)
        rows.append({"stage": stage, "ms": 1e3 * seconds, "flops": int(flops),
                     "mflop_per_s": flops / 1e6 / seconds if seconds else 0.0})
    return rows
