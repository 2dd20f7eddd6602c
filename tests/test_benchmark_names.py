"""The package names the benchmark in perfbench/ reaches resolve.

perfbench drives stsg from outside through module attributes (`cli.evaluate`,
`sio.ranked_from_frame_json`, ...). A rename in the package would otherwise
surface only when the benchmark runs; here it fails the fast suite.
"""

import ast
import inspect
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def package_calls(fn):
    """(module, attribute, call node or None) of each `<stsg module>.<name>`
    that `fn` reads; the call node where the name is called."""
    tree = ast.parse(inspect.getsource(fn).lstrip())
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = fn.__globals__.get(node.value.id)
            if isinstance(owner, types.ModuleType) and owner.__name__.startswith("stsg"):
                found.append((owner, node.attr, calls.get(id(node))))
    return found


def test_paced_names_resolve(workloads):
    for owner, name in workloads.PACE:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


@pytest.mark.parametrize("name", ["serve_cell", "frames_from_predictions", "timed_train"])
def test_called_names_resolve_and_accept_their_arguments(workloads, name):
    found = package_calls(getattr(workloads, name))
    assert found
    for owner, attr, call in found:
        target = getattr(owner, attr, None)
        assert target is not None, f"{owner.__name__}.{attr}"
        if call is not None:
            # positional and keyword arguments as written bind to the signature
            inspect.signature(target).bind(*call.args, **{kw.arg: kw.value
                                                          for kw in call.keywords})


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def calls_named(fn, name):
    """The calls in fn's source of `name`, as a bare name or an attribute."""
    tree = ast.parse(inspect.getsource(fn).lstrip())
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_train_calls_the_names_the_benchmark_wraps_as_it_wraps_them(workloads, tracer):
    from stsg import training

    # timed_train ends a step where train calls clip_gradients, and its
    # wrapper takes exactly (grads, max_norm) by position
    (clip,) = calls_named(training.train, "clip_gradients")
    assert len(clip.args) == 2 and not clip.keywords
    assert "training.clip_gradients = clip_then_tick" in inspect.getsource(workloads.timed_train)
    # the tracer's hooks bind each call to the function's signature and read
    # these arguments by name
    hooked = {attr for module, attr, _, _ in tracer.HOOKS if module == "stsg.training"}
    assert {"clip_gradients", "backward", "Optimizer.step"} <= hooked
    assert list(inspect.signature(training.clip_gradients).parameters) == ["grads", "max_norm"]
    assert list(inspect.signature(training.backward).parameters) == ["tape", "loss"]
    for name, target in (("backward", training.backward),
                         ("step", training.Optimizer().step)):
        calls = calls_named(training.train, name)
        assert calls, name
        for call in calls:
            inspect.signature(target).bind(*call.args, **{kw.arg: kw.value
                                                          for kw in call.keywords})


def test_clip_in_bounds_returns_its_argument():
    # the tracer counts a clip hit when clip_gradients returns another object
    import numpy as np
    from stsg.config import Dims
    from stsg.params import Gradients, ModelParams
    from stsg.training import clip_gradients

    params = ModelParams.init(Dims(), seed=0)
    grads = Gradients(params.layout, np.full(params.count(), 1e-3))
    assert clip_gradients(grads, 10.0) is grads
    assert clip_gradients(grads, 1e-6) is not grads


@pytest.mark.parametrize("variant", ["sparse", "tracking"])
def test_traced_forward_reads_the_served_frames(tracer, variant):
    # a traced run hands each cli.forward_sequence result to _observe_forward,
    # which reads len(result) and each frame's n, nodes and links
    from conftest import edit_frames, empty_frame, random_sequence
    from stsg import cli
    from stsg.config import MODES, Dims
    from stsg.params import ModelParams
    from stsg.rng import RngStream

    dims = Dims()
    params = ModelParams.init(dims, seed=0)
    seq = random_sequence(RngStream(5), dims, n_frames=4)
    seq = edit_frames(seq, {1: empty_frame(dims)})
    for mode in MODES:
        result = cli.forward_sequence(seq, params, mode, variant, 1)
        bound = inspect.signature(cli.forward_sequence).bind(seq, params, mode, variant, 1)
        bound.apply_defaults()
        tr = tracer.Tracer()
        tracer._observe_forward(tr, bound.arguments, result)
        # frame 2 follows the empty frame, so only frame 3 has a predecessor
        assert tr.counters["temporal.forward_frames"] == 4
        assert tr.counters["temporal.nodes_with_prev"] == result[3].n
        assert tr.counters["temporal.links"] == len(result[3].links)
        assert 0 <= tr.counters["temporal.correct_links"] <= len(result[3].links)
        assert tr.flops["gcn"] > 0


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_traced_link_identity_agrees_with_node_identity(tracer, mode):
    # `--trace 1` scores each served link by the gt identity of its two nodes,
    # read off FramePrediction.nodes (their count, and in sgdet their .box
    # against the frame's gt objects); on generated scenes, with jittered,
    # missed and false detections, it must agree with training.node_identity
    import numpy as np
    from stsg import cli, training
    from stsg.config import Dims, WorldConfig
    from stsg.params import ModelParams
    from stsg.synthgen import generate_scene
    from stsg.temporal import pack

    dims = Dims()
    params = ModelParams.init(dims, seed=0)
    correct = 0
    for seed in range(4):
        seq = generate_scene(dims, WorldConfig(), seed)
        for variant in ("sparse", "tracking"):
            result = cli.forward_sequence(seq, params, mode, variant, 1)
            bound = inspect.signature(cli.forward_sequence).bind(seq, params, mode, variant, 1)
            bound.apply_defaults()
            tr = tracer.Tracer()
            tracer._observe_forward(tr, bound.arguments, result)
            assert [len(out.nodes) for out in result] == [out.n for out in result]
            gt = training.node_identity(seq, pack(seq, mode, variant, dims))
            starts = np.cumsum([0] + [out.n for out in result])
            want = 0
            for t in range(1, len(result)):
                for link in result[t].links:
                    node = gt[starts[t] + link.curr_index]
                    want += bool(node >= 0 and node == gt[starts[t - 1] + link.prev_index])
            assert tr.counters["temporal.forward_frames"] == len(seq.frames)
            assert tr.counters["temporal.links"] == sum(len(out.links) for out in result)
            assert tr.counters["temporal.correct_links"] == want
            correct += want
    assert correct > 0


def test_benchmark_serving_writes_what_stsg_infer_writes(workloads, tmp_path):
    # perfbench times serving through its own per-frame calls
    # (cli.forward_sequence, cli.rank_triplets, sio.frame_prediction_to_json)
    # and evaluation through frames_from_predictions and cli.evaluate, which
    # read the gt objects of a loaded split; its check_cli compares them with
    # `stsg infer` and `stsg eval` in sgdet only
    import json

    from stsg import cli
    from stsg import io as sio
    from stsg.config import MODES, load_config
    from stsg.params import ModelParams

    cfg_path = tmp_path / "pin.cfg"
    cfg_path.write_text("split.train_sequences = 1\nsplit.val_sequences = 1\n"
                        "split.test_sequences = 3\n")
    data, out = tmp_path / "data", tmp_path / "served"
    assert cli.main(["gen", "--config", str(cfg_path), "--out", str(data), "--seed", "7"]) == 0
    cfg = load_config(str(cfg_path))
    params = ModelParams.init(cfg.dims, seed=0)
    ckpt = tmp_path / "model.json"
    sio.write_checkpoint(ckpt, cfg, params, [])
    _, train_seqs = sio.load_split(data, "train")
    _, test_seqs = sio.load_split(data, "test")
    cell = workloads.Cell("sparse[k=1]", "sparse", 1, train=False)
    evals = tuple((mode, constraint) for mode in MODES for constraint in (True, False))
    wl = workloads.Workload(name="pin", train_sequences=1, test_sequences=3, cells=(cell,),
                            epochs=1, modes=MODES, evals=evals)
    # the loaded splits equal freshly generated sequences
    workloads.check_reload(wl, 7, {"train": train_seqs, "test": test_seqs})
    out.mkdir()
    served = workloads.serve_cell(wl, cell, cfg, params, test_seqs, out, "pin",
                                  workloads.Clock())
    assert served["failed"] == 0
    digests = [workloads.params_digest(params)]
    for mode in MODES:
        infer = tmp_path / f"{mode}.jsonl"
        assert cli.main(["infer", "--ckpt", str(ckpt), "--data", str(data), "--split", "test",
                         "--mode", mode, "--variant", "sparse", "--k", "1",
                         "--out", str(infer)]) == 0
        assert len(infer.read_text().splitlines()) == 1 + len(test_seqs)
        assert served["preds"][mode].read_bytes() == infer.read_bytes(), mode
        digests.append(workloads._sha(infer.read_bytes()))
        for constraint in (True, False):
            report = tmp_path / f"{mode}.{constraint}.report.json"
            assert cli.main(["eval", "--preds", str(infer), "--data", str(data), "--split", "test",
                             "--constraint", "with" if constraint else "no",
                             "--out", str(report)]) == 0
            metrics = json.loads(report.read_text())["metrics"]
            digests.append(workloads._sha(json.dumps(metrics, sort_keys=True).encode()))
            if constraint:
                assert served["r20"][mode] == metrics["recall@20"]
    # the pass's evaluation reports equal `stsg eval --preds`'s, in order
    assert served["digest"] == digests


def test_the_tracer_reads_what_the_package_provides(tracer):
    # `--trace 1` hands each hooked call's bound arguments and result to an
    # observer, which reads arguments by name, fields of the served frames
    # and a few package constants; a break shows here, not only in a
    # traced run
    import textwrap

    from conftest import random_sequence
    from stsg import cli, metrics, scene, temporal, training
    from stsg.config import MODES, Dims
    from stsg.params import ModelParams
    from stsg.rng import RngStream

    read = {}
    for module, attr, _, observe in tracer.HOOKS:
        owner, name = tracer._resolve(module, attr)
        if observe is None or not hasattr(owner, name):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(observe)))
        keys = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args"
                and isinstance(node.slice, ast.Constant)}
        params = inspect.signature(getattr(owner, name)).parameters
        assert keys <= set(params), f"{module}.{attr} has no {keys - set(params)}"
        read[f"{module}.{attr}"] = keys
    assert read["stsg.cli.forward_sequence"] and read["stsg.temporal.aggregate_links"]

    dims = Dims()
    params = ModelParams.init(dims, seed=0)
    seq = random_sequence(RngStream(5), dims, n_frames=3)
    links = 0
    for mode in MODES:
        for pred in cli.forward_sequence(seq, params, mode, "sparse", 1):
            assert len(pred.nodes) == pred.n
            for node, obj in zip(pred.nodes, seq.frames[0].objects):
                assert isinstance(scene.iou(node.box, obj.box), float)
            for link in pred.links:
                assert 0 <= link.curr_index < pred.n and link.prev_index >= 0
                links += 1
            assert len(cli.rank_triplets(pred, constraint=False)) == \
                pred.n * (pred.n - 1) * min(metrics.NO_CONSTRAINT_PER_PAIR, dims.h)
    assert links > 0
    assert isinstance(temporal.DENOM_GUARD, float) and isinstance(training.IOU_MATCH, float)
