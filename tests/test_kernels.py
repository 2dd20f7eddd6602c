"""The hot kernels against their earlier forms (`reference_kernels.py`), bit
for bit: the logistic, the segment reduction, the two rankings, evaluation's
stable order and key numbering, Adam and the feature bank's selection."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import primitives as prim
import stsg.autodiff as ad
from conftest import random_sequence
from fixtures import RankedColumns
from reference_kernels import (
    fill_scatter_reduce,
    five_key_rank_frames,
    in_place_adam,
    loop_feature_bank,
    masked_logistic,
    out_of_place_adam,
    three_key_topk_links,
)
from stsg import metrics
from stsg.autodiff import SegmentPlan, Tape, Tensor, backward
from stsg.config import Dims, WorldConfig
from stsg.featurebank import BANK_VARIANTS, build_feature_bank
from stsg.metrics import FrameEval, _distinct, _flatten, _stable_order
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.spatial import frame_pairs
from stsg.synthgen import generate_scene
from stsg.temporal import FrameGraph, forward_sequence, frame_offsets, topk_links
from stsg.training import Optimizer

TINY = np.finfo(np.float64).tiny
EDGES = np.array([0.0, -0.0, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308,
                  5e-324, -5e-324, TINY, -TINY, TINY / 3, -TINY / 3, 36.7, -36.7])
RANKED_COLUMNS = RankedColumns._fields


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def logistic_inputs():
    """110k values over every range the logistic treats differently, and its
    edge values: ±0, where exp overflows or underflows, the largest floats
    and subnormals."""
    rng = np.random.default_rng(0)
    spread = [rng.normal(size=20_000) * s for s in (1.0, 10.0, 100.0, 800.0)]
    return np.concatenate(spread + [rng.uniform(-750.0, 750.0, 30_000), EDGES])


def test_sigmoid_is_the_masked_logistic_bit_for_bit():
    x = np.concatenate([logistic_inputs(), [np.inf, -np.inf, np.nan, -np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prim.sigmoid(Tensor(x)).data
    want = masked_logistic(x)
    finite_in = ~np.isnan(x)
    assert_same_bits(got[finite_in], want[finite_in])
    assert np.isnan(got[~finite_in]).all()
    assert got[x == np.inf].tolist() == [1.0] and got[x == -np.inf].tolist() == [0.0]


def test_softplus_gradient_is_the_masked_logistic_bit_for_bit():
    x = Tensor(logistic_inputs())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            tape.watch(x)
            loss = prim.reduce_sum(prim.softplus(x))
        grad = backward(tape, loss).reshape(x.shape)
    assert_same_bits(grad, masked_logistic(x.data))


def plans():
    """Full-cover plans (sorted, unsorted, one row a segment) and plans with
    empty segments (at either end, inside, every one)."""
    rng = np.random.default_rng(1)
    covering = np.repeat(np.arange(7), rng.integers(1, 5, 7))
    gaps = np.array([1, 1, 3, 4, 4, 4, 6])
    return {
        "cover-sorted": (covering, 7),
        "cover-unsorted": (rng.permutation(covering), 7),
        "cover-one-each": (rng.permutation(7), 7),
        "gaps-sorted": (gaps, 9),
        "gaps-unsorted": (rng.permutation(gaps), 9),
        "no-rows": (np.zeros(0, dtype=np.intp), 4),
        "no-segments": (np.zeros(0, dtype=np.intp), 0),
    }


@pytest.mark.parametrize("name", list(plans()))
@pytest.mark.parametrize("ufunc, empty, width", [
    (np.add, 0.0, None), (np.add, 0.0, 28), (np.maximum, -np.inf, None),
], ids=["sum-vector", "sum-rows", "max-vector"])
def test_segment_reduce_is_fill_and_scatter(name, ufunc, empty, width):
    ids, n = plans()[name]
    rng = np.random.default_rng(2)
    values = rng.normal(size=(len(ids),) if width is None else (len(ids), width))
    got = ad._segment_reduce(ufunc, values, SegmentPlan(ids, n), empty)
    assert_same_bits(got, fill_scatter_reduce(ufunc, values, SegmentPlan(ids, n), empty))


ONE_ROW_RUNS = {
    "sorted": (np.arange(6), 6),
    "unsorted": (np.array([4, 0, 5, 2, 1, 3]), 6),
    "gaps-sorted": (np.array([0, 2, 3, 7]), 9),
    "gaps-unsorted": (np.array([7, 0, 3, 2]), 9),
}


@pytest.mark.parametrize("name", list(ONE_ROW_RUNS))
@pytest.mark.parametrize("ufunc, empty", [(np.add, 0.0), (np.maximum, -np.inf)],
                         ids=["sum", "max"])
@pytest.mark.parametrize("width", [None, 28], ids=["vector", "rows"])
def test_runs_of_one_row_reduce_to_the_reduceat_result(name, ufunc, empty, width):
    # such a plan skips reduceat and takes its rows; -0.0 and NaN keep their
    # bits, as reduceat copies a run of one row
    ids, n = ONE_ROW_RUNS[name]
    plan = SegmentPlan(ids, n)
    order, starts, segments = plan.runs()
    assert len(starts) == len(plan)
    values = np.random.default_rng(4).normal(size=(len(ids),) if width is None
                                              else (len(ids), width))
    values.flat[:3] = [-0.0, np.nan, -np.nan]
    got = ad._segment_reduce(ufunc, values, plan, empty)
    assert_same_bits(got, fill_scatter_reduce(ufunc, values, plan, empty))
    if len(segments) == n:   # every segment has its row: reduceat's result as it is
        assert_same_bits(got, ufunc.reduceat(values if order is None else values[order],
                                             starts, axis=0))
    assert not np.shares_memory(got, values)


def ranking_inputs(h: int, seed: int):
    """Random frames, empty and one-node ones among them, whose predicate
    probabilities and label scores tie, and whose pairs hold predicates of
    different probabilities that round to one triplet score."""
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([[0, 1, 5, 0], rng.integers(0, 8, 12), [1]])
    subj, obj = frame_pairs(sizes)
    n, p = int(sizes.sum()), len(subj)
    probs = rng.random((p, h))
    tied = rng.random(p) < 0.3
    probs[tied, -1] = probs[tied, 0]
    # a predicate one ulp below another of its pair
    near = rng.random(p) < 0.5
    probs[near, 1] = np.nextafter(probs[near, 0], 0.0)
    label_dists = rng.random((n, 8))
    label_dists[:, 3] = label_dists[:, 5]               # tied argmax labels
    label_dists[rng.random(n) < 0.4] = label_dists[0]   # shared label scores
    return probs, subj, obj, label_dists, rng.random((n, 4)), sizes


def frame_graphs(probs, label_dists, boxes, sizes) -> list[FrameGraph]:
    """`ranking_inputs`' frames as served graphs: argmax labels, their
    scores, boxes and pair probabilities, views of the inputs."""
    starts, pair_starts, _ = frame_offsets(sizes)
    labels, label_scores = label_dists.argmax(axis=1), label_dists.max(axis=1)
    nodes, pairs = starts.tolist(), pair_starts.tolist()
    return [FrameGraph(labels[a:b], label_scores[a:b], boxes[a:b], probs[p:q])
            for a, b, p, q in zip(nodes[:-1], nodes[1:], pairs[:-1], pairs[1:])]


def ranked_frames(graphs, constraint: bool, depth: int = 10**9) -> list[RankedColumns]:
    """Each frame's list from one ranking of the corpus (`metrics._flatten`),
    cut to its first `depth`, node indices local to the frame."""
    c = _flatten([FrameEval(g, [], []) for g in graphs], depth, constraint)
    out = []
    for t, (g, start) in enumerate(zip(graphs, c.node_start.tolist())):
        at, nodes = c.frame == t, slice(start, start + len(g.labels))
        assert_same_bits(c.rank[at], np.arange(at.sum()))
        out.append(RankedColumns(c.subj[at] - start, c.obj[at] - start, c.predicate[at],
                                 c.score[at], c.labels[nodes], c.boxes[nodes], g.label_scores))
    return out


@pytest.mark.parametrize("h", [3, 6, 9])
@pytest.mark.parametrize("seed", range(4))
def test_rank_frames_is_the_five_key_sort(h, seed):
    # evaluation's ranking of a corpus, frame by frame
    probs, subj, obj, label_dists, boxes, sizes = ranking_inputs(h, seed)
    label_scores = label_dists.max(axis=1)
    pair_scores = label_scores[subj] * label_scores[obj]
    first, second = pair_scores * probs[:, 0], pair_scores * probs[:, 1]
    assert ((first == second) & (probs[:, 0] != probs[:, 1])).any()
    got = ranked_frames(frame_graphs(probs, label_dists, boxes, sizes), constraint=False)
    want = five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    assert len(got) == len(want) == len(sizes)
    for g, w in zip(got, want):
        for name in RANKED_COLUMNS:
            assert_same_bits(getattr(g, name), getattr(w, name))
    assert_same_bits(np.concatenate([g.label_scores for g in got]), label_scores)


@pytest.mark.parametrize("h", [3, 6, 9])
@pytest.mark.parametrize("seed", range(4))
def test_constrained_ranking_is_the_first_row_of_each_pair(h, seed):
    # with the constraint, a frame's list is the first row of each ordered
    # pair of the five-key sort's list: the best of the pair's kept
    # predicates, the lowest on equal scores (ties and one-ulp neighbours
    # that round to one score are among the inputs, and empty and one-node
    # frames)
    probs, subj, obj, label_dists, boxes, sizes = ranking_inputs(h, seed)
    assert {0, 1} <= set(sizes.tolist())
    got = ranked_frames(frame_graphs(probs, label_dists, boxes, sizes), constraint=True)
    want = five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    assert len(got) == len(want) == len(sizes)
    for g, w, n in zip(got, want, sizes.tolist()):
        _, first = np.unique(w.subj * n + w.obj, return_index=True)
        first = np.sort(first)
        assert len(first) == n * (n - 1)
        for name in RANKED_COLUMNS[:4]:
            assert_same_bits(getattr(g, name), getattr(w, name)[first])
        for name in RANKED_COLUMNS[4:]:
            assert_same_bits(getattr(g, name), getattr(w, name))


def repeated_apart(sizes) -> list[int]:
    """The node counts above 1 that two frames share with another frame
    between them."""
    return [n for n in set(sizes.tolist())
            if n > 1 and np.diff(np.flatnonzero(sizes == n)).max(initial=0) > 1]


@pytest.mark.parametrize("depth", [1, 20, 50])
@pytest.mark.parametrize("constraint", [False, True], ids=["no-constraint", "constraint"])
@pytest.mark.parametrize("h", [3, 9])
def test_a_ranking_cut_to_a_depth_is_each_frames_prefix(depth, constraint, h):
    # frames of one list length are sorted as the rows of one matrix; the
    # frames of a length repeat, apart from each other, and each list cut to
    # `depth` is the first `depth` rows of the five-key sort's list (with
    # the constraint, of each pair's first row)
    probs, subj, obj, label_dists, boxes, sizes = ranking_inputs(h, 2)
    assert repeated_apart(sizes)
    got = ranked_frames(frame_graphs(probs, label_dists, boxes, sizes), constraint, depth)
    want = five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    assert len(got) == len(want) == len(sizes)
    for g, w, n in zip(got, want, sizes.tolist()):
        rows = np.arange(len(w.score))
        if constraint:
            rows = np.sort(np.unique(w.subj * n + w.obj, return_index=True)[1])
        rows = rows[:depth]
        for name in RANKED_COLUMNS[:4]:
            assert_same_bits(getattr(g, name), getattr(w, name)[rows])


def tied_rows(scores: np.ndarray) -> int:
    """How many rows of a 2-D array hold two equal values."""
    return sum(len(np.unique(row)) < len(row) for row in scores)


def assert_sorts_per_list_length(monkeypatch, h, probs, subj, obj, label_dists, boxes,
                                 sizes) -> list[list[tuple]]:
    """Ranking the frames makes one 2-D default-kind argsort of the frames of
    each list length, then one stable argsort of exactly its rows that hold
    equal scores; above NO_CONSTRAINT_PER_PAIR predicates, one stable
    argsort before them picks each pair's kept ones. The stable score
    sorts' shapes, unconstrained and constrained."""
    graphs = frame_graphs(probs, label_dists, boxes, sizes)
    ranked = five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    calls, argsort = [], np.argsort

    def counted(a, *args, **kwargs):
        calls.append((kwargs.get("kind"), np.shape(a)))
        return argsort(a, *args, **kwargs)

    keep = min(metrics.NO_CONSTRAINT_PER_PAIR, h)
    stable = []
    for constraint in (False, True):
        # each frame's scores, the constrained ones the first of each pair's
        scores = [w.score[np.sort(np.unique(w.subj * n + w.obj, return_index=True)[1])]
                  if constraint else w.score for w, n in zip(ranked, sizes.tolist())]
        lengths = sizes * (sizes - 1) * (1 if constraint else keep)
        want = [("stable", probs.shape)] if keep < h else []
        for n in np.unique(lengths[lengths > 0]).tolist():
            group = np.array([s for s in scores if len(s) == n])
            want.append((None, group.shape))
            if tied_rows(group):
                want.append(("stable", (tied_rows(group), n)))
        stable.append([shape for kind, shape in want[keep < h:] if kind])
        assert len(want) - len(stable[-1]) - (keep < h) < (lengths > 0).sum()
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", counted)
            calls.clear()
            _flatten([FrameEval(g, [], []) for g in graphs], 50, constraint)
        assert calls == want
    return stable


@pytest.mark.parametrize("h", [3, 9])
def test_ranking_sorts_once_per_list_length(monkeypatch, h):
    # `ranking_inputs` plants ties between a pair's predicates, so the
    # unconstrained lists re-sort some rows stably; the constraint keeps one
    # of the tied predicates
    unconstrained, constrained = assert_sorts_per_list_length(monkeypatch, h,
                                                              *ranking_inputs(h, 2))
    assert unconstrained and not constrained


@pytest.mark.parametrize("h", [3, 9])
def test_a_tie_free_ranking_makes_no_stable_score_sort(monkeypatch, h):
    probs, subj, obj, label_dists, boxes, sizes = ranking_inputs(h, 2)
    rng = np.random.default_rng(5)
    probs, label_dists = rng.random(probs.shape), rng.random(label_dists.shape)
    assert assert_sorts_per_list_length(monkeypatch, h, probs, subj, obj, label_dists, boxes,
                                        sizes) == [[], []]


@pytest.mark.parametrize("read", ["len", "column"])
@pytest.mark.parametrize("h", [3, 9])
def test_a_frame_sorts_on_its_first_triplet_read(monkeypatch, read, h):
    # a served graph orders nothing: its len(), the count of its
    # unconstrained list's triplets, and its fields read no ranking.
    # Evaluation reads the triplets first, and ranks the corpus once a
    # call, to the five-key sort's lists
    probs, subj, obj, label_dists, boxes, sizes = ranking_inputs(h, 1)
    want = five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes)
    graphs = frame_graphs(probs, label_dists, boxes, sizes)
    calls, rank = [], metrics._rank

    def counted(graphs, *args):
        calls.append(len(graphs))
        return rank(graphs, *args)

    monkeypatch.setattr(metrics, "_rank", counted)
    for g, w in zip(graphs, want):
        if read == "len":
            assert len(g) == len(w.score)
        else:
            for name in RANKED_COLUMNS[4:]:
                assert_same_bits(getattr(g, name), getattr(w, name))
    assert calls == []
    for g, other in zip(ranked_frames(graphs, constraint=False), want):
        for name in RANKED_COLUMNS:
            assert_same_bits(getattr(g, name), getattr(other, name))
    assert calls == [len(sizes)]


# a small pool, so that keys tie; ±0.0 compare equal, and NaN sorts last
KEY_POOL = [0.0, -0.0, 1.0, -1.0, 0.5, np.nextafter(0.5, 1.0), 1e308, -np.inf, np.inf, np.nan]
# numpy's default sort moves equal keys of a row longer than 16, here NaNs
NAN_ROW = [1.0, np.nan, 0.5, 1.0, np.nan, np.nan, 0.5, 0.5, np.nan, 0.5, 0.5] + [np.nan] * 6


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
              elements=st.sampled_from(KEY_POOL)))
@example(np.array([NAN_ROW, sorted(NAN_ROW)]))
@example(np.zeros(0))
@example(np.array([3.0]))
@example(np.array([-0.0, 0.0, -0.0]))
@example(np.array([[2.0, 2.0, 2.0], [0.5, 1.0, -0.0], [7.0, 7.0, 7.0]]))
@example(np.zeros((3, 0)))
@example(np.zeros((0, 4)))
@example(np.ones((4, 1)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_stable_order_is_the_stable_argsort(keys):
    # 1-D and 2-D, rows of length 0 and 1 and all-equal rows among them
    for k in (keys, keys.ravel()):
        assert_same_bits(_stable_order(k), np.argsort(k, axis=-1, kind="stable"))


@given(st.lists(st.sampled_from([0, 1, 2, 7, 255, 256, 4999]), max_size=40))
@example([])
@example([4999, 0, 4999])
@example([5, 5, 5])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_distinct_is_unique_with_inverse_and_counts(values):
    # sparse values such as {0, 4999}, and the empty input
    v = np.array(values, dtype=np.intp)
    for got, want in zip(_distinct(v), np.unique(v, return_inverse=True, return_counts=True)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("k", [1, 2, 3, 9])
@pytest.mark.parametrize("seed", range(4))
def test_topk_links_is_the_three_key_sort(k, seed):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(30), rng.integers(0, 7, 30))
    scores = rng.integers(-3, 4, len(rows)) / 2.0   # many ties within a row
    assert_same_bits(topk_links(scores, rows, k), three_key_topk_links(scores, rows, k))


def test_topk_links_without_candidates():
    none = np.zeros(0, dtype=np.intp)
    assert_same_bits(topk_links(np.zeros(0), none, 1), three_key_topk_links(np.zeros(0), none, 1))


def test_adam_in_place_is_the_out_of_place_formula():
    rng = np.random.default_rng(5)
    opt = Optimizer("adam", lr=1e-2)
    x = rng.normal(size=400)
    want, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
    for t in range(1, 8):
        g = rng.normal(size=400) * 10.0 ** rng.integers(-6, 3)
        stepped = opt.update(x, g)
        assert stepped is not x
        x = stepped
        want, m, v = out_of_place_adam(want, g, m, v, t, opt.lr, opt.beta1, opt.beta2, opt.eps)
        assert_same_bits(x, want)


@pytest.mark.parametrize("size", [9_500, 17_000])
def test_adam_buffers_are_the_in_place_expression(size):
    # about the parameter counts of the default model and of a wider one
    rng = np.random.default_rng(size)
    opt = Optimizer("adam", lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
    x = rng.normal(size=size)
    want, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
    buffers = None
    for t in range(1, 7):
        g = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
        stepped = opt.update(x, g)
        want = in_place_adam(want, g, m, v, t, opt.lr, opt.beta1, opt.beta2, opt.eps)
        assert_same_bits(stepped, want)
        assert_same_bits(opt._m, m)
        assert_same_bits(opt._v, v)
        # the buffers are allocated once; only the stepped vector is new
        held = (opt._m, opt._v, opt._step, opt._scratch)
        assert buffers is None or all(a is b for a, b in zip(held, buffers))
        assert all(stepped is not b and x is not b for b in held)
        buffers, x = held, stepped


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_feature_bank_is_the_frame_by_class_loop(mode):
    # generated scenes, and random ones whose frames may be empty; PredCls
    # label rows are one-hot, so two objects of a class tie on score
    dims = Dims()
    params = ModelParams.init(dims, seed=4)
    seqs = [generate_scene(dims, WorldConfig(), seed) for seed in range(12)]
    seqs += [random_sequence(RngStream(seed), dims, n_frames=4, n_min=0, n_max=4)
             for seed in range(12)]
    ties = empty = 0
    for seq in seqs:
        preds = forward_sequence(seq, params, mode, "sparse", 1)
        for variant in BANK_VARIANTS:
            assert_same_bits(build_feature_bank(preds, variant, dims),
                             loop_feature_bank(preds, variant, dims))
        for pred in preds:
            labels = np.argmax(pred.label_dists, axis=1)
            ties += len(labels) - len(set(labels.tolist()))
            empty += pred.n == 0
    assert ties > 0 and empty > 0
