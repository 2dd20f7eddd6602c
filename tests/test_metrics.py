import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import edit_frames, empty_frame, frame_columns, make_frame, random_sequence
from fixtures import (G, H, _gt, _pred, exhaustive_max_matches, exhaustive_recall_at_k,
                      match_frame, relation_probs, served_corpus, three_frame_fixture,
                      triplet_list, triplet_rows)
from reference_flops import reference_params_flops
from reference_kernels import five_key_class_aps, four_key_detection_pass
from stsg.config import MODES, Dims
from stsg.errors import ContractError
from stsg.metrics import (
    FRAME_TRIPLET_CAP,
    RECALL_KS,
    FrameEval,
    _class_aps,
    _detection_pass,
    average_precision_from_flags,
    count_params_flops,
    _flatten,
    _match,
    evaluate,
    mean_recall,
    rank_triplets,
    recall_at_k,
)
from stsg.params import ModelParams, model_shapes
from stsg.rng import RngStream
from stsg.scene import pairwise_iou
from stsg.temporal import NO_CONSTRAINT_PER_PAIR, forward_sequence


def random_frame_eval(rng, n=3, n_gt=2):
    rel = rng.uniform_array((n, n, H), 0.0, 1.0)
    for i in range(n):
        rel[i, i] = 0.0
    boxes = []
    for _ in range(n):
        w = rng.uniform(0.1, 0.3)
        boxes.append([rng.uniform(0, 0.6), rng.uniform(0, 0.6), w, w])
    labels = [rng.integer(G) for _ in range(n)]
    pred = _pred(boxes, labels, [rng.uniform(0.5, 1.0) for _ in range(n)], rel)
    gt_objects = [_gt(b[0], b[1], b[2], b[3], lab) for b, lab in zip(boxes, labels)]
    triplets = []
    for _ in range(n_gt):
        i, j = rng.integer(n), rng.integer(n)
        if i != j:
            triplets.append((i, j, rng.integer(H)))
    return FrameEval(rank_triplets(pred, constraint=False), sorted(set(triplets)), gt_objects)


# ---------------------------------------------------------------------------
# ranking


def test_constraint_keeps_one_predicate_per_pair():
    frames = three_frame_fixture()
    c = _flatten(frames, 10**6, constraint=True)
    # corpus node indices: a pair's nodes name its frame
    pairs = list(zip(c.subj.tolist(), c.obj.tolist()))
    n = [len(fe.ranked.labels) for fe in frames]
    assert len(pairs) == len(set(pairs)) == sum(k * (k - 1) for k in n)


def test_rank_triplets_leaves_the_constraint_to_evaluation():
    pred = _pred([[0.1, 0.1, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]], [0, 1], [1.0, 1.0],
                 np.zeros((2, 2, H)))
    assert rank_triplets(pred, constraint=False) is pred.ranked
    with pytest.raises(ContractError, match="evaluation applies the constraint"):
        rank_triplets(pred, constraint=True)


def test_no_constraint_keeps_at_most_six_per_pair():
    rng = RngStream(60)
    rel = rng.uniform_array((2, 2, 8), 0.0, 1.0)
    rel[0, 0] = rel[1, 1] = 0.0
    pred = _pred([[0.1, 0.1, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]], [0, 1], [1.0, 1.0], rel)
    ranked = rank_triplets(pred, constraint=False)
    from collections import Counter

    counts = Counter((i, j) for i, j, _, _ in triplet_rows(ranked))
    assert max(counts.values()) <= 6


def test_ranking_matches_hand_sort():
    rel = np.zeros((2, 2, 3))
    rel[0, 1] = [0.9, 0.1, 0.5]
    rel[1, 0] = [0.2, 0.8, 0.3]
    pred = _pred([[0.1, 0.1, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]], [0, 1], [1.0, 0.5], rel)
    ranked = rank_triplets(pred, constraint=False)
    got = triplet_rows(ranked)
    want = [(0, 1, 0, 0.45), (1, 0, 1, 0.4), (0, 1, 2, 0.25), (1, 0, 2, 0.15),
            (1, 0, 0, 0.1), (0, 1, 1, 0.05)]
    for (gi, gj, gp, gs), (wi, wj, wp, ws) in zip(got, want):
        assert (gi, gj, gp) == (wi, wj, wp)
        assert abs(gs - ws) < 1e-12


def loop_rank_triplets(pred):
    """Per-pair reference for the unconstrained `rank_triplets`."""
    labels = np.argmax(pred.label_dists, axis=1)
    label_scores = np.max(pred.label_dists, axis=1)
    h = relation_probs(pred).shape[2]
    out = []
    for i in range(pred.n):
        for j in range(pred.n):
            if i == j:
                continue
            pair = relation_probs(pred)[i, j]
            for p in np.lexsort((np.arange(h), -pair))[:min(NO_CONSTRAINT_PER_PAIR, h)]:
                out.append((i, j, int(labels[i]), int(labels[j]), int(p),
                            float(label_scores[i] * label_scores[j] * pair[p])))
    return sorted(out, key=lambda t: (-t[5], t[0], t[1], t[4]))


def test_ranking_matches_loop_reference():
    rng = RngStream(62)
    for trial in range(200):
        n, h = 1 + rng.integer(5), 1 + rng.integer(8)
        rel = rng.uniform_array((n, n, h), 0.0, 1.0)
        if trial % 2:
            rel = np.round(rel, 1)      # ties inside and across pairs
        for i in range(n):
            rel[i, i] = 0.0
        boxes = [[0.1 * i, 0.1 * i, 0.2, 0.2] for i in range(n)]
        pred = _pred(boxes, [rng.integer(G) for _ in range(n)],
                     [rng.uniform(0.3, 1.0) for _ in range(n)], rel)
        ranked = rank_triplets(pred, constraint=False)
        labels = ranked.labels.tolist()
        got = [(i, j, labels[i], labels[j], p, s) for i, j, p, s in triplet_rows(ranked)]
        assert got == loop_rank_triplets(pred)


def corpus_rows(c, f: int) -> list[tuple]:
    """(subject, object, predicate, score) of frame f's rows of a corpus,
    node indices local to the frame."""
    at, start = c.frame == f, c.node_start[f]
    return list(zip((c.subj[at] - start).tolist(), (c.obj[at] - start).tolist(),
                    c.predicate[at].tolist(), c.score[at].tolist()))


def test_constraint_ranking_equals_constrained_view():
    # evaluation's with-constraint lists (`_flatten`) are, frame by frame,
    # the first triplet of each pair of the loop reference's list, also
    # where h > 6 cuts each pair's predicates; cut at depth 3, their first 3
    rng = RngStream(61)
    frames, wants = [], []
    for trial in range(200):
        n, h = 2 + rng.integer(4), 1 + rng.integer(8)
        rel = rng.uniform_array((n, n, h), 0.0, 1.0)
        if trial % 2:
            # saturated probabilities: distinct values whose scores round together
            rel = 1.0 - rel * 1e-15
        for i in range(n):
            rel[i, i] = 0.0
        boxes = [[0.1 * i, 0.1 * i, 0.2, 0.2] for i in range(n)]
        pred = _pred(boxes, [rng.integer(G) for _ in range(n)],
                     [rng.uniform(0.3, 1.0) for _ in range(n)], rel)
        seen, want = set(), []
        for i, j, _, _, p, score in loop_rank_triplets(pred):
            if (i, j) not in seen:
                seen.add((i, j))
                want.append((i, j, p, score))
        frames.append(FrameEval(rank_triplets(pred, constraint=False), [], []))
        wants.append(want)
    whole, cut = _flatten(frames, 10**6, True), _flatten(frames, 3, True)
    for f, want in enumerate(wants):
        assert corpus_rows(whole, f) == want, f
        assert corpus_rows(cut, f) == want[:3], f


def test_ranking_rejects_non_finite_scores():
    rel = np.zeros((2, 2, H))
    rel[0, 1, 0] = np.nan
    with pytest.raises(ContractError, match="finite"):
        _pred([[0.1, 0.1, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]], [0, 1], [1.0, 1.0], rel)


def params_with(dims: Dims, **arrays) -> ModelParams:
    """Seeded parameters with the named ones replaced."""
    params = ModelParams.init(dims, seed=3)
    return ModelParams.from_arrays(dims, {**params.as_arrays(), **arrays}, params.gcn_layers)


@pytest.mark.parametrize("mode", MODES)
def test_served_ranking_matches_loop_reference(mode):
    # h = 8 > NO_CONSTRAINT_PER_PAIR, so each pair's predicates are cut to 6
    dims = Dims(h=8)
    seq = random_sequence(RngStream(64), dims, n_frames=6, n_min=2, n_max=5)
    one = frame_columns(seq)[3]
    seq = edit_frames(seq, {1: empty_frame(dims),
                            3: make_frame(one["gt"][:1], one["labels"][:1], [], one["det"][:1],
                                          dims)})
    # the second relation head ignores the nodes: every pair has the same
    # predicate probabilities, and five equal ones straddle the cut to 6
    tied = params_with(dims, **{"rel.w": np.zeros(model_shapes(dims, 2)["rel.w"]),
                                "rel.b": np.array([0.5, -1.0, 0.5, 2.0, 0.5, 0.5, 0.5, -1.0])})
    for params in (ModelParams.init(dims, seed=3), tied):
        preds = forward_sequence(seq, params, mode, "sparse", 1)
        assert [p.n for p in preds][1::2] == [0, 1, len(seq.frames[5].objects)]
        for pred in preds:
            ranked = rank_triplets(pred, constraint=False)
            labels = ranked.labels.tolist()
            got = [(i, j, labels[i], labels[j], p, s) for i, j, p, s in triplet_rows(ranked)]
            assert got == loop_rank_triplets(pred)


def test_served_ranking_rejects_non_finite_scores():
    dims = Dims()
    params = params_with(dims, **{"rel.b": np.where(np.arange(dims.h) == 2, np.nan, 0.0)})
    seq = random_sequence(RngStream(65), dims, n_frames=2)
    for mode in MODES:
        with pytest.raises(ContractError, match="rank_frames: triplet scores must be finite"):
            forward_sequence(seq, params, mode)


# ---------------------------------------------------------------------------
# recall


def test_recall_perfect_retrieval():
    frames = three_frame_fixture()[:1]
    assert recall_at_k(frames, 20, "predcls", constraint=False) == 1.0


def test_recall_half_retrieval():
    fe = three_frame_fixture()[0]
    # read only the rank-1 prediction
    assert recall_at_k([fe], 1, "predcls", constraint=False) == 0.5


def test_sgdet_iou_edge_counts_as_match():
    frames = three_frame_fixture()
    ranked = frames[1].ranked
    subj = ranked.boxes[ranked.subj[0]]
    gt_box = np.array(frames[1].gt_objects[0].box)
    assert pairwise_iou(subj[None], gt_box[None])[0, 0] == 0.5
    assert recall_at_k(frames[1:2], 10, "sgdet", constraint=False) == 1.0


def test_recall_matches_exhaustive_oracle_on_fixture():
    frames = three_frame_fixture()
    for mode in ("predcls", "sgcls", "sgdet"):
        for constraint in (False, True):
            for k in (1, 2, 5, 20):
                got = recall_at_k(frames, k, mode, constraint)
                want = exhaustive_recall_at_k(frames, k, mode, constraint)
                assert got == want, (mode, constraint, k)


def test_recall_monotone_in_k():
    rng = RngStream(61)
    for trial in range(100):
        fe = random_frame_eval(rng.split(trial))
        prev = 0.0
        for k in (1, 2, 4, 8, 16, 32):
            r = recall_at_k([fe], k, "sgdet", constraint=False)
            assert r >= prev - 1e-15
            prev = r


def test_constraint_never_beats_no_constraint():
    # guaranteed once k covers the candidate pool (n=3, H=3: 18 candidates);
    # the constrained list is then a sublist of the unconstrained one
    rng = RngStream(61)
    for trial in range(300):
        fe = random_frame_eval(rng.split(trial))
        for k in (18, 50):
            with_c = recall_at_k([fe], k, "sgdet", constraint=True)
            without = recall_at_k([fe], k, "sgdet", constraint=False)
            assert with_c <= without + 1e-15


def test_empty_gt_frames_are_skipped():
    fe = three_frame_fixture()[0]
    empty = FrameEval(fe.ranked, [], fe.gt_objects)
    assert recall_at_k([fe, empty], 20, "predcls", False) == \
        recall_at_k([fe], 20, "predcls", False)


# ---------------------------------------------------------------------------
# mean recall


def test_mean_recall_single_class_equals_recall():
    frames = three_frame_fixture()[1:2]   # only predicate 1 in gt
    assert mean_recall(frames, 10, "predcls", False) == \
        recall_at_k(frames, 10, "predcls", False)


def test_mean_recall_macro_average():
    # k=4 keeps the scored predictions and excludes the zero-score tail
    frames = three_frame_fixture()[2:]
    assert mean_recall(frames, 4, "predcls", False) == 0.5


def test_mean_recall_differs_from_micro_on_imbalance():
    frames = three_frame_fixture()[2:]
    micro = recall_at_k(frames, 4, "predcls", False)
    macro = mean_recall(frames, 4, "predcls", False)
    assert micro == pytest.approx(2 / 3)
    assert macro == 0.5


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_ranking_is_one():
    assert average_precision_from_flags([1, 1, 1], 3) == 1.0


def test_ap_hand_staircase():
    # precisions at hits: 1/1, 2/3, 3/4, 4/6; envelope lifts 2/3 to 3/4
    flags = [1, 0, 1, 1, 0, 1]
    want = 0.2 * 1.0 + 0.4 * 0.75 + 0.2 * (4 / 6)
    assert abs(average_precision_from_flags(flags, 5) - want) < 1e-12


def test_ap_bounds():
    rng = RngStream(62)
    for _ in range(100):
        n = rng.integer(8) + 1
        flags = [int(rng.uniform() < 0.5) for _ in range(n)]
        n_pos = max(1, sum(flags) + rng.integer(3))
        ap = average_precision_from_flags(flags, n_pos)
        assert 0.0 <= ap <= 1.0


def test_relation_map_perfect_and_weighted():
    report = evaluate(three_frame_fixture()[:1], "sgdet", False)
    assert report["map_rel"] == 1.0
    # equal class frequencies: weighted mean equals plain mean
    assert report["wmap_rel"] == report["map_rel"]


def test_wmap_between_min_and_max_class_ap():
    report = evaluate(three_frame_fixture(), "sgdet", False)
    m, w = report["map_rel"], report["wmap_rel"]
    assert 0.0 <= min(m, w) and max(m, w) <= 1.0


def test_evaluate_report_shape():
    report = evaluate(three_frame_fixture(), "sgdet", constraint=True)
    for key in ("recall@10", "recall@20", "recall@50", "mean_recall@20", "map_rel", "wmap_rel"):
        assert key in report


def scalar_iou(a, b):
    ix = max(0.0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def loop_compatible(t, gt, gt_objects, mode):
    i, j, p, _, li, lj, bi, bj = t
    gi, gj, gp = gt
    if p != gp or li != gt_objects[gi].label or lj != gt_objects[gj].label:
        return False
    if mode in ("predcls", "sgcls"):
        return (i, j) == (gi, gj)
    return (scalar_iou(bi, gt_objects[gi].box) >= 0.5
            and scalar_iou(bj, gt_objects[gj].box) >= 0.5)


def loop_match(triplets, gt_triplets, gt_objects, mode):
    matched = set()
    for t in triplets:
        for g, gt in enumerate(gt_triplets):
            if g not in matched and loop_compatible(t, gt, gt_objects, mode):
                matched.add(g)
                break
    return matched


def loop_average_precision(flags, n_pos):
    if n_pos == 0:
        return 0.0
    tp = np.cumsum(flags, dtype=np.float64)
    fp = np.cumsum([1 - f for f in flags], dtype=np.float64)
    mrec = np.concatenate([[0.0], tp / n_pos, [1.0]])
    mpre = np.concatenate([[0.0], tp / np.maximum(tp + fp, 1e-12), [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def loop_evaluate(frames, mode, constraint):
    """Per-triplet reference for `evaluate`: every metric from its own greedy
    loops, relation AP over the corpus list sorted by (-score, frame, i, j)."""
    lists = []
    for fe in frames:
        labels, boxes = fe.ranked.labels.tolist(), fe.ranked.boxes.tolist()
        lists.append([(i, j, p, s, labels[i], labels[j], boxes[i], boxes[j])
                      for i, j, p, s in triplet_rows(fe.ranked, constraint)])
    scored = [(tl, fe) for tl, fe in zip(lists, frames) if fe.gt_triplets]
    report = {"mode": mode, "constraint": constraint}
    for k in RECALL_KS:
        vals = [len(loop_match(tl[:k], fe.gt_triplets, fe.gt_objects, mode)) / len(fe.gt_triplets)
                for tl, fe in scored]
        report[f"recall@{k}"] = float(np.mean(vals)) if vals else 0.0
    for k in RECALL_KS:
        per_class = {}
        for tl, fe in scored:
            matched = loop_match(tl[:FRAME_TRIPLET_CAP][:k], fe.gt_triplets, fe.gt_objects, mode)
            for c in {p for (_, _, p) in fe.gt_triplets}:
                total = sum(1 for (_, _, p) in fe.gt_triplets if p == c)
                got = sum(1 for g in matched if fe.gt_triplets[g][2] == c)
                per_class.setdefault(c, []).append(got / total)
        report[f"mean_recall@{k}"] = \
            float(np.mean([np.mean(v) for v in per_class.values()])) if per_class else 0.0
    pooled, gt_count = {}, {}
    for fi, (tl, fe) in enumerate(zip(lists, frames)):
        for (_, _, p) in fe.gt_triplets:
            gt_count[p] = gt_count.get(p, 0) + 1
        for t in tl[:FRAME_TRIPLET_CAP]:
            pooled.setdefault(t[2], []).append((fi, t))
    aps = {}
    for c, n_pos in sorted(gt_count.items()):
        used, flags = {}, []
        for fi, t in sorted(pooled.get(c, []), key=lambda e: (-e[1][3], e[0], e[1][0], e[1][1])):
            fe, taken, hit = frames[fi], used.setdefault(fi, set()), 0
            for g, gt in enumerate(fe.gt_triplets):
                if g not in taken and loop_compatible(t, gt, fe.gt_objects, "sgdet"):
                    taken.add(g)
                    hit = 1
                    break
            flags.append(hit)
        aps[c] = loop_average_precision(flags, n_pos)
    total = sum(gt_count.values())
    report["map_rel"] = float(np.mean(list(aps.values()))) if aps else 0.0
    report["wmap_rel"] = float(sum(gt_count[c] / total * aps[c] for c in aps)) if aps else 0.0
    return report


def random_corpus(rng):
    """Frames of 1-4 gt objects from a small pool of boxes and labels (so
    objects may coincide) and 0-5 detections, each a copy of a random object
    (so several may match one object) with a jittered box and at times a
    wrong label. Every other frame has label scores 1 and probabilities on a
    0.1 grid, which ties scores within and across frames."""
    frames = []
    for f in range(6):
        gt_objects = []
        for _ in range(1 + rng.integer(4)):
            w = 0.125 * (1 + rng.integer(2))
            gt_objects.append(_gt(0.125 * rng.integer(2), 0.125 * rng.integer(2), w, w,
                                  rng.integer(2)))
        n, boxes, labels = rng.integer(6), [], []
        for _ in range(n):
            o = gt_objects[rng.integer(len(gt_objects))]
            x, y, w, h = o.box
            boxes.append([x + 0.0625 * rng.integer(2), y, w, h])
            labels.append(o.label if rng.uniform() < 0.8 else rng.integer(G))
        rel = rng.uniform_array((n, n, H), 0.0, 1.0)
        label_scores = [rng.uniform(0.3, 1.0) for _ in range(n)]
        if f % 2:
            rel, label_scores = np.round(rel, 1), [1.0] * n
        ranked = rank_triplets(_pred(boxes, labels, label_scores, rel), constraint=False)
        m = len(gt_objects)
        triplets = {(rng.integer(m), rng.integer(m), rng.integer(H)) for _ in range(2 * m)}
        frames.append(FrameEval(ranked, sorted(t for t in triplets if t[0] != t[1]), gt_objects))
    return frames


def test_evaluate_matches_loop_reference():
    rng = RngStream(63)
    for trial in range(40):
        frames = random_corpus(rng.split(trial))
        for mode in ("predcls", "sgcls", "sgdet"):
            for constraint in (False, True):
                report = evaluate(frames, mode, constraint)
                assert report == loop_evaluate(frames, mode, constraint), (trial, mode)
                for k in RECALL_KS:
                    assert report[f"recall@{k}"] == recall_at_k(frames, k, mode, constraint)
                    assert report[f"mean_recall@{k}"] == mean_recall(frames, k, mode, constraint)
                sgdet = evaluate(frames, "sgdet", constraint)
                assert (report["map_rel"], report["wmap_rel"]) == \
                    (sgdet["map_rel"], sgdet["wmap_rel"])


@pytest.fixture(scope="module")
def served():
    """800 frames per mode: the size of the serving benchmark's corpus."""
    return served_corpus(n_train=40, n_test=100)


def edge_frames(served_frames):
    """Frames at the edges of the corpus layout: no nodes (with and without
    gt), one node, nodes but no gt, a duplicated gt triplet, and two
    detections that claim one gt triplet in sgdet."""
    gt_objects = [_gt(0.0, 0.0, 0.25, 0.25, 1), _gt(0.5, 0.5, 0.25, 0.25, 2)]
    empty = rank_triplets(_pred([], [], [], np.zeros((0, 0, H))), constraint=False)
    single = rank_triplets(_pred([[0.0, 0.0, 0.25, 0.25]], [1], [1.0], np.zeros((1, 1, H))),
                           constraint=False)
    rel = np.zeros((3, 3, H))
    rel[0, 2, 0], rel[1, 2, 0] = 0.9, 0.8
    # detections 0 and 1 both overlap gt object 0 at IoU >= 0.5
    claimed = rank_triplets(_pred([[0.0625, 0.0, 0.25, 0.25], [0.0, 0.0, 0.25, 0.25],
                                   [0.5, 0.5, 0.25, 0.25]], [1, 1, 2], [1.0, 1.0, 1.0], rel),
                            constraint=False)
    with_gt = next(fe for fe in served_frames if fe.gt_triplets)
    return [FrameEval(empty, [], []), FrameEval(empty, [(0, 1, 0)], gt_objects),
            FrameEval(single, [(0, 1, 0)], gt_objects),
            FrameEval(with_gt.ranked, [], with_gt.gt_objects),
            FrameEval(with_gt.ranked, with_gt.gt_triplets + with_gt.gt_triplets[:1],
                      with_gt.gt_objects),
            FrameEval(claimed, [(0, 1, 0)], gt_objects)]


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_evaluate_matches_loop_reference_on_served_frames(served, mode):
    frames = served[mode]
    edges = edge_frames(frames)
    # the edge frames at the start, in the middle and at the end
    corpus = edges + frames[:400] + edges + frames[400:] + edges
    for constraint in (False, True):
        assert evaluate(corpus, mode, constraint) == loop_evaluate(corpus, mode, constraint)


@pytest.mark.parametrize("constraint", [False, True], ids=["no-constraint", "constraint"])
def test_evaluate_transient_memory_is_bounded(served, constraint):
    # joined on (frame, predicate) alone, so that every pair of a frame's
    # predicate is a candidate, evaluate peaked at 19-29 MB here; joined on
    # labels too, at 4.8-6.2 MB
    frames = served["sgdet"]
    tracemalloc.start()
    try:
        evaluate(frames, "sgdet", constraint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"{peak / 2**20:.1f} MB"


def test_corpus_matching_equals_per_frame_matching():
    # the corpus-wide join and greedy pass against `match_frame` run frame
    # by frame on lists built from row tuples, in every mode
    rng = RngStream(64)
    for trial in range(40):
        frames = random_corpus(rng.split(trial))
        for mode in ("predcls", "sgcls", "sgdet"):
            for constraint in (False, True):
                corpus = _flatten(frames, 10**6, constraint)
                taken = _match(corpus, np.arange(len(corpus.score)), mode)
                frame = corpus.frame
                gt_start = np.searchsorted(corpus.gt_frame, np.arange(len(frames)))
                for f, fe in enumerate(frames):
                    want = match_frame(triplet_list(fe.ranked, constraint), fe.gt_triplets,
                                       fe.gt_objects, mode)
                    got = taken[frame == f]
                    np.testing.assert_array_equal(np.where(got >= 0, got - gt_start[f], -1),
                                                  want, err_msg=f"{trial} {mode} {f}")


def test_greedy_matches_form_a_prefix():
    # a deep matching pass read at rank < k equals the matching of the lists
    # cut to k, which is what lets evaluate read every K off one pass
    rng = RngStream(64)
    for trial in range(40):
        frames = random_corpus(rng.split(trial))
        for mode in ("predcls", "sgdet"):
            for constraint in (False, True):
                deep = _flatten(frames, 10**6, constraint)
                full = _match(deep, np.arange(len(deep.score)), mode)
                for k in (0, 1, 5, 20):
                    cut = _flatten(frames, k, constraint)
                    np.testing.assert_array_equal(_match(cut, np.arange(len(cut.score)), mode),
                                                  full[deep.rank < k],
                                                  err_msg=f"{trial} {mode} {constraint} {k}")


def test_greedy_consumes_the_lowest_free_gt_index():
    # detection 0 overlaps both gt subjects at IoU 0.6, detection 1 only the
    # first (IoU 1 and 1/3); the top triplet takes gt 0, which leaves the
    # second triplet nothing although an assignment covering both exists
    gt_objects = [_gt(0.0, 0.0, 0.25, 0.25, 1), _gt(0.125, 0.0, 0.25, 0.25, 1),
                  _gt(0.5, 0.5, 0.25, 0.25, 2)]
    rel = np.zeros((3, 3, H))
    rel[0, 2, 0], rel[1, 2, 0] = 0.9, 0.8
    pred = _pred([[0.0625, 0.0, 0.25, 0.25], [0.0, 0.0, 0.25, 0.25], [0.5, 0.5, 0.25, 0.25]],
                 [1, 1, 2], [1.0, 1.0, 1.0], rel)
    ranked = rank_triplets(pred, constraint=False)
    gt = [(0, 2, 0), (1, 2, 0)]
    top = triplet_list(ranked, True, 2)
    assert triplet_rows(top) == [(0, 2, 0, 0.9), (1, 2, 0, 0.8)]
    assert match_frame(top, gt, gt_objects, "sgdet").tolist() == [0, -1]
    assert recall_at_k([FrameEval(ranked, gt, gt_objects)], 2, "sgdet", True) == 0.5
    assert exhaustive_max_matches(top, gt, gt_objects, "sgdet") == 2


def tie_heavy_corpus():
    """Frames whose scores tie within and across frames: two frames of one
    5-node list whose 60 triplets all score 0.5 (so equal (score, subject)
    pairs differ in the object, and the tie straddles the FRAME_TRIPLET_CAP
    cut), then four of label scores 1 and probabilities on a 0.1 grid."""
    boxes = [[0.125 * i, 0.0, 0.25, 0.25] for i in range(5)]
    labels = [0, 1, 2, 3, 0]
    gt_objects = [_gt(*box, label) for box, label in zip(boxes, labels)]
    gt = [(0, 1, 0), (1, 2, 1), (3, 4, 2), (4, 0, 0), (2, 3, 1)]
    flat = rank_triplets(_pred(boxes, labels, [1.0] * 5, np.full((5, 5, H), 0.5)),
                         constraint=False)
    frames = [FrameEval(flat, gt, gt_objects), FrameEval(flat, gt[:2], gt_objects)]
    rng = RngStream(66)
    for _ in range(4):
        rel = np.round(rng.uniform_array((5, 5, H), 0.0, 1.0), 1)
        frames.append(FrameEval(rank_triplets(_pred(boxes, labels, [1.0] * 5, rel),
                                              constraint=False), gt, gt_objects))
    return frames


def assert_detection_pass_matches_lexsort(frames, label):
    """The detection pass and the relation-AP order equal the earlier sorts on
    every key (`reference_kernels`): whole and constrained lists, cut at the
    cap or not, with and without an sgdet pass to reuse."""
    for constraint in (False, True):
        for depth in (FRAME_TRIPLET_CAP, 10**6):
            c = _flatten(frames, depth, constraint)
            for taken in (None, _match(c, np.arange(len(c.score)), "sgdet")):
                rows, hit = _detection_pass(c, taken)
                want_rows, want_hit = four_key_detection_pass(c, taken)
                err = f"{label} {constraint} {depth} {taken is None}"
                np.testing.assert_array_equal(rows, want_rows, err_msg=err)
                np.testing.assert_array_equal(hit, want_hit, err_msg=err)
                assert _class_aps(c, rows, hit) == five_key_class_aps(c, want_rows, want_hit), err


@pytest.mark.parametrize("mode", ["predcls", "sgcls", "sgdet"])
def test_detection_pass_matches_lexsort_on_served_frames(served, mode):
    assert_detection_pass_matches_lexsort(served[mode], mode)


def test_detection_pass_matches_lexsort_on_tied_scores():
    frames = tie_heavy_corpus()
    flat = frames[0].ranked
    assert len(flat) > FRAME_TRIPLET_CAP
    assert flat.score[FRAME_TRIPLET_CAP - 1] == flat.score[FRAME_TRIPLET_CAP]
    assert_detection_pass_matches_lexsort(frames, "ties")
    for mode in ("predcls", "sgcls", "sgdet"):
        for constraint in (False, True):
            assert evaluate(frames, mode, constraint) == loop_evaluate(frames, mode, constraint)


def test_ap_envelope_matches_loop_reference():
    rng = RngStream(65)
    for _ in range(200):
        flags = [int(rng.uniform() < 0.4) for _ in range(rng.integer(12))]
        n_pos = sum(flags) + rng.integer(3)
        assert average_precision_from_flags(flags, n_pos) == loop_average_precision(flags, n_pos)


# ---------------------------------------------------------------------------
# efficiency accounting


def test_single_linear_layer_counting_rule():
    # the label head is one dense m -> g layer with a bias, applied to n rows
    dims = Dims()
    m, g = dims.m, dims.g
    shapes = model_shapes(dims, gcn_layers=2)
    assert shapes["label.w"] == (m, g) and shapes["label.b"] == (g,)
    assert math.prod(shapes["label.w"]) + math.prod(shapes["label.b"]) == m * g + g
    assert count_params_flops(dims, 1).breakdown["label_head"] == 2 * m * g


FLOP_GRID_DIMS = (Dims(), Dims(g=3, c=4, h=2, d=5), Dims(g=12, c=20, h=9, d=7))


def test_counts_equal_hand_summed_reference():
    # 3 dims x 1-3 GCN layers x n 0-9 x 4 variants x k {1, 2, 3, 9}: 1,440 cases
    cases = 0
    for dims, layers, n, variant, k in itertools.product(
            FLOP_GRID_DIMS, (1, 2, 3), range(10), ("spatial", "sparse", "dense", "tracking"),
            (1, 2, 3, 9)):
        got = count_params_flops(dims, n, variant, k=k, gcn_layers=layers)
        want = reference_params_flops(dims, n, variant, k=k, gcn_layers=layers)
        assert got == want, (dims, layers, n, variant, k)
        assert list(got.breakdown) == list(want.breakdown)
        cases += 1
    assert cases == 1440


def test_sparse_flops_below_dense_with_exact_gap():
    dims = Dims()
    m = dims.m
    link_cost = 2 * (2 * m) * m + 2 * m * m + 2 * (2 * m) * m + 2 * m * m
    for n in range(2, 9):
        sparse = count_params_flops(dims, n, "sparse", k=1)
        dense = count_params_flops(dims, n, "dense")
        assert sparse.flops_per_frame < dense.flops_per_frame
        assert dense.flops_per_frame - sparse.flops_per_frame == (n * n - n) * link_cost
        assert sparse.parameter_count == dense.parameter_count


def test_flops_monotone_in_k_and_saturating():
    dims = Dims()
    n = 5
    flops = [count_params_flops(dims, n, "sparse", k=k).flops_per_frame for k in range(1, 8)]
    assert all(a <= b for a, b in zip(flops, flops[1:]))
    dense = count_params_flops(dims, n, "dense").flops_per_frame
    assert flops[-1] == dense
    assert count_params_flops(dims, n, "sparse", k=n).flops_per_frame == dense


def test_parameter_count_matches_model():
    from stsg.params import ModelParams

    dims = Dims()
    report = count_params_flops(dims, 3)
    assert report.parameter_count == ModelParams.init(dims, seed=0).count()


def test_paper_scale_ratio_reported():
    dims = Dims()
    sparse = count_params_flops(dims, 3, "sparse", k=1)
    dense = count_params_flops(dims, 3, "dense")
    ratio = dense.flops_per_frame / sparse.flops_per_frame
    assert ratio > 1.0
