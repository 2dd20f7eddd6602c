"""Earlier forms of the hot kernels, kept as references the current ones must
match bit for bit (`test_kernels.py`, `test_layers.py`, `test_metrics.py`).

Each does work whose result the current kernel no longer needs: the
logistic scatters through boolean masks, the segment reduction fills and
scatters even when every segment has rows, the rankings and the relation-AP
pass sort on every key explicitly, evaluation numbers its keys by
`np.unique`, stable-sorts every score list and finds gt runs by two binary
searches, Adam builds its moments and its step as new arrays, and the
feature bank picks each class's node frame by frame and class by class.

The model's stages, composed from the autodiff primitives (one tape record
per product, gather or nonlinearity), are the references of the single-record
ops of `stsg.layers`: `composed_forward_batch` and `composed_batch_loss`
are the whole training step built from them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import primitives as prim
import stsg.autodiff as ad
import stsg.temporal
import stsg.training
from fixtures import RankedColumns
from stsg.autodiff import Tensor
from stsg.errors import ContractError
from stsg.metrics import (FRAME_TRIPLET_CAP, IOU_THRESHOLD, NO_CONSTRAINT_PER_PAIR, RECALL_KS,
                          _cat, _class_order, _flatten, _join_key, _match, _mean_ap, _number,
                          _recalls, _starts, average_precision_from_flags)
from stsg.params import linear
from stsg.scene import box_iou
from stsg.spatial import frame_pairs
from stsg.temporal import BatchOutput, topk_links, tracking_links


def masked_logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    s = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    s[~pos] = e / (1.0 + e)
    return s


def fill_scatter_reduce(ufunc, values: np.ndarray, plan, empty: float) -> np.ndarray:
    """ufunc-reduce the rows of `values` per segment of the plan into a
    filled array; segments without rows hold `empty`."""
    out = np.full((plan.n,) + values.shape[1:], empty)
    if len(plan):
        order, starts, segments = plan.runs()
        if order is not None:
            values = values[order]
        out[segments] = ufunc.reduceat(values, starts, axis=0)
    return out


def five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes) -> list[RankedColumns]:
    """Evaluation's unconstrained ranking (`metrics._rank`) by one sort on
    (frame, -score, subject, object, predicate) over each pair's kept
    predicates in probability order: each frame's columns."""
    sizes = np.asarray(sizes, dtype=np.intp)
    keep = min(NO_CONSTRAINT_PER_PAIR, probs.shape[1])
    label_scores = np.max(label_dists, axis=1)
    kept = np.argsort(-probs, axis=1, kind="stable")[:, :keep]
    scores = ((label_scores[subj] * label_scores[obj])[:, None]
              * np.take_along_axis(probs, kept, axis=1)).ravel()
    subj, obj, kept = np.repeat(subj, keep), np.repeat(obj, keep), kept.ravel()
    starts = np.cumsum(sizes) - sizes
    node_frame = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((kept, obj, subj, -scores, node_frame[subj]))
    local = np.arange(len(node_frame)) - np.repeat(starts, sizes)
    subj, obj, kept, scores = local[subj[order]], local[obj[order]], kept[order], scores[order]
    labels = np.argmax(label_dists, axis=1)
    nodes = np.concatenate([starts, [len(node_frame)]]).tolist()
    cuts = np.concatenate([[0], np.cumsum(sizes * (sizes - 1) * keep)]).tolist()
    return [RankedColumns(subj[a:b], obj[a:b], kept[a:b], scores[a:b], labels[x:y], boxes[x:y],
                          label_scores[x:y])
            for a, b, x, y in zip(cuts[:-1], cuts[1:], nodes[:-1], nodes[1:])]


def three_key_topk_links(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """`temporal.topk_links` by a sort on (row, -score, position)."""
    order = np.lexsort((np.arange(len(scores)), -scores, rows))
    ranked_rows = rows[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked_rows, ranked_rows)
    mask = np.zeros(len(scores), dtype=bool)
    mask[order[rank < k]] = True
    return mask


def four_key_detection_pass(c, taken=None):
    """`metrics._detection_pass` by a sort on (frame, -score, subject,
    object), which the corpus's rows need not already be in."""
    rows = np.flatnonzero(c.rank < FRAME_TRIPLET_CAP)
    order = np.lexsort((c.obj[rows], c.subj[rows], -c.score[rows], c.frame[rows]))
    if taken is not None and (order == np.arange(len(rows))).all():
        return rows, taken[rows]
    rows = rows[order]
    return rows, _match(c, rows, "sgdet")


def five_key_class_aps(c, rows, taken):
    """`metrics._class_aps` by a sort on (predicate, -score, frame, subject,
    object)."""
    classes, counts = np.unique(c.gt_pred, return_counts=True)
    gt_count = dict(zip(classes.tolist(), counts.tolist()))
    pred, hit = c.predicate[rows], taken >= 0
    order = np.lexsort((c.obj[rows], c.subj[rows], c.frame[rows], -c.score[rows], pred))
    pred, hit = pred[order], hit[order]
    aps = {}
    for cls, n_pos in sorted(gt_count.items()):
        lo, hi = np.searchsorted(pred, [cls, cls + 1])
        aps[cls] = average_precision_from_flags(hit[lo:hi], n_pos)
    return aps, gt_count


def unique_sort_rank(graphs, n_nodes, depth, constraint):
    """`metrics._rank` with each list-length group sorted by a stable argsort."""
    h = graphs[0].pair_probs.shape[1] if graphs else 1
    probs = _cat([g.pair_probs for g in graphs], np.float64).reshape(-1, h)
    label_scores = _cat([g.label_scores for g in graphs], np.float64)
    subj, obj = frame_pairs(n_nodes)
    pair_scores = (label_scores[subj] * label_scores[obj])[:, None]
    keep = min(NO_CONSTRAINT_PER_PAIR, h)
    if keep == h:   # every predicate is kept, in ascending order
        top = None
        scores = pair_scores * probs
    else:   # each pair's most probable predicates, in ascending order
        top = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :keep], axis=1)
        scores = pair_scores * np.take_along_axis(probs, top, axis=1)
    if not np.isfinite(scores).all():
        raise ContractError("evaluation: triplet scores must be finite")
    per_pair = 1 if constraint else keep
    pair = np.repeat(np.arange(len(scores)), per_pair)
    if constraint:
        kept = scores.argmax(axis=1)    # the first of equal best scores
        score = scores[pair, kept]
    else:
        kept = np.tile(np.arange(keep), len(scores))
        score = scores.ravel()
    predicate = kept if top is None else top[pair, kept]
    per_frame = n_nodes * (n_nodes - 1) * per_pair
    starts = _starts(per_frame)
    negated = -score
    order = np.empty(len(score), np.intp)
    for length in sorted(set(per_frame.tolist()) - {0}):
        at = starts[per_frame == length][:, None] + np.arange(length)
        order[at] = np.argsort(negated[at], axis=1, kind="stable") + at[:, :1]
    rank = np.arange(len(order)) - np.repeat(starts, per_frame)
    cut = rank < depth
    rows = order[cut]
    pair = pair[rows]
    return (np.repeat(np.arange(len(graphs)), per_frame)[cut], rank[cut], subj[pair],
            obj[pair], predicate[rows], score[rows])


def unique_sort_match(c, rows, mode):
    """`metrics._match` with the gt values numbered by `np.unique` and each
    row's run of equal gt keys found by a left and a right binary search."""
    taken = np.full(len(rows), -1)
    if not len(rows) or not len(c.gt_pred):
        return taken
    predicates, gt_pred = np.unique(c.gt_pred, return_inverse=True)
    labels, gt_label = np.unique(c.gt_labels, return_inverse=True)
    sizes = len(predicates), len(labels)
    gt_key = _join_key(c.gt_frame, gt_pred, gt_label[c.gt_subj], gt_label[c.gt_obj], *sizes)
    by_key = np.argsort(gt_key, kind="stable")      # ties keep the gt index order
    sorted_key = gt_key[by_key]
    node_label = _number(c.labels, labels)
    key = _join_key(c.frame[rows], _number(c.predicate[rows], predicates),
                    node_label[c.subj[rows]], node_label[c.obj[rows]], *sizes)
    lo = np.searchsorted(sorted_key, key, side="left")
    counts = np.searchsorted(sorted_key, key, side="right") - lo
    # every (row, gt) pair with equal keys, row-major and gt index ascending
    pair_row = np.repeat(np.arange(len(rows)), counts)
    pair_gt = by_key[np.arange(len(pair_row)) - np.repeat(_starts(counts) - lo, counts)]
    triplet = rows[pair_row]
    subj, obj, frame = c.subj[triplet], c.obj[triplet], c.frame[triplet]
    gs, go = c.gt_subj[pair_gt], c.gt_obj[pair_gt]
    if mode in ("predcls", "sgcls"):
        shift = (c.node_start - c.object_start)[frame]   # node index -> gt-object index
        ok = (subj - shift == gs) & (obj - shift == go)
    else:
        ok = ((box_iou(c.boxes[subj], c.gt_boxes[gs]) >= IOU_THRESHOLD)
              & (box_iou(c.boxes[obj], c.gt_boxes[go]) >= IOU_THRESHOLD))
    done, used = set(), set()
    for r, g in zip(pair_row[ok].tolist(), pair_gt[ok].tolist()):
        if r not in done and g not in used:
            done.add(r)
            used.add(g)
            taken[r] = g
    return taken


def unique_sort_mean_recalls(c, taken, ks):
    """`metrics._mean_recalls` with the classes and cells numbered by `np.unique`."""
    if not len(c.gt_pred):
        return [0.0 for _ in ks]
    n_frames = len(c.node_start)
    classes, first, cls = np.unique(c.gt_pred, return_index=True, return_inverse=True)
    cells, cell, total = np.unique(cls * n_frames + c.gt_frame, return_inverse=True,
                                   return_counts=True)
    bounds = np.searchsorted(cells, np.arange(len(classes) + 1) * n_frames)
    order = np.searchsorted(classes, _class_order(c, classes, c.gt_frame[first]))
    spans = [(bounds[i], bounds[i + 1]) for i in order.tolist()]
    out = []
    for k in ks:
        hit = taken[(c.rank < min(k, FRAME_TRIPLET_CAP)) & (taken >= 0)]
        share = np.bincount(cell[hit], minlength=len(cells)) / total
        out.append(float(np.mean([np.mean(share[lo:hi]) for lo, hi in spans])))
    return out


def unique_sort_class_aps(c, rows, taken):
    """`metrics._class_aps` with the classes counted by `np.unique` and the
    scores and the int64 predicates each sorted by a stable argsort."""
    classes, counts = np.unique(c.gt_pred, return_counts=True)
    gt_count = dict(zip(classes.tolist(), counts.tolist()))
    order = np.argsort(-c.score[rows], kind="stable")
    order = order[np.argsort(c.predicate[rows[order]], kind="stable")]
    pred, hit = c.predicate[rows[order]], taken[order] >= 0
    aps = {}
    for cls, n_pos in sorted(gt_count.items()):
        lo, hi = np.searchsorted(pred, [cls, cls + 1])
        aps[cls] = average_precision_from_flags(hit[lo:hi], n_pos)
    return aps, gt_count


def unique_sort_evaluate(frames, mode, constraint):
    """`metrics.evaluate` from the four functions above."""
    depth = max(max(RECALL_KS), FRAME_TRIPLET_CAP)
    graphs = [fe.graph for fe in frames]
    n_nodes = np.array([len(g.labels) for g in graphs], dtype=np.intp)
    columns = unique_sort_rank(graphs, n_nodes, depth, constraint)
    c = replace(_flatten(frames, depth, constraint),
                **dict(zip(("frame", "rank", "subj", "obj", "predicate", "score"), columns)))
    taken = unique_sort_match(c, np.arange(len(c.score)), mode)
    report = {"mode": mode, "constraint": constraint}
    for k, value in zip(RECALL_KS, _recalls(c, taken, RECALL_KS)):
        report[f"recall@{k}"] = value
    for k, value in zip(RECALL_KS, unique_sort_mean_recalls(c, taken, RECALL_KS)):
        report[f"mean_recall@{k}"] = value
    rows = np.flatnonzero(c.rank < FRAME_TRIPLET_CAP)
    hit = taken[rows] if mode == "sgdet" else unique_sort_match(c, rows, "sgdet")
    aps, gt_count = unique_sort_class_aps(c, rows, hit)
    report["map_rel"] = _mean_ap(aps, gt_count, weighted=False)
    report["wmap_rel"] = _mean_ap(aps, gt_count, weighted=True)
    return report


def out_of_place_adam(x, g, m, v, t, lr, beta1, beta2, eps):
    """One Adam step at step count t: (stepped x, new m, new v), all new arrays."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    mhat = m / (1 - beta1 ** t)
    vhat = v / (1 - beta2 ** t)
    return x - lr * mhat / (np.sqrt(vhat) + eps), m, v


def in_place_adam(x, g, m, v, t, lr, beta1, beta2, eps):
    """One Adam step at step count t on moments m and v, updated in place:
    the stepped x, a new array, with every other intermediate one too."""
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    mhat = m / (1 - beta1 ** t)
    vhat = v / (1 - beta2 ** t)
    return x - lr * mhat / (np.sqrt(vhat) + eps)


def loop_feature_bank(predictions, variant: str, dims) -> np.ndarray:
    """`featurebank.build_feature_bank` by a loop over frames and classes: each
    present class's row takes the feature of its members' argmax label score."""
    z = np.zeros((len(predictions), dims.g, dims.m))
    for t, pred in enumerate(predictions):
        if pred.n == 0:
            continue
        feats = pred.fused if variant == "spatial_temporal" else pred.gcn
        labels = np.argmax(pred.label_dists, axis=1)
        scores = np.max(pred.label_dists, axis=1)
        for c in range(dims.g):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                continue
            best = members[np.argmax(scores[members])]  # argmax keeps the lowest index on ties
            z[t, c] = feats[best]
    return z


# ---------------------------------------------------------------------------
# the model's stages composed from primitives


def mlp2(x, w1, b1, w2, b2):
    return linear(prim.relu(linear(x, w1, b1)), w2, b2)


def composed_pair_linear(x, first, second, w, b):
    """(x[first] ++ x[second]) @ w + b as (x @ w_a)[first] + (x @ w_b)[second] + b,
    w_a and w_b the upper and lower rows of w, each taken by a gather."""
    m = x.shape[1]
    w_a, w_b = ad.gather_rows(w, np.arange(m)), ad.gather_rows(w, np.arange(m, 2 * m))
    a, b_ = ad.matmul(x, w_a), ad.matmul(x, w_b)
    return prim.add(prim.add(ad.gather_rows(a, first), ad.gather_rows(b_, second)), b)


def composed_proposal(feats, subj, obj, params):
    """sigmoid(mlp(feat_i ++ feat_j)), (P, H) for the listed pairs."""
    hidden = prim.relu(composed_pair_linear(feats, subj, obj, params["prop.w1"],
                                            params["prop.b1"]))
    return prim.sigmoid(linear(hidden, params["prop.w2"], params["prop.b2"]))


def composed_proposal_sums(feats, subj, obj, params):
    """The per-node sums of `composed_proposal` over each node's pairs."""
    return prim.segment_sum(composed_proposal(feats, subj, obj, params), subj, feats.shape[0])


def composed_gcn_layer(feats, node_frame, edge_sums, w_node, w_edge, bias):
    """Each node's message as its frame's sum of x @ w_node + bias minus its own."""
    t = linear(feats, w_node, bias)
    frame_sums = ad.gather_rows(prim.segment_sum(t, node_frame, node_frame.n), node_frame)
    node_msg = prim.add(frame_sums, prim.scale(t, -1.0))
    edge_msg = ad.matmul(edge_sums, w_edge)
    return prim.relu(prim.add(feats, prim.add(node_msg, edge_msg)))


def composed_gcn_propagate(feats, node_frame, edge_sums, params):
    out = feats
    for layer in range(params.gcn_layers):
        out = composed_gcn_layer(out, node_frame, edge_sums, params[f"gcn.{layer}.w_node"],
                                 params[f"gcn.{layer}.w_edge"], params[f"gcn.{layer}.bias"])
    return out


def composed_link_relevance(feats, curr, prev, phi):
    proj = ad.matmul(feats, phi)
    return prim.reduce_sum(prim.mul(ad.gather_rows(proj, curr), ad.gather_rows(proj, prev)), axis=1)


def composed_frame_context(feats, node_frame, n_frames):
    counts = np.bincount(np.asarray(node_frame), minlength=n_frames)
    return prim.div(prim.segment_sum(feats, node_frame, n_frames),
                  Tensor(counts.reshape(-1, 1).astype(np.float64)))


def composed_temporal_encoding(feats, node_frame, link_frame, curr, prev, params):
    """The frame context of each link's frame, then f_tau(context ++ f_g(pair))."""
    context = ad.gather_rows(composed_frame_context(feats, node_frame, node_frame.n),
                             link_frame)
    hidden = prim.relu(composed_pair_linear(feats, curr, prev, params["temporal.fg.w1"],
                                            params["temporal.fg.b1"]))
    inner = linear(hidden, params["temporal.fg.w2"], params["temporal.fg.b2"])
    joined = prim.concat([context, inner], axis=1)
    return mlp2(joined, params["temporal.ftau.w1"], params["temporal.ftau.b1"],
                params["temporal.ftau.w2"], params["temporal.ftau.b2"])


def composed_fuse_link_mean(updated, gamma_sel, tau, curr_idx, n_curr):
    """updated + the relevance-weighted mean of tau per current node."""
    n_links = tau.shape[0]
    plan = ad.segment_plan(curr_idx, n_curr)
    ids = plan.ids
    denom_vals = np.bincount(ids, weights=gamma_sel.data, minlength=n_curr)
    counts = np.bincount(ids, minlength=n_curr)
    uniform_rows = (np.abs(denom_vals) < stsg.temporal.DENOM_GUARD) & (counts > 0)
    keep_gamma = (~uniform_rows[ids]).astype(np.float64)
    force_one = uniform_rows[ids].astype(np.float64)
    weights = prim.add(prim.mul(gamma_sel, Tensor(keep_gamma)), Tensor(force_one))
    col = prim.reshape(weights, (n_links, 1))
    numer = prim.segment_sum(prim.mul(tau, col), plan, n_curr)
    denom = prim.segment_sum(col, plan, n_curr)
    safe = prim.add(denom, Tensor((counts == 0).astype(np.float64).reshape(-1, 1)))
    return prim.add(updated, prim.div(numer, safe))


def composed_forward_batch(packed, params, k=1):
    """`temporal.forward_batch` with every stage composed from primitives."""
    variant = packed.variant
    n = packed.n_nodes
    feats = Tensor(packed.feats)
    sums = composed_proposal_sums(feats, packed.subj, packed.obj, params)
    updated = composed_gcn_propagate(feats, packed.node_frame, sums, params)
    fused, gamma = updated, None
    chosen = np.zeros(0, dtype=np.intp)
    cand_curr = packed.cand_curr.ids
    if len(cand_curr):
        gamma = composed_link_relevance(updated, packed.cand_curr, packed.cand_prev,
                                        params["temporal.phi"])
        if variant == "sparse":
            mask = topk_links(gamma.data, cand_curr, k)
        elif variant == "dense":
            mask = np.ones(len(cand_curr), dtype=bool)
        else:
            labels = np.argmax(packed.feats[:, 4:4 + params.dims.g], axis=1)
            mask = tracking_links(packed.feats[:, :4], labels, cand_curr, packed.cand_prev.ids)
        chosen = np.flatnonzero(mask)
        if len(chosen):
            curr_ids = cand_curr[chosen]
            curr_idx = ad.SegmentPlan(curr_ids, n)
            prev_idx = ad.SegmentPlan(packed.cand_prev.ids[chosen], n)
            frame_idx = ad.SegmentPlan(packed.node_frame.ids[curr_ids], packed.n_frames)
            tau = composed_temporal_encoding(updated, packed.node_frame, frame_idx,
                                             curr_idx, prev_idx, params)
            fused = composed_fuse_link_mean(updated, ad.gather_rows(gamma, chosen), tau,
                                            curr_idx, n)
    logits = composed_pair_linear(fused, packed.subj, packed.obj, params["rel.w"],
                                  params["rel.b"])
    label_logits = None
    if packed.mode != "predcls":
        label_logits = linear(fused, params["label.w"], params["label.b"])
    return BatchOutput(gcn=updated, fused=fused, relation_logits=logits,
                       label_logits=label_logits, gamma=gamma, links=chosen)


# ---------------------------------------------------------------------------
# the pair layers' earlier forms: a row per pair of concatenated encodings,
# and a GCN message per listed pair


def concatenated_pair_rows(x, first, second):
    return prim.concat([ad.gather_rows(x, first), ad.gather_rows(x, second)], axis=1)


def concatenated_proposal_sums(feats, subj, obj, params):
    """`composed_proposal_sums` with the perceptron on each pair's concatenated rows."""
    hidden = prim.relu(linear(concatenated_pair_rows(feats, subj, obj), params["prop.w1"],
                              params["prop.b1"]))
    probs = prim.sigmoid(linear(hidden, params["prop.w2"], params["prop.b2"]))
    return prim.segment_sum(probs, subj, feats.shape[0])


def pair_list_gcn_layer(feats, subj, obj, edge_sums, w_node, w_edge, bias):
    """`composed_gcn_layer` with a message for each listed pair (i, j), from j to i."""
    n = feats.shape[0]
    node_msg = prim.segment_sum(ad.gather_rows(linear(feats, w_node, bias), obj), subj, n)
    edge_msg = ad.matmul(edge_sums, w_edge)
    return prim.relu(prim.add(feats, prim.add(node_msg, edge_msg)))


def concatenated_pair_linear(fused, subj, obj, w, b):
    return linear(concatenated_pair_rows(fused, subj, obj), w, b)


def concatenated_temporal_encoding(feats, node_frame, link_frame, curr, prev, params):
    """`composed_temporal_encoding` with f_g on each link's concatenated rows."""
    context = ad.gather_rows(composed_frame_context(feats, node_frame, node_frame.n),
                             link_frame)
    inner = mlp2(concatenated_pair_rows(feats, curr, prev), params["temporal.fg.w1"],
                 params["temporal.fg.b1"], params["temporal.fg.w2"], params["temporal.fg.b2"])
    joined = prim.concat([context, inner], axis=1)
    return mlp2(joined, params["temporal.ftau.w1"], params["temporal.ftau.b1"],
                params["temporal.ftau.w2"], params["temporal.ftau.b2"])


def composed_weighted_loss(weights, logits, sign, label_logits, gamma, links):
    """(weights . terms, terms) from the primitives, as `layers.weighted_loss`."""
    z = prim.reshape(logits, (logits.size,))
    pieces = [prim.softplus(prim.mul(z, Tensor(sign)))]
    if label_logits is not None:
        pieces.append(prim.reshape(prim.log_softmax(label_logits, axis=1), (label_logits.size,)))
    if gamma is not None:
        pieces.append(prim.segment_log_softmax(gamma, links, links.n))
    terms = pieces[0] if len(pieces) == 1 else prim.concat(pieces)
    return prim.dot(Tensor(weights), terms), terms.data


def composed_event_head_loss(pooled, head, labels):
    """The event head's mean BCE over every logit from the primitives, as
    `featurebank.train_event_head` once built it: the mean of
    softplus(sign * pooled @ head), sign -1 on a positive label."""
    sign = Tensor(np.where(labels > 0, -1.0, 1.0))
    terms = prim.softplus(prim.mul(ad.matmul(Tensor(pooled), head), sign))
    return prim.scale(prim.reduce_sum(terms), 1.0 / terms.size)


def composed_batch_loss(packed, targets, out, lambda_node):
    """The total of `training.batch_loss`, composed from primitives."""
    t = targets
    weight = [t.rel_weight]
    use_node = out.label_logits is not None and lambda_node != 0.0
    use_link = out.gamma is not None and stsg.training.LINK_WEIGHT != 0.0
    if use_node:
        weight.append(lambda_node * t.node_weight)
    if use_link:
        weight.append(stsg.training.LINK_WEIGHT * t.link_weight)
    return composed_weighted_loss(np.concatenate(weight), out.relation_logits,
                                  t.rel_sign,
                                  out.label_logits if use_node else None,
                                  out.gamma if use_link else None, packed.cand_curr)[0]
