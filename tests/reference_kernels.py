"""Earlier forms of the hot kernels, kept as references the current ones must
match bit for bit (`test_kernels.py`, `test_layers.py`).

Each does work whose result the current kernel no longer needs: the
logistic scatters through boolean masks, the segment reduction fills and
scatters even when every segment has rows, the rankings sort on every key
explicitly, Adam builds its moments and its step as new arrays, and the feature bank
picks each class's node frame by frame and class by class.

The model's stages, composed from the autodiff primitives (one tape record
per product, gather or nonlinearity), are the references of the single-record
ops of `stsg.layers`: `composed_forward_batch` and `composed_batch_loss`
are the whole training step built from them.
"""

from __future__ import annotations

import numpy as np

import primitives as prim
import stsg.autodiff as ad
import stsg.temporal
import stsg.training
from stsg.autodiff import Tensor
from stsg.params import linear
from stsg.temporal import (
    NO_CONSTRAINT_PER_PAIR,
    BatchOutput,
    RankedFrame,
    topk_links,
    tracking_links,
)


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


def five_key_rank_frames(probs, subj, obj, label_dists, boxes, sizes) -> list[RankedFrame]:
    """`temporal.rank_frames` by one sort on (frame, -score, subject, object,
    predicate) over each pair's kept predicates in probability order."""
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
    return [RankedFrame(subj[a:b], obj[a:b], kept[a:b], scores[a:b], labels[x:y], boxes[x:y])
            for a, b, x, y in zip(cuts[:-1], cuts[1:], nodes[:-1], nodes[1:])]


def three_key_topk_links(scores: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """`temporal.topk_links` by a sort on (row, -score, position)."""
    order = np.lexsort((np.arange(len(scores)), -scores, rows))
    ranked_rows = rows[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked_rows, ranked_rows)
    mask = np.zeros(len(scores), dtype=bool)
    mask[order[rank < k]] = True
    return mask


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


def composed_proposal(feats, subj, obj, params):
    """sigmoid(mlp(feat_i ++ feat_j)), (P, H) for the listed pairs."""
    pairs = prim.concat([ad.gather_rows(feats, subj), ad.gather_rows(feats, obj)], axis=1)
    hidden = prim.relu(linear(pairs, params["prop.w1"], params["prop.b1"]))
    return prim.sigmoid(linear(hidden, params["prop.w2"], params["prop.b2"]))


def composed_proposal_sums(feats, subj, obj, params):
    """The per-node sums of `composed_proposal` over each node's pairs."""
    return prim.segment_sum(composed_proposal(feats, subj, obj, params), subj, feats.shape[0])


def composed_gcn_layer(feats, subj, obj, edge_sums, w_node, w_edge, bias):
    n = feats.shape[0]
    node_msg = prim.segment_sum(ad.gather_rows(linear(feats, w_node, bias), obj), subj, n)
    edge_msg = ad.matmul(edge_sums, w_edge)
    return prim.relu(prim.add(feats, prim.add(node_msg, edge_msg)))


def composed_gcn_propagate(feats, subj, obj, edge_sums, params):
    out = feats
    for layer in range(params.gcn_layers):
        out = composed_gcn_layer(out, subj, obj, edge_sums, params[f"gcn.{layer}.w_node"],
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
    pairs = prim.concat([ad.gather_rows(feats, curr), ad.gather_rows(feats, prev)], axis=1)
    inner = mlp2(pairs, params["temporal.fg.w1"], params["temporal.fg.b1"],
                 params["temporal.fg.w2"], params["temporal.fg.b2"])
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


def composed_pair_linear(fused, subj, obj, w, b):
    pairs = prim.concat([ad.gather_rows(fused, subj), ad.gather_rows(fused, obj)], axis=1)
    return linear(pairs, w, b)


def composed_forward_batch(packed, params, k=1):
    """`temporal.forward_batch` with every stage composed from primitives."""
    variant = packed.variant
    n = packed.n_nodes
    feats = Tensor(packed.feats)
    sums = composed_proposal_sums(feats, packed.subj, packed.obj, params)
    updated = composed_gcn_propagate(feats, packed.subj, packed.obj, sums, params)
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
                                  np.where(t.rel_positive, -1.0, 1.0),
                                  out.label_logits if use_node else None,
                                  out.gamma if use_link else None, packed.cand_curr)[0]
