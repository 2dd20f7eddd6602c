"""Earlier forms of the hot kernels, kept as references the current ones must
match bit for bit (`test_kernels.py`).

Each does work whose result the current kernel no longer needs: the
logistic scatters through boolean masks, the segment reduction fills and
scatters even when every segment has rows, the rankings sort on every key
explicitly, and Adam builds its moments as new arrays.
"""

from __future__ import annotations

import numpy as np

from stsg.temporal import NO_CONSTRAINT_PER_PAIR, RankedFrame


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
