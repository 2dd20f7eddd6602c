"""The model's stages as single tape records with hand-written gradients.

Each op runs one stage of the pipeline in numpy and records itself on the
active tape once: the pair proposal with its per-node sums, a GCN layer,
the link relevance, the temporal encoding, the link aggregation with the
fusion, a pair head and the weighted loss. A record is a layer, where the
primitives of `autodiff` that a stage is made of would record one entry per
product, gather or nonlinearity, and the per-record cost is what a step of
this small model spends most on. Matrix products run per node; per pair
run only gathers, adds and segment sums. A layer on a pair's concatenated
rows, (x[i] ++ x[j]) @ w, is (x @ w_a)[i] + (x @ w_b)[j], w_a and w_b the
upper and lower rows of w, and a GCN message is a frame's sum minus the
node's own term.

Each gradient is the one the chain of primitives would give, bit for bit:
the same numpy expressions on the same arrays, in the same order
(`tests/reference_kernels.py` keeps the compositions they must match).
Where an op reads one input twice -- a GCN layer's input in its residual
and in its node transform, a pair layer's input through its two node
products -- its gradient has one entry per read, in the order the
primitives' reverse sweep would add them, and `autodiff.backward` sums
them in that order. An input the tape does not track, such as the packed
node features, gets no gradient computed.

Where a gradient is cut into pieces -- the frame context and the inner
encoding of the temporal encoding, the terms of each loss part -- each
piece is a view of the whole, not a copy: the segment sums, products and
reductions that read them give the same bits on a view as on a contiguous
copy. Index lists are `autodiff.SegmentPlan`s or plain lists, planned at
the call.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .autodiff import (
    SegmentPlan,
    Tensor,
    _log_softmax,
    _logistic,
    _record,
    _segment_log_softmax,
    _segment_sum,
    _tracked,
    _unbroadcast,
    segment_plan,
)
from .errors import ContractError

# ---------------------------------------------------------------------------
# numpy pieces shared by the ops: forward values and their gradients


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w (+ b): the matrix product of every op's forward pass."""
    return x @ w if b is None else x @ w + b


def _linear_grads(g, x, w, need_x: bool):
    """(dx or None, dw, db) of x @ w + b for the output gradient g."""
    return (g @ w.T if need_x else None), x.T @ g, g.sum(axis=0)


def _mlp2(h, w2, b2):
    """(hidden, output) of a two-layer perceptron whose first layer gave h."""
    r = np.maximum(h, 0.0)
    return r, _linear(r, w2, b2)


def _mlp2_grads(g, h, r, w2):
    """(dh, dw2, db2) of `_mlp2`: the gradient of the first layer's output,
    then the second layer's; the relu's subgradient at 0 is 0."""
    dr, dw2, db2 = _linear_grads(g, r, w2, True)
    return dr * (h > 0.0), dw2, db2


def _rows(x: np.ndarray, ids) -> np.ndarray:
    """x[ids] along the leading axis."""
    return x.take(ids, axis=0)


def _pair_linear(x, w, first, second, b):
    """(x[first] ++ x[second]) @ w + b as the rows of x @ w[:m] and
    x @ w[m:] (m the width of x) that each pair names, added."""
    m = x.shape[1]
    return _rows(_linear(x, w[:m]), first.ids) + _rows(_linear(x, w[m:]), second.ids) + b


def _pair_linear_grads(g, x, w, first, second, need_x: bool):
    """((dx by second, dx by first) or (None, None), dw, db) of `_pair_linear`,
    the pair gradient g summed by first and by second node before the products."""
    m = x.shape[1]
    da, db = _segment_sum(g, first), _segment_sum(g, second)
    dx = (db @ w[m:].T, da @ w[:m].T) if need_x else (None, None)
    return dx, np.concatenate([x.T @ da, x.T @ db]), g.sum(axis=0)


def _others(x: np.ndarray, node_frame: SegmentPlan) -> np.ndarray:
    """Each row's sum over the other rows of its frame: the frame's sum minus its own."""
    return _rows(_segment_sum(x, node_frame), node_frame.ids) - x


def _plans(n: int, *indices):
    return [segment_plan(ids, n, "gather-rows") for ids in indices]


def _params(tensors) -> list[np.ndarray]:
    return [t.data for t in tensors]


# ---------------------------------------------------------------------------
# the ops


def proposal_sums(x: Tensor, subj, obj, w1: Tensor, b1: Tensor, w2: Tensor,
                  b2: Tensor) -> Tensor:
    """(N, H) per-node sums over the listed pairs of sigmoid(mlp2(x[subj] ++ x[obj])),
    each pair summed into its subject's row."""
    xv = x.data
    subj, obj = _plans(xv.shape[0], subj, obj)
    inputs = (x, x, w1, b1, w2, b2)
    need = _tracked(inputs)
    w1v, b1v, w2v, b2v = _params(inputs[2:])
    h = _pair_linear(xv, w1v, subj, obj, b1v)
    r, z = _mlp2(h, w2v, b2v)
    s = _logistic(z)
    out = Tensor._wrap(_segment_sum(s, subj))
    if need:
        def vjp(g):
            dh, dw2, db2 = _mlp2_grads(_rows(g, subj.ids) * s * (1.0 - s), h, r, w2v)
            dx, dw1, db1 = _pair_linear_grads(dh, xv, w1v, subj, obj, need[0])
            return (*dx, dw1, db1, dw2, db2)
        _record(out, inputs, vjp)
    return out


def gcn_layer(x: Tensor, node_frame: SegmentPlan, edge_sums: Tensor, w_node: Tensor,
              w_edge: Tensor, bias: Tensor) -> Tensor:
    """relu(x + _others(x @ w_node + bias) + edge_sums @ w_edge): one propagation
    step, each node taking a message from every other node of the frame
    node_frame (`temporal.Packed.node_frame`) puts it in; a node alone in its
    frame gets an exact zero message.

    x is read twice, by the residual and by the node transform: its gradient
    comes as one entry per read, in that order.
    """
    xv, ev = x.data, edge_sums.data
    inputs = (x, x, edge_sums, w_node, w_edge, bias)
    need = _tracked(inputs)
    wn, we = w_node.data, w_edge.data
    t = _linear(xv, wn, bias.data)
    r = xv + (_others(t, node_frame) + ev @ we)
    out = Tensor._wrap(np.maximum(r, 0.0))
    if need:
        def vjp(g):
            dr = g * (r > 0.0)
            dsums = dr @ we.T if need[2] else None
            dx, dwn, db = _linear_grads(_others(dr, node_frame), xv, wn, need[0])
            return (dr if need[0] else None), dx, dsums, dwn, ev.T @ dr, db
        _record(out, inputs, vjp)
    return out


def link_relevance(x: Tensor, curr, prev, phi: Tensor) -> Tensor:
    """gamma[c] = <phi(x[curr[c]]), phi(x[prev[c]])> for every candidate link c,
    projecting each node once."""
    xv, pv = x.data, phi.data
    curr, prev = _plans(xv.shape[0], curr, prev)
    inputs = (x, phi)
    need = _tracked(inputs)
    proj = _linear(xv, pv)
    pc, pp = _rows(proj, curr.ids), _rows(proj, prev.ids)
    out = Tensor._wrap((pc * pp).sum(axis=1))
    if need:
        def vjp(g):
            col = g[:, None]
            dproj = _segment_sum(col * pc, prev) + _segment_sum(col * pp, curr)
            return (dproj @ pv.T if need[0] else None), xv.T @ dproj
        _record(out, inputs, vjp)
    return out


def frame_context(x: np.ndarray, node_frame, n_frames: int,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n_frames, m) mean of the rows of x in each frame, and `counts`,
    the (n_frames, 1) float64 row counts it divides by
    (`temporal.Packed.frame_counts`, counted over non-empty frames).
    node_frame is a plan or an id list."""
    return _segment_sum(x, segment_plan(node_frame, n_frames)) / counts, counts


def temporal_encoding(x: Tensor, node_frame, link_frame, curr, prev,
                      fg: tuple[Tensor, ...], ftau: tuple[Tensor, ...],
                      frame_counts: np.ndarray) -> Tensor:
    """tau = f_tau(context ++ f_g(x[curr] ++ x[prev])) for every link, where a
    link's context is the mean of x over the frame link_frame names.

    node_frame is a SegmentPlan over the frames, link_frame a plan or an id
    list over the same frames; fg and ftau are (w1, b1, w2, b2) of the two
    perceptrons; frame_counts are the node counts of the frames
    (`frame_context`). x is read three times: its gradient comes through the
    previous rows, the current rows and the context, in that order.
    """
    xv = x.data
    curr, prev = _plans(xv.shape[0], curr, prev)
    context, counts = frame_context(xv, node_frame, node_frame.n, frame_counts)
    link_frame = segment_plan(link_frame, node_frame.n, "gather-rows")
    inputs = (x, x, x, *fg, *ftau)
    need = _tracked(inputs)
    fgv, ftv = _params(fg), _params(ftau)
    h1 = _pair_linear(xv, fgv[0], curr, prev, fgv[1])
    r1, inner = _mlp2(h1, fgv[2], fgv[3])
    joined = np.concatenate([_rows(context, link_frame.ids), inner], axis=1)
    h2 = _linear(joined, ftv[0], ftv[1])
    r2, tau = _mlp2(h2, ftv[2], ftv[3])
    out = Tensor._wrap(tau)
    if need:
        def vjp(g):
            dh2, dw2, db2 = _mlp2_grads(g, h2, r2, ftv[2])
            djoined, dw1, db1 = _linear_grads(dh2, joined, ftv[0], True)
            width = context.shape[1]
            dctx, dinner = djoined[:, :width], djoined[:, width:]
            dh1, *dfg2 = _mlp2_grads(dinner, h1, r1, fgv[2])
            dx, *dfg1 = _pair_linear_grads(dh1, xv, fgv[0], curr, prev, need[0])
            if need[0]:
                dctx = _rows(_segment_sum(dctx, link_frame) / counts, node_frame.ids)
            return (*dx, dctx if need[0] else None, *dfg1, *dfg2, dw1, db1, dw2, db2)
        _record(out, inputs, vjp)
    return out


def fuse_link_mean(updated: Tensor, gamma_sel: Tensor, tau: Tensor, curr, guard: float) -> Tensor:
    """updated + the gamma-weighted mean of the tau rows of each row's links.

    A row whose weight sum is within guard of zero averages its links
    uniformly (its gradient then skips gamma); a row without links adds 0.
    A link's weight is gamma * keep + uniform, keep and uniform being 0/1
    flags of its row. When no row falls back, that is gamma * 1.0 + 0.0,
    which is gamma + 0.0 bit for bit, and the flags are not built.
    """
    uv, gv, tv = updated.data, gamma_sel.data, tau.data
    n = uv.shape[0]
    plan = segment_plan(curr, n)
    ids = plan.ids
    counts = np.bincount(ids, minlength=n)
    uniform = (np.abs(np.bincount(ids, weights=gv, minlength=n)) < guard) & (counts > 0)
    if uniform.any():
        keep = (~uniform[ids]).astype(np.float64)
        col = (gv * keep + uniform[ids].astype(np.float64)).reshape(len(ids), 1)
    else:
        keep, col = None, (gv + 0.0).reshape(len(ids), 1)
    numer = _segment_sum(tv * col, plan)
    # rows without links divide 0 by 1, yielding the exact zero vector
    safe = _segment_sum(col, plan) + (counts == 0).astype(np.float64).reshape(-1, 1)
    zeta = numer / safe
    if uv.shape != zeta.shape:
        raise ContractError(f"fuse: shapes {uv.shape} and {zeta.shape} differ")
    inputs = (updated, gamma_sel, tau)
    need = _tracked(inputs)
    out = Tensor._wrap(uv + zeta)
    if need:
        def vjp(g):
            dsafe = _unbroadcast(-g * numer / (safe * safe), safe.shape)
            dtc = _rows(g / safe, ids)
            dcol = _rows(dsafe, ids) + _unbroadcast(dtc * tv, col.shape)
            dgamma = None
            if need[1]:
                dgamma = dcol.reshape(len(ids))
                dgamma = dgamma if keep is None else dgamma * keep
            return (g if need[0] else None), dgamma, (dtc * col if need[2] else None)
        _record(out, inputs, vjp)
    return out


def pair_linear(x: Tensor, subj, obj, w: Tensor, b: Tensor) -> Tensor:
    """(x[subj] ++ x[obj]) @ w + b for the listed pairs."""
    xv, wv = x.data, w.data
    subj, obj = _plans(xv.shape[0], subj, obj)
    inputs = (x, x, w, b)
    need = _tracked(inputs)
    out = Tensor._wrap(_pair_linear(xv, wv, subj, obj, b.data))
    if need:
        def vjp(g):
            dx, dw, db = _pair_linear_grads(g, xv, wv, subj, obj, need[0])
            return (*dx, dw, db)
        _record(out, inputs, vjp)
    return out


def weighted_loss(weights: np.ndarray, logits: Tensor, sign: np.ndarray,
                  label_logits: Tensor | None = None, gamma: Tensor | None = None,
                  links: SegmentPlan | None = None) -> tuple[Tensor, np.ndarray]:
    """(weights . terms, terms), where terms runs over softplus(sign * logits),
    then the row log-softmax of label_logits, then the log-softmax of gamma
    within each segment of `links` (one id per entry of gamma), each
    flattened; the last two only when given."""
    z = logits.data.reshape(-1) * sign
    pieces = [np.logaddexp(0.0, z)]
    if label_logits is not None:
        labels = _log_softmax(label_logits.data, 1)
        pieces.append(labels.reshape(-1))
    if gamma is not None:
        pieces.append(_segment_log_softmax(gamma.data, links))
    terms = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    out = Tensor._wrap(np.asarray(weights @ terms))
    inputs = tuple(t for t in (logits, label_logits, gamma) if t is not None)
    if _tracked(inputs):
        bounds = list(accumulate((len(p) for p in pieces), initial=0))

        def vjp(g):
            scaled = g * weights
            parts = iter([scaled[a:b] for a, b in zip(bounds, bounds[1:])])
            grads = [(next(parts) * _logistic(z) * sign).reshape(logits.shape)]
            if label_logits is not None:
                d = next(parts).reshape(labels.shape)
                grads.append(d - np.exp(labels) * d.sum(axis=1, keepdims=True))
            if gamma is not None:
                d = next(parts)
                grads.append(d - np.exp(pieces[-1]) * _segment_sum(d, links)[links.ids])
            return grads
        _record(out, inputs, vjp)
    return out, terms
