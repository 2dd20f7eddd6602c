"""Autodiff primitives that the package no longer calls, kept for the tests.

The model's stages are single tape records with hand-written gradients
(`stsg.layers`); these primitives, with those the package still uses
(`stsg.autodiff`), compose the references the layers must match bit for
bit (`reference_kernels.py`) and the per-frame reference losses
(`reference_losses.py`). Each records one entry on the active tape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import stsg.autodiff as ad
from stsg.autodiff import SegmentPlan, Tensor
from stsg.errors import ContractError, ShapeError


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if not ad._broadcastable(av.shape, bv.shape):
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} do not broadcast")
    out = Tensor._wrap(av + bv)
    ad._record(out, (a, b), lambda g: (ad._unbroadcast(g, av.shape), ad._unbroadcast(g, bv.shape)))
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if not ad._broadcastable(av.shape, bv.shape):
        raise ShapeError(f"div: shapes {av.shape} and {bv.shape} do not broadcast")
    out = Tensor._wrap(av / bv)

    def vjp(g):
        ga = ad._unbroadcast(g / bv, av.shape)
        gb = ad._unbroadcast(-g * av / (bv * bv), bv.shape)
        return ga, gb

    ad._record(out, (a, b), vjp)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    nd = tensors[0].ndim
    for t in tensors:
        if t.ndim != nd:
            raise ShapeError(
                f"concat: rank mismatch {t.shape} vs {tensors[0].shape}"
            )
    try:
        out_arr = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    out = Tensor._wrap(out_arr)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    ad._record(out, tuple(tensors), vjp)
    return out


def relu(a: Tensor) -> Tensor:
    av = a.data
    out = Tensor._wrap(np.maximum(av, 0.0))
    # subgradient at 0 fixed to 0
    ad._record(out, (a,), lambda g: (g * (av > 0.0),))
    return out


def dot(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ShapeError(f"dot: need equal-length vectors, got {av.shape} and {bv.shape}")
    out = Tensor._wrap(np.asarray(av @ bv))
    ad._record(out, (a, b), lambda g: (g * bv, g * av))
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(a)) as a - max - log(sum(exp(a - max))): finite wherever the
    softmax itself underflows to 0."""
    out_arr = ad._log_softmax(a.data, axis)
    out = Tensor._wrap(out_arr)

    def vjp(g):
        return (g - np.exp(out_arr) * np.sum(g, axis=axis, keepdims=True),)

    ad._record(out, (a,), vjp)
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    av = a.data
    try:
        out_arr = av.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {av.shape} as {shape}") from None
    out = Tensor._wrap(out_arr)
    ad._record(out, (a,), lambda g: (g.reshape(av.shape),))
    return out


def _plan_per_row(kind: str, av: np.ndarray, segment_ids, n_segments: int) -> SegmentPlan:
    ids = segment_ids.ids if isinstance(segment_ids, SegmentPlan) else np.asarray(segment_ids)
    if av.ndim < 1 or ids.shape != av.shape[:1]:
        raise ShapeError(f"{kind}: need one segment id per row, got {ids.shape} for {av.shape}")
    return ad.segment_plan(segment_ids, n_segments, kind)


def segment_sum(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """out[s] = sum of the rows of a whose segment id is s; zero for a segment
    without rows. `segment_ids` is a SegmentPlan or an id list."""
    av = a.data
    plan = _plan_per_row("segment-sum", av, segment_ids, n_segments)
    out = Tensor._wrap(ad._segment_sum(av, plan))
    ad._record(out, (a,), lambda g: (g[plan.ids],))
    return out


def segment_log_softmax(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """log_softmax of a vector within each segment: the ragged rows of a
    log_softmax(axis=1), each entry normalised over the entries sharing its id."""
    av = a.data
    plan = _plan_per_row("segment-log-softmax", av, segment_ids, n_segments)
    if av.ndim != 1:
        raise ShapeError(f"segment-log-softmax: need a vector, got shape {av.shape}")
    out_arr = ad._segment_log_softmax(av, plan)
    out = Tensor._wrap(out_arr)

    def vjp(g):
        return (g - np.exp(out_arr) * ad._segment_sum(g, plan)[plan.ids],)

    ad._record(out, (a,), vjp)
    return out
