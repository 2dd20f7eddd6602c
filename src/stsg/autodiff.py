"""Dense float64 tensors with tape-based reverse-mode differentiation.

Values are numpy arrays; while a Tape is active, every op records itself
so `backward` can replay the chain rule in reverse. The tape's unit is a
model layer: each stage of the pipeline, the loss included, is one op with
a hand-written gradient (`layers`), built on the pieces here. Besides
those, the package records three generic ops: the label head's `affine`,
the gather of the selected links' relevance (`gather_rows`) and the
feature-bank event head's `matmul`. Served probabilities need no tape and
come from the array functions `_logistic` and `_softmax`. Tensors are
immutable values and safe to share; a Tape is single threaded, but
independent tapes may run concurrently.

Gathers and segment reductions take a `SegmentPlan`: an index list whose
range is checked, and whose stable sort order and `reduceat` runs are
found, once rather than on every forward and backward call. The packed
batch builds its plans with the data (`temporal.pack`), and joins them
without sorting again; a raw index list passed to an op becomes a plan at
the call, so every scatter and reduction takes the same path. A plan finds
its runs when a reduction first needs them: a forward pass without a tape
gathers along many lists it never reduces over.

`backward` returns one gradient per watched leaf. Model parameters are
views of one flat vector (`params.ModelParams`), and training gathers
these gradients into that vector's layout once per step, so the checks,
the clip and the optimizer run on whole vectors.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "matmul",
    "affine",
    "SegmentPlan",
    "segment_plan",
    "gather_rows",
]


class Tensor:
    """Immutable dense float64 value, row-major."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # fast path for op outputs: takes ownership, no copy
        t = object.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(t, "data", arr)
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Ordered record of primitive applications plus parameter leaf markers.

    Records are appended in execution order, so every node's inputs precede
    it and a single reverse sweep visits each node exactly once. Only ops
    with an input that depends on a watched leaf are recorded: no other op
    can pass gradient to a leaf.
    """

    __slots__ = ("_records", "_watched", "_watched_ids", "_tracked_ids")

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._watched: list[Tensor] = []
        self._watched_ids: set[int] = set()
        # watched leaves and recorded outputs; the tape keeps all of them
        # alive, so none of their ids can be reused while it exists
        self._tracked_ids: set[int] = set()

    def watch(self, *tensors: Tensor) -> None:
        """Mark tensors as parameter leaves whose gradients backward returns."""
        for t in tensors:
            if id(t) not in self._watched_ids:
                self._watched_ids.add(id(t))
                self._tracked_ids.add(id(t))
                self._watched.append(t)

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _STACK.pop()
        assert popped is self, "tapes must be exited in LIFO order"

    def __len__(self) -> int:
        return len(self._records)


_STACK: list[Tape] = []


def _record(output: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
    if _STACK:
        tape = _STACK[-1]
        if not tape._tracked_ids.isdisjoint(map(id, inputs)):
            tape._records.append((output, inputs, vjp))
            tape._tracked_ids.add(id(output))


def _tracked(inputs: tuple[Tensor, ...]) -> tuple[bool, ...] | None:
    """Which of the inputs the active tape tracks; None when it tracks none
    of them or no tape is active, so that an op records nothing."""
    if not _STACK:
        return None
    tracked = _STACK[-1]._tracked_ids
    need = tuple(id(t) in tracked for t in inputs)
    return need if any(need) else None


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Gradients of a scalar loss w.r.t. every watched leaf on the tape.

    Leaves that do not influence the loss get exact zeros of their shape.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, inputs, vjp in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            if gi is None:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = gi if acc is None else acc + gi
    return {
        p: Tensor._wrap(grads[id(p)]) if id(p) in grads else Tensor._wrap(np.zeros_like(p.data))
        for p in tape._watched
    }


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return a == b or all(x == y or x == 1 or y == 1 for x, y in zip(a[::-1], b[::-1]))


def _check_matmul(kind: str, av: np.ndarray, bv: np.ndarray) -> None:
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise ShapeError(f"{kind}: operands must be 1-D or 2-D, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ShapeError(f"{kind}: inner dimensions differ for {av.shape} @ {bv.shape}")


def _matmul_vjp(g: np.ndarray, av: np.ndarray, bv: np.ndarray):
    A = av if av.ndim == 2 else av[None, :]
    B = bv if bv.ndim == 2 else bv[:, None]
    G = g.reshape(A.shape[0], B.shape[1])
    return (G @ B.T).reshape(av.shape), (A.T @ G).reshape(bv.shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    _check_matmul("matmul", av, bv)
    out = Tensor._wrap(av @ bv)
    _record(out, (a, b), lambda g: _matmul_vjp(g, av, bv))
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one record: the values and gradients of add(matmul(x, w), b)."""
    xv, wv, bv = x.data, w.data, b.data
    _check_matmul("affine", xv, wv)
    prod = xv @ wv
    if not _broadcastable(prod.shape, bv.shape):
        raise ShapeError(f"affine: shapes {prod.shape} and {bv.shape} do not broadcast")
    out = Tensor._wrap(prod + bv)
    _record(out, (x, w, b), lambda g: (*_matmul_vjp(g, xv, wv), _unbroadcast(g, bv.shape)))
    return out


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from exp(-|x|), which never overflows: 1 / (1 + e)
    where x >= 0 and e / (1 + e) below; NaN stays NaN."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _log_softmax(av: np.ndarray, axis: int) -> np.ndarray:
    shifted = av - np.max(av, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


class SegmentPlan:
    """One index list, prepared once for gathers and segment reductions.

    The ids lie in [0, n), checked when the plan is built. The runs that a
    reduction needs -- the stable sort order of the ids (None when they are
    already sorted), the `reduceat` start of each run of equal ids in that
    order, and the segment of each run -- are found on the first call of
    `runs()` and kept. A gather never needs them; its backward scatter over
    rows and the segment reductions do. A plan reads as its id array
    wherever numpy wants one.
    """

    __slots__ = ("ids", "n", "_runs")

    def __init__(self, ids, n: int, kind: str = "segment-plan"):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise ShapeError(f"{kind}: indices must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ContractError(f"{kind}: " + _OUT_OF_RANGE.get(kind, _OUT_OF_SEGMENTS).format(n=n))
        self.ids, self.n, self._runs = ids, int(n), None

    def __len__(self) -> int:
        return len(self.ids)

    def __array__(self, dtype=None, copy=None):
        return self.ids if dtype is None else self.ids.astype(dtype)

    def runs(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """(order, starts, segments): reducing values[order] at starts gives
        the reduction of each segment in segments."""
        if self._runs is None:
            ids, order = self.ids, None
            if np.any(ids[1:] < ids[:-1]):
                order = np.argsort(ids, kind="stable")
                ids = ids[order]
            first = np.empty(ids.size, dtype=bool)
            first[:1] = True
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            self._runs = (order, starts, ids[starts])
        return self._runs

    @classmethod
    def join(cls, parts: Sequence["SegmentPlan"]) -> "SegmentPlan":
        """The plan of the parts' lists concatenated, each part's ids offset by
        the segments of the parts before it. Every id of a part lies below
        the next part's, so the runs are concatenated, not sorted again."""
        id_off = list(accumulate((p.n for p in parts), initial=0))
        pos_off = list(accumulate((len(p.ids) for p in parts), initial=0))
        runs = [p.runs() for p in parts]

        def cat(arrays, offsets):
            return np.concatenate([a + o if o else a for a, o in zip(arrays, offsets)])

        order = None
        if any(r[0] is not None for r in runs):
            order = cat([np.arange(len(p.ids)) if r[0] is None else r[0]
                         for p, r in zip(parts, runs)], pos_off)
        plan = object.__new__(cls)
        plan.ids, plan.n = cat([p.ids for p in parts], id_off), id_off[-1]
        plan._runs = (order, cat([r[1] for r in runs], pos_off), cat([r[2] for r in runs], id_off))
        return plan


_OUT_OF_SEGMENTS = "segment id out of range for {n} segments"
_OUT_OF_RANGE = {"gather-rows": "index out of range for {n} rows"}


def segment_plan(indices, n: int, kind: str = "segment-plan") -> SegmentPlan:
    """`indices` as a plan over n segments: a plan as it is, an index list planned."""
    if not isinstance(indices, SegmentPlan):
        return SegmentPlan(indices, n, kind)
    if indices.n != n:
        raise ContractError(f"{kind}: plan over {indices.n} segments, need {n}")
    return indices


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along the leading axis; backward scatter-adds.

    `indices` is a SegmentPlan over the rows of a, or an index list."""
    av = a.data
    if av.ndim < 1:
        raise ShapeError("gather-rows: need at least 1-D input")
    plan = segment_plan(indices, av.shape[0], "gather-rows")
    out = Tensor._wrap(av[plan.ids])
    _record(out, (a,), lambda g: (_segment_sum(g, plan),))
    return out


def _segment_reduce(ufunc, values: np.ndarray, plan: SegmentPlan, empty: float) -> np.ndarray:
    """ufunc-reduce the rows of `values` per segment of the plan; segments
    without rows hold `empty`."""
    out_shape = (plan.n,) + values.shape[1:]
    if not len(plan):
        return np.full(out_shape, empty)
    order, starts, segments = plan.runs()
    reduced = ufunc.reduceat(values if order is None else values.take(order, axis=0), starts,
                             axis=0)
    if len(segments) == plan.n:   # every segment has rows
        return reduced
    out = np.full(out_shape, empty)
    out[segments] = reduced
    return out


def _segment_sum(values: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    if values.ndim == 1:
        # sums in index order, like np.add.at, and faster on vectors
        return np.bincount(plan.ids, weights=values, minlength=plan.n)
    return _segment_reduce(np.add, values, plan, 0.0)


def _segment_log_softmax(av: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    ids = plan.ids
    shifted = av - _segment_reduce(np.maximum, av, plan, -np.inf)[ids]
    return shifted - np.log(_segment_sum(np.exp(shifted), plan)[ids])

