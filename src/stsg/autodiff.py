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
found, once rather than on every forward and backward call. Every index
list is range-checked when it is planned: a raw list passed to an op
becomes a checked plan at the call, so every scatter and reduction takes
the same path. Two kinds of plan skip that check, because their range
holds by construction (`SegmentPlan.derived`): the packed batch's plans,
which `temporal.pack` builds from the frame sizes, and the selected links'
plans, which `temporal.forward_batch` takes as rows of those checked plans.
Prepared and joined plans are not checked or sorted again either:
`training.prepare` stores a sequence's ids, sort orders and runs as a few
stacked arrays, and `training.join` concatenates them, shifted by where
each sequence's nodes, frames, pairs and candidates start; each plan is a
row view of them, given its runs. A plan finds its runs when a reduction
first needs them: a forward pass without a tape gathers along many lists
it never reduces over. A reduction whose runs are all one row long -- each
node with one link -- takes the rows in plan order, which is what
`reduceat` would return.

`backward` returns one flat vector: each watched leaf's gradient in its
slice, in watch order. Model parameters are views of one flat vector
(`params.ModelParams`), watched in its layout (`Tape.watch_laid_out`
takes the layout's slices as they are), so a training step wraps
that vector as its gradient as it is, and the checks, the clip and the
optimizer run on whole vectors.
"""

from __future__ import annotations

from typing import Callable

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
        t.data = arr
        return t

    @classmethod
    def _frozen(cls, arr: np.ndarray) -> "Tensor":
        # for an array that already is read-only, C-contiguous float64
        t = object.__new__(cls)
        t.data = arr
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
    can pass gradient to a leaf. Each watched leaf owns a slice of the flat
    gradient vector `backward` returns, in watch order.
    """

    __slots__ = ("_records", "_watched", "_leaves", "_size", "_tracked_ids")

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._watched: list[Tensor] = []
        # id of each watched leaf -> the slice of the flat gradient it owns
        self._leaves: dict[int, slice] = {}
        self._size = 0
        # watched leaves and recorded outputs; the tape keeps all of them
        # alive, so none of their ids can be reused while it exists
        self._tracked_ids: set[int] = set()

    def watch(self, *tensors: Tensor) -> None:
        """Mark tensors as parameter leaves whose gradients backward returns."""
        leaves, size = self._leaves, self._size
        for t in tensors:
            key = id(t)
            if key not in leaves:
                stop = size + t.data.size
                leaves[key], size = slice(size, stop), stop
                self._tracked_ids.add(key)
                self._watched.append(t)
        self._size = size

    def watch_laid_out(self, tensors, slices: tuple[slice, ...]) -> None:
        """Watch distinct tensors on a tape that watches none yet, each owning
        its slice of the flat gradient: consecutive slices from 0, one per
        tensor, as `params.Layout.slices` lays them out. `watch` finds the
        same slices one tensor at a time."""
        leaves = dict(zip(map(id, tensors), slices))
        if self._leaves or len(leaves) != len(slices):
            raise ContractError("watch_laid_out: need distinct tensors on a tape that "
                                "watches none yet, one slice each")
        self._leaves, self._size = leaves, slices[-1].stop if slices else 0
        self._tracked_ids = set(leaves)
        self._watched = list(tensors)

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


def backward(tape: Tape, loss: Tensor) -> np.ndarray:
    """Gradients of a scalar loss w.r.t. the watched leaves on the tape, as
    one flat float64 vector: each leaf's gradient, raveled, in its slice,
    the leaves in watch order.

    A leaf's first gradient contribution is copied into its slice and later
    ones are added there, in the order of the reverse sweep; leaves that do
    not influence the loss read exact zeros.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    leaves = tape._leaves
    flat = np.zeros(tape._size)
    written: set[int] = set()   # leaves whose slice holds a contribution
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    if id(loss) in leaves:   # a watched loss is its own gradient
        flat[leaves[id(loss)]] = 1.0
    for out, inputs, vjp in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            if gi is None:
                continue
            key = id(t)
            leaf = leaves.get(key)
            if leaf is None:
                acc = grads.get(key)
                grads[key] = gi if acc is None else acc + gi
            elif key in written:
                view = flat[leaf]
                view += gi.reshape(-1)
            else:
                flat[leaf] = gi.reshape(-1)
                written.add(key)
    return flat


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
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(av: np.ndarray, axis: int) -> np.ndarray:
    shifted = av - av.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


class SegmentPlan:
    """One index list, prepared once for gathers and segment reductions.

    The ids lie in [0, n), checked when the plan is built from an index
    list; `derived` builds a plan without that check, for ids whose range
    the package has already made certain. The runs that a reduction needs
    -- the stable sort order of the ids (None when they are already
    sorted), the `reduceat` start of each run of equal ids in that order,
    and the segment of each run -- are found on the first call of `runs()`
    and kept. A gather never needs them; its backward scatter over
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

    @classmethod
    def derived(cls, ids: np.ndarray, n: int, runs=None) -> "SegmentPlan":
        """The plan of a 1-D intp array whose ids lie in [0, n) by
        construction, unchecked: ids computed from node counts, or rows of a
        checked plan's ids. `runs`, when given, are the ids' runs as `runs()`
        would find them. An index list from anywhere else goes through the
        checked constructor."""
        plan = object.__new__(cls)
        plan.ids, plan.n, plan._runs = ids, n, runs
        return plan

    def __len__(self) -> int:
        return len(self.ids)

    def __array__(self, dtype=None, copy=None):
        return self.ids if dtype is None else self.ids.astype(dtype)

    def runs(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """(order, starts, segments): reducing values[order] at starts gives
        the reduction of each segment in segments."""
        if self._runs is None:
            ids, order = self.ids, None
            if (ids[1:] < ids[:-1]).any():
                order = np.argsort(ids, kind="stable")
                ids = ids[order]
            first = np.empty(ids.size, dtype=bool)
            first[:1] = True
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            self._runs = (order, starts, ids[starts])
        return self._runs


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
    rows = len(plan.ids)
    if not rows:
        return np.full(out_shape, empty)
    order, starts, segments = plan.runs()
    if len(starts) < rows:
        reduced = ufunc.reduceat(values if order is None else values.take(order, axis=0),
                                 starts, axis=0)
    else:   # every run is one row, which reduceat would copy
        reduced = values.copy() if order is None else values.take(order, axis=0)
    if len(segments) == plan.n:   # every segment has rows
        return reduced
    out = np.zeros(out_shape) if empty == 0.0 else np.full(out_shape, empty)
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
