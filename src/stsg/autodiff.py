"""Dense float64 tensors with tape-based reverse-mode differentiation.

Values are numpy arrays; while a Tape is active, every primitive records
itself so `backward` can replay the chain rule in reverse. The op set is
deliberately small: exactly what the scene-graph pipeline and its losses
need. Tensors are immutable values and safe to share; a Tape is single
threaded, but independent tapes may run concurrently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "constant",
    "primitive",
    "matmul",
    "affine",
    "add",
    "scale",
    "concat",
    "relu",
    "sigmoid",
    "reduce_mean",
    "mul",
    "dot",
    "reduce_sum",
    "log",
    "div",
    "softplus",
    "softmax",
    "log_softmax",
    "reshape",
    "transpose",
    "gather_rows",
    "segment_sum",
    "segment_log_softmax",
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


def constant(data) -> Tensor:
    return data if isinstance(data, Tensor) else Tensor(data)


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


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if not _broadcastable(av.shape, bv.shape):
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} do not broadcast")
    out = Tensor._wrap(av + bv)
    _record(out, (a, b), lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor._wrap(a.data * c)
    _record(out, (a,), lambda g: (g * c,))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if not _broadcastable(av.shape, bv.shape):
        raise ShapeError(f"elementwise-mul: shapes {av.shape} and {bv.shape} do not broadcast")
    out = Tensor._wrap(av * bv)
    _record(out, (a, b), lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if not _broadcastable(av.shape, bv.shape):
        raise ShapeError(f"div: shapes {av.shape} and {bv.shape} do not broadcast")
    out = Tensor._wrap(av / bv)

    def vjp(g):
        ga = _unbroadcast(g / bv, av.shape)
        gb = _unbroadcast(-g * av / (bv * bv), bv.shape)
        return ga, gb

    _record(out, (a, b), vjp)
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

    _record(out, tuple(tensors), vjp)
    return out


def relu(a: Tensor) -> Tensor:
    av = a.data
    out = Tensor._wrap(np.maximum(av, 0.0))
    # subgradient at 0 fixed to 0
    _record(out, (a,), lambda g: (g * (av > 0.0),))
    return out


def sigmoid(a: Tensor) -> Tensor:
    av = a.data
    s = np.empty_like(av, dtype=np.float64)
    pos = av >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    e = np.exp(av[~pos])
    s[~pos] = e / (1.0 + e)
    out = Tensor._wrap(s)
    _record(out, (a,), lambda g: (g * s * (1.0 - s),))
    return out


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    av = a.data
    if av.size == 0:
        raise ContractError("mean: empty tensor")
    out = Tensor._wrap(np.mean(av, axis=axis))

    def vjp(g):
        if axis is None:
            return (np.full(av.shape, g / av.size),)
        return (np.broadcast_to(np.expand_dims(g, axis) / av.shape[axis], av.shape).copy(),)

    _record(out, (a,), vjp)
    return out


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    av = a.data
    out = Tensor._wrap(np.sum(av, axis=axis))

    def vjp(g):
        if axis is None:
            return (np.full(av.shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), av.shape).copy(),)

    _record(out, (a,), vjp)
    return out


def dot(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ShapeError(f"dot: need equal-length vectors, got {av.shape} and {bv.shape}")
    out = Tensor._wrap(np.asarray(av @ bv))
    _record(out, (a, b), lambda g: (g * bv, g * av))
    return out


def log(a: Tensor) -> Tensor:
    av = a.data
    # log(0) yields -inf on purpose: saturated losses must surface as
    # non-finite totals, which training treats as an abort condition
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor._wrap(np.log(av))
    _record(out, (a,), lambda g: (g / av,))
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow; gradient is sigmoid(x)."""
    av = a.data
    out = Tensor._wrap(np.logaddexp(0.0, av))

    def vjp(g):
        s = np.empty_like(av)
        pos = av >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
        e = np.exp(av[~pos])
        s[~pos] = e / (1.0 + e)
        return (g * s,)

    _record(out, (a,), vjp)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    av = a.data
    shifted = av - np.max(av, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor._wrap(s)

    def vjp(g):
        return (s * (g - np.sum(g * s, axis=axis, keepdims=True)),)

    _record(out, (a,), vjp)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(a)) as a - max - log(sum(exp(a - max))): finite wherever the
    softmax itself underflows to 0."""
    av = a.data
    shifted = av - np.max(av, axis=axis, keepdims=True)
    out_arr = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    out = Tensor._wrap(out_arr)

    def vjp(g):
        return (g - np.exp(out_arr) * np.sum(g, axis=axis, keepdims=True),)

    _record(out, (a,), vjp)
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    av = a.data
    try:
        out_arr = av.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {av.shape} as {shape}") from None
    out = Tensor._wrap(out_arr)
    _record(out, (a,), lambda g: (g.reshape(av.shape),))
    return out


def transpose(a: Tensor) -> Tensor:
    av = a.data
    if av.ndim != 2:
        raise ShapeError(f"transpose: need a matrix, got shape {av.shape}")
    out = Tensor._wrap(av.T)
    _record(out, (a,), lambda g: (np.ascontiguousarray(g.T),))
    return out


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along the leading axis; backward scatter-adds."""
    av = a.data
    if av.ndim < 1:
        raise ShapeError("gather-rows: need at least 1-D input")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather-rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise ContractError(
            f"gather-rows: index out of range for {av.shape[0]} rows"
        )
    out = Tensor._wrap(av[idx])
    _record(out, (a,), lambda g: (_segment_sum(g, idx, av.shape[0]),))
    return out


def _segment_reduce(ufunc, values: np.ndarray, ids: np.ndarray, n: int,
                    empty: float) -> np.ndarray:
    """ufunc-reduce the rows of `values` per segment id in [0, n); segments
    without rows hold `empty`."""
    out = np.full((n,) + values.shape[1:], empty)
    if ids.size:
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, values = ids[order], values[order]
        first = np.empty(ids.size, dtype=bool)
        first[0] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        out[ids[starts]] = ufunc.reduceat(values, starts, axis=0)
    return out


def _segment_sum(values: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    if values.ndim == 1:
        # sums in index order, like np.add.at, and faster on vectors
        return np.bincount(ids, weights=values, minlength=n)
    return _segment_reduce(np.add, values, ids, n, 0.0)


def _segment_ids(kind: str, av: np.ndarray, segment_ids, n_segments: int) -> np.ndarray:
    ids = np.asarray(segment_ids, dtype=np.intp)
    if av.ndim < 1 or ids.shape != av.shape[:1]:
        raise ShapeError(f"{kind}: need one segment id per row, got {ids.shape} for {av.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise ContractError(f"{kind}: segment id out of range for {n_segments} segments")
    return ids


def segment_sum(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """out[s] = sum of the rows of a whose segment id is s; zero for a segment without rows."""
    av = a.data
    ids = _segment_ids("segment-sum", av, segment_ids, n_segments)
    out = Tensor._wrap(_segment_sum(av, ids, n_segments))
    _record(out, (a,), lambda g: (g[ids],))
    return out


def segment_log_softmax(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """log_softmax of a vector within each segment: the ragged rows of a
    log_softmax(axis=1), each entry normalised over the entries sharing its id."""
    av = a.data
    ids = _segment_ids("segment-log-softmax", av, segment_ids, n_segments)
    if av.ndim != 1:
        raise ShapeError(f"segment-log-softmax: need a vector, got shape {av.shape}")
    shifted = av - _segment_reduce(np.maximum, av, ids, n_segments, -np.inf)[ids]
    out_arr = shifted - np.log(_segment_sum(np.exp(shifted), ids, n_segments)[ids])
    out = Tensor._wrap(out_arr)

    def vjp(g):
        return (g - np.exp(out_arr) * _segment_sum(g, ids, n_segments)[ids],)

    _record(out, (a,), vjp)
    return out


_PRIMITIVES: dict[str, Callable] = {
    "matmul": matmul,
    "affine": affine,
    "add": add,
    "scale": scale,
    "concat": lambda *ts, axis=0: concat(list(ts), axis=axis),
    "relu": relu,
    "sigmoid": sigmoid,
    "mean": reduce_mean,
    "elementwise-mul": mul,
    "dot": dot,
    "sum": reduce_sum,
    "log": log,
    "div": div,
    "softplus": softplus,
    "softmax": softmax,
    "log-softmax": log_softmax,
    "reshape": reshape,
    "transpose": transpose,
    "gather-rows": gather_rows,
    "segment-sum": segment_sum,
    "segment-log-softmax": segment_log_softmax,
}


def primitive(kind: str, *inputs, **attrs) -> Tensor:
    """Apply a primitive by name; unknown kinds are a contract violation."""
    fn = _PRIMITIVES.get(kind)
    if fn is None:
        raise ContractError(f"primitive: unknown op-kind {kind!r}")
    return fn(*inputs, **attrs)


def op_kinds() -> tuple[str, ...]:
    return tuple(_PRIMITIVES)
