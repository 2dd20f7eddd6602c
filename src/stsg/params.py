"""Named, checkpointable model parameters and small layer helpers.

All weights use the row-vector convention: a layer mapping a -> b is a
matrix of shape (a, b) applied as `x @ W + bias`. Hidden widths of the
two-layer perceptrons equal the node width m. `model_shapes` is the table
of every parameter's name and shape; initialisation, the checkpoint checks
and the FLOP accounting all read it.

The parameters live in one flat float64 vector; a `Layout` names the
tensors, their shapes and their offsets in it, and each tensor is a
read-only view of its slice. Gradients use the same layout
(`Gradients`): `watch_all` watches the tensors in layout order, so the
flat vector `autodiff.backward` writes is already in it, and the
finiteness check, the clip and the optimizer each work on that one vector
instead of looping over the tensors.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import Dims
from .errors import ContractError, ShapeError
from .rng import RngStream


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.affine(x, w, b)


def model_shapes(dims: Dims, gcn_layers: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in layout and initialisation order:
    the one place where the architecture's shapes are written."""
    m, g, h, d = dims.m, dims.g, dims.h, dims.d
    # pairwise relation proposal: 2m -> m -> h
    shapes = {"prop.w1": (2 * m, m), "prop.b1": (m,), "prop.w2": (m, h), "prop.b2": (h,)}
    for layer in range(gcn_layers):
        shapes |= {f"gcn.{layer}.w_node": (m, m), f"gcn.{layer}.w_edge": (h, m),
                   f"gcn.{layer}.bias": (m,)}
    # cross-frame relevance projection (linear, no bias)
    shapes["temporal.phi"] = (m, d)
    # pair encoder f_g: 2m -> m -> m ; relation encoder f_tau: 2m -> m -> m
    for enc in ("fg", "ftau"):
        shapes |= {f"temporal.{enc}.w1": (2 * m, m), f"temporal.{enc}.b1": (m,),
                   f"temporal.{enc}.w2": (m, m), f"temporal.{enc}.b2": (m,)}
    # relation classifier (single fully connected layer) and label head
    shapes |= {"rel.w": (2 * m, h), "rel.b": (h,), "label.w": (m, g), "label.b": (g,)}
    return shapes


class Layout:
    """Names, shapes and offsets of named tensors stacked in one flat vector."""

    __slots__ = ("names", "shapes", "offsets", "slices", "_views")

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.names = tuple(shapes)
        self.shapes = tuple(tuple(s) for s in shapes.values())
        self.offsets = tuple(accumulate((math.prod(s) for s in self.shapes), initial=0))
        # each tensor's slice of the flat vector, in layout order
        self.slices = tuple(slice(a, b) for a, b in zip(self.offsets, self.offsets[1:]))
        # a vector's slice is its view as it is; other shapes reshape it
        self._views = tuple((name, cut, shape if len(shape) != 1 else None)
                            for name, cut, shape in zip(self.names, self.slices, self.shapes))

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor as a reshaped view of its slice of `flat`."""
        if flat.shape != (self.size,):
            raise ShapeError(f"params: flat vector of shape {flat.shape}, layout holds {self.size}")
        return {name: flat[cut] if shape is None else flat[cut].reshape(shape)
                for name, cut, shape in self._views}

    def flatten(self, arrays) -> np.ndarray:
        """The flat vector of name -> array values (in layout order)."""
        return np.concatenate([np.asarray(arrays[name], dtype=np.float64).reshape(-1)
                               for name in self.names])


def _frozen(flat: np.ndarray) -> np.ndarray:
    """flat as a read-only float64 vector; an array that already is one is
    frozen in place, not copied."""
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    flat.setflags(write=False)
    return flat


class ModelParams:
    """All learned weights of the pipeline, keyed by dotted name: read-only
    views of one flat float64 vector, which the constructor freezes in place."""

    def __init__(self, dims: Dims, layout: Layout, flat: np.ndarray, gcn_layers: int):
        self.dims = dims
        self.gcn_layers = gcn_layers
        self.layout = layout
        self.flat = _frozen(flat)
        # views of a frozen contiguous vector are frozen and contiguous too
        self._tensors = {name: Tensor._frozen(v) for name, v in layout.views(self.flat).items()}

    @classmethod
    def init(cls, dims: Dims, seed: int, gcn_layers: int = 2) -> "ModelParams":
        """Glorot-normal matrices (fan-in = rows) and zero vectors, drawn in
        table order."""
        rng = RngStream(seed, stream=17)
        arrays = {name: rng.normal_array(shape, 0.0, 1.0 / np.sqrt(shape[0]))
                  if len(shape) == 2 else np.zeros(shape)
                  for name, shape in model_shapes(dims, gcn_layers).items()}
        return cls.from_arrays(dims, arrays, gcn_layers)

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise ContractError(f"params: unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return list(self.layout.names)

    def items(self):
        return self._tensors.items()

    def watch_all(self, tape: Tape) -> None:
        """Watch every tensor in layout order, so that the gradient vector
        `autodiff.backward` returns is in this layout too."""
        tape.watch_laid_out(self._tensors.values(), self.layout.slices)

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """The same layout holding other values."""
        return ModelParams(self.dims, self.layout, flat, self.gcn_layers)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self._tensors.items()}

    @classmethod
    def from_arrays(cls, dims: Dims, arrays: dict[str, np.ndarray], gcn_layers: int) -> "ModelParams":
        layout = Layout({k: np.shape(v) for k, v in arrays.items()})
        return cls(dims, layout, layout.flatten(arrays), gcn_layers)

    def count(self) -> int:
        return self.layout.size


class Gradients:
    """Gradients of a scalar loss in the layout of its parameters: one flat
    vector, with per-parameter views on demand."""

    __slots__ = ("layout", "flat", "_norm")

    def __init__(self, layout: Layout, flat: np.ndarray):
        self.layout = layout
        self.flat = _frozen(flat)
        self._norm = None

    def norm(self) -> float:
        """The global L2 norm, from one dot product of the flat vector,
        computed at the first call and kept. Where that product overflows
        and every entry is finite, the norm comes from the vector scaled by
        its largest magnitude (`_unit`), and scaled back; it is inf only
        where the norm itself lies beyond the float range."""
        if self._norm is None:
            # vdot is np.dot's product, bit for bit, without its overflow warning
            flat = self.flat
            norm = np.sqrt(np.vdot(flat, flat))
            if norm == np.inf:
                top, unit = self._unit()
                if unit is not None:
                    norm = top * math.sqrt(np.vdot(unit, unit))
            self._norm = float(norm)
        return self._norm

    def _unit(self) -> tuple[float, np.ndarray | None]:
        """(max|g|, g / max|g|), whose norm lies in [1, sqrt(size)]; the
        second is None where an entry is not finite."""
        top = float(np.max(np.abs(self.flat)))
        return top, self.flat / top if math.isfinite(top) else None

    def items(self):
        return self.layout.views(self.flat).items()

    def scaled(self, factor: float) -> "Gradients":
        return Gradients(self.layout, self.flat * factor)

    def scaled_to(self, norm: float) -> "Gradients":
        """The gradient along its own direction at the given L2 norm: scaled
        by norm / self.norm(), or, where that norm lies beyond the float
        range and every entry is finite, the vector scaled by its largest
        magnitude scaled again to `norm`."""
        own = self.norm()
        if own == math.inf:
            _, unit = self._unit()
            if unit is not None:
                return Gradients(self.layout, unit * (norm / math.sqrt(np.vdot(unit, unit))))
        return self.scaled(norm / own)
