"""Named, checkpointable model parameters and small layer helpers.

All weights use the row-vector convention: a layer mapping a -> b is a
matrix of shape (a, b) applied as `x @ W + bias`. Hidden widths of the
two-layer perceptrons equal the node width m. `model_shapes` is the table
of every parameter's name and shape; initialisation, the checkpoint checks
and the FLOP accounting all read it.

The parameters live in one flat float64 vector; a `Layout` names the
tensors, their shapes and their offsets in it, and each tensor is a
read-only view of its slice. Gradients use the same layout
(`Gradients`), so the finiteness check, the clip and the optimizer each
work on one vector instead of looping over the tensors.
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

    __slots__ = ("names", "shapes", "offsets")

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.names = tuple(shapes)
        self.shapes = tuple(tuple(s) for s in shapes.values())
        self.offsets = tuple(accumulate((math.prod(s) for s in self.shapes), initial=0))

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor as a reshaped view of its slice of `flat`."""
        if flat.shape != (self.size,):
            raise ShapeError(f"params: flat vector of shape {flat.shape}, layout holds {self.size}")
        return {name: flat[a:b].reshape(shape) for name, shape, a, b
                in zip(self.names, self.shapes, self.offsets, self.offsets[1:])}

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
        tape.watch(*self._tensors.values())

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
        computed at the first call and kept."""
        if self._norm is None:
            self._norm = float(np.sqrt(np.dot(self.flat, self.flat)))
        return self._norm

    @classmethod
    def collect(cls, params: ModelParams, grads: dict[Tensor, Tensor]) -> "Gradients":
        """The gradients `autodiff.backward` returned for every tensor of params."""
        return cls(params.layout,
                   np.concatenate([grads[t].data for _, t in params.items()], axis=None))

    def items(self):
        return self.layout.views(self.flat).items()

    def scaled(self, factor: float) -> "Gradients":
        return Gradients(self.layout, self.flat * factor)
