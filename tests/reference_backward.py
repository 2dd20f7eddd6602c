"""Per-tensor reverse sweep: the reference for `autodiff.backward`'s flat vector.

`reference_backward` keeps every leaf's gradient as its own array, summed
as `acc + g` in the order of the reverse sweep, with exact zeros for a leaf
the loss never reaches. `leaf_grads` cuts a flat `backward` vector into the
same per-leaf arrays, by watch order.
"""

import numpy as np


def reference_backward(tape, loss) -> dict:
    """Watched leaf -> its gradient, shaped like the leaf."""
    grads = {id(loss): np.ones_like(loss.data)}
    for out, inputs, vjp in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            if gi is None:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = gi if acc is None else acc + gi
    return {p: grads[id(p)] if id(p) in grads else np.zeros_like(p.data)
            for p in tape._watched}


def leaf_grads(tape, flat: np.ndarray) -> dict:
    """Watched leaf -> its slice of the flat gradient vector, shaped like
    the leaf; the slices follow one another in watch order."""
    out, start = {}, 0
    for t in tape._watched:
        out[t] = flat[start:start + t.data.size].reshape(t.data.shape)
        start += t.data.size
    assert start == len(flat)
    return out
