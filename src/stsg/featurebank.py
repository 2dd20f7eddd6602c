"""Class-indexed feature bank over time and a toy event classifier.

A sequence's bank is a (T, G, m) array: row [t, c] holds the feature of the
highest-label-score detection of class c in frame t, and an absent class's
row stays zero. The rows are chosen for the whole sequence at once: every
node is keyed by (frame, argmax class), and one stable sort on (key,
-label score) puts each key's best node first. The spatial_temporal variant
banks the fused features; the spatial variant banks the GCN-only features,
so with temporal links disabled the two banks coincide. Event
classification reads a bank's pooled feature, the mean of its nonzero
rows, through a bias-free linear head, which keeps an all-zero bank at
exactly 0.5 per class and leaves per-class ranking unaffected by any score
offset.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .config import Dims
from .errors import ContractError
from .metrics import average_precision_from_flags
from .rng import RngStream
from .temporal import FramePrediction
from .training import Optimizer

BANK_VARIANTS = ("spatial", "spatial_temporal")


def build_feature_bank(predictions: list[FramePrediction], variant: str,
                       dims: Dims) -> np.ndarray:
    """The (T, G, m) bank: each class's row in each frame holds the feature of
    its highest-label-score node, the lowest-indexed one on ties; absent
    classes stay zero."""
    if variant not in BANK_VARIANTS:
        raise ContractError(f"bank variant must be one of {BANK_VARIANTS}, got {variant!r}")
    if not predictions:
        raise ContractError("build_feature_bank: need at least one frame")
    dists = np.concatenate([p.label_dists for p in predictions])
    feats = np.concatenate([p.fused if variant == "spatial_temporal" else p.gcn
                            for p in predictions])
    frame = np.repeat(np.arange(len(predictions)), [p.n for p in predictions])
    key = frame * dims.g + np.argmax(dists, axis=1)
    # stable, so the first of each key's equal best scores is its lowest index
    order = np.lexsort((-np.max(dists, axis=1), key))
    best = order[np.diff(key[order], prepend=-1) != 0]
    z = np.zeros((len(predictions), dims.g, dims.m))
    z.reshape(-1, dims.m)[key[best]] = feats[best]
    return z


def pooled_feature(bank: np.ndarray) -> np.ndarray:
    """Mean over rows that are populated; zero vector for an empty bank."""
    rows = bank.reshape(-1, bank.shape[-1])
    nonzero = np.any(rows != 0.0, axis=1)
    if not np.any(nonzero):
        return np.zeros(bank.shape[-1])
    return rows[nonzero].mean(axis=0)


def classify_events(pooled: np.ndarray, head: Tensor) -> np.ndarray:
    """Per-event probabilities of one pooled feature; a zero vector yields 0.5."""
    logits = ad.matmul(Tensor(pooled), head)
    return ad.sigmoid(logits).data


def train_event_head(pooled: np.ndarray, labels: np.ndarray, n_events: int,
                     seed: int, epochs: int = 300, lr: float = 0.05) -> Tensor:
    """Fit the bias-free linear head on the (sequences, m) pooled features
    with full-batch multi-label BCE.

    -log(sigmoid(z)) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z),
    which stays finite where the sigmoid saturates.
    """
    if len(pooled) == 0:
        raise ContractError("train_event_head: no pooled features given")
    labels = np.asarray(labels, dtype=np.float64)
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ContractError("train_event_head: event labels must be 0 or 1")
    m = pooled.shape[1]
    sign = Tensor(np.where(labels > 0, -1.0, 1.0))
    x = Tensor(pooled)
    rng = RngStream(seed, stream=7)
    head = Tensor(rng.normal_array((m, n_events), 0.0, 1.0 / np.sqrt(m)))
    opt = Optimizer("adam", lr=lr)
    for _ in range(epochs):
        tape = Tape()
        tape.watch(head)
        with tape:
            terms = ad.softplus(ad.mul(ad.matmul(x, head), sign))
            loss = ad.scale(ad.reduce_sum(terms), 1.0 / terms.size)
        grads = backward(tape, loss)
        head = Tensor(opt.update(head.data, grads[head].data))
    return head


def event_mean_ap(scores: np.ndarray, labels: np.ndarray) -> float:
    """Macro AP over event classes present in the labels."""
    aps = []
    for c in range(labels.shape[1]):
        n_pos = int(labels[:, c].sum())
        if n_pos == 0:
            continue
        order = np.lexsort((np.arange(len(scores)), -scores[:, c]))
        aps.append(average_precision_from_flags(labels[order, c], n_pos))
    return float(np.mean(aps)) if aps else 0.0
