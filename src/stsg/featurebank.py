"""Class-indexed feature bank over time and a toy event classifier.

One row per object class per frame: present classes hold the feature of
their best-scoring detection, absent classes stay zero. The
spatial_temporal variant banks the fused features; the spatial variant
banks the GCN-only features, so with temporal links disabled the two banks
coincide. Event classification mean-pools the nonzero rows through a
bias-free linear head, which keeps an all-zero bank at exactly 0.5 per
class and leaves per-class ranking unaffected by any score offset.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class FeatureBank:
    """z[t, c] holds the banked feature of class c in frame t (zero if absent)."""

    z: np.ndarray              # (T, G, m)
    variant: str


def build_feature_bank(predictions: list[FramePrediction], variant: str,
                       dims: Dims) -> FeatureBank:
    """Fill per-class rows from the highest-label-score detection of each class."""
    if variant not in BANK_VARIANTS:
        raise ContractError(f"bank variant must be one of {BANK_VARIANTS}, got {variant!r}")
    if not predictions:
        raise ContractError("build_feature_bank: need at least one frame")
    z = np.zeros((len(predictions), dims.g, dims.m))
    for t, pred in enumerate(predictions):
        if pred.n == 0:
            continue
        feats = pred.fused if variant == "spatial_temporal" else pred.gcn
        labels = np.argmax(pred.label_dists, axis=1)
        scores = np.max(pred.label_dists, axis=1)
        for c in range(dims.g):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                continue
            best = members[np.argmax(scores[members])]  # argmax keeps the lowest index on ties
            z[t, c] = feats[best]
    return FeatureBank(z=z, variant=variant)


def pooled_feature(bank: FeatureBank) -> np.ndarray:
    """Mean over rows that are populated; zero vector for an empty bank."""
    rows = bank.z.reshape(-1, bank.z.shape[-1])
    nonzero = np.any(rows != 0.0, axis=1)
    if not np.any(nonzero):
        return np.zeros(bank.z.shape[-1])
    return rows[nonzero].mean(axis=0)


def classify_events(bank: FeatureBank, head: Tensor) -> np.ndarray:
    """Per-event probabilities; an all-zero bank pools to zero and yields 0.5."""
    pooled = pooled_feature(bank)
    logits = ad.matmul(Tensor(pooled), head)
    return ad.sigmoid(logits).data


def train_event_head(banks: list[FeatureBank], labels: np.ndarray, n_events: int,
                     seed: int, epochs: int = 300, lr: float = 0.05) -> Tensor:
    """Fit the bias-free linear head with full-batch multi-label BCE.

    -log(sigmoid(z)) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z),
    which stays finite where the sigmoid saturates.
    """
    if not banks:
        raise ContractError("train_event_head: no banks given")
    labels = np.asarray(labels, dtype=np.float64)
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ContractError("train_event_head: event labels must be 0 or 1")
    pooled = np.stack([pooled_feature(b) for b in banks])
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
        flags = [int(labels[i, c]) for i in order]
        aps.append(average_precision_from_flags(flags, n_pos))
    return float(np.mean(aps)) if aps else 0.0
