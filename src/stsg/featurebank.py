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
offset. The head is a plain (m, events) array; it trains on the model's
loss op (`layers.weighted_loss`, softplus terms that stay finite where the
sigmoid saturates), two tape records an epoch, and scores without a tape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .config import Dims
from .errors import ContractError
from .layers import weighted_loss
from .metrics import average_precision_from_flags
from .rng import RngStream
from .temporal import FramePrediction
from .training import Optimizer

BANK_VARIANTS = ("spatial", "spatial_temporal")


def build_feature_bank(predictions: list[FramePrediction], variant: str,
                       dims: Dims) -> np.ndarray:
    """The (T, G, m) bank: each class's row in each frame holds the feature of
    its highest-label-score node, the lowest-indexed one on ties; absent
    classes stay zero. A node's class and label score are those of its
    frame's served graph (`FrameGraph.labels`, `.label_scores`)."""
    if variant not in BANK_VARIANTS:
        raise ContractError(f"bank variant must be one of {BANK_VARIANTS}, got {variant!r}")
    if not predictions:
        raise ContractError("build_feature_bank: need at least one frame")
    labels = np.concatenate([p.graph.labels for p in predictions])
    label_scores = np.concatenate([p.graph.label_scores for p in predictions])
    feats = np.concatenate([p.fused if variant == "spatial_temporal" else p.gcn
                            for p in predictions])
    frame = np.repeat(np.arange(len(predictions)), [p.n for p in predictions])
    key = frame * dims.g + labels
    # stable, so the first of each key's equal best scores is its lowest index
    order = np.lexsort((-label_scores, key))
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


def classify_events(pooled: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Per-event probabilities of one pooled feature; a zero vector yields 0.5."""
    return ad._logistic(pooled @ head)


def train_event_head(pooled: np.ndarray, labels: np.ndarray, n_events: int,
                     seed: int, epochs: int = 300, lr: float = 0.05) -> np.ndarray:
    """Fit the bias-free linear head, an (m, n_events) array, on the
    (sequences, m) pooled features with full-batch multi-label BCE: the
    model's loss op (`layers.weighted_loss`) over every logit, each weighted
    1 / count.
    """
    if len(pooled) == 0:
        raise ContractError("train_event_head: no pooled features given")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (len(pooled), n_events):
        raise ContractError(f"train_event_head: labels of shape {labels.shape}, "
                            f"need {(len(pooled), n_events)}")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ContractError("train_event_head: event labels must be 0 or 1")
    m = pooled.shape[1]
    sign = np.where(labels > 0, -1.0, 1.0).reshape(-1)
    weights = np.full(sign.size, 1.0 / sign.size)
    x = Tensor(pooled)
    rng = RngStream(seed, stream=7)
    head = Tensor(rng.normal_array((m, n_events), 0.0, 1.0 / np.sqrt(m)))
    opt = Optimizer("adam", lr=lr)
    for _ in range(epochs):
        tape = Tape()
        tape.watch(head)
        with tape:
            loss, _ = weighted_loss(weights, ad.matmul(x, head), sign)
        # the head is the one watched leaf: the flat gradient is its own
        grads = backward(tape, loss).reshape(head.shape)
        head = Tensor(opt.update(head.data, grads))
    return head.data


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
