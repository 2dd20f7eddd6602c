"""Per-frame reference forms of the training objective.

Training computes the relation, node and link losses over a packed batch as
one weighted sum (`stsg.training.batch_loss`). These are the same losses
written one frame at a time, over an (N, N, H) grid of one frame's relation
scores, a node->gt map and a (N_t, N_prev) relevance matrix; the tests
compose them frame by frame and compare the packed objective against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import primitives as prim
import stsg.autodiff as ad
from stsg.autodiff import Tensor
from stsg.training import NEGATIVE_WEIGHT


def log(a: Tensor) -> Tensor:
    """Elementwise natural log as a taped op; the probability-form losses
    below take it of probabilities. log(0) yields -inf on purpose: a
    saturated loss must surface as a non-finite total."""
    av = a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor._wrap(np.log(av))
    ad._record(out, (a,), lambda g: (g / av,))
    return out


@dataclass
class RelationReport:
    relation_loss: float
    n_positive: int
    n_negative: int


def relation_loss(probs: Tensor, pos_idx: np.ndarray,
                  neg_idx: np.ndarray) -> tuple[Tensor, RelationReport]:
    """Mean BCE over positives plus 0.2 * mean BCE over negatives (natural log)."""
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    flat = prim.reshape(probs, (probs.size,))
    total = None
    if n_pos:
        p = ad.gather_rows(flat, pos_idx)
        total = prim.scale(prim.reduce_sum(log(p)), -1.0 / n_pos)
    if n_neg:
        p = ad.gather_rows(flat, neg_idx)
        one_minus = prim.add(Tensor(np.ones(n_neg)), prim.scale(p, -1.0))
        neg_term = prim.scale(prim.reduce_sum(log(one_minus)), -NEGATIVE_WEIGHT / n_neg)
        total = neg_term if total is None else prim.add(total, neg_term)
    if total is None:
        total = Tensor(0.0)
    return total, RelationReport(total.item(), n_pos, n_neg)


def relation_loss_from_logits(logits: Tensor, pos_idx: np.ndarray,
                              neg_idx: np.ndarray) -> tuple[Tensor, RelationReport]:
    """Same BCE computed from pre-sigmoid scores.

    -log(sigmoid(z)) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z),
    which stays finite where the probability form underflows to log(0).
    """
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    flat = prim.reshape(logits, (logits.size,))
    total = None
    if n_pos:
        z = ad.gather_rows(flat, pos_idx)
        total = prim.scale(prim.reduce_sum(prim.softplus(prim.scale(z, -1.0))), 1.0 / n_pos)
    if n_neg:
        z = ad.gather_rows(flat, neg_idx)
        neg_term = prim.scale(prim.reduce_sum(prim.softplus(z)), NEGATIVE_WEIGHT / n_neg)
        total = neg_term if total is None else prim.add(total, neg_term)
    if total is None:
        total = Tensor(0.0)
    return total, RelationReport(total.item(), n_pos, n_neg)


def node_loss(label_dists: Tensor, node_to_gt: dict[int, int],
              gt_labels: list[int], g: int) -> Tensor:
    """Mean categorical cross-entropy over gt-matched nodes; 0 with no matches."""
    if not node_to_gt:
        return Tensor(0.0)
    idx = sorted(node_to_gt)
    onehot = np.zeros((len(idx), g))
    for row, i in enumerate(idx):
        onehot[row, gt_labels[node_to_gt[i]]] = 1.0
    picked = ad.gather_rows(label_dists, np.array(idx))
    # pick the gt-class probability first so off-class zeros never reach log
    gt_prob = prim.reduce_sum(prim.mul(picked, Tensor(onehot)), axis=1)
    return prim.scale(prim.reduce_sum(log(gt_prob)), -1.0 / len(idx))


def node_loss_from_logits(label_logits: Tensor, node_to_gt: dict[int, int],
                          gt_labels: list[int], g: int) -> Tensor:
    """Same cross-entropy computed from pre-softmax scores.

    The log-softmax stays finite where the softmax probability of the gt
    class underflows to 0 and its log to -inf.
    """
    if not node_to_gt:
        return Tensor(0.0)
    idx = np.array(sorted(node_to_gt))
    labels = np.array([gt_labels[node_to_gt[i]] for i in idx])
    logp = prim.reshape(prim.log_softmax(label_logits, axis=1), (label_logits.size,))
    picked = ad.gather_rows(logp, idx * g + labels)
    return prim.scale(prim.reduce_sum(picked), -1.0 / len(idx))


def link_targets(node_to_gt: dict[int, int],
                 prev_node_to_gt: dict[int, int]) -> list[tuple[int, int]]:
    """(current node, previous node) pairs on the same gt object, one per
    current node that has such a previous node (the lowest index wins)."""
    target: dict[int, int] = {}
    for k in sorted(prev_node_to_gt):
        target.setdefault(prev_node_to_gt[k], k)
    return [(j, target[gj]) for j, gj in sorted(node_to_gt.items()) if gj in target]


def link_loss(gamma: Tensor, node_to_gt: dict[int, int],
              prev_node_to_gt: dict[int, int]) -> Tensor | None:
    """Mean cross-entropy of each row's softmax over gamma (N_t, N_prev)
    against the previous node matched to the same gt object.

    Rows without such a node are skipped (the lowest-index previous node
    wins when several match); None when no row has a target.
    """
    rows = link_targets(node_to_gt, prev_node_to_gt)
    if not rows:
        return None
    curr, prev = np.array(rows).T
    logp = prim.reshape(prim.log_softmax(gamma, axis=1), (gamma.size,))
    picked = ad.gather_rows(logp, curr * gamma.shape[1] + prev)
    return prim.scale(prim.reduce_sum(picked), -1.0 / len(rows))
