"""Losses, optimizers, gradient verification and the training loop.

The relation loss is a binary cross-entropy normalized separately over
positive and negative slots, with the no-relation branch down-weighted by
a factor of 5 (multiplier 0.2). Node classification supervises the label
head in the gt-box and detection protocols. The link term supervises the
relevance kernel: each node's softmax over its relevance to the previous
frame's nodes is pulled towards the previous node of the same gt object.

Training computes all three over a packed minibatch as one weighted sum
(`batch_loss`). The per-frame loss functions (`relation_loss`,
`node_loss`, their logit forms and `link_loss`) are the reference forms
tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blas
from .autodiff import Tape, Tensor, backward
from .config import RunConfig
from .errors import ContractError, TrainingError
from .params import ModelParams
from .rng import RngStream
from .scene import FrameRecord, SceneSequence, pairwise_iou
from .temporal import BatchOutput, FrameOutput, Packed, forward_batch, pack

NEGATIVE_WEIGHT = 0.2  # no-relation terms down-weighted by a factor of 5
IOU_MATCH = 0.5
LINK_WEIGHT = 1.0      # weight of the link loss in the trained objective


@dataclass
class LossReport:
    relation_loss: float = 0.0
    node_loss: float = 0.0
    link_loss: float = 0.0
    total: float = 0.0
    n_positive: int = 0
    n_negative: int = 0


def _match_to_gt(nodes, objects) -> np.ndarray:
    """Index of each node's highest-IoU gt object (first on ties), -1 below 0.5."""
    if not nodes or not objects:
        return np.full(len(nodes), -1)
    ious = pairwise_iou(np.array([[o.box.x, o.box.y, o.box.w, o.box.h] for o in nodes]),
                        np.array([[o.box.x, o.box.y, o.box.w, o.box.h] for o in objects]))
    best = np.argmax(ious, axis=1)
    return np.where(ious[np.arange(len(nodes)), best] >= IOU_MATCH, best, -1)


def relation_targets(frame: FrameRecord, output: FrameOutput, mode: str,
                     h: int) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Positive/negative flat indices into the (N, N, H) grid plus node->gt map.

    Index-aligned in predcls/sgcls; sgdet matches each node to its highest-IoU
    gt object at the 0.5 threshold before transferring triplets.
    """
    n = output.n
    if mode in ("predcls", "sgcls"):
        gt = np.arange(n)
    else:
        gt = _match_to_gt(output.nodes, frame.objects)
    node_to_gt = {i: int(g) for i, g in enumerate(gt) if g >= 0}

    n_obj = len(frame.objects)
    gt_grid = np.zeros((n_obj, n_obj, h), dtype=bool)
    if frame.triplets:
        ti, tj, tp = np.array(frame.triplets).T
        gt_grid[ti, tj, tp] = True
    # pairs of matched nodes on distinct gt objects (so never the diagonal)
    both = (gt[:, None] >= 0) & (gt[None, :] >= 0) & (gt[:, None] != gt[None, :])
    positive = np.zeros((n, n, h), dtype=bool)
    rows, cols = np.nonzero(both)
    positive[rows, cols] = gt_grid[gt[rows], gt[cols]]

    off_diag = np.broadcast_to(~np.eye(n, dtype=bool)[:, :, None], (n, n, h))
    negative = off_diag & ~positive
    return (np.flatnonzero(positive), np.flatnonzero(negative), node_to_gt)


def relation_loss(probs: Tensor, pos_idx: np.ndarray, neg_idx: np.ndarray) -> tuple[Tensor, LossReport]:
    """Mean BCE over positives plus 0.2 * mean BCE over negatives (natural log)."""
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    flat = ad.reshape(probs, (probs.size,))
    total = None
    if n_pos:
        p = ad.gather_rows(flat, pos_idx)
        total = ad.scale(ad.reduce_sum(ad.log(p)), -1.0 / n_pos)
    if n_neg:
        p = ad.gather_rows(flat, neg_idx)
        one_minus = ad.add(Tensor(np.ones(n_neg)), ad.scale(p, -1.0))
        neg_term = ad.scale(ad.reduce_sum(ad.log(one_minus)), -NEGATIVE_WEIGHT / n_neg)
        total = neg_term if total is None else ad.add(total, neg_term)
    if total is None:
        total = Tensor(0.0)
    report = LossReport(relation_loss=total.item(), total=total.item(),
                        n_positive=n_pos, n_negative=n_neg)
    return total, report


def relation_loss_from_logits(logits: Tensor, pos_idx: np.ndarray,
                              neg_idx: np.ndarray) -> tuple[Tensor, LossReport]:
    """Same BCE computed from pre-sigmoid scores.

    -log(sigmoid(z)) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z),
    which stays finite where the probability form underflows to log(0).
    """
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    flat = ad.reshape(logits, (logits.size,))
    total = None
    if n_pos:
        z = ad.gather_rows(flat, pos_idx)
        total = ad.scale(ad.reduce_sum(ad.softplus(ad.scale(z, -1.0))), 1.0 / n_pos)
    if n_neg:
        z = ad.gather_rows(flat, neg_idx)
        neg_term = ad.scale(ad.reduce_sum(ad.softplus(z)), NEGATIVE_WEIGHT / n_neg)
        total = neg_term if total is None else ad.add(total, neg_term)
    if total is None:
        total = Tensor(0.0)
    report = LossReport(relation_loss=total.item(), total=total.item(),
                        n_positive=n_pos, n_negative=n_neg)
    return total, report


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
    gt_prob = ad.reduce_sum(ad.mul(picked, Tensor(onehot)), axis=1)
    return ad.scale(ad.reduce_sum(ad.log(gt_prob)), -1.0 / len(idx))


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
    logp = ad.reshape(ad.log_softmax(label_logits, axis=1), (label_logits.size,))
    picked = ad.gather_rows(logp, idx * g + labels)
    return ad.scale(ad.reduce_sum(picked), -1.0 / len(idx))


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
    logp = ad.reshape(ad.log_softmax(gamma, axis=1), (gamma.size,))
    picked = ad.gather_rows(logp, curr * gamma.shape[1] + prev)
    return ad.scale(ad.reduce_sum(picked), -1.0 / len(rows))


# ---------------------------------------------------------------------------
# the packed objective


@dataclass
class Targets:
    """Data-only loss inputs of a packed batch.

    Every weight carries the mean over its frame's terms, the mean over the
    sequence's non-empty frames and the mean over the batch's sequences;
    node and link weights are negative, so their log-probabilities add up
    to a cross-entropy.
    """

    rel_positive: np.ndarray   # (P * H,) relation slots; the rest are no-relation slots
    rel_weight: np.ndarray     # (P * H,)
    node_rows: np.ndarray      # packed node of each gt-matched node term
    node_labels: np.ndarray    # its gt label
    node_weight: np.ndarray
    link_index: np.ndarray     # candidate link of each link term
    link_weight: np.ndarray
    n_positive: int = 0
    n_negative: int = 0


def loss_targets(sequence: SceneSequence, packed: Packed, h: int) -> Targets:
    """The targets of one sequence's packed inputs.

    Per frame: relation loss + node loss (sgcls, sgdet) + link loss (frames
    with relevance scores), averaged over the non-empty frames.
    """
    rel_positive, rel_weight, node_rows, node_labels, node_weight = [], [], [], [], []
    link_index, link_weight = [], []
    n_pos_total = n_neg_total = 0
    start = cand_start = 0
    n_prev, prev_map, frames = 0, None, 0
    for frame, nodes in zip(sequence.frames, packed.nodes):
        n = len(nodes)
        if n == 0:
            n_prev = 0
            continue
        frames += 1
        pos, neg, node_map = relation_targets(frame, FrameOutput(nodes=nodes), packed.mode, h)
        positive = np.zeros((n, n, h), dtype=bool)
        positive.reshape(-1)[pos] = True
        weight = np.zeros((n, n, h))
        if len(pos):
            weight.reshape(-1)[pos] = 1.0 / len(pos)
        if len(neg):
            weight.reshape(-1)[neg] = NEGATIVE_WEIGHT / len(neg)
        off_diag = ~np.eye(n, dtype=bool)
        rel_positive.append(positive[off_diag].reshape(-1))
        rel_weight.append(weight[off_diag].reshape(-1))
        n_pos_total += len(pos)
        n_neg_total += len(neg)
        if packed.mode in ("sgcls", "sgdet") and node_map:
            idx = sorted(node_map)
            node_rows.append(start + np.array(idx))
            node_labels.append(np.array([frame.objects[node_map[i]].label for i in idx]))
            node_weight.append(np.full(len(idx), -1.0 / len(idx)))
        if packed.variant != "spatial" and n_prev:
            rows = link_targets(node_map, prev_map)
            if rows:
                curr, prev = np.array(rows).T
                link_index.append(cand_start + curr * n_prev + prev)
                link_weight.append(np.full(len(rows), -1.0 / len(rows)))
            cand_start += n * n_prev
        start += n
        n_prev, prev_map = n, node_map
    scale = 1.0 / frames if frames else 0.0

    def cat(arrays, dtype=np.float64):
        return np.concatenate(arrays).astype(dtype) if arrays else np.zeros(0, dtype=dtype)

    return Targets(
        rel_positive=cat(rel_positive, bool), rel_weight=cat(rel_weight) * scale,
        node_rows=cat(node_rows, np.intp), node_labels=cat(node_labels, np.intp),
        node_weight=cat(node_weight) * scale,
        link_index=cat(link_index, np.intp), link_weight=cat(link_weight) * scale,
        n_positive=n_pos_total, n_negative=n_neg_total,
    )


def prepare(sequence: SceneSequence, mode: str, variant: str, dims) -> tuple[Packed, Targets]:
    """Everything about one sequence that depends on the data, not the parameters."""
    packed = pack(sequence, mode, variant, dims)
    return packed, loss_targets(sequence, packed, dims.h)


def join(items: list[tuple[Packed, Targets]]) -> tuple[Packed, Targets]:
    """The packed inputs and targets of a batch of prepared sequences; the
    batch loss is the mean of the sequences' losses."""
    packs = [p for p, _ in items]
    targets = [t for _, t in items]
    node_off = np.cumsum([0] + [p.n_nodes for p in packs[:-1]])
    cand_off = np.cumsum([0] + [len(p.cand_curr) for p in packs[:-1]])
    scale = 1.0 / len(items)

    def cat(name, offsets=None):
        arrays = [getattr(t, name) for t in targets]
        if offsets is not None:
            arrays = [a + o for a, o in zip(arrays, offsets)]
        return np.concatenate(arrays)

    return Packed.join(packs), Targets(
        rel_positive=cat("rel_positive"), rel_weight=cat("rel_weight") * scale,
        node_rows=cat("node_rows", node_off), node_labels=cat("node_labels"),
        node_weight=cat("node_weight") * scale,
        link_index=cat("link_index", cand_off), link_weight=cat("link_weight") * scale,
        n_positive=sum(t.n_positive for t in targets),
        n_negative=sum(t.n_negative for t in targets),
    )


def batch_loss(packed: Packed, targets: Targets, out: BatchOutput, lambda_node: float,
               lambda_link: float = LINK_WEIGHT) -> tuple[Tensor, LossReport]:
    """The trained objective: one weighted sum of softplus relation terms and
    log-softmax node and link terms over the whole batch.

    -log(sigmoid(z)) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z),
    and the log-softmax stays finite where a probability underflows to 0.
    The link term's softmax runs over each node's candidate links.
    """
    t = targets
    z = ad.reshape(out.relation_logits, (out.relation_logits.size,))
    sign = np.where(t.rel_positive, -1.0, 1.0)
    pieces = [ad.softplus(ad.mul(z, Tensor(sign)))]
    n_rel = len(sign)
    index, weight = [np.arange(n_rel)], [t.rel_weight]
    offset = n_rel
    use_node = out.label_logits is not None and lambda_node != 0.0 and len(t.node_rows) > 0
    use_link = out.gamma is not None and lambda_link != 0.0 and len(t.link_index) > 0
    if use_node:
        n, g = out.label_logits.shape
        pieces.append(ad.reshape(ad.log_softmax(out.label_logits, axis=1), (n * g,)))
        index.append(offset + t.node_rows * g + t.node_labels)
        weight.append(lambda_node * t.node_weight)
        offset += n * g
    if use_link:
        pieces.append(ad.segment_log_softmax(out.gamma, packed.cand_curr, packed.n_nodes))
        index.append(offset + t.link_index)
        weight.append(lambda_link * t.link_weight)
    if len(pieces) == 1:
        picked = pieces[0]
    else:
        picked = ad.gather_rows(ad.concat(pieces), np.concatenate(index))
    total = ad.dot(Tensor(np.concatenate(weight)), picked)

    values = picked.data
    n_node = len(t.node_rows) if use_node else 0
    report = LossReport(
        relation_loss=float(np.dot(t.rel_weight, values[:n_rel])),
        node_loss=float(np.dot(t.node_weight, values[n_rel:n_rel + n_node])) if use_node else 0.0,
        link_loss=float(np.dot(t.link_weight, values[n_rel + n_node:])) if use_link else 0.0,
        total=total.item(), n_positive=t.n_positive, n_negative=t.n_negative,
    )
    return total, report


def sequence_loss(sequence: SceneSequence, params: ModelParams, mode: str, variant: str,
                  k: int, lambda_node: float,
                  lambda_link: float = LINK_WEIGHT) -> tuple[Tensor, LossReport]:
    """The trained objective on a batch of one sequence."""
    packed, targets = prepare(sequence, mode, variant, params.dims)
    return batch_loss(packed, targets, forward_batch(packed, params, k), lambda_node,
                      lambda_link)


# ---------------------------------------------------------------------------
# optimizers


class Optimizer:
    """Adaptive-moment update with a plain gradient-descent option."""

    def __init__(self, kind: str = "adam", lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if kind not in ("adam", "sgd"):
            raise ContractError(f"optimizer: unknown kind {kind!r}")
        self.kind = kind
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step_tensors(self, tensors: dict[str, Tensor],
                     grads: dict[str, np.ndarray]) -> dict[str, Tensor]:
        self.step_count += 1
        updated: dict[str, Tensor] = {}
        for name, tensor in tensors.items():
            g = grads.get(name)
            if g is None:
                continue
            if self.kind == "sgd":
                updated[name] = Tensor(tensor.data - self.lr * g)
                continue
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(g)
                v = np.zeros_like(g)
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self._m[name], self._v[name] = m, v
            mhat = m / (1 - self.beta1 ** self.step_count)
            vhat = v / (1 - self.beta2 ** self.step_count)
            updated[name] = Tensor(tensor.data - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return updated

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> ModelParams:
        return params.replaced(self.step_tensors(dict(params.items()), grads))


# ---------------------------------------------------------------------------
# gradient verification


def loss_value(sequence: SceneSequence, params: ModelParams, mode: str,
               variant: str, k: int, lambda_node: float,
               lambda_link: float = LINK_WEIGHT) -> float:
    total, _ = sequence_loss(sequence, params, mode, variant, k, lambda_node, lambda_link)
    return total.item()


def grad_check(sequence: SceneSequence, params: ModelParams, mode: str = "sgcls",
               variant: str = "sparse", k: int = 1, lambda_node: float = 1.0,
               h: float = 1e-5, max_entries: int = 600, seed: int = 0,
               lambda_link: float = LINK_WEIGHT) -> float:
    """Max relative error of tape gradients vs central finite differences.

    Checks every parameter entry when the model is small enough, otherwise a
    seeded subsample of at least max(500, one per tensor) entries. The error
    metric is |a - b| / max(1e-12, |a| + |b|).
    """
    tape = Tape()
    params.watch_all(tape)
    with tape:
        total, _ = sequence_loss(sequence, params, mode, variant, k, lambda_node, lambda_link)
    grads = backward(tape, total)
    named = {name: grads[tensor].data for name, tensor in params.items()}

    entries: list[tuple[str, int]] = []
    total_entries = params.count()
    if total_entries <= max_entries:
        for name, tensor in params.items():
            entries.extend((name, i) for i in range(tensor.size))
    else:
        rng = RngStream(seed, stream=99)
        budget = max(max_entries, 500)
        names = params.names()
        # at least one entry per tensor, remainder proportional to size
        for name in names:
            entries.append((name, rng.integer(params[name].size)))
        while len(entries) < budget:
            name = names[rng.integer(len(names))]
            entries.append((name, rng.integer(params[name].size)))

    arrays = params.as_arrays()
    # central differences cannot resolve differences below the rounding noise
    # of the loss itself (~eps*|loss|/2h); exactly-zero gradients (e.g. the
    # relevance projection under k=1 without the link term, where the link
    # weight cancels in the normalization) would otherwise compare 0 against
    # pure ulp noise
    fd_floor = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(total.item())) / (2 * h)
    worst = 0.0
    for name, flat_idx in entries:
        base = arrays[name]
        bumped = {k2: v for k2, v in arrays.items()}
        plus = base.copy()
        plus.reshape(-1)[flat_idx] += h
        bumped[name] = plus
        hi = loss_value(sequence, ModelParams.from_arrays(params.dims, bumped, params.gcn_layers),
                        mode, variant, k, lambda_node, lambda_link)
        minus = base.copy()
        minus.reshape(-1)[flat_idx] -= h
        bumped[name] = minus
        lo = loss_value(sequence, ModelParams.from_arrays(params.dims, bumped, params.gcn_layers),
                        mode, variant, k, lambda_node, lambda_link)
        numeric = (hi - lo) / (2 * h)
        analytic = named[name].reshape(-1)[flat_idx]
        if abs(analytic - numeric) <= fd_floor:
            continue
        err = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# training loop


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale the whole gradient down to a global L2 norm of max_norm.

    Near-cancelling link-weight sums can spike the aggregated features and
    with them the gradient; an unclipped step then launches the parameters
    into saturation.
    """
    if max_norm <= 0:
        return grads
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm:
        return grads
    factor = max_norm / total
    return {name: g * factor for name, g in grads.items()}


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_recall20: float | None = None


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochLog] = field(default_factory=list)


@blas.one_thread()
def train(dataset: list[SceneSequence], cfg: RunConfig,
          val: list[SceneSequence] | None = None,
          eval_fn=None) -> TrainResult:
    """Deterministic training: data order, init and updates derive from the seed.

    eval_fn(params) -> float supplies the per-epoch validation metric.
    """
    if not dataset:
        raise ContractError("train: dataset is empty")
    tc = cfg.train
    params = ModelParams.init(cfg.dims, seed=tc.seed, gcn_layers=tc.gcn_layers)
    opt = Optimizer(tc.optimizer, tc.learning_rate, tc.beta1, tc.beta2, tc.eps)
    log: list[EpochLog] = []
    order_rng = RngStream(tc.seed, stream=31)
    prepared = [prepare(seq, tc.mode, tc.variant, cfg.dims) for seq in dataset]
    for epoch in range(tc.epochs):
        order = order_rng.permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(order), tc.batch_size):
            packed, targets = join([prepared[i] for i in order[start:start + tc.batch_size]])
            tape = Tape()
            params.watch_all(tape)
            with tape:
                out = forward_batch(packed, params, tc.k)
                total, _ = batch_loss(packed, targets, out, tc.lambda_node, LINK_WEIGHT)
            value = total.item()
            where = f"at epoch {epoch + 1}, batch {start // tc.batch_size + 1}"
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss {value} {where}")
            epoch_losses.append(value)
            grads = backward(tape, total)
            named = {name: grads[t].data for name, t in params.items()}
            # a non-finite gradient would turn every parameter into NaN via
            # the clip factor, with no error until the next batch's loss
            for name, g in named.items():
                if not np.all(np.isfinite(g)):
                    raise TrainingError(f"non-finite gradient in {name} {where}")
            params = opt.step(params, clip_gradients(named, tc.clip_norm))
        entry = EpochLog(epoch=epoch + 1, train_loss=float(np.mean(epoch_losses)))
        if eval_fn is not None and (epoch + 1) % max(1, tc.val_every) == 0:
            entry.val_recall20 = float(eval_fn(params))
        log.append(entry)
    return TrainResult(params=params, log=log)
