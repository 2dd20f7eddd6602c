"""Losses, optimizers, gradient verification and the training loop.

The relation loss is a binary cross-entropy normalized separately over
positive and negative slots, with the no-relation branch down-weighted by
a factor of 5 (multiplier 0.2). Node classification supervises the label
head in the gt-box and detection protocols. The link term supervises the
relevance kernel: each node's softmax over its relevance to the previous
frame's nodes is pulled towards the previous node of the same gt object.

Training computes all three over a packed minibatch as one weighted sum
(`batch_loss`). Its targets are one weight per entry of each loss term,
read off the packed pair and candidate lists through one array, the gt
object of each packed node (`node_identity`).

`train` builds everything that depends only on the data once per sequence,
before the first step (`prepare`): the packed node rows, frozen so that the
forward pass wraps them uncopied; the segment plans with their runs, held
as a few stacked integer arrays, one per row count (`FAMILIES`), which
every plan views; the node count of each frame; the links that tracking
and dense select whatever the parameters; and the loss weights with the
sign of each relation term, one (2, P·H) array. A step then joins its
sequences (`join`: each stacked array is one concatenation, and the rows
after a sequence are shifted by its node, frame, pair or candidate count
in one add), runs the forward pass and the loss on the tape, takes the
gradient back as one flat vector in the parameters' layout, checks it,
clips it and updates the parameters: only work that depends on the
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas, layers
from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .config import RunConfig
from .errors import ContractError, TrainingError
from .params import Gradients, ModelParams
from .rng import RngStream
from .scene import SceneSequence, box_iou
from .temporal import BatchOutput, Packed, forward_batch, pack

NEGATIVE_WEIGHT = 0.2  # no-relation terms down-weighted by a factor of 5
IOU_MATCH = 0.5
LINK_WEIGHT = 1.0      # weight of the link loss in the trained objective


@dataclass
class LossReport:
    relation_loss: float = 0.0
    node_loss: float = 0.0
    link_loss: float = 0.0
    total: float = 0.0


def node_identity(sequence: SceneSequence, packed: Packed) -> np.ndarray:
    """(N,) frame-local gt object of each packed node, -1 when unmatched.

    Nodes are their own gt objects in predcls/sgcls; in sgdet a node matches
    its highest-IoU gt object (the first on ties) at IoU >= IOU_MATCH, all
    nodes in one pass over their frames' gt boxes padded to one count.
    """
    sizes = packed.sizes
    local = np.arange(packed.n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    if packed.mode != "sgdet":
        return local
    # a padding slot reads a zero box, appended last, and scores -1: below
    # every IoU, so it never wins, and a frame without gt matches nothing
    rows = sequence.object_rows(np.repeat(np.arange(len(sizes)), sizes))
    boxes = np.concatenate([sequence.gt_feats[:, :4], np.zeros((1, 4))])
    ious = np.where(rows < len(boxes) - 1, box_iou(packed.feats[:, None, :4], boxes[rows]), -1.0)
    best = ious.argmax(axis=1)
    return np.where(ious[np.arange(packed.n_nodes), best] >= IOU_MATCH, best, -1)


@dataclass
class Targets:
    """Data-only loss inputs of a packed batch: one weight per entry of each
    loss term, 0 where an entry is not supervised.

    Every weight carries the mean over its frame's terms, the mean over the
    sequence's non-empty frames and the mean over the batch's sequences;
    node and link weights are negative, so their log-probabilities add up
    to a cross-entropy.
    """

    relation: np.ndarray       # (2, P * H) per relation slot, in packed pair order x
                               # predicate: its weight, and the sign of its logit
                               # (-1.0 at relation slots, 1.0 at the rest)
    node_weight: np.ndarray    # (N * G,) at the gt label of each gt-matched node
    link_weight: np.ndarray    # (C,) at each node's target candidate link

    @property
    def rel_weight(self) -> np.ndarray:
        return self.relation[0]

    @property
    def rel_sign(self) -> np.ndarray:
        return self.relation[1]


def loss_targets(sequence: SceneSequence, packed: Packed, h: int) -> Targets:
    """The targets of one sequence's packed inputs.

    Per frame: relation loss + node loss (sgcls, sgdet) + link loss (frames
    with candidate links), averaged over the non-empty frames. A relation
    slot is positive when its pair's nodes match distinct gt objects that
    hold the predicate; a node's link target is its first candidate whose
    previous node matches the same gt object.
    """
    gt = node_identity(sequence, packed)
    node_frame = packed.node_frame.ids
    n_frames = packed.n_frames
    scale = 1.0 / n_frames if n_frames else 0.0
    # which gt pairs of each of the sequence's frames hold which predicates,
    # and each node's frame among them (node_frame counts frames with nodes)
    counts = sequence.n_objects
    n_obj = int(counts.max())
    holds = np.zeros((len(counts), n_obj, n_obj, h), dtype=bool)
    holds[(np.repeat(np.arange(len(counts)), sequence.n_triplets), *sequence.triplets.T)] = True
    full_frame = np.flatnonzero(packed.sizes)[node_frame]

    # relation slots, in packed pair order x predicate
    subj, obj = packed.subj.ids, packed.obj.ids
    gs, go = gt[subj], gt[obj]
    distinct = np.flatnonzero((gs >= 0) & (go >= 0) & (gs != go))
    positive = np.zeros((len(subj), h), dtype=bool)
    positive[distinct] = holds[full_frame[subj[distinct]], gs[distinct], go[distinct]]
    positive = positive.reshape(-1)
    slot_frame = np.repeat(node_frame[subj], h)
    n_pos = np.bincount(slot_frame[positive], minlength=n_frames)
    n_neg = np.bincount(slot_frame, minlength=n_frames) - n_pos
    pos_w = np.divide(1.0, n_pos, out=np.zeros(n_frames), where=n_pos > 0)
    neg_w = np.divide(NEGATIVE_WEIGHT, n_neg, out=np.zeros(n_frames), where=n_neg > 0)
    relation = np.empty((2, len(positive)))
    relation[0] = np.where(positive, pos_w[slot_frame], neg_w[slot_frame]) * scale
    relation[1] = np.where(positive, -1.0, 1.0)

    # node entries, in packed node order x label
    g = sequence.g
    rows = np.flatnonzero(gt >= 0) if packed.mode != "predcls" else np.zeros(0, np.intp)
    node_count = np.bincount(node_frame[rows], minlength=n_frames)
    node_weight = np.zeros(packed.n_nodes * g)
    labels = sequence.objects["label"][(np.cumsum(counts) - counts)[full_frame[rows]] + gt[rows]]
    node_weight[rows * g + labels] = (-1.0 / node_count[node_frame[rows]]) * scale

    curr, prev = packed.cand_curr.ids, packed.cand_prev.ids
    hits = np.flatnonzero((gt[curr] >= 0) & (gt[curr] == gt[prev]))
    # candidates run by (curr, prev), so a node's first hit has the lowest prev
    first = hits[np.unique(curr[hits], return_index=True)[1]]
    link_frame = node_frame[curr[first]]
    link_count = np.bincount(link_frame, minlength=n_frames)
    link_weight = np.zeros(len(curr))
    link_weight[first] = (-1.0 / link_count[link_frame]) * scale

    return Targets(relation=relation, node_weight=node_weight, link_weight=link_weight)


# The stacked arrays of a prepared sequence's integer data, one per row
# count: name -> the count that a join offsets each row by, n(odes),
# f(rames), p(airs) or c(andidates). A variant carries no array it has no
# rows for: spatial none of the candidates', sparse and spatial no links.
FAMILIES = {
    "node_frame": "f",     # (1, N) frame of each node
    "frame_runs": "nf",    # (2, F') runs of node_frame: reduceat starts, segments
    "pairs": "nnp",        # (3, P) subj, obj, obj's stable sort order
    "pair_runs": "pnpn",   # (4, R) runs of subj, then of obj (the same nodes)
    "cands": "nnc",        # (3, C) cand_curr, cand_prev, cand_prev's sort order
    "curr_runs": "cn",     # (2, R') runs of cand_curr
    "prev_runs": "cn",     # (2, R'') runs of cand_prev
    "links": "c",          # (1, L) the fixed links (dense, tracking)
}
_NO_IDS = np.zeros(0, dtype=np.intp)
_NO_IDS.setflags(write=False)


@dataclass
class Prepared:
    """One sequence's data-only step inputs (`prepare`): its packed inputs
    and targets, the stacked integer arrays of FAMILIES that every plan of
    `packed` views, and for each (k, r) array the (k, 1) counts of the
    sequence that a join adds to the rows after its own."""

    packed: Packed
    targets: Targets
    rows: dict[str, np.ndarray]
    shifts: dict[str, np.ndarray]


def _with_rows(template: Packed, sizes, feats, frame_counts, rows: dict[str, np.ndarray],
               obj_sorted: bool, prev_sorted: bool) -> Packed:
    """The packed inputs whose plans are row views of `rows` (FAMILIES),
    with their runs; obj's and cand_prev's sort orders are None where
    their ids run in order."""
    n, n_frames = len(feats), len(frame_counts)
    plan = ad.SegmentPlan.derived
    frame_runs, pairs, pair_runs = rows["frame_runs"], rows["pairs"], rows["pair_runs"]
    cands = rows.get("cands")
    if cands is None:
        cand_curr = cand_prev = plan(_NO_IDS, n, (None, _NO_IDS, _NO_IDS))
    else:
        curr_runs, prev_runs = rows["curr_runs"], rows["prev_runs"]
        cand_curr = plan(cands[0], n, (None, curr_runs[0], curr_runs[1]))
        cand_prev = plan(cands[1], n, (None if prev_sorted else cands[2],
                                       prev_runs[0], prev_runs[1]))
    links = rows.get("links")
    return Packed(
        mode=template.mode, variant=template.variant, sizes=sizes, feats=feats,
        node_frame=plan(rows["node_frame"][0], n_frames, (None, frame_runs[0], frame_runs[1])),
        frame_counts=frame_counts,
        subj=plan(pairs[0], n, (None, pair_runs[0], pair_runs[1])),
        obj=plan(pairs[1], n, (None if obj_sorted else pairs[2], pair_runs[2], pair_runs[3])),
        cand_curr=cand_curr, cand_prev=cand_prev,
        links=None if links is None else links[0])


def prepare(sequence: SceneSequence, mode: str, variant: str, dims) -> Prepared:
    """Everything about one sequence that depends on the data, not the
    parameters (`Packed`, `Targets`), down to the runs of its plans that the
    backward pass reduces over. Its integer data is stored as the stacked
    arrays of FAMILIES, which every plan views; batches join those arrays
    rather than find the runs again."""
    packed = pack(sequence, mode, variant, dims)
    targets = loss_targets(sequence, packed, dims.h)
    frame_runs, subj, obj = (p.runs() for p in (packed.node_frame, packed.subj, packed.obj))
    order = obj[0] if obj[0] is not None else np.arange(len(packed.obj))
    rows = {"node_frame": packed.node_frame.ids[None],
            "frame_runs": np.stack(frame_runs[1:]),
            "pairs": np.stack([packed.subj.ids, packed.obj.ids, order]),
            "pair_runs": np.stack([*subj[1:], *obj[1:]])}
    prev_sorted = True
    if variant != "spatial":
        prev = packed.cand_prev.ids
        prev_runs = packed.cand_prev.runs()
        prev_sorted = prev_runs[0] is None
        rows |= {"cands": np.stack([packed.cand_curr.ids, prev,
                                    np.arange(len(prev)) if prev_sorted else prev_runs[0]]),
                 "curr_runs": np.stack(packed.cand_curr.runs()[1:]),
                 "prev_runs": np.stack(prev_runs[1:])}
    if packed.links is not None:
        rows["links"] = packed.links[None]
    counts = dict(zip("nfpc", (packed.n_nodes, packed.n_frames, len(packed.subj),
                               len(packed.cand_curr))))
    shifts = {name: np.array([[counts[unit]] for unit in FAMILIES[name]], dtype=np.intp)
              for name in rows}
    packed = _with_rows(packed, packed.sizes, packed.feats, packed.frame_counts, rows,
                        obj[0] is None, prev_sorted)
    return Prepared(packed, targets, rows, shifts)


def _joined_rows(arrays: list[np.ndarray], shifts: list[np.ndarray]) -> np.ndarray:
    """The (k, r_i) arrays side by side, the rows after each part's shifted
    by that part's (k, 1) shift."""
    out = np.concatenate(arrays, axis=1)
    start = 0
    for a, shift in zip(arrays[:-1], shifts):
        start += a.shape[1]
        out[:, start:] += shift
    return out


def join(items: list[Prepared]) -> tuple[Packed, Targets]:
    """The packed inputs and targets of a batch of prepared sequences, in
    order; the batch loss is the mean of the sequences' losses. Each stacked
    array of FAMILIES is one concatenation, and its rows after each
    sequence but the last are shifted by that sequence's node, frame, pair
    or candidate count, one broadcast add. A batch of one is its
    sequence's, as it is."""
    if len(items) == 1:
        return items[0].packed, items[0].targets
    parts = [item.packed for item in items]
    rows = {name: _joined_rows([item.rows[name] for item in items],
                               [item.shifts[name] for item in items])
            for name in items[0].rows}
    feats = np.concatenate([p.feats for p in parts])
    feats.setflags(write=False)
    packed = _with_rows(
        parts[0], np.concatenate([p.sizes for p in parts]), feats,
        np.concatenate([p.frame_counts for p in parts]), rows,
        all(p.obj.runs()[0] is None for p in parts),
        all(p.cand_prev.runs()[0] is None for p in parts))

    targets = [item.targets for item in items]
    scale = 1.0 / len(items)
    relation = np.concatenate([t.relation for t in targets], axis=1)
    relation[0] *= scale
    node_weight = np.concatenate([t.node_weight for t in targets])
    node_weight *= scale
    link_weight = np.concatenate([t.link_weight for t in targets])
    link_weight *= scale
    return packed, Targets(relation=relation, node_weight=node_weight, link_weight=link_weight)


def batch_loss(packed: Packed, targets: Targets, out: BatchOutput,
               lambda_node: float) -> tuple[Tensor, LossReport]:
    """The trained objective: one dot product of the targets' weights with
    the softplus relation terms and the log-softmax node and link terms
    (weighted by LINK_WEIGHT) over the whole batch.

    -log(sigmoid(z)) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z),
    and the log-softmax stays finite where a probability underflows to 0.
    The link term's softmax runs over each node's candidate links. The sum
    is one tape record (`layers.weighted_loss`).
    """
    t = targets
    weight = [t.rel_weight]
    use_node = out.label_logits is not None and lambda_node != 0.0
    use_link = out.gamma is not None and LINK_WEIGHT != 0.0
    if use_node:
        weight.append(lambda_node * t.node_weight)
    if use_link:
        weight.append(LINK_WEIGHT * t.link_weight)
    total, values = layers.weighted_loss(
        np.concatenate(weight), out.relation_logits, t.rel_sign,
        out.label_logits if use_node else None, out.gamma if use_link else None,
        packed.cand_curr)

    n_rel = len(t.rel_weight)
    n_node = len(t.node_weight) if use_node else 0
    report = LossReport(
        relation_loss=float(np.dot(t.rel_weight, values[:n_rel])),
        node_loss=float(np.dot(t.node_weight, values[n_rel:n_rel + n_node])) if use_node else 0.0,
        link_loss=float(np.dot(t.link_weight, values[n_rel + n_node:])) if use_link else 0.0,
        total=total.item())
    return total, report


# ---------------------------------------------------------------------------
# optimizers


class Optimizer:
    """Adaptive-moment update with a plain gradient-descent option.

    The update is elementwise, so it runs on whole arrays: the flat
    parameter vector in training, or any one array (`update`).
    """

    def __init__(self, kind: str = "adam", lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if kind not in ("adam", "sgd"):
            raise ContractError(f"optimizer: unknown kind {kind!r}")
        self.kind = kind
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m: np.ndarray | None = None   # moments, shaped like the updated array
        self._v: np.ndarray | None = None
        self._step: np.ndarray | None = None      # buffers of the update
        self._scratch: np.ndarray | None = None

    def update(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The stepped values of x given its gradient g, as a new array.

        The moments and the step are computed in buffers allocated at the
        first update, in the operation order of
        m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g,
        x - lr * mhat / (sqrt(vhat) + eps).
        """
        self.step_count += 1
        if self.kind == "sgd":
            return x - self.lr * g
        if self._m is None:
            self._m, self._v = np.zeros_like(g), np.zeros_like(g)
            self._step, self._scratch = np.empty_like(g), np.empty_like(g)
        m, v, step, scratch = self._m, self._v, self._step, self._scratch
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=scratch)
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=scratch)
        v += np.multiply(scratch, g, out=scratch)
        np.divide(m, 1 - self.beta1 ** self.step_count, out=step)              # mhat
        step *= self.lr
        np.divide(v, 1 - self.beta2 ** self.step_count, out=scratch)           # vhat
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        step /= scratch
        return x - step

    def step(self, params: ModelParams, grads: Gradients) -> ModelParams:
        return params.with_flat(self.update(params.flat, grads.flat))


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(sequence: SceneSequence, params: ModelParams, mode: str = "sgcls",
               variant: str = "sparse", k: int = 1, lambda_node: float = 1.0,
               h: float = 1e-5, max_entries: int = 600, seed: int = 0) -> float:
    """Max relative error of tape gradients vs central finite differences.

    Checks every parameter entry when the model is small enough, otherwise a
    seeded subsample of at least max(500, one per tensor) entries. The error
    metric is |a - b| / max(1e-12, |a| + |b|).
    """
    prepared = prepare(sequence, mode, variant, params.dims)
    packed, targets = prepared.packed, prepared.targets

    def loss(p: ModelParams) -> Tensor:
        return batch_loss(packed, targets, forward_batch(packed, p, k), lambda_node)[0]

    tape = Tape()
    params.watch_all(tape)
    with tape:
        total = loss(params)
    grads = backward(tape, total)   # in the layout of params, which watch_all follows

    # flat indices of the checked entries
    start = dict(zip(params.layout.names, params.layout.offsets))
    total_entries = params.count()
    if total_entries <= max_entries:
        entries = list(range(total_entries))
    else:
        rng = RngStream(seed, stream=99)
        budget = max(max_entries, 500)
        names = params.names()
        # at least one entry per tensor, remainder proportional to size
        entries = [start[name] + rng.integer(params[name].size) for name in names]
        while len(entries) < budget:
            name = names[rng.integer(len(names))]
            entries.append(start[name] + rng.integer(params[name].size))

    # central differences cannot resolve differences below the rounding noise
    # of the loss itself (~eps*|loss|/2h); exactly-zero gradients (e.g. the
    # relevance projection under k=1 without the link term, where the link
    # weight cancels in the normalization) would otherwise compare 0 against
    # pure ulp noise
    fd_floor = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(total.item())) / (2 * h)
    worst = 0.0
    for i in entries:
        bumped = []
        for step in (h, -h):
            flat = params.flat.copy()
            flat[i] += step
            bumped.append(loss(params.with_flat(flat)).item())
        numeric = (bumped[0] - bumped[1]) / (2 * h)
        analytic = grads[i]
        if abs(analytic - numeric) <= fd_floor:
            continue
        err = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# training loop


def clip_gradients(grads: Gradients, max_norm: float) -> Gradients:
    """Scale the whole gradient down to a global L2 norm of max_norm; grads
    itself when max_norm <= 0 or the norm is within it.

    Near-cancelling link-weight sums can spike the aggregated features and
    with them the gradient; an unclipped step then launches the parameters
    into saturation.
    """
    if max_norm <= 0 or grads.norm() <= max_norm:
        return grads
    return grads.scaled_to(max_norm)


@dataclass
class EpochLog:
    """One epoch of training: the mean batch loss, the means of its relation,
    node and link parts (unweighted, so train_loss = relation_loss +
    lambda_node * node_loss + LINK_WEIGHT * link_loss), the steps whose
    gradient was clipped, the median and the max of the steps' pre-clip
    global gradient norms, and the validation metric when one was taken."""

    epoch: int
    train_loss: float
    val_recall20: float | None = None
    relation_loss: float = 0.0
    node_loss: float = 0.0
    link_loss: float = 0.0
    clip_hits: int = 0
    grad_norm_median: float = 0.0
    grad_norm_max: float = 0.0


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochLog] = field(default_factory=list)


@blas.one_thread()
def train(dataset: list[SceneSequence], cfg: RunConfig, eval_fn=None) -> TrainResult:
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
        reports: list[LossReport] = []
        norms: list[float] = []
        clip_hits = 0
        for start in range(0, len(order), tc.batch_size):
            packed, targets = join([prepared[i] for i in order[start:start + tc.batch_size]])
            tape = Tape()
            params.watch_all(tape)
            with tape:
                out = forward_batch(packed, params, tc.k)
                total, report = batch_loss(packed, targets, out, tc.lambda_node)
            value = report.total
            where = f"at epoch {epoch + 1}, batch {start // tc.batch_size + 1}"
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss {value} {where}")
            reports.append(report)
            grads = Gradients(params.layout, backward(tape, total))
            # a non-finite gradient would turn every parameter into NaN via
            # the clip factor, with no error until the next batch's loss; a
            # finite norm rules it out. A norm beyond the float range, every
            # entry finite, could not be logged as a number either
            if not np.isfinite(grads.norm()):
                if np.isfinite(grads.flat).all():
                    raise TrainingError(f"gradient norm beyond the float range {where}")
                name = next(n for n, g in grads.items() if not np.isfinite(g).all())
                raise TrainingError(f"non-finite gradient in {name} {where}")
            clipped = clip_gradients(grads, tc.clip_norm)
            clip_hits += clipped is not grads
            norms.append(grads.norm())
            params = opt.step(params, clipped)
            # an update can overflow on finite gradients; after the last one
            # no later loss would catch it before the checkpoint is written
            if not np.isfinite(params.flat).all():
                name = next(n for n, p in params.items() if not np.isfinite(p.data).all())
                raise TrainingError(f"non-finite parameter {name} {where}")
        means = [float(np.mean([getattr(r, name) for r in reports]))
                 for name in ("total", "relation_loss", "node_loss", "link_loss")]
        entry = EpochLog(epoch=epoch + 1, train_loss=means[0], relation_loss=means[1],
                         node_loss=means[2], link_loss=means[3], clip_hits=clip_hits,
                         grad_norm_median=float(np.median(norms)),
                         grad_norm_max=float(np.max(norms)))
        if eval_fn is not None and (epoch + 1) % tc.val_every == 0:
            entry.val_recall20 = float(eval_fn(params))
        log.append(entry)
    return TrainResult(params=params, log=log)
