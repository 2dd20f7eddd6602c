"""Deterministic synthetic benchmark of scripted agent-object scenes.

Each sequence scripts one event (pick_up, put_down, carry or swap) for a
single agent among drifting distractor objects. Ground-truth predicates are
derived purely from geometry and motion, which makes two of them
(approaching, releasing) undecidable from any single frame: that is the
regime where cross-frame context must carry the signal. A detector
simulator adds box jitter, label confusion, misses, occlusion dropouts and
false positives so all three evaluation protocols are meaningful.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import EVENT_NAMES, Dims, NoiseConfig, WorldConfig
from .rng import RngStream
from .scene import SceneSequence, object_nodes, overlap_fraction, scene_sequence

NEAR_DIST = 0.22
HOLD_COVER = 0.5
COMOVE_TOL = 1e-6
APPROACH_DECREASE = 0.01
MOVE_TOL = 1e-9
ABOVE_MIN_DY = 0.01
ABOVE_MAX_DY = 0.35
DRIFT_SIGMA = 0.025

NEAR, HOLDING, ABOVE, BENEATH, APPROACHING, RELEASING = range(6)

_PROTO_SEED = 90210
_VISUAL_NOISE_SIGMA = 0.1


@lru_cache(maxsize=None)
def class_prototypes(g: int, c: int) -> np.ndarray:
    """Fixed per-class visual anchors, unit rows, identical across runs.

    Computed once per (g, c); the returned table is read-only.
    """
    raw = RngStream(_PROTO_SEED).normal_array((g, c))
    protos = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    protos.flags.writeable = False
    return protos


def _clamp_corners(corners: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(corners, 0.01), np.maximum(0.01, 0.99 - sizes))


def frame_triplets(boxes: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """Ground-truth triplets of each frame of an (f, n, 4) array of (x, y, w, h)
    boxes, object i being the same object in every frame; sorted, no repeats.

    Each predicate is a mask over (f, n, n) pair matrices: [t, i, j] is the
    ordered pair (i, j) in frame t. Frame t's motion predicates compare it
    with frame t - 1; frame 0 has no velocity and no previous holding.
    """
    x, y, w, h = np.moveaxis(boxes, -1, 0)                       # each (f, n)

    def pairwise(a: np.ndarray, op) -> np.ndarray:
        return op(a[..., :, None], a[..., None, :])

    # overlap of boxes i and j along each axis (symmetric, negative when apart)
    x_overlap = pairwise(x + w, np.minimum) - pairwise(x, np.maximum)
    y_overlap = pairwise(y + h, np.minimum) - pairwise(y, np.maximum)
    # cover[t, i, j]: share of box i's area that box j covers
    cover = (np.maximum(0.0, x_overlap) * np.maximum(0.0, y_overlap)) / (w * h)[..., :, None]
    centres = np.stack([x + w / 2.0, y + h / 2.0], axis=-1)      # (f, n, 2)
    dx, dy = pairwise(centres[..., 0], np.subtract), pairwise(centres[..., 1], np.subtract)
    dist = np.hypot(dx, dy)
    vel = np.zeros_like(centres)
    vel[1:] = centres[1:] - centres[:-1]
    speed_gap = np.abs(vel[..., :, None, :] - vel[..., None, :, :]).max(axis=-1)

    near = (cover > 0) | (cover.swapaxes(-1, -2) > 0) | (dist < NEAR_DIST)
    # i holds j: j mostly inside i, both moving together
    holding = (cover.swapaxes(-1, -2) >= HOLD_COVER) & (speed_gap <= COMOVE_TOL)
    drop = dy.swapaxes(-1, -2)                    # [t, i, j]: how far j's centre is below i's
    above = (x_overlap > 0) & (ABOVE_MIN_DY < drop) & (drop < ABOVE_MAX_DY)
    approaching = np.zeros_like(near)
    moving = np.abs(vel[1:]).max(axis=-1) > MOVE_TOL
    approaching[1:] = moving[..., :, None] & (dist[1:] < dist[:-1] - APPROACH_DECREASE)
    releasing = np.zeros_like(near)
    releasing[1:] = holding[:-1] & ~holding[1:]

    masks = np.stack([near, holding, above, above.swapaxes(-1, -2), approaching, releasing],
                     axis=-1)
    # no self-pairs: every triplet is valid by construction
    masks &= ~np.eye(x.shape[-1], dtype=bool)[:, :, None]
    return [list(zip(*(a.tolist() for a in np.nonzero(frame)))) for frame in masks]


def _noisy_label_dist(label: int, g: int, confusion: float, stream: RngStream) -> np.ndarray:
    dist = np.zeros(g)
    dist[label] = 1.0
    if confusion > 0.0:
        wrong = stream.integer(g - 1)
        if wrong >= label:
            wrong += 1
        dist[label] -= confusion
        dist[wrong] += confusion
    return dist


def simulate_detector(objects: list[tuple], rows: np.ndarray, noise: NoiseConfig, dims: Dims,
                      stream: RngStream) -> tuple[list, list, list]:
    """Noisy detections of a frame's gt objects, (label, occluded, ...)
    tuples with their node rows, as (boxes, label distributions, visual
    vectors), the inputs of `object_nodes`: occluded objects are always
    dropped, others are dropped with miss_prob; survivors get jittered boxes
    and confused labels; false positives carry uniform label distributions."""
    protos = class_prototypes(dims.g, dims.c)
    boxes: list[list[float]] = []
    dists: list[np.ndarray] = []
    visuals: list[np.ndarray] = []
    for (label, occluded, *_), box, feat in zip(objects, rows[:, :4].tolist(),
                                                rows[:, 4 + dims.g:]):
        if occluded:
            continue
        if noise.miss_prob > 0 and stream.uniform() < noise.miss_prob:
            continue
        if noise.box_jitter_sigma > 0:
            # jitter hits the center and the size; corner is rebuilt after
            x, y, bw, bh = box
            dcx, dcy, dw, dh = stream.normal_array(4, 0.0, noise.box_jitter_sigma).tolist()
            w = min(1.0, max(1e-3, bw + dw))
            h = min(1.0, max(1e-3, bh + dh))
            cx = x + bw / 2.0 + dcx
            cy = y + bh / 2.0 + dcy
            boxes.append([min(1.0, max(0.0, cx - w / 2.0)), min(1.0, max(0.0, cy - h / 2.0)),
                          w, h])
        else:
            boxes.append(box)
        dists.append(_noisy_label_dist(label, dims.g, noise.label_confusion_prob, stream))
        visuals.append(feat)
    n_fp = int(noise.false_positive_rate)
    frac = noise.false_positive_rate - n_fp
    if frac > 0 and stream.uniform() < frac:
        n_fp += 1
    for _ in range(n_fp):
        w = stream.uniform(0.05, 0.2)
        h = stream.uniform(0.05, 0.2)
        boxes.append([stream.uniform(0.0, 1.0 - w), stream.uniform(0.0, 1.0 - h), w, h])
        cls = stream.integer(dims.g)
        visuals.append(protos[cls] + stream.normal_array(dims.c, 0.0, _VISUAL_NOISE_SIGMA))
        dists.append(np.full(dims.g, 1.0 / dims.g))
    return boxes, dists, visuals


def _plan_event(n: int, rng: RngStream) -> tuple[int, int, int]:
    """(event id, target, secondary target); swap needs two objects."""
    event = rng.integer(len(EVENT_NAMES)) if n >= 3 else rng.integer(len(EVENT_NAMES) - 1)
    target = 1 + rng.integer(n - 1)
    other = target
    if n >= 3:
        while other == target:
            other = 1 + rng.integer(n - 1)
    return event, target, other


def generate_scene(dims: Dims, world: WorldConfig, seed: int) -> SceneSequence:
    """Simulate one scripted sequence; a pure function of (config, seed)."""
    world.validate(dims)
    rng = RngStream(seed)
    layout = rng.split(0)
    motion = rng.split(1)
    feat = rng.split(2)
    occl = rng.split(3)

    f = world.frames
    n = world.n_objects_min + layout.integer(world.n_objects_max - world.n_objects_min + 1)
    classes = np.zeros(n, dtype=int)
    for i in range(1, n):
        classes[i] = 1 + layout.integer(dims.g - 1)
    sizes = np.zeros((n, 2))
    sizes[0] = [layout.uniform(0.14, 0.18), layout.uniform(0.14, 0.18)]
    for i in range(1, n):
        sizes[i] = [layout.uniform(0.08, 0.14), layout.uniform(0.08, 0.14)]

    corners = np.zeros((n, 2))
    corners[0] = [layout.uniform(0.02, 0.8), layout.uniform(0.02, 0.8)]
    agent_box = [*_clamp_corners(corners[0], sizes[0]).tolist(), *sizes[0].tolist()]
    for i in range(1, n):
        for _attempt in range(10):
            corners[i] = [layout.uniform(0.02, 0.98 - sizes[i][0]),
                          layout.uniform(0.02, 0.98 - sizes[i][1])]
            box = [*_clamp_corners(corners[i], sizes[i]).tolist(), *sizes[i].tolist()]
            if overlap_fraction(box, agent_box) < 0.2:
                break

    event, target, other = _plan_event(n, motion)
    # distractor drift directions are invisible in any single frame, which
    # is what keeps drift-driven approaching labels temporal-only
    drift = np.zeros((n, 2))
    for i in range(1, n):
        drift[i] = motion.normal_array(2, 0.0, DRIFT_SIGMA)
    agent_drift = motion.normal_array(2, 0.0, 0.01)
    speed = motion.uniform(0.07, 0.15)
    drop_above = n >= 3 and motion.uniform() < 0.5
    drop_point = np.array([motion.uniform(0.1, 0.8), motion.uniform(0.1, 0.8)])

    def attach_corner(i: int) -> np.ndarray:
        # centered grasp: the object sits fully inside the agent box
        return corners[0] + (sizes[0] - sizes[i]) / 2.0

    grasp_t = max(1, f // 2 - 1)
    release_t = max(1, f // 2)
    swap_release_t = max(1, f // 3)
    swap_grasp_t = max(swap_release_t + 1, (2 * f) // 3)

    holding: int | None = None
    if event in (1, 2, 3):  # put_down, carry, swap start already holding
        holding = target
        corners[target] = attach_corner(target)

    occluded = np.zeros((f, n), dtype=bool)
    for i in range(1, n):
        if world.noise.occlusion_prob > 0 and occl.uniform() < world.noise.occlusion_prob:
            start = occl.integer(f)
            length = 1 + (1 if occl.uniform() < 0.3 else 0)
            occluded[start:start + length, i] = True

    def step_toward(src: np.ndarray, dst: np.ndarray, remaining: int) -> np.ndarray:
        if remaining <= 0:
            return dst.copy()
        return src + (dst - src) / remaining

    frame_corners = np.zeros((f, n, 2))
    for t in range(f):
        if t > 0:
            corners = corners.copy()
            # agent motion by phase
            if event == 0:  # pick_up: approach, then grasp and drift
                if t <= grasp_t:
                    goal = corners[target] + (sizes[target] - sizes[0]) / 2.0
                    corners[0] = step_toward(corners[0], goal, grasp_t - t + 1)
                    if t == grasp_t:
                        holding = target
                else:
                    corners[0] = corners[0] + agent_drift
            elif event == 1:  # put_down: carry to drop point, release, move away
                if t < release_t:
                    goal = drop_point if not drop_above else np.array([
                        corners[other][0] + (sizes[other][0] - sizes[target][0]) / 2.0,
                        corners[other][1] - sizes[target][1] - 0.02,
                    ]) - (sizes[0] - sizes[target]) / 2.0
                    corners[0] = step_toward(corners[0], goal, release_t - t)
                elif t == release_t:
                    holding = None
                    corners[0] = corners[0] + np.array([speed, 0.0])
                else:
                    corners[0] = corners[0] + np.array([speed * 0.6, 0.0])
            elif event == 2:  # carry: keep holding, tour waypoints
                corners[0] = corners[0] + np.array([speed * 0.7, speed * 0.35]) * (1 if (t // 3) % 2 == 0 else -1)
            elif event == 3:  # swap: release first object, fetch the second
                if t < swap_release_t:
                    corners[0] = corners[0] + agent_drift
                elif t == swap_release_t:
                    holding = None
                    corners[0] = corners[0] + np.array([speed, 0.0])
                elif t <= swap_grasp_t:
                    goal = corners[other] + (sizes[other] - sizes[0]) / 2.0
                    corners[0] = step_toward(corners[0], goal, swap_grasp_t - t + 1)
                    if t == swap_grasp_t:
                        holding = other
                else:
                    corners[0] = corners[0] + agent_drift
            corners[0] = np.clip(corners[0], 0.01, 0.99 - sizes[0])
            # free objects drift; the held object rides the agent
            free = np.arange(n) > 0
            if event == 0 and t <= grasp_t:
                free[target] = False  # pick-up target waits in place
            if holding is not None:
                free[holding] = False
                corners[holding] = attach_corner(holding)
            corners[free] = np.clip(corners[free] + drift[free], 0.01, 0.99 - sizes[free])
        frame_corners[t] = corners

    # derive ground truth: one [box | detector label dist | visual] row per
    # object, frame after frame
    protos = class_prototypes(dims.g, dims.c)
    boxes = np.concatenate([_clamp_corners(frame_corners, sizes),
                            np.broadcast_to(sizes, (f, n, 2))], axis=-1).reshape(f * n, 4)
    labels = classes.tolist() * f
    feats = np.empty((f * n, dims.m))
    feats[:, :4] = boxes
    for row, label in zip(feats, labels):
        row[4 + dims.g:] = protos[label] + feat.normal_array(dims.c, 0.0, _VISUAL_NOISE_SIGMA)
        row[4:4 + dims.g] = _noisy_label_dist(label, dims.g, world.noise.label_confusion_prob,
                                              feat)
    objects = [(label, occ, True) for label, occ in zip(labels, occluded.ravel().tolist())]
    frames, det_boxes, det_dists, det_visuals = [], [], [], []
    for t, triplets in enumerate(frame_triplets(boxes.reshape(f, n, 4))):
        rows = slice(t * n, (t + 1) * n)
        b, d, v = simulate_detector(objects[rows], feats[rows], world.noise, dims,
                                    rng.split(100 + t))
        frames.append((objects[rows], triplets, len(b)))
        det_boxes += b
        det_dists += d
        det_visuals += v
    det_feats = object_nodes(det_boxes, det_dists, det_visuals, dims)

    event_labels = np.zeros(len(EVENT_NAMES))
    event_labels[event] = 1.0
    return scene_sequence(frames, feats, det_feats, dims.g, event_labels, seed)

