import hashlib

import numpy as np
import pytest

from stsg.cli import main
from stsg.config import Dims, NoiseConfig, WorldConfig
from stsg.errors import ConfigError
from stsg.io import sequence_line
from stsg.rng import RngStream
from stsg.scene import object_nodes, overlap_fraction
from stsg.synthgen import (
    ABOVE,
    ABOVE_MAX_DY,
    ABOVE_MIN_DY,
    APPROACH_DECREASE,
    APPROACHING,
    BENEATH,
    COMOVE_TOL,
    HOLD_COVER,
    HOLDING,
    MOVE_TOL,
    NEAR,
    NEAR_DIST,
    RELEASING,
    _PROTO_SEED,
    class_prototypes,
    frame_triplets,
    generate_scene,
    simulate_detector,
)

DIMS = Dims()
WORLD = WorldConfig()
LARGE_WORLD = WorldConfig(n_objects_min=10, n_objects_max=12, frames=16)


# ---------------------------------------------------------------------------
# scalar reference of the ground-truth rules: one pair at a time


def center(box) -> tuple[float, float]:
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


def _holding_pairs(boxes: list, vels: np.ndarray) -> set[tuple[int, int]]:
    held = set()
    n = len(boxes)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if overlap_fraction(boxes[j], boxes[i]) >= HOLD_COVER and \
                    float(np.max(np.abs(vels[i] - vels[j]))) <= COMOVE_TOL:
                held.add((i, j))
    return held


def _frame_triplets(boxes: list, centers: np.ndarray,
                    prev_centers: np.ndarray | None, vels: np.ndarray,
                    held: set[tuple[int, int]],
                    prev_held: set[tuple[int, int]]) -> list[tuple[int, int, int]]:
    n = len(boxes)
    triplets: list[tuple[int, int, int]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bi, bj = boxes[i], boxes[j]
            dist = float(np.hypot(*(centers[i] - centers[j])))
            touching = overlap_fraction(bi, bj) > 0 or overlap_fraction(bj, bi) > 0
            if touching or dist < NEAR_DIST:
                triplets.append((i, j, NEAR))
            if (i, j) in held:
                triplets.append((i, j, HOLDING))
            (xi, _, wi, _), (xj, _, wj, _) = bi, bj
            dx_overlap = min(xi + wi, xj + wj) - max(xi, xj)
            dy = centers[j][1] - centers[i][1]
            if dx_overlap > 0 and ABOVE_MIN_DY < dy < ABOVE_MAX_DY:
                triplets.append((i, j, ABOVE))
                triplets.append((j, i, BENEATH))
            if prev_centers is not None and float(np.max(np.abs(vels[i]))) > MOVE_TOL:
                prev_dist = float(np.hypot(*(prev_centers[i] - prev_centers[j])))
                if dist < prev_dist - APPROACH_DECREASE:
                    triplets.append((i, j, APPROACHING))
            if (i, j) in prev_held and (i, j) not in held:
                triplets.append((i, j, RELEASING))
    return triplets


def reference_triplets(frames: list[list]) -> list[list[tuple[int, int, int]]]:
    """Each frame's sorted triplets of (x, y, w, h) boxes, the scalar rules
    threaded frame to frame."""
    out = []
    prev_centers = None
    prev_held: set[tuple[int, int]] = set()
    for boxes in frames:
        centers = np.array([center(b) for b in boxes])
        vels = np.zeros((len(boxes), 2)) if prev_centers is None else centers - prev_centers
        held = _holding_pairs(boxes, vels)
        out.append(sorted(set(_frame_triplets(boxes, centers, prev_centers, vels,
                                              held, prev_held))))
        prev_centers, prev_held = centers, held
    return out


def checked_triplets(frames: list[list[tuple]]) -> list[list[tuple[int, int, int]]]:
    """frame_triplets of hand-built (x, y, w, h) frames, after checking it
    against the scalar reference."""
    got = frame_triplets(np.array(frames, dtype=np.float64))
    assert got == reference_triplets(frames)
    return got


def sequences_equal(a, b) -> bool:
    if len(a.frames) != len(b.frames) or not np.array_equal(a.event_labels, b.event_labels):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if fa.triplets != fb.triplets or fa.objects != fb.objects \
                or fa.detections != fb.detections:
            return False
        if not (np.array_equal(fa.gt_feats, fb.gt_feats)
                and np.array_equal(fa.det_feats, fb.det_feats)):
            return False
    return True


def test_generate_scene_is_deterministic():
    a = generate_scene(DIMS, WORLD, seed=123)
    b = generate_scene(DIMS, WORLD, seed=123)
    assert sequences_equal(a, b)
    c = generate_scene(DIMS, WORLD, seed=124)
    assert not sequences_equal(a, c)


def test_static_scene_has_no_motion_predicates():
    boxes = [(0.1, 0.1, 0.1, 0.1), (0.5, 0.5, 0.1, 0.1)]
    # identical previous frame: no velocity, no holding transitions
    trips = checked_triplets([boxes, boxes])[1]
    predicates = {p for (_, _, p) in trips}
    assert APPROACHING not in predicates
    assert RELEASING not in predicates


@pytest.mark.parametrize("world", [WORLD, LARGE_WORLD], ids=["default", "large"])
def test_generated_triplets_equal_scalar_reference(world):
    for seed in range(200):
        seq = generate_scene(DIMS, world, seed=seed)
        frames = [[o.box for o in frame.objects] for frame in seq.frames]
        assert [frame.triplets for frame in seq.frames] == reference_triplets(frames), seed


TINY = 2.0 ** -9   # box side whose half-width keeps threshold sums exact


def test_boxes_sharing_an_edge_do_not_overlap():
    # x ranges [0.125, 0.375] and [0.375, 0.625]: x-overlap exactly 0
    trips = checked_triplets([[(0.125, 0.5, 0.25, 0.25), (0.375, 0.6, 0.25, 0.25)]])[0]
    assert trips == []


@pytest.mark.parametrize("dy, above", [
    (ABOVE_MIN_DY, False), (np.nextafter(ABOVE_MIN_DY, 1.0), True),
    (ABOVE_MAX_DY, False), (np.nextafter(ABOVE_MAX_DY, 0.0), True),
])
def test_above_bounds_are_strict(dy, above):
    boxes = [(0.0, 0.0, TINY, TINY), (0.0, float(dy), TINY, TINY)]
    assert (boxes[1][1] + TINY / 2.0) - (boxes[0][1] + TINY / 2.0) == dy
    trips = checked_triplets([boxes])[0]
    assert ((0, 1, ABOVE) in trips) == above
    assert ((1, 0, BENEATH) in trips) == above


@pytest.mark.parametrize("dx, near", [(NEAR_DIST, False), (np.nextafter(NEAR_DIST, 0.0), True)])
def test_near_distance_is_strict(dx, near):
    boxes = [(0.0, 0.5, TINY, TINY), (float(dx), 0.5, TINY, TINY)]
    trips = checked_triplets([boxes])[0]
    assert ((0, 1, NEAR) in trips) == near


def test_coincident_boxes_hold_each_other():
    box = (0.3, 0.3, 0.2, 0.2)
    trips = checked_triplets([[box, box], [box, box]])
    assert trips[0] == trips[1] == [(0, 1, NEAR), (0, 1, HOLDING), (1, 0, NEAR), (1, 0, HOLDING)]


@pytest.mark.parametrize("step, held", [(COMOVE_TOL, True), (np.nextafter(COMOVE_TOL, 1.0), False)])
def test_comove_tolerance_is_inclusive(step, held):
    # a tiny box inside a still holder moves by `step`: exactly the
    # velocity difference, since the tiny half-width keeps the sum exact
    side = 2.0 ** -30
    holder = (0.0, 0.0, 0.5, 0.5)
    trips = checked_triplets([[holder, (0.0, 0.0, side, side)],
                              [holder, (float(step), 0.0, side, side)]])
    assert (0, 1, HOLDING) in trips[0]
    assert ((0, 1, HOLDING) in trips[1]) == held
    assert ((0, 1, RELEASING) in trips[1]) == (not held)


def test_predicate_consistency_invariants():
    for seed in range(60):
        seq = generate_scene(DIMS, WORLD, seed=seed)
        prev = None
        for frame in seq.frames:
            trips = set(frame.triplets)
            for (i, j, p) in trips:
                if p == HOLDING:
                    assert (i, j, NEAR) in trips, f"seed {seed}: holding without near"
                if p == RELEASING:
                    assert prev is not None and (i, j, HOLDING) in prev, \
                        f"seed {seed}: releasing without prior holding"
            prev = trips


def test_every_predicate_reaches_two_percent_of_frames():
    counts = np.zeros(DIMS.h)
    frames = 0
    for seed in range(1000):
        seq = generate_scene(DIMS, WORLD, seed=seed)
        for frame in seq.frames:
            frames += 1
            present = {p for (_, _, p) in frame.triplets}
            for p in present:
                counts[p] += 1
    rates = counts / frames
    assert np.all(rates >= 0.02), rates


def test_event_labels_cover_all_classes():
    seen = np.zeros(4)
    for seed in range(200):
        seen += generate_scene(DIMS, WORLD, seed=seed).event_labels
    assert np.all(seen > 0)


def test_zero_noise_detector_is_identity():
    seq = generate_scene(DIMS, WorldConfig(noise=NoiseConfig(0.0, 0.0, 0.0, 0.0, 0.0)), seed=5)
    for frame in seq.frames:
        assert len(frame.detections) == len(frame.objects)
        for det, obj, det_row, gt_row in zip(frame.detections, frame.objects, frame.det_feats,
                                             frame.gt_feats):
            assert det.box == obj.box
            onehot = np.zeros(DIMS.g)
            onehot[obj.label] = 1.0
            np.testing.assert_array_equal(det_row[4:4 + DIMS.g], onehot)
            np.testing.assert_array_equal(det_row[4 + DIMS.g:], gt_row[4 + DIMS.g:])


def gt_rows(*boxes) -> np.ndarray:
    """gt node rows of these boxes, with zero label and visual columns."""
    return np.array([[*box] + [0.0] * (DIMS.g + DIMS.c) for box in boxes]).reshape(-1, DIMS.m)


def test_full_miss_prob_drops_everything():
    noise = NoiseConfig(box_jitter_sigma=0.0, label_confusion_prob=0.0,
                        miss_prob=1.0, false_positive_rate=0.0, occlusion_prob=0.0)
    assert simulate_detector([(1, False, True)], gt_rows([0.4, 0.4, 0.1, 0.1]), noise, DIMS,
                             RngStream(1)) == ([], [], [])


def test_jitter_folded_normal_statistics():
    sigma = 0.02
    noise = NoiseConfig(box_jitter_sigma=sigma, label_confusion_prob=0.0,
                        miss_prob=0.0, false_positive_rate=0.0, occlusion_prob=0.0)
    gt_box = [0.45, 0.45, 0.1, 0.1]
    stream = RngStream(77)
    total = 0.0
    n = 10_000
    for _ in range(n):
        (box,), _, _ = simulate_detector([(1, False, True)], gt_rows(gt_box), noise, DIMS,
                                         stream)
        (cx, cy), (gx, gy) = center(box), center(gt_box)
        total += abs(cx - gx) + abs(cy - gy)
    expected = 2.0 * sigma * np.sqrt(2.0 / np.pi)
    assert abs(total / n - expected) < 0.1 * expected


def test_occlusion_produces_missing_then_present():
    hit = False
    for seed in range(100):
        seq = generate_scene(DIMS, WORLD, seed=seed)
        for t in range(1, len(seq.frames)):
            prev_occ = {i for i, o in enumerate(seq.frames[t - 1].objects) if o.occluded}
            cur_occ = {i for i, o in enumerate(seq.frames[t].objects) if o.occluded}
            if prev_occ - cur_occ:
                hit = True
    assert hit


def test_label_confusion_moves_mass_to_one_class():
    noise = NoiseConfig(box_jitter_sigma=0.0, label_confusion_prob=0.25,
                        miss_prob=0.0, false_positive_rate=0.0, occlusion_prob=0.0)
    _, (label_dist,), _ = simulate_detector([(2, False, True)], gt_rows([0.4, 0.4, 0.1, 0.1]),
                                            noise, DIMS, RngStream(9))
    assert label_dist[2] == 0.75
    assert np.isclose(label_dist.sum(), 1.0)
    assert np.count_nonzero(label_dist) == 2


def test_false_positives_get_uniform_labels():
    noise = NoiseConfig(box_jitter_sigma=0.0, label_confusion_prob=0.0,
                        miss_prob=0.0, false_positive_rate=1.0, occlusion_prob=0.0)
    _, dists, _ = simulate_detector([], gt_rows(), noise, DIMS, RngStream(10))
    assert len(dists) == 1
    np.testing.assert_allclose(dists[0], np.full(DIMS.g, 1.0 / DIMS.g))


def test_prototypes_are_stable_unit_rows():
    p1 = class_prototypes(DIMS.g, DIMS.c)
    p2 = class_prototypes(DIMS.g, DIMS.c)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_allclose(np.linalg.norm(p1, axis=1), 1.0)


def test_prototype_table_is_read_only_and_computed_once():
    protos = class_prototypes(DIMS.g, DIMS.c)
    assert class_prototypes(DIMS.g, DIMS.c) is protos
    with pytest.raises(ValueError):
        protos[0, 0] = 1.0
    raw = RngStream(_PROTO_SEED).normal_array((DIMS.g, DIMS.c))
    np.testing.assert_array_equal(protos, raw / np.linalg.norm(raw, axis=1, keepdims=True))


def test_detection_rows_equal_per_node_encoding():
    for seed in range(20):
        for frame in generate_scene(DIMS, WORLD, seed=seed).frames:
            for row, det in zip(frame.det_feats, frame.detections, strict=True):
                (node,) = object_nodes([det.box], [row[4:4 + DIMS.g]], [row[4 + DIMS.g:]], DIMS)
                np.testing.assert_array_equal(row, node)


# sha256 of train/val/test.jsonl written by `stsg gen --seed 7` with 5/1/3
# sequences, in dataset format version 3. The files of earlier versions held
# the same sequences: version 2 5365bea90288.., 059080706f32.. and
# ad722061e72c..; version 1 b913255831fb.., 1ea460e2891a.. and
# acee4139887a..
GOLDEN_GEN = {
    "train.jsonl": "4ca5fa456060212afe41d8b2ab6dea2f0af6a117b9bf83cbf20ff12aa09329f5",
    "val.jsonl": "7d58f7248a0d5316567d13bbc2bf0a4c4b14d7715245ede8d95eb099db128017",
    "test.jsonl": "caa03592bed5ce796fad4ca3b127f839bb37bf0016b1380d7427610747a66f7f",
}


def test_gen_output_matches_golden_digest(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("split.train_sequences = 5\nsplit.val_sequences = 1\n"
                   "split.test_sequences = 3\n")
    out = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_GEN}
    assert got == GOLDEN_GEN


def test_default_lines_write_each_visual_vector_once():
    # a detection of a gt object carries that object's visual vector, which a
    # line writes once, as the object's: the first 20 seed-7 train lines
    # averaged 42.6 KB when each detection wrote it again, 29.7 KB with the
    # vectors as JSON numbers, 20.2 KB as base64 text
    lines = [sequence_line(generate_scene(DIMS, WorldConfig(), 7_000_000 + i))
             for i in range(20)]
    assert sum(map(len, lines)) / len(lines) <= 31_000


def test_impossible_config_rejected():
    with pytest.raises(ConfigError):
        generate_scene(DIMS, WorldConfig(frames=0), seed=0)
