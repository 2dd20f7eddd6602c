import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_record
from stsg.config import Dims, WorldConfig
from stsg.errors import ContractError, ShapeError
from stsg.scene import SceneSequence, iou, object_nodes, pairwise_iou, scene_sequence
from stsg.synthgen import generate_scene
from stsg.temporal import pack


def encode_node(box, label_dist, visual_feat) -> np.ndarray:
    """One node's [box | labels | visual] row, encoded by `object_nodes`."""
    dims = Dims(g=np.shape(label_dist)[0], c=np.shape(visual_feat)[0])
    (node,) = object_nodes([box], [label_dist], [visual_feat], dims)
    return node


def decode_node(feat: np.ndarray, g: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-trip the fixed offsets: [0,4) box, [4,4+G) labels, [4+G,m) visual."""
    feat = np.asarray(feat, dtype=np.float64)
    if feat.shape != (4 + g + c,):
        raise ShapeError(f"decode_node: expected length {4 + g + c}, got shape {feat.shape}")
    return feat[:4], feat[4:4 + g], feat[4 + g:]


def test_encode_length_is_4_plus_g_plus_c():
    out = encode_node([0.1, 0.1, 0.2, 0.2], [0.5, 0.5], [1.0, 2.0, 3.0])
    assert out.shape == (9,)


def test_encode_zero_box_onehot():
    out = encode_node([0.0, 0.0, 1e-9, 1e-9], [1.0, 0.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [0, 0, 1e-9, 1e-9, 1, 0, 0, 0, 0])


def test_encode_direct_substitution():
    out = encode_node([0.1, 0.2, 0.3, 0.4], [0.6, 0.4], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out, [0.1, 0.2, 0.3, 0.4, 0.6, 0.4, 1.0, 2.0, 3.0])


def test_offsets_roundtrip():
    box = [0.2, 0.3, 0.4, 0.5]
    labels = np.array([0.25, 0.25, 0.5])
    visual = np.array([9.0, 8.0])
    b, l, v = decode_node(encode_node(box, labels, visual), g=3, c=2)
    np.testing.assert_array_equal(b, box)
    np.testing.assert_array_equal(l, labels)
    np.testing.assert_array_equal(v, visual)


@given(
    st.floats(0.0, 0.5), st.floats(0.0, 0.5),
    st.floats(0.01, 0.5), st.floats(0.01, 0.5),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_encode_is_injective(x, y, w, h, raw_labels, visual):
    labels = np.array(raw_labels) / sum(raw_labels)
    box = [x, y, w, h]
    enc = encode_node(box, labels, np.array(visual))
    # concatenation preserves every entry at a fixed offset
    b, l, v = decode_node(enc, g=2, c=3)
    assert np.array_equal(b, box)
    assert np.array_equal(l, labels)
    assert np.array_equal(v, np.array(visual))


def sequence_of_boxes(gt_boxes, det_boxes) -> SceneSequence:
    """A one-frame sequence whose gt objects and detections have these boxes,
    made by `scene_sequence`, which range-checks every box."""
    dims = Dims(g=2, c=1)

    def rows(boxes):
        return np.array([[*box, 1.0, 0.0, 0.0] for box in boxes]).reshape(-1, dims.m)

    spec = [([(0, False, True)] * len(gt_boxes), [], len(det_boxes))]
    return scene_sequence(spec, rows(gt_boxes), rows(det_boxes), dims.g, np.zeros(4), 0)


def test_box_validation():
    with pytest.raises(ContractError):
        sequence_of_boxes([[-0.1, 0.0, 0.1, 0.1]], [])
    with pytest.raises(ContractError):
        sequence_of_boxes([], [[0.0, 0.0, 0.0, 0.1]])


OK_BOX = [0.25, 0.25, 0.5, 0.5]


@pytest.mark.parametrize("box, message", [
    ([-0.1, 0.0, 0.1, 0.1], "box: corner (-0.1, 0.0) outside [0, 1]"),
    ([0.5, 1.5, 0.1, 0.1], "box: corner (0.5, 1.5) outside [0, 1]"),
    ([0.5, float("nan"), 0.1, 0.1], "box: corner (0.5, nan) outside [0, 1]"),
    ([0.0, 0.0, 0.0, 0.1], "box: size (0.0, 0.1) outside (0, 1]"),
    ([1.0, 1.0, 0.1, 1.5], "box: size (0.1, 1.5) outside (0, 1]"),
    ([0.5, 0.5, float("nan"), 0.1], "box: size (nan, 0.1) outside (0, 1]"),
], ids=["corner-negative", "corner-over-one", "corner-nan", "size-zero", "size-over-one",
        "size-nan"])
@pytest.mark.parametrize("kind", ["gt", "detection"])
def test_every_box_is_range_checked_and_the_first_bad_one_named(box, message, kind):
    # the bad box sits between good ones, and a second bad box after it
    boxes = [OK_BOX, box, OK_BOX, [2.0, 2.0, 0.1, 0.1]]
    with pytest.raises(ContractError) as e:
        sequence_of_boxes(boxes, [OK_BOX]) if kind == "gt" else sequence_of_boxes([], boxes)
    assert str(e.value) == message


def test_boxes_on_the_range_edges_are_accepted():
    edges = [[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1e-12, 1e-12]]
    seq = sequence_of_boxes(edges, edges)
    assert [o.box for o in seq.frames[0].objects] == [tuple(b) for b in edges]
    assert [d.box for d in seq.frames[0].detections] == [tuple(b) for b in edges]


def test_iou_basics():
    a = (0.0, 0.0, 0.2, 0.2)
    assert iou(a, a) == 1.0
    b = (0.5, 0.5, 0.2, 0.2)
    assert iou(a, b) == 0.0
    c = (0.1, 0.0, 0.2, 0.2)
    np.testing.assert_allclose(iou(a, c), (0.1 * 0.2) / (2 * 0.04 - 0.1 * 0.2))


def test_pairwise_iou_matches_scalar_arithmetic():
    rng = np.random.default_rng(3)
    corners = rng.uniform(0.0, 0.6, size=(7, 2))
    sizes = rng.uniform(0.05, 0.4, size=(7, 2))
    boxes = np.hstack([corners, sizes])
    a, b = boxes[:4], boxes[4:]
    got = pairwise_iou(a, b)
    assert got.shape == (4, 3)
    for i, (ax, ay, aw, ah) in enumerate(a):
        for j, (bx, by, bw, bh) in enumerate(b):
            ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
            iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
            inter = ix * iy
            # each area on the box's spans, x to x + w as it rounds
            area_a = ((ax + aw) - ax) * ((ay + ah) - ay)
            area_b = ((bx + bw) - bx) * ((by + bh) - by)
            assert got[i, j] == min(1.0, inter / (area_a + area_b - inter))
            assert iou(a[i], b[j]) == got[i, j]


def test_a_box_overlaps_itself_by_exactly_one():
    # (x + w) - x need not round to w: scene.iou(b, b) read 1.0000000000000004
    # for a generated gt box
    dims = Dims()
    for seed in range(20):
        for frame in generate_scene(dims, WorldConfig(), seed).frames:
            for boxes in (frame.gt_feats[:, :4], frame.det_feats[:, :4]):
                ious = pairwise_iou(boxes, boxes)
                assert (np.diag(ious) == 1.0).all()
                assert ((ious >= 0.0) & (ious <= 1.0)).all()


def test_gt_object_as_node_uses_requested_labels():
    dims = Dims(g=3, c=3)
    gt = [0, 0, 0.1, 0.1, 0.1, 0.2, 0.7, 0.0, 0.0, 0.0]
    seq = SceneSequence([frame_record([gt], [2], [], [], dims)], np.zeros(4), seed=0, g=dims.g)
    onehot = pack(seq, "predcls", "spatial", dims).feats[0]
    np.testing.assert_array_equal(onehot[4:7], [0, 0, 1])
    noisy = pack(seq, "sgcls", "spatial", dims).feats[0]
    np.testing.assert_array_equal(noisy[4:7], [0.1, 0.2, 0.7])


def test_sequence_needs_frames():
    with pytest.raises(ContractError):
        SceneSequence(frames=[], event_labels=np.zeros(4), seed=0, g=2)
