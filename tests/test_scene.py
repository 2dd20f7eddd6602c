import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stsg.errors import ContractError, ShapeError
from stsg.scene import (
    BoundingBox,
    FrameRecord,
    GroundTruthObject,
    ObjectNode,
    SceneSequence,
    decode_node,
    encode_node,
    gt_nodes,
    iou,
    pairwise_iou,
)


def test_encode_length_is_4_plus_g_plus_c():
    out = encode_node(BoundingBox(0.1, 0.1, 0.2, 0.2), [0.5, 0.5], [1.0, 2.0, 3.0])
    assert out.shape == (9,)


def test_encode_zero_box_onehot():
    out = encode_node(BoundingBox(0.0, 0.0, 1e-9, 1e-9), [1.0, 0.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [0, 0, 1e-9, 1e-9, 1, 0, 0, 0, 0])


def test_encode_direct_substitution():
    out = encode_node(BoundingBox(0.1, 0.2, 0.3, 0.4), [0.6, 0.4], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out, [0.1, 0.2, 0.3, 0.4, 0.6, 0.4, 1.0, 2.0, 3.0])


def test_offsets_roundtrip():
    box = BoundingBox(0.2, 0.3, 0.4, 0.5)
    labels = np.array([0.25, 0.25, 0.5])
    visual = np.array([9.0, 8.0])
    b, l, v = decode_node(encode_node(box, labels, visual), g=3, c=2)
    np.testing.assert_array_equal(b, box.as_array())
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
    box = BoundingBox(x, y, w, h)
    enc = encode_node(box, labels, np.array(visual))
    # concatenation preserves every entry at a fixed offset
    b, l, v = decode_node(enc, g=2, c=3)
    assert np.array_equal(b, box.as_array())
    assert np.array_equal(l, labels)
    assert np.array_equal(v, np.array(visual))


def test_encode_rejects_bad_distribution():
    with pytest.raises(ContractError):
        encode_node(BoundingBox(0, 0, 0.1, 0.1), [0.7, 0.7], [0.0])
    with pytest.raises(ShapeError):
        encode_node(BoundingBox(0, 0, 0.1, 0.1), np.ones((2, 2)) / 4, [0.0])


def test_box_validation():
    with pytest.raises(ContractError):
        BoundingBox(-0.1, 0.0, 0.1, 0.1)
    with pytest.raises(ContractError):
        BoundingBox(0.0, 0.0, 0.0, 0.1)


def test_iou_basics():
    a = BoundingBox(0.0, 0.0, 0.2, 0.2)
    assert iou(a, a) == 1.0
    b = BoundingBox(0.5, 0.5, 0.2, 0.2)
    assert iou(a, b) == 0.0
    c = BoundingBox(0.1, 0.0, 0.2, 0.2)
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
            assert got[i, j] == inter / (aw * ah + bw * bh - inter)
            assert iou(BoundingBox(*a[i]), BoundingBox(*b[j])) == got[i, j]


def test_object_node_argmax_helpers():
    node = ObjectNode(BoundingBox(0, 0, 0.1, 0.1), np.array([0.2, 0.7, 0.1]), np.zeros(2))
    assert node.label == 1
    assert node.label_score == 0.7


def test_gt_object_as_node_uses_requested_labels():
    gt = GroundTruthObject(BoundingBox(0, 0, 0.1, 0.1), label=2,
                           visual_feat=np.zeros(3),
                           detector_label_dist=np.array([0.1, 0.2, 0.7]))
    onehot, = gt_nodes([gt], g=3)
    np.testing.assert_array_equal(onehot.label_dist, [0, 0, 1])
    noisy, = gt_nodes([gt], g=3, use_detector_labels=True)
    np.testing.assert_array_equal(noisy.label_dist, [0.1, 0.2, 0.7])


def test_frame_record_validates_triplets():
    obj = GroundTruthObject(BoundingBox(0, 0, 0.1, 0.1), 0, np.zeros(2))
    frame = FrameRecord(objects=[obj, obj], triplets=[(0, 2, 0)], detections=[])
    with pytest.raises(ContractError):
        frame.validate(h=3)


def test_sequence_needs_frames():
    with pytest.raises(ContractError):
        SceneSequence(frames=[], event_labels=np.zeros(4), seed=0)
