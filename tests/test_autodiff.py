import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primitives as prim
import stsg.autodiff as ad
from reference_backward import leaf_grads
from reference_losses import log
from stsg.autodiff import Tape, Tensor, backward
from stsg.errors import ContractError, ShapeError
from stsg.rng import RngStream


def finite_diff(f, params, h=1e-5):
    """Central-difference gradient oracle for a scalar function of ndarrays."""
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        flat = g.reshape(-1)
        for i in range(p.size):
            bumped = [q.copy() for q in params]
            bumped[k].reshape(-1)[i] += h
            hi = f(*bumped)
            bumped[k].reshape(-1)[i] -= 2 * h
            lo = f(*bumped)
            flat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-12, np.abs(a) + np.abs(b)))


def analytic_grads(f, arrays):
    params = [Tensor(a) for a in arrays]
    tape = Tape()
    tape.watch(*params)
    with tape:
        loss = f(*params)
    g = leaf_grads(tape, backward(tape, loss))
    return [g[p] for p in params]


# ---------------------------------------------------------------------------
# spec examples


def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_relu_definition():
    out = prim.relu(Tensor([-2.0, 0.0, 3.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])


def test_sigmoid_at_zero():
    assert prim.sigmoid(Tensor(0.0)).item() == 0.5


def test_product_rule():
    x, y = Tensor(2.0), Tensor(3.0)
    tape = Tape()
    tape.watch(x, y)
    with tape:
        f = prim.mul(x, y)
    g = leaf_grads(tape, backward(tape, f))
    assert g[x] == 3.0
    assert g[y] == 2.0


def test_dead_relu_gives_zero_grad():
    w = Tensor(-np.ones((3, 4)))
    x = Tensor(np.full(4, 2.0))
    tape = Tape()
    tape.watch(w)
    with tape:
        loss = prim.reduce_sum(prim.relu(ad.matmul(w, x)))
    g = leaf_grads(tape, backward(tape, w and loss))
    np.testing.assert_array_equal(g[w], np.zeros((3, 4)))


def test_two_layer_composition_matches_finite_differences():
    rng = RngStream(7)
    w1 = rng.normal_array((5, 4))
    w2 = rng.normal_array((3, 5))
    x = rng.normal_array(4)

    def f(w1_, w2_):
        h = prim.relu(ad.matmul(w1_, Tensor(x)))
        return prim.reduce_sum(prim.sigmoid(ad.matmul(w2_, h)))

    ana = analytic_grads(f, [w1, w2])
    num = finite_diff(lambda a, b: f(Tensor(a), Tensor(b)).item(), [w1, w2])
    assert rel_err(ana[0], num[0]) < 1e-6
    assert rel_err(ana[1], num[1]) < 1e-6


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0])
    tape = Tape()
    tape.watch(x)
    with tape:
        y = prim.relu(x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_unused_parameter_gets_exact_zeros():
    x, unused = Tensor([1.0, 2.0]), Tensor(np.ones((2, 2)))
    tape = Tape()
    tape.watch(x, unused)
    with tape:
        loss = prim.reduce_sum(prim.mul(x, x))
    g = leaf_grads(tape, backward(tape, loss))
    np.testing.assert_array_equal(g[unused], np.zeros((2, 2)))
    np.testing.assert_array_equal(g[x], [2.0, 4.0])


# ---------------------------------------------------------------------------
# per-op gradient checks against the finite-difference oracle

OP_CASES = {
    "matmul": (lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)]),
    "matmul-vec": (lambda a, b: ad.matmul(a, b), [(3, 4), (4,)]),
    "add": (lambda a, b: prim.add(a, b), [(3, 4), (3, 4)]),
    "add-broadcast": (lambda a, b: prim.add(a, b), [(3, 4), (4,)]),
    "scale": (lambda a: prim.scale(a, -1.7), [(3, 4)]),
    "concat": (lambda a, b: prim.concat([a, b], axis=0), [(2, 3), (4, 3)]),
    "relu": (lambda a: prim.relu(a), [(4, 5)]),
    "sigmoid": (lambda a: prim.sigmoid(a), [(4, 5)]),
    "elementwise-mul": (lambda a, b: prim.mul(a, b), [(3, 4), (3, 4)]),
    "mul-broadcast": (lambda a, b: prim.mul(a, b), [(3, 4, 2), (3, 4, 1)]),
    "dot": (lambda a, b: prim.dot(a, b), [(6,), (6,)]),
    "sum": (lambda a: prim.reduce_sum(a), [(4, 5)]),
    "sum-axis": (lambda a: prim.reduce_sum(a, axis=1), [(4, 5)]),
    "log": (lambda a: log(a), [(4, 5)]),
    "softplus": (lambda a: prim.softplus(a), [(4, 5)]),
    "div": (lambda a, b: prim.div(a, b), [(3, 4), (3, 4)]),
    "softmax": (lambda a: prim.softmax(a), [(4, 5)]),
    "reshape": (lambda a: prim.reshape(a, (2, 10)), [(4, 5)]),
    "gather-rows": (lambda a: ad.gather_rows(a, [2, 0, 2]), [(4, 5)]),
}


def fd_floor(loss_value: float, h: float = 1e-5) -> float:
    """The smallest gradient difference central differences resolve: below
    it the rounding noise of the loss (~eps*|loss|/2h) dominates. The same
    floor as `training.grad_check`."""
    return 8.0 * np.finfo(np.float64).eps * max(1.0, abs(loss_value)) / (2 * h)


def op_gradient_error(name: str, stream: int, floored: bool = True) -> float:
    """Worst relative error of one op case's gradients against central
    differences, on inputs from the given stream; entries whose difference
    lies within the noise floor count as agreeing unless floored is False."""
    fn, shapes = OP_CASES[name]
    rng = RngStream(101, stream=stream)
    arrays = [rng.normal_array(s) for s in shapes]
    if name == "relu":
        # keep inputs away from the kink where the derivative is not defined
        arrays = [np.where(np.abs(a) < 0.05, 0.5, a) for a in arrays]
    if name in ("log", "div"):
        arrays = [np.abs(a) + 0.5 for a in arrays]

    def loss(*ps):
        out = fn(*ps)
        return prim.reduce_sum(prim.mul(out, out))

    ana = analytic_grads(loss, arrays)
    num = finite_diff(lambda *xs: loss(*[Tensor(x) for x in xs]).item(), arrays)
    floor = fd_floor(loss(*[Tensor(a) for a in arrays]).item()) if floored else -1.0
    worst = 0.0
    for a, n in zip(ana, num):
        resolved = np.abs(a - n) > floor
        if resolved.any():
            worst = max(worst, rel_err(a[resolved], n[resolved]))
    return worst


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    # a stable digest of the name, so the inputs do not change with PYTHONHASHSEED
    assert op_gradient_error(name, zlib.crc32(name.encode()) % 1000) < 1e-6, name


@pytest.mark.parametrize("name, stream", [("elementwise-mul", 749), ("mul-broadcast", 939)])
def test_op_gradient_noise_floor_resolves_near_zero_entries(name, stream):
    # the inputs hash(name) % 1000 drew under PYTHONHASHSEED=4 and 8: near-zero
    # entries whose central differences are pure rounding noise
    assert op_gradient_error(name, stream, floored=False) >= 1e-6
    assert op_gradient_error(name, stream) < 1e-6


def test_log_softmax_gradient_matches_finite_differences():
    z = RngStream(101, stream=7).normal_array((4, 5)) * 3.0
    w = RngStream(101, stream=8).normal_array((4, 5))

    def loss(a):
        return prim.reduce_sum(prim.mul(prim.log_softmax(a, axis=1), Tensor(w)))

    ana = analytic_grads(loss, [z])
    num = finite_diff(lambda x: loss(Tensor(x)).item(), [z])
    assert rel_err(ana[0], num[0]) < 1e-6
    np.testing.assert_allclose(prim.log_softmax(Tensor(z), axis=1).data,
                               np.log(prim.softmax(Tensor(z), axis=1).data), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shapes", [((5, 3), (3, 4), (4,)), ((3,), (3, 4), (4,))])
def test_affine_matches_matmul_then_add_exactly(shapes):
    arrays = [RngStream(102, stream=i).normal_array(s) for i, s in enumerate(shapes)]
    w = RngStream(102, stream=9).normal_array(shapes[0][:-1] + (4,))

    def run(f):
        ts = [Tensor(a) for a in arrays]
        tape = Tape()
        tape.watch(*ts)
        with tape:
            out = f(*ts)
            loss = prim.reduce_sum(prim.mul(out, Tensor(w)))
        grads = leaf_grads(tape, backward(tape, loss))
        return out.data, [grads[t] for t in ts], len(tape)

    fused, fused_grads, fused_records = run(ad.affine)
    plain, plain_grads, plain_records = run(lambda x, a, b: prim.add(ad.matmul(x, a), b))
    assert np.array_equal(fused, plain)
    for a, b in zip(fused_grads, plain_grads):
        assert np.array_equal(a, b)
    assert fused_records == plain_records - 1


def test_tape_skips_ops_off_the_gradient_path():
    w, const = Tensor(np.ones((2, 2))), Tensor(np.full((2, 2), 2.0))
    tape = Tape()
    tape.watch(w)
    with tape:
        c2 = prim.relu(prim.scale(const, 3.0))          # no watched input: not recorded
        loss = prim.reduce_sum(prim.mul(w, c2))
    assert len(tape) == 2
    np.testing.assert_array_equal(backward(tape, loss), np.full(4, 6.0))


def test_log_softmax_is_finite_where_softmax_underflows():
    out = prim.log_softmax(Tensor([0.0, -800.0, 1000.0])).data
    assert np.all(np.isfinite(out))
    assert out[1] == pytest.approx(-1800.0)


def test_backward_is_linear():
    rng = RngStream(55)
    w = rng.normal_array((4, 4))
    x = rng.normal_array(4)
    a, b = 1.7, -0.3

    def l1(wt):
        return prim.reduce_sum(prim.relu(ad.matmul(wt, Tensor(x))))

    def l2(wt):
        return prim.reduce_sum(prim.sigmoid(ad.matmul(wt, Tensor(x))))

    g1 = analytic_grads(l1, [w])[0]
    g2 = analytic_grads(l2, [w])[0]
    gc = analytic_grads(lambda wt: prim.add(prim.scale(l1(wt), a), prim.scale(l2(wt), b)), [w])[0]
    np.testing.assert_allclose(gc, a * g1 + b * g2, rtol=0, atol=1e-12)


def test_forward_is_bitwise_repeatable():
    rng = RngStream(9)
    w = Tensor(rng.normal_array((6, 6)))
    x = Tensor(rng.normal_array(6))
    r1 = prim.sigmoid(ad.matmul(w, x)).data
    r2 = prim.sigmoid(ad.matmul(w, x)).data
    assert np.array_equal(r1, r2)


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        prim.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_tensor_roundtrip_preserves_values(seed):
    arr = RngStream(seed).normal_array((3, 2))
    assert np.array_equal(Tensor(arr).data, arr)


# ---------------------------------------------------------------------------
# rng stream contracts


def test_normal_zero_sigma_is_exact():
    s = RngStream(3)
    assert all(s.normal(0.0, 0.0) == 0.0 for _ in range(10))


def test_same_seed_same_draws():
    a, b = RngStream(42), RngStream(42)
    assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]


def test_uniform_mean_law_of_large_numbers():
    s = RngStream(2024)
    xs = s.uniform_array(100_000)
    assert abs(xs.mean() - 0.5) < 0.01


def test_rng_parameter_validation():
    s = RngStream(1)
    with pytest.raises(ContractError):
        s.uniform(1.0, 1.0)
    with pytest.raises(ContractError):
        s.normal(0.0, -1.0)


def test_split_streams_differ_and_are_reproducible():
    root = RngStream(5)
    c1, c2 = root.split(0), root.split(1)
    assert c1.uniform() != c2.uniform()
    again = RngStream(5).split(0)
    assert RngStream(5).split(1).uniform() == RngStream(5).split(1).uniform()
    assert again.uniform() == RngStream(5).split(0).uniform()


def test_segment_ops_match_references_and_finite_differences():
    ids = np.array([2, 0, 2, 3, 0, 2])          # unsorted, segment 1 empty
    x = RngStream(103, stream=1).normal_array((6, 3))
    w = RngStream(103, stream=2).normal_array((4, 3))
    want = np.zeros((4, 3))
    np.add.at(want, ids, x)
    np.testing.assert_allclose(prim.segment_sum(Tensor(x), ids, 4).data, want, rtol=0, atol=1e-15)

    rows = np.array([0, 0, 0, 1, 1, 3])         # ragged rows of a log-softmax
    z = RngStream(103, stream=3).normal_array(6) * 3.0
    v = RngStream(103, stream=4).normal_array(6)
    got = prim.segment_log_softmax(Tensor(z), rows, 4).data
    for r in (0, 1, 3):
        seg = z[rows == r]
        np.testing.assert_allclose(got[rows == r], seg - np.log(np.sum(np.exp(seg))),
                                   rtol=0, atol=1e-12)

    def loss(a, b):
        s = prim.reduce_sum(prim.mul(prim.segment_sum(a, ids, 4), Tensor(w)))
        return prim.add(s, prim.dot(prim.segment_log_softmax(b, rows, 4), Tensor(v)))

    ana = analytic_grads(loss, [x, z])
    num = finite_diff(lambda a, b: loss(Tensor(a), Tensor(b)).item(), [x, z])
    for a, n in zip(ana, num):
        assert rel_err(a, n) < 1e-6


def test_gather_rows_backward_scatter_adds():
    a = RngStream(104).normal_array((5, 2))
    idx = np.array([3, 1, 3, 3, 0])
    g = RngStream(104, stream=1).normal_array((5, 2))
    t = Tensor(a)
    tape = Tape()
    tape.watch(t)
    with tape:
        loss = prim.reduce_sum(prim.mul(ad.gather_rows(t, idx), Tensor(g)))
    want = np.zeros((5, 2))
    np.add.at(want, idx, g)
    np.testing.assert_allclose(backward(tape, loss).reshape(5, 2), want, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# segment plans

PLAN_IDS = {
    "sorted": np.array([0, 0, 1, 3, 3, 3, 5]),
    "unsorted": np.array([4, 0, 2, 4, 1, 0, 5, 2]),
    "duplicate-heavy": np.array([2, 2, 0, 2, 2, 2, 0, 2, 2, 5, 2, 2]),
    "empty": np.zeros(0, dtype=np.intp),
}


def scatter_reference(values, ids, n):
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, ids, values)
    return out


def per_call_reference(values, ids, n):
    """The scatter each call computed before plans: a stable argsort of the
    ids, then `reduceat` over the runs of equal ids; for vectors, bincount."""
    if values.ndim == 1:
        return np.bincount(ids, weights=values, minlength=n)
    out = np.zeros((n,) + values.shape[1:])
    if len(ids):
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        out[ranked[starts]] = np.add.reduceat(values[order], starts, axis=0)
    return out


def assert_scatter(got, values, ids, n):
    # bitwise the per-call path, and np.add.at to the ulp: reduceat does not
    # add the rows of a run strictly left to right, np.add.at and bincount do
    assert np.array_equal(got, per_call_reference(values, ids, n))
    want = scatter_reference(values, ids, n)
    if values.ndim == 1:
        assert np.array_equal(got, want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", sorted(PLAN_IDS))
@pytest.mark.parametrize("width", [None, 3])
def test_plan_ops_match_the_per_call_scatter_and_np_add_at(kind, width):
    ids, n = PLAN_IDS[kind], 6
    shape = (len(ids),) if width is None else (len(ids), width)
    x = RngStream(105, stream=1).normal_array(shape) if len(ids) else np.zeros(shape)
    a = RngStream(105, stream=2).normal_array((n,) + shape[1:])
    g = RngStream(105, stream=3).normal_array(shape) if len(ids) else np.zeros(shape)
    for index in (ids, ad.SegmentPlan(ids, n)):
        assert_scatter(prim.segment_sum(Tensor(x), index, n).data, x, ids, n)
        t = Tensor(a)
        tape = Tape()
        tape.watch(t)
        with tape:
            loss = prim.reduce_sum(prim.mul(ad.gather_rows(t, index), Tensor(g)))
        assert_scatter(leaf_grads(tape, backward(tape, loss))[t], g, ids, n)


@pytest.mark.parametrize("kind", sorted(PLAN_IDS))
def test_segment_log_softmax_on_a_plan_matches_its_reference(kind):
    ids, n = PLAN_IDS[kind], 6
    z = RngStream(106, stream=1).normal_array(len(ids)) * 3.0 if len(ids) else np.zeros(0)
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, ids, z)
    shifted = z - peak[ids]
    want = shifted - np.log(scatter_reference(np.exp(shifted), ids, n)[ids])
    for index in (ids, ad.SegmentPlan(ids, n)):
        assert np.array_equal(prim.segment_log_softmax(Tensor(z), index, n).data, want)


def test_plan_checks_its_ids_when_built():
    with pytest.raises(ContractError, match="segment id out of range for 4 segments"):
        ad.SegmentPlan([0, 4], 4)
    with pytest.raises(ContractError, match="out of range"):
        ad.SegmentPlan([-1, 0], 4)
    with pytest.raises(ShapeError, match="1-D"):
        ad.SegmentPlan([[0, 1]], 4)
    with pytest.raises(ContractError, match="gather-rows: index out of range for 3 rows"):
        ad.gather_rows(Tensor(np.ones((3, 2))), [3])
    # a plan serves only the segment count it was built for
    with pytest.raises(ContractError, match="plan over 4 segments, need 5"):
        prim.segment_sum(Tensor(np.ones((2, 2))), ad.SegmentPlan([0, 1], 4), 5)
