"""Acceptance suite: one test per criterion, each printing a PASS line.

Numbered criteria:
 1 gradient correctness        7 loss arithmetic
 2 kernel equivalence          8 variant trend reproduction
 3 top-k selection oracle      9 efficiency accounting direction
 4 degeneracy equivalences    10 feature-bank trend + presence invariant
 5 permutation equivariance   11 end-to-end determinism
 6 metric oracles
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    MatmulRows,
    edit_frames,
    frame_columns,
    frame_pair_links,
    random_sequence,
    select_no_links,
)
from fixtures import exhaustive_recall_at_k, relation_probs, three_frame_fixture
from stsg.autodiff import Tensor
from stsg.cli import gradcheck_sample, main
from stsg.config import Dims, RunConfig
from stsg.featurebank import build_feature_bank
from stsg.metrics import (
    count_params_flops,
    evaluate,
    mean_recall,
    recall_at_k,
)
from stsg.params import ModelParams
from stsg.rng import RngStream
from stsg.temporal import (
    BatchOutput,
    forward_sequence,
    link_relevance,
    pack,
    topk_links,
)
from stsg.training import NEGATIVE_WEIGHT, Targets, batch_loss, grad_check, train

DIMS = Dims()


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS - {text}")


def test_criterion_1_gradient_correctness():
    params = ModelParams.init(DIMS, seed=3)
    sample = gradcheck_sample(RunConfig(), n_objects=3, frames=2, seed=2024)
    start = time.time()
    err_sparse = grad_check(sample, params, mode="sgcls", variant="sparse", k=1)
    err_dense = grad_check(sample, params, mode="sgcls", variant="dense")
    elapsed = time.time() - start
    assert err_sparse < 1e-4, err_sparse
    assert err_dense < 1e-4, err_dense
    assert elapsed < 30.0, elapsed
    report(1, f"gradients vs finite differences: sparse {err_sparse:.2e}, "
              f"dense {err_dense:.2e} in {elapsed:.1f}s")


def test_criterion_2_kernel_equivalence(monkeypatch):
    rng = RngStream(200)
    matmul = MatmulRows(monkeypatch)
    worst = 0.0
    for trial in range(100):
        r = rng.split(trial)
        nt, ntm1 = r.integer(5) + 1, r.integer(5) + 1
        m, d = 6 + r.integer(20), 2 + r.integer(14)
        feats_t = r.normal_array((nt, m))
        feats_tm1 = r.normal_array((ntm1, m))
        phi = r.normal_array((m, d))
        curr, prev = frame_pair_links(nt, ntm1)
        matmul.rows = 0
        got = link_relevance(Tensor(np.concatenate([feats_t, feats_tm1])), curr, prev,
                             Tensor(phi)).data.reshape(nt, ntm1)
        assert matmul.rows == nt + ntm1
        brute = np.empty((nt, ntm1))
        for j in range(nt):
            for k in range(ntm1):
                brute[j, k] = np.dot(feats_t[j] @ phi, feats_tm1[k] @ phi)
        worst = max(worst, float(np.max(np.abs(got - brute))))
    assert worst < 1e-12, worst
    report(2, f"project-then-dot oracle max |diff| {worst:.2e}; "
              f"projections = N_t + N_t-1 on all 100 instances")


def test_criterion_3_topk_oracle():
    rng = RngStream(300)
    for trial in range(1000):
        r = rng.split(trial)
        nt, ntm1 = r.integer(6) + 1, r.integer(6) + 1
        k = r.integer(ntm1 + 2) + 1
        gamma = np.round(r.uniform_array((nt, ntm1)), 1)  # coarse grid forces ties
        rows, _ = frame_pair_links(nt, ntm1)
        got = topk_links(gamma.reshape(-1), rows, k).reshape(nt, ntm1).astype(np.int64)
        want = np.zeros_like(got)
        for j in range(nt):
            order = sorted(range(ntm1), key=lambda i: (-gamma[j, i], i))
            want[j, order[: min(k, ntm1)]] = 1
        assert np.array_equal(got, want)
    report(3, "topk_links matches the stable-sort oracle on 1000 matrices with ties")


def test_criterion_4_degeneracy_equivalences(params, monkeypatch):
    rng = RngStream(400)
    for trial in range(50):
        seq = random_sequence(rng.split(trial), DIMS, n_frames=3, n_min=2, n_max=4)
        sparse = forward_sequence(seq, params, "sgcls", "sparse", k=10)
        dense = forward_sequence(seq, params, "sgcls", "dense")
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(relation_probs(a), relation_probs(b),
                                       rtol=0, atol=1e-12)
    with monkeypatch.context() as masked:
        select_no_links(masked)
        for trial in range(50):
            seq = random_sequence(rng.split(1000 + trial), DIMS, n_frames=3)
            forced = forward_sequence(seq, params, "sgdet", "sparse", k=1)
            plain = forward_sequence(seq, params, "sgdet", "spatial")
            for a, b in zip(forced, plain):
                assert np.array_equal(relation_probs(a), relation_probs(b))
                assert np.array_equal(a.fused, b.fused)
    for trial in range(50):
        seq = random_sequence(rng.split(2000 + trial), DIMS, n_frames=1)
        temporal = forward_sequence(seq, params, "sgcls", "sparse", k=1)
        spatial = forward_sequence(seq, params, "sgcls", "spatial")
        assert np.array_equal(relation_probs(temporal[0]),
                              relation_probs(spatial[0]))
    report(4, "saturated-k = dense (1e-12); masked links = spatial (exact); "
              "single frame = spatial (exact); 50 instances each")


def test_criterion_5_permutation_equivariance(params):
    rng = RngStream(500)
    for trial in range(50):
        seq = random_sequence(rng.split(trial), DIMS, n_frames=3, n_min=2, n_max=4)
        base = forward_sequence(seq, params, "sgdet", "sparse", k=1)
        perms = [rng.permutation(len(f.detections)) for f in seq.frames]
        shuffled = edit_frames(seq, {t: dict(f, det=f["det"][p]) for t, (f, p)
                                     in enumerate(zip(frame_columns(seq), perms))})
        out = forward_sequence(shuffled, params, "sgdet", "sparse", k=1)
        for (a, b, p) in zip(base, out, perms):
            np.testing.assert_allclose(b.fused, a.fused[p], rtol=0, atol=1e-12)
            np.testing.assert_allclose(relation_probs(b),
                                       relation_probs(a)[np.ix_(p, p)],
                                       rtol=0, atol=1e-12)
    report(5, "full forward permutation-equivariant at 1e-12 on 50 instances")


def test_criterion_6_metric_oracles():
    frames = three_frame_fixture()
    for mode in ("predcls", "sgcls", "sgdet"):
        for constraint in (False, True):
            for k in (1, 2, 4, 10, 20, 50):
                got = recall_at_k(frames, k, mode, constraint)
                want = exhaustive_recall_at_k(frames, k, mode, constraint)
                assert got == want, (mode, constraint, k)
    # frozen oracle values, derived by hand from the fixture's staircases:
    # class APs are 1 (all hits first), 5/6 (one cross-frame distractor
    # outranks the second hit) and 1/6 (hit at rank 6 of the zero tail)
    assert recall_at_k(frames, 20, "sgdet", False) == 1.0
    assert recall_at_k(frames, 4, "predcls", False) == pytest.approx((1.0 + 1.0 + 2 / 3) / 3)
    assert mean_recall(frames, 4, "predcls", False) == pytest.approx(2 / 3)
    report_rel = evaluate(frames, "sgdet", False)
    assert report_rel["map_rel"] == pytest.approx((1.0 + 5 / 6 + 1 / 6) / 3)
    w = {0: 3, 1: 2, 2: 1}
    assert report_rel["wmap_rel"] == pytest.approx(
        (w[0] * 1.0 + w[1] * (5 / 6) + w[2] * (1 / 6)) / sum(w.values()))

    rng = RngStream(600)
    from test_metrics import random_frame_eval

    for trial in range(1000):
        fe = random_frame_eval(rng.split(trial))
        for k in (18, 50):
            assert recall_at_k([fe], k, "sgdet", True) <= \
                recall_at_k([fe], k, "sgdet", False) + 1e-15
    report(6, "recall/mR/mAP match the exhaustive oracle exactly; "
              "with-constraint <= no-constraint on 1000 random sets")


def zero_logit_targets(pos, neg, n_slots):
    """Targets that weight the listed relation slots as one frame's mean over
    positives plus 0.2 x its mean over negatives, and nothing else."""
    positive = np.zeros(n_slots, dtype=bool)
    positive[pos] = True
    weight = np.zeros(n_slots)
    if len(pos):
        weight[pos] = 1.0 / len(pos)
    if len(neg):
        weight[neg] = NEGATIVE_WEIGHT / len(neg)
    return Targets(relation=np.stack([weight, np.where(positive, -1.0, 1.0)]),
                   node_weight=np.zeros(0), link_weight=np.zeros(0))


def test_criterion_7_loss_arithmetic():
    # one frame of two nodes: pairs (0, 1) and (1, 0), three predicates each;
    # zero logits are the all-0.5 probabilities
    dims = Dims(h=3)
    seq = random_sequence(RngStream(700), dims, n_frames=1, n_min=2, n_max=2)
    packed = pack(seq, "predcls", "spatial", dims)
    assert list(packed.subj.ids) == [0, 1] and list(packed.obj.ids) == [1, 0]
    zeros = Tensor(np.zeros((2, dims.m)))
    out = BatchOutput(gcn=zeros, fused=zeros, relation_logits=Tensor(np.zeros((2, 3))),
                      links=np.zeros(0, dtype=np.intp))
    pos, neg = [0 * 3 + 0], [1 * 3 + 2]   # slots (0, 1, 0) and (1, 0, 2)
    loss, _ = batch_loss(packed, zero_logit_targets(pos, neg, 6), out, 1.0)
    assert abs(loss.item() - 1.2 * math.log(2)) < 1e-12
    only_pos, _ = batch_loss(packed, zero_logit_targets(pos, [], 6), out, 1.0)
    only_neg, _ = batch_loss(packed, zero_logit_targets([], neg, 6), out, 1.0)
    assert abs(only_pos.item() - math.log(2)) < 1e-12
    assert abs(only_neg.item() - 0.2 * math.log(2)) < 1e-12
    report(7, "all-0.5 fixture gives 1.2*ln2; no-relation branch weighted 0.2")


def test_criterion_9_efficiency_direction():
    prev_gap = 0
    for n in range(2, 9):
        sparse = count_params_flops(DIMS, n, "sparse", k=1)
        dense = count_params_flops(DIMS, n, "dense")
        assert sparse.parameter_count == dense.parameter_count
        gap = dense.flops_per_frame - sparse.flops_per_frame
        assert gap > 0
        assert gap > prev_gap
        prev_gap = gap
    report(9, "sparse k=1 FLOPs strictly below dense for N=2..8 with a gap "
              "growing in N; parameter counts identical")


def test_criterion_11_determinism(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "split.train_sequences = 8\nsplit.val_sequences = 3\n"
        "split.test_sequences = 3\ntrain.epochs = 2\ntrain.batch_size = 4\n"
    )
    artifacts = {}
    for run in ("one", "two"):
        d = tmp_path / run
        assert main(["gen", "--config", str(cfg_path), "--out", str(d / "ds"),
                     "--seed", "11"]) == 0
        assert main(["train", "--config", str(cfg_path), "--data", str(d / "ds"),
                     "--out", str(d / "ckpt.json"), "--mode", "sgdet"]) == 0
        assert main(["eval", "--ckpt", str(d / "ckpt.json"), "--data", str(d / "ds"),
                     "--split", "test", "--mode", "sgdet", "--out",
                     str(d / "report.json")]) == 0
        artifacts[run] = {
            "train": (d / "ds" / "train.jsonl").read_bytes(),
            "val": (d / "ds" / "val.jsonl").read_bytes(),
            "test": (d / "ds" / "test.jsonl").read_bytes(),
            "ckpt": (d / "ckpt.json").read_bytes(),
            "report": (d / "report.json").read_bytes(),
        }
    for name in artifacts["one"]:
        assert artifacts["one"][name] == artifacts["two"][name], name
    report(11, "gen/train/eval artifacts byte-identical across reruns")


@pytest.fixture(scope="module")
def benchmark_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "ds"
    assert main(["gen", "--out", str(out), "--seed", "7", "--jobs", "2"]) == 0
    return out


@pytest.mark.slow
def test_criterion_8_variant_trends(benchmark_dir, tmp_path):
    out = tmp_path / "ablation.json"
    start = time.time()
    assert main(["ablate", "--data", str(benchmark_dir), "--seeds", "5",
                 "--out", str(out)]) == 0
    elapsed = time.time() - start
    import json

    rows = {r["variant"]: r for r in json.loads(out.read_text())["rows"]}
    spatial = rows["spatial-only"]["sgdet_r20"]
    sparse = rows["sparse[k=1]"]["sgdet_r20"]
    dense = rows["dense"]["sgdet_r20"]
    tracking = rows["tracking"]["sgdet_r20"]
    assert sparse >= spatial + 0.020, (sparse, spatial)
    assert sparse >= tracking, (sparse, tracking)
    assert sparse >= dense - 0.005, (sparse, dense)
    assert elapsed < 900, elapsed
    report(8, f"SGDet R@20 means over 5 seeds: sparse[k=1] {sparse:.4f} vs "
              f"spatial {spatial:.4f} (+{100 * (sparse - spatial):.2f} pts), "
              f"tracking {tracking:.4f}, dense {dense:.4f}; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_feature_bank_trend(benchmark_dir, tmp_path):
    ckpt = tmp_path / "model.json"
    assert main(["train", "--data", str(benchmark_dir), "--out", str(ckpt),
                 "--mode", "sgdet", "--variant", "sparse", "--k", "1",
                 "--sequences", "150", "--no-val"]) == 0
    out = tmp_path / "bank.json"
    assert main(["bank", "--ckpt", str(ckpt), "--data", str(benchmark_dir),
                 "--seeds", "5", "--train-sequences", "300",
                 "--out", str(out)]) == 0
    import json

    rows = {r["bank"]: r["mean_ap"] for r in json.loads(out.read_text())["rows"]}
    assert rows["spatial_temporal"] >= rows["spatial"], rows

    # presence invariant on freshly generated sequences
    from stsg import io as stsg_io

    cfg, params, _ = stsg_io.load_checkpoint(ckpt)
    _, test_seqs = stsg_io.load_split(benchmark_dir, "test")
    checked = 0
    for seq in test_seqs[:25]:
        preds = forward_sequence(seq, params, "sgdet", "sparse", 1)
        for variant in ("spatial", "spatial_temporal"):
            bank = build_feature_bank(preds, variant, cfg.dims)
            feats = [p.fused if variant == "spatial_temporal" else p.gcn for p in preds]
            for t, pred in enumerate(preds):
                present = set(np.argmax(pred.label_dists, axis=1).tolist()) if pred.n else set()
                for c in range(cfg.dims.g):
                    if c not in present:
                        assert np.all(bank[t, c] == 0.0)
                    else:
                        members = np.flatnonzero(np.argmax(pred.label_dists, axis=1) == c)
                        scores = np.max(pred.label_dists, axis=1)[members]
                        best = members[np.argmax(scores)]
                        assert np.array_equal(bank[t, c], feats[t][best])
                        checked += 1
    report(10, f"event mAP spatial_temporal {rows['spatial_temporal']:.4f} >= "
               f"spatial {rows['spatial']:.4f}; presence rule verified on "
               f"{checked} rows")
