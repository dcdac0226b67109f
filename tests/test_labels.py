import numpy as np
import pytest
from hypothesis import given, strategies as st

from tierroute.errors import MissingScoreError
from tierroute.labels import (
    LabelConfig,
    aug_with_reference,
    aug_without_reference,
    build_labels,
    fuse_label,
)
from helpers import column_trace

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def trace_with(n=1, device_correct=True, cloud_correct=True, edge_correct=True,
               sim_cloud=0.5, sim_edge=0.5, judge_cloud=None, judge_edge=None,
               has_reference=True, ids=None):
    """``n`` records; each argument is one value for all of them or a column."""
    bits = [np.broadcast_to(np.asarray(b, dtype=object), (n,))
            for b in (device_correct, edge_correct, cloud_correct)]
    correct = np.stack(bits, axis=1)
    return column_trace(np.zeros((n, 4)), ids=ids, correct=correct, generated_tokens=8,
                        compute_s=0.2, prompt_tokens=4, sim_cloud=sim_cloud,
                        sim_edge=sim_edge, judge_cloud=judge_cloud, judge_edge=judge_edge,
                        has_reference=has_reference)


class TestAugRules:
    def test_device_wrong_stronger_right_is_zero(self):
        assert aug_with_reference(False, True) == 0.0

    def test_both_correct_is_one(self):
        assert aug_with_reference(True, True) == 1.0

    def test_device_right_stronger_wrong_is_one(self):
        assert aug_with_reference(True, False) == 1.0

    def test_both_incorrect_is_one(self):
        assert aug_with_reference(False, False) == 1.0

    @pytest.mark.parametrize("score", [0.73, 0.0, 1.0])
    def test_judge_passthrough(self, score):
        assert aug_without_reference(score) == score

    def test_missing_judge_raises(self):
        with pytest.raises(MissingScoreError):
            aug_without_reference(None)


class TestFuseLabel:
    def test_arithmetic(self):
        assert fuse_label(0.8, 1.0, 0.5) == pytest.approx(0.9)
        assert fuse_label(0.6, 0.2, 0.25) == pytest.approx(0.3)

    @given(sim=unit, aug=unit)
    def test_alpha_one_returns_sim(self, sim, aug):
        assert fuse_label(sim, aug, 1.0) == sim

    @given(sim=unit, aug=unit, alpha=unit)
    def test_range_preserved(self, sim, aug, alpha):
        assert 0.0 <= fuse_label(sim, aug, alpha) <= 1.0

    @given(s1=unit, s2=unit, aug=unit, alpha=unit)
    def test_monotone_in_sim(self, s1, s2, aug, alpha):
        lo, hi = min(s1, s2), max(s1, s2)
        assert fuse_label(lo, aug, alpha) <= fuse_label(hi, aug, alpha) + 1e-12

    @given(sim=unit, a1=unit, a2=unit, alpha=unit)
    def test_monotone_in_aug(self, sim, a1, a2, alpha):
        lo, hi = min(a1, a2), max(a1, a2)
        assert fuse_label(sim, lo, alpha) <= fuse_label(sim, hi, alpha) + 1e-12


class TestBuildLabels:
    def test_reference_regime_composition(self):
        trace = trace_with(device_correct=False, cloud_correct=True, sim_cloud=0.8)
        labels = build_labels(trace, LabelConfig(alpha=0.5, beta=0.5))
        assert labels.s_cloud[0] == pytest.approx(0.5 * 0.8 + 0.5 * 0.0)

    def test_alpha_half_is_plain_average(self):
        trace = trace_with(device_correct=True, cloud_correct=True, sim_cloud=0.6, sim_edge=0.4)
        labels = build_labels(trace, LabelConfig(alpha=0.5, beta=0.5))
        assert labels.s_cloud[0] == pytest.approx((0.6 + 1.0) / 2)
        assert labels.s_edge[0] == pytest.approx((0.4 + 1.0) / 2)

    def test_beta_one_uses_cloud_only(self):
        trace = trace_with(5, sim_cloud=0.1 * np.arange(5), sim_edge=0.9)
        labels = build_labels(trace, LabelConfig(alpha=0.5, beta=1.0))
        assert np.allclose(labels.s_fused, labels.s_cloud)

    def test_fused_swap_symmetry(self):
        trace = trace_with(3, sim_cloud=0.2, sim_edge=0.7, cloud_correct=True,
                           edge_correct=False)
        direct = build_labels(trace, LabelConfig(alpha=0.5, beta=0.3))
        swapped_trace = trace_with(3, sim_cloud=0.7, sim_edge=0.2, cloud_correct=False,
                                   edge_correct=True)
        swapped = build_labels(swapped_trace, LabelConfig(alpha=0.5, beta=0.7))
        assert np.allclose(direct.s_fused, swapped.s_fused)

    def test_judge_regime_without_reference(self):
        trace = trace_with(has_reference=False, judge_cloud=0.9, judge_edge=0.3,
                           sim_cloud=0.5, sim_edge=0.5,
                           device_correct=None, cloud_correct=None, edge_correct=None)
        labels = build_labels(trace, LabelConfig(alpha=0.5, beta=0.5))
        assert labels.aug_cloud[0] == 0.9
        assert labels.aug_edge[0] == 0.3

    def test_reference_takes_precedence_over_judge(self):
        trace = trace_with(device_correct=False, cloud_correct=True, edge_correct=True,
                           judge_cloud=0.99, judge_edge=0.99, has_reference=True)
        labels = build_labels(trace, LabelConfig(alpha=0.0, beta=0.5))
        assert labels.aug_cloud[0] == 0.0

    def test_missing_signals_raise_with_id(self):
        trace = trace_with(ids=["q42"], has_reference=False, judge_cloud=None, judge_edge=None,
                           device_correct=None, cloud_correct=None, edge_correct=None)
        with pytest.raises(MissingScoreError, match="q42"):
            build_labels(trace)

    def test_range_preserved_on_random_traces(self):
        rng = np.random.default_rng(0)
        draws = [(bool(rng.integers(2)), bool(rng.integers(2)), bool(rng.integers(2)),
                  float(rng.random()), float(rng.random())) for _ in range(200)]
        device, cloud, edge, sim_cloud, sim_edge = (list(col) for col in zip(*draws))
        trace = trace_with(200, device_correct=device, cloud_correct=cloud,
                           edge_correct=edge, sim_cloud=sim_cloud, sim_edge=sim_edge)
        labels = build_labels(trace, LabelConfig(alpha=float(rng.random()),
                                                 beta=float(rng.random())))
        for arr in (labels.s_cloud, labels.s_edge, labels.s_fused):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_matches_per_record_reference(self):
        # Mixed reference and judge records against a record-at-a-time
        # composition of the scalar building blocks; the arithmetic is the same.
        rng = np.random.default_rng(3)
        n = 300
        bits = rng.random((n, 3)) < 0.6
        ref = rng.random(n) < 0.5
        sim, judge = rng.random((n, 2)), rng.random((n, 2))
        trace = trace_with(n, device_correct=bits[:, 0], edge_correct=bits[:, 1],
                           cloud_correct=bits[:, 2], sim_cloud=sim[:, 0], sim_edge=sim[:, 1],
                           judge_cloud=judge[:, 0], judge_edge=judge[:, 1], has_reference=ref)
        cfg = LabelConfig(alpha=0.3, beta=0.6)
        labels = build_labels(trace, cfg)
        for i in range(n):
            aug_cloud = aug_with_reference(bits[i, 0], bits[i, 2]) if ref[i] else judge[i, 0]
            aug_edge = aug_with_reference(bits[i, 0], bits[i, 1]) if ref[i] else judge[i, 1]
            s_cloud = fuse_label(sim[i, 0], aug_cloud, cfg.alpha)
            s_edge = fuse_label(sim[i, 1], aug_edge, cfg.alpha)
            assert (labels.aug_cloud[i], labels.aug_edge[i]) == (aug_cloud, aug_edge)
            assert (labels.s_cloud[i], labels.s_edge[i]) == (s_cloud, s_edge)
            assert labels.s_fused[i] == fuse_label(s_cloud, s_edge, cfg.beta)

    def test_csv_export(self, tmp_path):
        labels = build_labels(trace_with())
        out = tmp_path / "labels.csv"
        labels.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "id,sim_cloud,sim_edge,aug_cloud,aug_edge,s_cloud,s_edge,s_fused"
