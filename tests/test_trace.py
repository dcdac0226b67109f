import json

import numpy as np
import pytest

from tierroute.cli import main
from tierroute.errors import TraceFormatError, TraceValidationError
from tierroute.trace import (
    QueryRecord,
    SyntheticConfig,
    TierId,
    TierResponseInfo,
    Trace,
    agreement_probability,
    concat_traces,
    generate_synthetic_trace,
    load_trace,
    save_trace,
)
from tierroute.cluster import assign_batch, kmeans_fit
from tierroute.labels import build_labels


def make_record(rid, embedding, correct=(True, True, True), has_reference=True,
                sim_cloud=0.5, sim_edge=0.5):
    tier_info = {
        tier: TierResponseInfo(generated_tokens=10, compute_seconds=0.5,
                               prompt_tokens=5, correct=correct[tier])
        for tier in TierId
    }
    return QueryRecord(id=rid, embedding=np.asarray(embedding, dtype=float),
                       tier_info=tier_info, sim_cloud=sim_cloud, sim_edge=sim_edge,
                       judge_cloud=0.5, judge_edge=0.5, has_reference=has_reference)


def small_trace():
    records = [make_record(f"q{i}", [0.1 * i, 1.0, -2.0, 3.5]) for i in range(3)]
    return Trace(records=records, embedding_dim=4, prompt_text="p", metadata={"k": "v"})


class TestTraceIO:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(small_trace(), path)
        loaded = load_trace(path)
        assert len(loaded) == 3
        assert loaded.embedding_dim == 4
        again = tmp_path / "t2.jsonl"
        save_trace(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_dimension_mismatch_names_record(self, tmp_path):
        trace = small_trace()
        trace.records[1].embedding = np.zeros(5)
        path = tmp_path / "bad.jsonl"
        save_trace(trace, path)
        with pytest.raises(TraceValidationError, match="q1"):
            load_trace(path)

    def test_out_of_range_score(self, tmp_path):
        trace = small_trace()
        trace.records[2].sim_cloud = 1.3
        path = tmp_path / "bad.jsonl"
        save_trace(trace, path)
        with pytest.raises(TraceValidationError, match="sim_cloud"):
            load_trace(path)

    def test_non_finite_embedding_rejected(self, tmp_path):
        trace = small_trace()
        trace.records[0].embedding = np.array([0.0, np.nan, 1.0, 2.0])
        path = tmp_path / "bad.jsonl"
        save_trace(trace, path)
        with pytest.raises(TraceValidationError, match="non-finite"):
            load_trace(path)

    def test_duplicate_id(self, tmp_path):
        trace = small_trace()
        trace.records[1].id = "q0"
        path = tmp_path / "bad.jsonl"
        save_trace(trace, path)
        with pytest.raises(TraceValidationError, match="duplicate"):
            load_trace(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_trace(small_trace(), path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(path)

    def test_missing_correct_with_reference(self):
        rec = make_record("q0", [0.0, 0.0, 0.0, 0.0])
        rec.tier_info[TierId.EDGE] = TierResponseInfo(
            generated_tokens=10, compute_seconds=0.5, prompt_tokens=5, correct=None)
        trace = Trace(records=[rec], embedding_dim=4)
        with pytest.raises(TraceValidationError, match="has_reference"):
            trace.validate()

    def test_byte_defaults_follow_token_counts(self):
        info = TierResponseInfo(generated_tokens=25, compute_seconds=1.0, prompt_tokens=7)
        assert info.request_bytes == 28
        assert info.response_bytes == 100

    def test_concat_disambiguates_ids(self):
        a, b = small_trace(), small_trace()
        merged = concat_traces(a, b)
        assert len(merged) == 6
        assert len({r.id for r in merged.records}) == 6


def wrong_device_trace(tmp_path, edit=None):
    """Two records; on q0 the device is wrong and the cloud right. ``edit``
    rewrites q0's JSON object before the file is written."""
    trace = Trace(records=[make_record("q0", [0.0, 1.0, 2.0, 3.0], correct=(False, True, True)),
                           make_record("q1", [1.0, 1.0, 2.0, 3.0])],
                  embedding_dim=4)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    if edit is not None:
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        edit(obj)
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
    return path


class TestStrictBooleans:
    def test_real_false_gives_zero_augmentation(self, tmp_path):
        trace = load_trace(wrong_device_trace(tmp_path))
        assert trace.records[0].tier_info[TierId.DEVICE].correct is False
        assert build_labels(trace).aug_cloud[0] == 0.0

    @pytest.mark.parametrize("field,value", [
        ("correct", "false"), ("correct", 0), ("has_reference", "false"),
        ("has_reference", 1), ("has_reference", None),
    ])
    def test_non_boolean_rejected_with_record_id(self, tmp_path, capsys, field, value):
        def edit(obj):
            if field == "correct":
                obj["tier_info"]["device"]["correct"] = value
            else:
                obj["has_reference"] = value

        path = wrong_device_trace(tmp_path, edit)
        with pytest.raises(TraceValidationError, match=f"record 'q0'.*{field}"):
            load_trace(path)
        assert main(["train", "--trace", str(path), "--out", str(tmp_path / "t")]) == 2
        assert "q0" in capsys.readouterr().err

    def test_null_or_absent_correct_accepted(self, tmp_path):
        def edit(obj):
            obj["has_reference"] = False
            obj["tier_info"]["device"]["correct"] = None
            del obj["tier_info"]["edge"]["correct"]

        trace = load_trace(wrong_device_trace(tmp_path, edit))
        assert trace.records[0].tier_info[TierId.DEVICE].correct is None
        assert trace.records[0].tier_info[TierId.EDGE].correct is None


class TestSyntheticGeneration:
    def test_deterministic_given_seed(self, tmp_path):
        cfg = SyntheticConfig(n_queries=50, embedding_dim=8, n_latent_clusters=2, seed=7)
        t1, _ = generate_synthetic_trace(cfg)
        t2, _ = generate_synthetic_trace(cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(t1, p1)
        save_trace(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_noise_scores_equal_latent_consistency(self):
        cfg = SyntheticConfig(n_queries=40, embedding_dim=8, n_latent_clusters=2,
                              seed=3, noise_sigma=0.0)
        trace, truth = generate_synthetic_trace(cfg)
        for i, rec in enumerate(trace.records):
            assert rec.sim_cloud == pytest.approx(truth.consistency_cloud[i], abs=1e-12)
            assert rec.sim_edge == pytest.approx(truth.consistency_edge[i], abs=1e-12)
            assert rec.judge_cloud == pytest.approx(truth.consistency_cloud[i], abs=1e-12)

    def test_agreement_probability_oracle(self):
        # Independence oracle: both right or both wrong.
        assert agreement_probability(np.array(1.0), np.array(1.0)) == 1.0
        assert agreement_probability(np.array(0.0), np.array(1.0)) == 0.0
        assert agreement_probability(np.array(0.5), np.array(0.5)) == pytest.approx(0.5)
        assert agreement_probability(np.array(0.9), np.array(0.8)) == pytest.approx(
            0.9 * 0.8 + 0.1 * 0.2)

    def test_kmeans_recovers_latent_clusters(self):
        cfg = SyntheticConfig(n_queries=600, embedding_dim=16, n_latent_clusters=3,
                              seed=11, cluster_separation=12.0)
        trace, truth = generate_synthetic_trace(cfg)
        model = kmeans_fit(trace.embeddings_matrix(), 3, seed=0)
        got = assign_batch(model, trace.embeddings_matrix())
        # Purity against the latent labels.
        purity = 0.0
        for j in range(3):
            members = truth.cluster_of[got == j]
            if members.size:
                purity += np.bincount(members, minlength=3).max()
        purity /= len(trace)
        assert purity >= 0.95

    def test_monotone_tier_correctness(self):
        cfg = SyntheticConfig(n_queries=5000, embedding_dim=8, n_latent_clusters=3, seed=5)
        trace, _ = generate_synthetic_trace(cfg)
        correct = trace.correctness_matrix()
        rates = correct.mean(axis=0)
        assert rates[1] >= rates[0] - 0.02
        assert rates[2] >= rates[1] - 0.02

    def test_round_trip_synthetic(self, tmp_path):
        cfg = SyntheticConfig(n_queries=20, embedding_dim=6, n_latent_clusters=2, seed=9,
                              reference_fraction=0.5)
        trace, _ = generate_synthetic_trace(cfg)
        path = tmp_path / "syn.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        again = tmp_path / "syn2.jsonl"
        save_trace(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_nonmonotone_profile_rejected(self):
        cfg = SyntheticConfig(n_queries=10, embedding_dim=4, n_latent_clusters=1, seed=0,
                              tier_accuracy_profile=((0.9, 0.5, 0.95),))
        with pytest.raises(ValueError, match="nondecreasing"):
            generate_synthetic_trace(cfg)
