import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import column_trace
from tierroute.cli import main
from tierroute.errors import TraceFormatError, TraceValidationError
from tierroute.trace import (
    _ARRAY_COLUMNS,
    CORRECT_ABSENT,
    CORRECT_NULL,
    SyntheticConfig,
    TierId,
    agreement_probability,
    concat_traces,
    generate_synthetic_trace,
    load_trace,
    save_trace,
)
from tierroute.cluster import assign_batch, kmeans_fit
from tierroute.labels import build_labels


def small_trace():
    embeddings = [[0.1 * i, 1.0, -2.0, 3.5] for i in range(3)]
    return column_trace(embeddings, prompt_text="p", metadata={"k": "v"})


def edit_record(path, lineno, edit):
    """Rewrite the JSON object on line ``lineno`` (1-based) of a trace file."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


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
        path = tmp_path / "bad.jsonl"
        save_trace(small_trace(), path)
        edit_record(path, 3, lambda obj: obj.update(embedding=[0.0] * 5))
        with pytest.raises(TraceValidationError, match="q1"):
            load_trace(path)

    def test_out_of_range_score(self, tmp_path):
        trace = small_trace()
        trace.sim_cloud[2] = 1.3
        path = tmp_path / "bad.jsonl"
        save_trace(trace, path)
        with pytest.raises(TraceValidationError, match="sim_cloud"):
            load_trace(path)

    def test_non_finite_embedding_rejected(self, tmp_path):
        trace = small_trace()
        trace.embeddings[0] = [0.0, np.nan, 1.0, 2.0]
        path = tmp_path / "bad.jsonl"
        save_trace(trace, path)
        with pytest.raises(TraceValidationError, match="non-finite"):
            load_trace(path)

    def test_duplicate_id(self, tmp_path):
        trace = small_trace()
        trace.ids[1] = "q0"
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
        trace = column_trace([[0.0, 0.0, 0.0, 0.0]], correct=(True, None, True))
        with pytest.raises(TraceValidationError, match="has_reference"):
            trace.validate()

    def test_byte_defaults_follow_token_counts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(column_trace([[0.0] * 4], generated_tokens=25, prompt_tokens=7), path)

        def drop_bytes(obj):
            for sub in obj["tier_info"].values():
                del sub["request_bytes"], sub["response_bytes"]

        edit_record(path, 2, drop_bytes)
        trace = load_trace(path)
        assert trace.request_bytes.tolist() == [[28, 28, 28]]
        assert trace.response_bytes.tolist() == [[100, 100, 100]]

    def test_concat_disambiguates_ids(self):
        a, b = small_trace(), small_trace()
        merged = concat_traces(a, b)
        assert len(merged) == 6
        assert len(set(merged.ids)) == 6


def wrong_device_trace(tmp_path, edit=None):
    """Two records; on q0 the device is wrong and the cloud right. ``edit``
    rewrites q0's JSON object before the file is written."""
    trace = column_trace([[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 3.0]],
                         correct=[(False, True, True), (True, True, True)])
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    if edit is not None:
        edit_record(path, 2, edit)
    return path


TIER_FIELDS = {"correct", "generated_tokens", "prompt_tokens", "request_bytes",
               "response_bytes", "compute_seconds"}
DROP = object()


class TestStrictBooleans:
    def test_real_false_gives_zero_augmentation(self, tmp_path):
        trace = load_trace(wrong_device_trace(tmp_path))
        assert trace.correct[0, TierId.DEVICE] == 0
        assert build_labels(trace).aug_cloud[0] == 0.0

    @pytest.mark.parametrize("field,value", [
        ("correct", "false"), ("correct", 0), ("has_reference", "false"),
        ("has_reference", 1), ("has_reference", None),
        ("generated_tokens", 5.7), ("generated_tokens", True), ("generated_tokens", DROP),
        ("prompt_tokens", "7"), ("request_bytes", 12.5), ("response_bytes", None),
        ("compute_seconds", "0.5"), ("compute_seconds", float("inf")),
        ("compute_seconds", False), ("sim_cloud", float("nan")), ("judge_edge", True),
        ("cloud", DROP),
    ])
    def test_non_boolean_rejected_with_record_id(self, tmp_path, capsys, field, value):
        def edit(obj):
            target = obj["tier_info"]["device"] if field in TIER_FIELDS else obj
            if field == "cloud":
                target = obj["tier_info"]
            if value is DROP:
                del target[field]
            else:
                target[field] = value

        path = wrong_device_trace(tmp_path, edit)
        with pytest.raises(TraceValidationError, match=f"line 2: record 'q0'.*{field}"):
            load_trace(path)
        assert main(["train", "--trace", str(path), "--out", str(tmp_path / "t")]) == 2
        assert "q0" in capsys.readouterr().err

    def test_null_or_absent_correct_accepted(self, tmp_path):
        def edit(obj):
            obj["has_reference"] = False
            obj["tier_info"]["device"]["correct"] = None
            del obj["tier_info"]["edge"]["correct"]

        trace = load_trace(wrong_device_trace(tmp_path, edit))
        assert trace.correct[0, TierId.DEVICE] == CORRECT_NULL
        assert trace.correct[0, TierId.EDGE] == CORRECT_ABSENT


unit = st.floats(0.0, 1.0)


@st.composite
def trace_files(draw):
    """A canonical trace file with absent scores, null or absent correct bits
    and mixed has_reference, plus the same file with every byte count that
    equals its default left out."""
    header = json.dumps({"embedding_dim": 3, "metadata": {"m": 1}, "prompt_text": "p"},
                        sort_keys=True)
    canonical, sparse = [header], [header]
    for i in range(draw(st.integers(1, 6))):
        has_reference = draw(st.booleans())
        full, short = {}, {}
        for label in ("device", "edge", "cloud"):
            generated, prompt = draw(st.integers(1, 10_000)), draw(st.integers(0, 10_000))
            sub = {"generated_tokens": generated, "prompt_tokens": prompt,
                   "compute_seconds": draw(st.floats(0.0, 1e3)),
                   "request_bytes": draw(st.just(4 * prompt) | st.integers(0, 10**9)),
                   "response_bytes": draw(st.just(4 * generated) | st.integers(0, 10**9))}
            bit = draw(st.booleans() if has_reference
                       else st.sampled_from([True, False, None, "absent"]))
            if bit != "absent":
                sub["correct"] = bit
            full[label] = sub
            short[label] = {key: value for key, value in sub.items()
                            if not (key == "request_bytes" and value == 4 * prompt
                                    or key == "response_bytes" and value == 4 * generated)}
        obj = {"id": f"r{i}", "embedding": draw(st.lists(st.floats(-1e6, 1e6), min_size=3,
                                                         max_size=3)),
               "has_reference": has_reference}
        for name in ("sim_cloud", "sim_edge", "judge_cloud", "judge_edge"):
            value = draw(st.none() | unit)
            if value is not None:
                obj[name] = value
        canonical.append(json.dumps({**obj, "tier_info": full}, sort_keys=True))
        sparse.append(json.dumps({**obj, "tier_info": short}, sort_keys=True))
    return "\n".join(canonical) + "\n", "\n".join(sparse) + "\n"


class TestRoundTripAbsentFields:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=trace_files())
    def test_save_of_load_is_byte_identical(self, tmp_path, files):
        canonical, sparse = files
        for i, text in enumerate((canonical, sparse)):
            original, again = tmp_path / f"f{i}.jsonl", tmp_path / f"g{i}.jsonl"
            original.write_text(text, encoding="utf-8")
            save_trace(load_trace(original), again)
            assert again.read_text(encoding="utf-8") == canonical


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
        np.testing.assert_allclose(trace.sim_cloud, truth.consistency_cloud, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.sim_edge, truth.consistency_edge, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.judge_cloud, truth.consistency_cloud, rtol=0,
                                   atol=1e-12)

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
        model = kmeans_fit(trace.embeddings, 3, seed=0)
        got = assign_batch(model, trace.embeddings)
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

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n, drift_at", [(40, 0.0), (40, 1.0), (41, 0.5), (7, 0.5),
                                              (101, 0.37)])
    def test_drift_equals_the_splice_of_two_traces(self, seed, k, n, drift_at):
        # The spliced reference: the undrifted trace up to the cut, then the
        # trace generated with the drift profile as its accuracy profile.
        rng = np.random.default_rng(seed + 100 * k)
        profile = tuple(map(tuple, np.sort(rng.uniform(0, 1, size=(k, 3)), axis=1).tolist()))
        cfg = SyntheticConfig(n_queries=n, embedding_dim=3, n_latent_clusters=k, seed=seed,
                              noise_sigma=0.0 if seed == 3 else 0.1, reference_fraction=0.5)
        stable, stable_truth = generate_synthetic_trace(cfg)
        shifted, shifted_truth = generate_synthetic_trace(
            replace(cfg, tier_accuracy_profile=profile))
        cut = round(drift_at * n)
        spliced = concat_traces(stable.subset(slice(None, cut)), shifted.subset(slice(cut, None)))

        trace, truth = generate_synthetic_trace(
            replace(cfg, drift_at=drift_at, drift_tier_accuracy_profile=profile))
        assert trace.ids == spliced.ids
        assert trace.metadata == {**stable.metadata, "drift_at_record": cut}
        for name in _ARRAY_COLUMNS:
            got, want = getattr(trace, name), getattr(spliced, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            if got.dtype == np.float64:
                got, want = got.view(np.int64), want.view(np.int64)
            assert np.array_equal(got, want), name
        expected = {"cluster_of": stable_truth.cluster_of, "tier_probs": stable_truth.tier_probs,
                    "drift_tier_probs": shifted_truth.tier_probs,
                    **{name: np.concatenate([getattr(stable_truth, name)[:cut],
                                             getattr(shifted_truth, name)[cut:]])
                       for name in ("consistency_edge", "consistency_cloud")}}
        for name, want in expected.items():
            got = getattr(truth, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name

    @pytest.mark.parametrize("given, message", [
        ({"drift_at": 0.5}, "drift_at and drift_tier_accuracy_profile must be given together"),
        ({"drift_tier_accuracy_profile": ((0.3, 0.6, 0.9),) * 2},
         "drift_at and drift_tier_accuracy_profile must be given together"),
        ({"drift_at": 1.5, "drift_tier_accuracy_profile": ((0.3, 0.6, 0.9),) * 2},
         r"drift_at must lie in \[0, 1\]; got 1.5"),
        ({"drift_at": 0.5, "drift_tier_accuracy_profile": ((0.3, 0.6, 0.9),)},
         r"drift_tier_accuracy_profile must have shape \(2, 3\)"),
        ({"drift_at": 0.5, "drift_tier_accuracy_profile": ((0.9, 0.6, 0.3),) * 2},
         "drift_tier_accuracy_profile: success probabilities must be nondecreasing"),
    ])
    def test_drift_keys_checked(self, given, message):
        cfg = SyntheticConfig(n_queries=10, embedding_dim=4, n_latent_clusters=2, **given)
        with pytest.raises(ValueError, match=message):
            generate_synthetic_trace(cfg)

    def test_nonmonotone_profile_rejected(self):
        cfg = SyntheticConfig(n_queries=10, embedding_dim=4, n_latent_clusters=1, seed=0,
                              tier_accuracy_profile=((0.9, 0.5, 0.95),))
        with pytest.raises(ValueError, match="nondecreasing"):
            generate_synthetic_trace(cfg)
