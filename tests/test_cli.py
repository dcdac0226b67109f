import dataclasses
import inspect
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import rehash
from tierroute import bayesopt, cli, cluster, router
from tierroute.cli import main
from tierroute.cluster import ClusterConfig, kmeans_fit, load_centroids
from tierroute.trace import load_trace

SMALL_CONFIG = """\
{"section": "synthetic", "n_queries": 400, "embedding_dim": 10, "n_latent_clusters": 2, "noise_sigma": 0.05}
{"section": "mlp", "hidden_dims": [16], "activation": "relu", "learning_rate": 0.003, "batch_size": 64, "max_epochs": 10, "early_stop_patience": 3, "validation_fraction": 0.1}
{"section": "cluster", "k_min": 2, "k_max": 4, "fixed_k": 2, "restarts": 3}
{"section": "bo", "offline_budget": 8, "online_steps_per_refresh": 2, "candidate_pool_size": 128, "seed_points": 4}
{"section": "stream", "update_interval": 100, "online": true}
"""


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "cfg.jsonl"
    cfg.write_text(SMALL_CONFIG)
    return tmp_path, cfg


def run(*argv):
    return main([str(a) for a in argv])


def header_only_trace(tmp, cfg):
    assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
    path = tmp / "empty.jsonl"
    path.write_text((tmp / "g" / "trace.jsonl").read_text().splitlines()[0] + "\n")
    return path


def capacity_five(path):
    """Set state.json's observation_capacity below the rows each cluster holds."""
    path.write_text(json.dumps({**json.loads(path.read_text()), "observation_capacity": 5}))


def swap_first_rows(path):
    """Swap the first two data rows of observations.csv."""
    lines = path.read_bytes().split(b"\r\n")
    lines[1], lines[2] = lines[2], lines[1]
    path.write_bytes(b"\r\n".join(lines))


def pad_first_cluster(path):
    """Write the first data row's cluster as " 0", which int() reads as 0 but JSON does not."""
    path.write_bytes(path.read_bytes().replace(b"\r\n0,", b"\r\n 0,", 1))


def set_payload_entry(path, index, value):
    """Overwrite float64 number ``index`` of an arrays file's payload."""
    head, _, body = path.read_bytes().partition(b"\n")
    body = bytearray(body)
    body[8 * index:8 * index + 8] = struct.pack("<d", value)
    path.write_bytes(head + b"\n" + bytes(body))


def payload_entry(path, index):
    """Float64 number ``index`` of an arrays file's payload."""
    body = path.read_bytes().partition(b"\n")[2]
    return struct.unpack("<d", body[8 * index:8 * index + 8])[0]


def assert_one_window_outputs(top, out, interval):
    """``out`` holds the outputs of ``top``, a run with the update interval
    2**63 - 1, with the same bytes, but its report.json and manifest.json
    record ``interval``."""
    names = sorted(path.name for path in top.iterdir())
    assert names == sorted(path.name for path in out.iterdir())
    for name in names:
        got, want = (out / name).read_text(), (top / name).read_text()
        if name == "manifest.json":
            assert json.loads(got)["config"]["stream"]["update_interval"] == interval
        elif name.endswith("report.json"):
            assert len(json.loads(got)["windows"]) == 1
            assert got == want.replace(f'"window_size": {2**63 - 1}', f'"window_size": {interval}')
        else:
            assert got == want, name


def run_strict(*argv):
    """``run`` with every warning raised, so work on an empty input cannot pass quietly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(*argv)


class TestGen:
    def test_writes_trace_truth_manifest(self, workdir):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g", "--seed", 3) == 0
        assert (tmp / "g" / "trace.jsonl").exists()
        assert (tmp / "g" / "trace_truth.json").exists()
        manifest = json.loads((tmp / "g" / "manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["seed"] == 3

    @pytest.mark.parametrize("setting, message", [pytest.param(*case, id=case[0]) for case in (
        *((setting, "bad synthetic config") for setting in (
            "synthetic.n_queries=0", "synthetic.reference_fraction=1.5",
            "synthetic.token_jitter=-1", "synthetic.token_jitter=1e308",
            "synthetic.prompt_token_range=[50,10]", "synthetic.cluster_std=-1",
            "synthetic.cluster_separation=-1", "synthetic.cluster_std=1e308",
            "synthetic.tier_tokens_per_second=[0,30,25]")),
        # A positive speed so small that the compute time overflows.
        ("synthetic.tier_tokens_per_second=[1e-320,30,25]",
         "bad synthetic config: tier_tokens_per_second=(1e-320, 30.0, 25.0) overflows the "
         "compute time"),
        # Sizes of more than 2**47 bytes, whose allocation fails at once.
        *((f"synthetic.{key}={10**15}", "bad synthetic config: Unable to allocate")
          for key in ("n_queries", "n_latent_clusters", "embedding_dim")),
    )])
    def test_invalid_synthetic_config_exit_2(self, workdir, capsys, setting, message):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g", "--set", setting) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "g" / "trace.jsonl").exists()

    def test_trace_flag_rejected(self, workdir, capsys):
        # gen writes a trace and reads none: --trace would only null the
        # synthetic section, and gen would then run the generator's defaults.
        tmp, cfg = workdir
        with pytest.raises(SystemExit) as exc:
            run("gen", "--config", cfg, "--out", tmp / "g", "--trace", tmp / "none.jsonl")
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err
        assert not (tmp / "g").exists()

    def test_drift_trace(self, workdir):
        tmp, cfg = workdir
        code = run("gen", "--config", cfg, "--out", tmp / "g",
                   "--set", 'synthetic.drift_at=0.5',
                   "--set", 'synthetic.drift_tier_accuracy_profile=[[0.1,0.5,0.9],[0.2,0.6,0.95]]')
        assert code == 0
        from tierroute.trace import load_trace
        trace = load_trace(tmp / "g" / "trace.jsonl")
        assert trace.metadata["drift_at_record"] == 200

    def test_drift_truth_follows_the_drift(self, workdir):
        tmp, cfg = workdir
        profile = [[0.1, 0.5, 0.9], [0.2, 0.6, 0.95]]
        code = run("gen", "--config", cfg, "--out", tmp / "g", "--set", "synthetic.noise_sigma=0",
                   "--set", "synthetic.drift_at=0.5",
                   "--set", f"synthetic.drift_tier_accuracy_profile={profile}")
        assert code == 0
        from tierroute.trace import load_trace
        trace = load_trace(tmp / "g" / "trace.jsonl")
        truth = json.loads((tmp / "g" / "trace_truth.json").read_text())
        # Without score noise each row's scores are its true agreement rates.
        assert trace.sim_edge.tolist() == truth["consistency_edge"]
        assert trace.sim_cloud.tolist() == truth["consistency_cloud"]
        assert truth["drift_tier_probs"] == profile
        assert truth["tier_probs"] != profile


_DRIFT = ["--set", "synthetic.drift_at=0.5",
          "--set", "synthetic.drift_tier_accuracy_profile=[[0.1,0.5,0.9],[0.2,0.6,0.95]]"]


class TestDriftedSyntheticTrace:
    def test_train_uses_the_trace_gen_writes(self, workdir):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g", "--seed", 3, *_DRIFT) == 0
        assert run("train", "--config", cfg, "--out", tmp / "a", "--seed", 3, *_DRIFT) == 0
        assert run("train", "--config", cfg, "--out", tmp / "b", "--seed", 3,
                   "--trace", tmp / "g" / "trace.jsonl") == 0
        for name in ("labels.csv", "predictor.ckpt"):
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["train", "tune", "baseline"])
    @pytest.mark.parametrize("settings, message", [
        (["synthetic.drift_at=5", _DRIFT[3]], "drift_at must lie in [0, 1]; got 5.0"),
        ([_DRIFT[1], "synthetic.drift_tier_accuracy_profile=[[0.1,0.5,0.9]]"],
         "drift_tier_accuracy_profile must have shape (2, 3)"),
        ([_DRIFT[3]], "drift_at and drift_tier_accuracy_profile must be given together"),
    ], ids=["drift_at", "profile_shape", "profile_alone"])
    def test_drift_keys_checked_exit_2(self, workdir, capsys, command, settings, message):
        tmp, cfg = workdir
        policy = ["--policy", "cloud-only"] if command == "baseline" else []
        sets = [arg for setting in settings for arg in ("--set", setting)]
        assert run(command, "--config", cfg, "--out", tmp / "o", *policy, *sets) == 2
        assert f"error: bad synthetic config: {message}" in capsys.readouterr().err
        assert not any((tmp / "o").iterdir())


# Edge values for every synthetic key, each tried alone over gen's defaults:
# -1 and 0 for an integer; -1, 0 and 1e308 for a float; a pair or triple
# reversed, zeroed and negated (per latent cluster for a profile). A drift
# key is tried beside a valid value of the other drift key, which it needs.
_PROFILE = [0.3, 0.6, 0.9]
SYNTHETIC_SCAN = {
    **{key: [-1, 0] for key in ("n_queries", "embedding_dim", "n_latent_clusters", "seed")},
    **{key: [-1, 0, 1e308] for key in ("noise_sigma", "token_jitter", "cluster_std",
                                       "cluster_separation", "reference_fraction", "drift_at")},
    "prompt_token_range": [[120, 30], [0, 0], [-30, -120]],
    "tier_tokens_per_second": [[25, 30, 40], [0, 0, 0], [-40, -30, -25]],
    **{key: [[triple] * 4 for triple in (base[::-1], [0] * 3, [-v for v in base])]
       for key, base in (("tier_accuracy_profile", _PROFILE),
                         ("token_mean_profile", [80, 100, 120]),
                         ("drift_tier_accuracy_profile", _PROFILE))},
}
_DRIFT_PAIR = {"drift_at": f"synthetic.drift_tier_accuracy_profile={[_PROFILE] * 4}",
               "drift_tier_accuracy_profile": "synthetic.drift_at=0.5"}


def test_synthetic_scan_covers_every_key():
    assert set(SYNTHETIC_SCAN) == cli.CONFIG_KEYS["synthetic"]


@pytest.mark.parametrize("key, value", [pytest.param(key, value, id=f"{key}={json.dumps(value)}")
                                        for key, values in SYNTHETIC_SCAN.items()
                                        for value in values])
def test_synthetic_scan_exits_0_or_2(tmp_path, capsys, key, value):
    # A value gen does not refuse makes a trace that load_trace reads back.
    from tierroute.trace import load_trace

    extra = ["--set", _DRIFT_PAIR[key]] if key in _DRIFT_PAIR else []
    code = run("gen", "--set", "synthetic.n_queries=50", *extra,
               "--set", f"synthetic.{key}={json.dumps(value)}", "--out", tmp_path)
    assert code in (0, 2), capsys.readouterr().err
    if code == 0:
        assert len(load_trace(tmp_path / "trace.jsonl")) == 50


class TestTrain:
    def test_outputs_exist_and_finite(self, workdir):
        tmp, cfg = workdir
        assert run("train", "--config", cfg, "--out", tmp / "t", "--seed", 1) == 0
        report = json.loads((tmp / "t" / "train_report.json").read_text())
        assert report["final_val_mse"] >= 0.0
        assert (tmp / "t" / "predictor.ckpt").exists()
        assert (tmp / "t" / "loss_curve.csv").exists()

    def test_missing_trace_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        code = run("train", "--config", cfg, "--trace", tmp / "nope.jsonl", "--out", tmp / "t")
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_rerun_byte_identical_checkpoint(self, workdir):
        tmp, cfg = workdir
        assert run("train", "--config", cfg, "--out", tmp / "a", "--seed", 5) == 0
        assert run("train", "--config", cfg, "--out", tmp / "b", "--seed", 5) == 0
        assert ((tmp / "a" / "predictor.ckpt").read_bytes()
                == (tmp / "b" / "predictor.ckpt").read_bytes())

    def test_header_only_trace_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        trace = header_only_trace(tmp, cfg)
        assert run_strict("train", "--config", cfg, "--trace", trace, "--out", tmp / "t") == 2
        assert "empty.jsonl: trace holds no records" in capsys.readouterr().err
        assert not (tmp / "t" / "predictor.ckpt").exists()

    @pytest.mark.parametrize("key, value", [
        ("embedding_dim", "10"), ("embedding_dim", 10.5), ("metadata", [["a", 1]]),
        ("prompt_text", 5), ("id", 5),
    ])
    def test_trace_fields_typed(self, workdir, capsys, key, value):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        path = tmp / "g" / "trace.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        line = 1 if key == "id" else 0
        obj = json.loads(lines[line])
        obj[key] = value
        lines[line] = json.dumps(obj) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run("train", "--trace", path, "--out", tmp / "t") == 2
        named = "line 2: malformed record (id" if key == "id" else f"line 1: header.{key}"
        assert f"{path}: {named} must be" in capsys.readouterr().err
        assert not (tmp / "t" / "predictor.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_model_too_large_to_allocate_exit_2(self, workdir, capsys, command):
        # More than 2**47 bytes of parameters, whose allocation fails at once.
        tmp, cfg = workdir
        assert run(command, "--config", cfg, "--out", tmp / "t",
                   "--set", f"mlp.hidden_dims=[{10**15}]") == 2
        assert "error: mlp: Unable to allocate" in capsys.readouterr().err
        assert not (tmp / "t" / "predictor.ckpt").exists()

    @pytest.mark.parametrize("element", ['"0.5"', "true", "null", "[0.5]"])
    def test_embedding_elements_typed(self, workdir, capsys, element):
        # NumPy would take "0.5" and true as floats; a JSON number is required.
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        path = tmp / "g" / "trace.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        obj = json.loads(lines[1])
        obj["embedding"][1] = json.loads(element)
        lines[1] = json.dumps(obj) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run("train", "--trace", path, "--out", tmp / "t") == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2: record {obj['id']!r}: embedding[1] must be a JSON number" in err
        assert not (tmp / "t" / "predictor.ckpt").exists()


class TestTune:
    def test_bundle_has_feasible_pairs_per_cluster(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b", "--seed", 2) == 0
        thresholds = json.loads((tmp / "b" / "thresholds.json").read_text())
        assert len(thresholds) == 2
        for pair in thresholds.values():
            assert 0.0 <= pair["tau2"] < pair["tau1"] <= 1.0

    def test_kappa_grid_makes_one_bundle_each(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "k", "--kappa-grid", " 1, 5") == 0
        assert (tmp / "k" / "kappa_1" / "thresholds.json").exists()
        assert (tmp / "k" / "kappa_5" / "thresholds.json").exists()

    def test_refused_kappa_grid_value_leaves_no_bundle(self, workdir, capsys):
        # The second value's weights overflow the utility; it is refused before
        # the first value's bundle is saved.
        tmp, cfg = workdir
        out = tmp / "k"
        assert run("tune", "--config", cfg, "--out", out, "--kappa-grid", "1,1e-300") == 2
        captured = capsys.readouterr()
        assert "error: --kappa-grid value 1e-300: weights lambda1=1.0, " in captured.err
        assert "overflow the utility of this trace" in captured.err
        assert "tuned" not in captured.out
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_corrupted_bundle_rejected_on_reload(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        ckpt = tmp / "b" / "predictor.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-4])
        code = run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s")
        assert code == 2
        assert "checksum" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_corrupt_bundle_manifest_exit_2(self, workdir, capsys, text):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        (tmp / "b" / "bundle_manifest.json").write_text(text)
        capsys.readouterr()
        code = run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s")
        assert code == 2
        assert "bundle_manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name, keys, value, message", [
        ("state.json", ["observation_capacity"], "x", "observation_capacity must be an integer"),
        ("state.json", ["k"], 5, "k=5, but centroids.bin holds 2 centroids"),
        ("thresholds.json", ["0", "tau1"], "0.9", "0.tau1 must be a finite number; got '0.9'"),
    ])
    def test_bundle_values_checked(self, workdir, capsys, name, keys, value, message):
        # The manifest hash is rewritten, so the content checks are what reject the value.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / name
        obj = json.loads(path.read_text())
        target = obj if len(keys) == 1 else obj[keys[0]]
        target[keys[-1]] = value
        path.write_text(json.dumps(obj))
        rehash(tmp / "b", name)
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp / "s" / "stream_report.json").exists()

    @pytest.mark.parametrize("key", ["candidate_pool_size"])
    def test_bo_draw_too_large_to_allocate_exit_2(self, workdir, capsys, key):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b",
                   "--set", f"bo.{key}={10**15}") == 2
        assert (f"error: {key}={10**15} is too large to draw (Unable to allocate"
                in capsys.readouterr().err)
        assert not any((tmp / "b").iterdir())

    def test_bundle_pool_too_large_to_allocate_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "state.json"
        obj = json.loads(path.read_text())
        obj["bo_config"]["candidate_pool_size"] = 10**15
        path.write_text(json.dumps(obj))
        rehash(tmp / "b", "state.json")
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--online",
                   "--out", tmp / "s") == 2
        assert (f"error: {path}: bo_config.candidate_pool_size={10**15} is too large to draw"
                in capsys.readouterr().err)
        assert not (tmp / "s" / "stream_report.json").exists()

    @pytest.mark.parametrize("command", [["tune"], ["tune", "--kappa-grid", "1,2"], ["sweep"]],
                             ids=["tune", "kappa-grid", "sweep"])
    @pytest.mark.parametrize("key, message", [
        ("offline_budget", f"bo.seed_points=4 and bo.offline_budget={10**15}: "
                           "seed_points + offline_budget"),
        ("seed_points", f"bo.seed_points={10**15} and bo.offline_budget=8: "
                        "seed_points + offline_budget"),
        ("online_steps_per_refresh", f"bo.online_steps_per_refresh={10**15}: "
                                     "1 + online_steps_per_refresh"),
    ], ids=["offline_budget", "seed_points", "online_steps_per_refresh"])
    def test_bo_budget_past_capacity_exit_2(self, workdir, capsys, monkeypatch, command, key,
                                            message):
        # Refused before any fitting or draw; a fit would be an internal error here.
        tmp, cfg = workdir
        monkeypatch.setattr(cli, "fit_representation", None)
        assert run(*command, "--config", cfg, "--out", tmp / "b",
                   "--set", f"bo.{key}={10**15}") == 2
        assert (f"error: {message} must be at most the observation capacity 512"
                in capsys.readouterr().err)
        assert not any((tmp / "b").iterdir())

    def test_bundle_online_steps_past_capacity_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "state.json"
        obj = json.loads(path.read_text())
        obj["bo_config"]["online_steps_per_refresh"] = 10**15
        path.write_text(json.dumps(obj))
        rehash(tmp / "b", "state.json")
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--online",
                   "--out", tmp / "s") == 2
        assert (f"error: {path}: bo_config.online_steps_per_refresh={10**15}: 1 + "
                f"online_steps_per_refresh must be at most the observation capacity 512"
                in capsys.readouterr().err)
        assert not (tmp / "s" / "stream_report.json").exists()

    def test_undecodable_observations_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "observations.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        rehash(tmp / "b", "observations.csv")
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 2
        assert f"{path}: not a readable CSV file" in capsys.readouterr().err

    @pytest.mark.parametrize("index, value, message", [
        (0, float("nan"), "centroids[0] is nan, not a finite number"),
        (13, float("-inf"), "centroids[13] is -inf, not a finite number"),
    ])
    def test_non_finite_centroid_exit_2(self, workdir, capsys, index, value, message):
        # Hash rewritten and no state checksum: only the payload check can stop it.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "centroids.bin"
        set_payload_entry(path, index, value)
        rehash(tmp / "b", "centroids.bin")
        manifest_path = tmp / "b" / "bundle_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["checksum"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--static",
                   "--out", tmp / "s") == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp / "s" / "stream_report.json").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("state.json", capacity_five,
         "line 7: cluster 0 holds more rows than observation_capacity 5"),
        ("observations.csv", swap_first_rows,
         "line 2: order_index 1 out of order; cluster 0 expects 0"),
        ("observations.csv", pad_first_cluster, "line 2: cluster must be an integer; got ' 0'"),
    ])
    def test_observation_rows_checked_without_checksum(self, workdir, capsys, name, edit,
                                                       message):
        # Hash rewritten and no state checksum: only the row checks can stop a
        # capacity that would drop rows, two rows swapped, or a padded number.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        edit(tmp / "b" / name)
        rehash(tmp / "b", name)
        manifest_path = tmp / "b" / "bundle_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["checksum"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--static",
                   "--out", tmp / "s") == 2
        assert f"{tmp / 'b' / 'observations.csv'}: {message}" in capsys.readouterr().err
        assert not (tmp / "s" / "stream_report.json").exists()

    def test_manifest_must_list_every_bundle_file(self, workdir, capsys):
        # A file dropped from the manifest and from the directory is named, not a crash.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        manifest_path = tmp / "b" / "bundle_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"]["observations.csv"]
        manifest_path.write_text(json.dumps(manifest))
        (tmp / "b" / "observations.csv").unlink()
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 2
        assert (f"{manifest_path}: files does not list observations.csv"
                in capsys.readouterr().err)

    def test_manifest_entries_outside_the_bundle_ignored(self, workdir, capsys):
        # Only the bundle's own files are hashed: an extra entry is never read.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        (tmp / "outside.txt").write_text("not part of the bundle\n")
        manifest_path = tmp / "b" / "bundle_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["../outside.txt"] = "0" * 64
        manifest["files"]["../absent.txt"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 0

    def test_bundle_file_read_error_exit_2(self, workdir, capsys, monkeypatch):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        read_bytes = Path.read_bytes

        def refused(path):
            if path.name == "thresholds.json":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", refused)
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 2
        assert (f"{tmp / 'b' / 'thresholds.json'}: cannot read (Permission denied)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("source", ["file", "set", "flag"])
    def test_parallel_clusters_rejected(self, workdir, capsys, source):
        # The key and the flag were removed; an old config must not be ignored.
        tmp, cfg = workdir
        argv = ["tune", "--config", cfg, "--out", tmp / "b"]
        if source == "file":
            cfg.write_text(SMALL_CONFIG + '{"section": "parallel", "clusters": "no"}\n')
        elif source == "set":
            argv += ["--set", "parallel.clusters=false"]
        else:
            argv += ["--parallel-clusters"]
        try:
            code = run(*argv)
        except SystemExit as exc:  # argparse rejects the unknown flag
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert ("--parallel-clusters" if source == "flag" else "parallel.clusters") in err
        assert not (tmp / "b" / "thresholds.json").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "2.5", '"5"'])
    def test_restarts_must_be_positive_integer(self, workdir, capsys, value):
        tmp, cfg = workdir
        assert_refused(capsys, tmp / "b", "tune", "--config", cfg,
                       "--set", f"cluster.restarts={value}",
                       names=["cluster.restarts must be an integer >= 1"])

    def test_restarts_reach_the_fit(self, workdir):
        # The config's restarts (3) give another 4-means model than the default's.
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        trace = tmp / "g" / "trace.jsonl"
        assert run("tune", "--config", cfg, "--trace", trace, "--set", "cluster.fixed_k=4",
                   "--out", tmp / "b") == 0
        embeddings = load_trace(trace).embeddings
        want = kmeans_fit(embeddings, 4, 0, restarts=3)
        assert want.inertia != kmeans_fit(embeddings, 4, 0).inertia
        got = load_centroids(tmp / "b" / "centroids.bin")
        assert got.inertia == want.inertia and np.array_equal(got.centroids, want.centroids)

    @pytest.mark.parametrize("key, value", [
        ("cluster.fixed_k", "0"), ("cluster.fixed_k", '"2"'), ("cluster.fixed_k", "2.5"),
        ("cluster.k_min", "2.7"), ("cluster.k_max", '"4"'), ("bo.seed_points", "0"),
    ])
    def test_integer_fields_checked(self, workdir, capsys, key, value):
        tmp, cfg = workdir
        assert_refused(capsys, tmp / "b", "tune", "--config", cfg, "--set", f"{key}={value}",
                       names=[f"{key} must be an integer >= 1; got"])

    @pytest.mark.parametrize("command, setting, message", [
        ("tune", "bo.offline_budget=2.7", "bo.offline_budget must be an integer; got 2.7"),
        ("tune", 'bo.candidate_pool_size="64"',
         "bo.candidate_pool_size must be an integer; got '64'"),
        ("tune", "mlp.max_epochs=3.9", "mlp.max_epochs must be an integer; got 3.9"),
        ("tune", "mlp.batch_size=true", "mlp.batch_size must be an integer; got True"),
        ("tune", "mlp.hidden_dims=[16.5]", "mlp.hidden_dims[0] must be an integer; got 16.5"),
        ("tune", "mlp.learning_rate=NaN", "mlp.learning_rate must be a finite number; got nan"),
        ("tune", "weights.lambda1=true", "weights.lambda1 must be a finite number; got True"),
        ("tune", 'weights.kappa1="5"', "weights.kappa1 must be a finite number; got '5'"),
        ("tune", "labels.alpha=true", "labels.alpha must be a finite number; got True"),
        ("tune", 'cost.edge="14"', "cost.edge must be a finite number; got '14'"),
        ("tune", "network.switch_window=2.5",
         "network.switch_window must be an integer >= 0; got 2.5"),
        ("tune", "network.switch_window=-3",
         "network.switch_window must be an integer >= 0; got -3"),
        ("tune", "network.scenario=7", "network.scenario must be a string; got 7"),
        ("tune", "run.seed=1.5", "run.seed must be an integer >= 0; got 1.5"),
        ("tune", "run.trace=5", "run.trace must be a string; got 5"),
        ("gen", "synthetic.n_queries=50.5", "synthetic.n_queries must be an integer; got 50.5"),
        ("gen", "synthetic.prompt_token_range=[30]",
         "synthetic.prompt_token_range must be a JSON array of 2 values; got [30]"),
        ("gen", 'synthetic.drift_at="0.5"', "synthetic.drift_at must be a finite number; got '0.5'"),
    ])
    def test_typed_fields_checked(self, workdir, capsys, command, setting, message):
        # A value of the wrong JSON type exits 2 naming section.key; it is never coerced.
        tmp, cfg = workdir
        assert_refused(capsys, tmp / "o", command, "--config", cfg, "--set", setting,
                       names=[message])

    @pytest.mark.parametrize("grid, named", [
        ("1,x", "'x'"), ("1,0", "kappas must be positive"), ("inf", "'inf'"), ("1_0", "'1_0'"),
        # Values that print alike would name one bundle directory twice.
        ("0.1234567,0.1234568", "'0.1234567' and '0.1234568' both print as 0.123457"),
        ("2,1, 2.0", "'2' and '2.0' both print as 2"),
    ])
    def test_kappa_grid_checked(self, workdir, capsys, grid, named):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b", "--kappa-grid", grid) == 2
        err = capsys.readouterr().err
        assert "--kappa-grid" in err and named in err

    @pytest.mark.parametrize("settings, named", [
        (["cluster.fixed_k=null", "cluster.k_min=1"], "cluster.k_min=1"),
        (["cluster.fixed_k=null", "cluster.k_max=2"], "cluster.k_max=2"),
        (["cluster.fixed_k=null", "cluster.k_min=400", "cluster.k_max=500"],
         "cluster.k_min=400"),
        (["cluster.fixed_k=401"], "cluster.fixed_k=401"),
    ])
    def test_cluster_range_checked(self, workdir, capsys, settings, named):
        tmp, cfg = workdir
        argv = ["sweep", "--config", cfg, "--kappa-grid", "1"]
        for setting in settings:
            argv += ["--set", setting]
        assert_refused(capsys, tmp / "sw", *argv, names=[named])

    @pytest.mark.parametrize("line, setting, named", [
        (None, "cluster.restart=0", "cluster.restart"),
        (None, "clustr.k_min=3", "clustr.k_min"),
        (None, "weights.kappa=5", "weights.kappa"),
        ('{"section": "bo", "seed_point": 4}', None, "bo.seed_point"),
        ('{"section": "synthetic", "n_query": 50}', None, "synthetic.n_query"),
        ('{"section": "clustr"}', None, "'clustr'"),
    ])
    def test_unknown_config_key_rejected(self, workdir, capsys, line, setting, named):
        tmp, cfg = workdir
        argv = ["tune", "--config", cfg, "--out", tmp / "b"]
        if line is not None:
            cfg.write_text(SMALL_CONFIG + line + "\n")
        if setting is not None:
            argv += ["--set", setting]
        assert run(*argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp / "b" / "thresholds.json").exists()


class TestOneRepresentation:
    """tune --kappa-grid and sweep fit the predictor and the clusters once,
    and tune thresholds once per kappa."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("train", "elbow_sweep", "kmeans_fit"):
            monkeypatch.setattr(router, name, counting(name, getattr(router, name)))
        return calls

    @pytest.mark.parametrize("command, output", [("tune", "kappa_5/thresholds.json"),
                                                 ("sweep", "pareto.csv")])
    def test_one_fit_for_three_kappas(self, workdir, calls, command, output):
        tmp, cfg = workdir
        assert run(command, "--config", cfg, "--kappa-grid", "1,2,5", "--out", tmp / "o",
                   "--set", "cluster.fixed_k=null") == 0
        assert calls == ["train", "elbow_sweep"]
        assert (tmp / "o" / output).exists()

    def test_kappa_grid_bundle_equals_single_tune(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--kappa-grid", "1,5", "--out", tmp / "grid",
                   "--set", "cluster.fixed_k=null") == 0
        assert run("tune", "--config", cfg, "--out", tmp / "one", "--set", "cluster.fixed_k=null",
                   "--set", "weights.kappa1=5", "--set", "weights.kappa2=5") == 0
        grid = tmp / "grid" / "kappa_5"
        names = sorted(path.name for path in grid.iterdir())
        assert names == ["bundle_manifest.json", "centroids.bin", "labels.csv",
                         "observations.csv", "predictor.ckpt", "state.json",
                         "thresholds.json", "train_report.json"]
        for name in names:
            assert (grid / name).read_bytes() == (tmp / "one" / name).read_bytes(), name


class TestStream:
    def test_online_and_static_reports(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b", "--seed", 7) == 0
        assert run("stream", "--config", cfg, "--bundle", tmp / "b",
                   "--out", tmp / "on", "--online", "--seed", 8) == 0
        assert run("stream", "--config", cfg, "--bundle", tmp / "b",
                   "--out", tmp / "off", "--static", "--seed", 8) == 0
        static = json.loads((tmp / "off" / "stream_report.json").read_text())
        taus = {
            (h["tau1"], h["tau2"])
            for hist in static["threshold_history"].values() for h in hist
        }
        assert len(taus) == len(static["threshold_history"])

    def test_export_csv_headers(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        assert run("stream", "--config", cfg, "--bundle", tmp / "b",
                   "--out", tmp / "s", "--static") == 0
        obs_header = (tmp / "b" / "observations.csv").read_text().splitlines()[0]
        assert obs_header == "cluster,tau1,tau2,utility,order_index"
        util_header = (tmp / "s" / "stream_utilities.csv").read_text().splitlines()[0]
        assert util_header == "query_id,cluster,tier,correct,latency_s,cost,utility"

    def test_parent_format_bundle_streams_identically(self, workdir):
        # Bundles written before UtilityWeights.normalize_by_cloud and
        # MlpConfig.shuffle_each_epoch were removed carry both keys, set true.
        tmp, cfg = workdir
        bundle = tmp / "b"
        assert run("tune", "--config", cfg, "--out", bundle) == 0
        stream = ("stream", "--config", cfg, "--bundle", bundle, "--online")
        assert run(*stream, "--out", tmp / "new") == 0
        state_path = bundle / "state.json"
        state_obj = json.loads(state_path.read_text())
        assert "normalize_by_cloud" not in state_obj["weights"]
        state_obj["weights"]["normalize_by_cloud"] = True
        state_path.write_text(json.dumps(state_obj, sort_keys=True, indent=2) + "\n")
        ckpt = bundle / "predictor.ckpt"
        head, _, body = ckpt.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert "shuffle_each_epoch" not in header
        header["shuffle_each_epoch"] = True
        ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        rehash(bundle, "state.json")
        rehash(bundle, "predictor.ckpt")
        checksum = json.loads((bundle / "bundle_manifest.json").read_text())["checksum"]
        assert router.state_checksum(router.load_bundle(bundle)) == checksum
        assert run(*stream, "--out", tmp / "old") == 0
        names = sorted(path.name for path in (tmp / "new").iterdir())
        assert len(names) == 6
        for name in names:
            assert (tmp / "old" / name).read_bytes() == (tmp / "new" / name).read_bytes(), name

    @pytest.mark.parametrize("value", ['"false"', "0", "null"])
    def test_online_must_be_boolean(self, workdir, capsys, value):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        cfg.write_text(SMALL_CONFIG + f'{{"section": "stream", "online": {value}}}\n')
        capsys.readouterr()
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 2
        assert f"stream.online must be true or false; got {json.loads(value)!r}" in (
            capsys.readouterr().err)
        assert not (tmp / "s" / "stream_report.json").exists()

    def test_online_false_streams_static(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        cfg.write_text(SMALL_CONFIG + '{"section": "stream", "online": false}\n')
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s") == 0
        report = json.loads((tmp / "s" / "stream_report.json").read_text())
        assert report["policy"] == "router_static"

    def test_bad2good_flag(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / "s",
                   "--network", "bad2good", "--switch-window", "2", "--static") == 0
        report = json.loads((tmp / "s" / "stream_report.json").read_text())
        lat = [w["mean_latency_s"] for w in report["windows"]]
        assert len(lat) == 4

    @pytest.mark.parametrize("source", ["set", "config", "bundle"])
    def test_config_update_interval_applies(self, workdir, source):
        # The bundle is tuned with the config's interval of 100.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        argv = ["stream", "--bundle", tmp / "b", "--out", tmp / "s", "--static"]
        if source == "set":
            argv += ["--config", cfg, "--set", "stream.update_interval=50"]
        else:
            other = tmp / "other.jsonl"
            keep = [line for line in SMALL_CONFIG.splitlines() if '"stream"' not in line]
            if source == "config":
                keep.append('{"section": "stream", "update_interval": 50}')
            other.write_text("\n".join(keep) + "\n")
            argv += ["--config", other]
        assert run(*argv) == 0
        expected = 100 if source == "bundle" else 50
        report = json.loads((tmp / "s" / "stream_report.json").read_text())
        manifest = json.loads((tmp / "s" / "manifest.json").read_text())
        assert report["window_size"] == expected
        assert len(report["windows"]) == 400 // expected
        assert manifest["config"]["stream"]["update_interval"] == expected

    @pytest.mark.parametrize("flag", [["--update-interval", "0"],
                                      ["--set", "stream.update_interval=0"],
                                      ["--set", "stream.update_interval=-3"]])
    def test_update_interval_below_one_exit_2(self, workdir, capsys, flag):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        assert_refused(capsys, tmp / "s", "stream", "--config", cfg, "--bundle", tmp / "b",
                       *flag, names=[f"got {flag[1].rpartition('=')[2]}"])

    @pytest.mark.parametrize("source", ["flag", "bundle"])
    def test_update_interval_past_int64_is_one_window(self, workdir, source):
        # Past 2**63 - 1, NumPy holds no window size: it streams as that one does.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        bare = tmp / "bare.jsonl"  # no stream section, so the bundle's interval applies
        bare.write_text("".join(line + "\n" for line in SMALL_CONFIG.splitlines()
                                if '"stream"' not in line))
        stream = ("stream", "--config", bare, "--bundle", tmp / "b")
        assert run(*stream, "--out", tmp / "top", "--update-interval", 2**63 - 1) == 0
        if source == "flag":
            assert run(*stream, "--out", tmp / "s", "--update-interval", 10**20) == 0
        else:
            state_path = tmp / "b" / "state.json"
            state_path.write_text(state_path.read_text().replace(
                '"update_interval": 100', f'"update_interval": {10**20}'))
            rehash(tmp / "b", "state.json")
            assert run(*stream, "--out", tmp / "s") == 0
        assert_one_window_outputs(tmp / "top", tmp / "s", 10**20)

    def test_header_only_trace_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        trace = header_only_trace(tmp, cfg)
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        capsys.readouterr()
        code = run_strict("stream", "--config", cfg, "--bundle", tmp / "b",
                          "--trace", trace, "--out", tmp / "s")
        assert code == 2
        assert "empty.jsonl: trace holds no records" in capsys.readouterr().err
        assert not (tmp / "s" / "stream_report.json").exists()


class TestOverflowingWeights:
    @pytest.mark.parametrize("command", [("baseline", "--policy", "dlm-only"), ("tune",)])
    def test_exit_2_without_outputs(self, workdir, capsys, command):
        tmp, cfg = workdir
        out = tmp / "w"
        code = run(*command, "--config", cfg, "--set", "weights.lambda2=1e308", "--out", out)
        assert code == 2
        assert "lambda1=1.0, lambda2=1e+308 and lambda3=0.2" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_overflowing_spread_exit_2(self, workdir, capsys):
        # Utilities whose magnitudes add up but whose squares do not: the GP
        # fit's standardization overflowed on them and tuned from NaN.
        tmp, cfg = workdir
        out = tmp / "w"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("tune", "--config", cfg, "--set", "synthetic.n_queries=300",
                       "--set", "weights.lambda2=1e300", "--out", out)
        assert code == 2
        assert "lambda1=1.0, lambda2=1e+300 and lambda3=0.2" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("lambda2, code", [("5e152", 0), ("1e153", 2)])
    def test_spread_at_the_bound(self, workdir, monkeypatch, lambda2, code):
        # On this trace the bound falls between the two: below it the GP fit's
        # scale stays finite, with every RuntimeWarning an error.
        tmp, cfg = workdir
        scales = []
        gp_fit = bayesopt.gp_fit

        def spy(*args, **kwargs):
            gp = gp_fit(*args, **kwargs)
            scales.append(gp.y_std)
            return gp

        monkeypatch.setattr(bayesopt, "gp_fit", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("tune", "--config", cfg, "--set", "synthetic.n_queries=300",
                       "--set", f"weights.lambda2={lambda2}", "--out", tmp / "w") == code
        assert (len(scales) > 0) == (code == 0)
        assert all(math.isfinite(scale) and scale > 1e150 for scale in scales)


class TestNonFiniteConfig:
    """manifest.json records the whole config, so a NaN or an infinity in a
    section the command does not read is refused too: JSON cannot hold it."""

    @pytest.mark.parametrize("setting, message", [
        ("mlp.learning_rate=NaN", "mlp.learning_rate must be a finite number; got nan"),
        ("synthetic.tier_accuracy_profile=[[0.3,0.5,Infinity],[0.5,0.8,0.9]]",
         "synthetic.tier_accuracy_profile[0][2] must be a finite number; got inf"),
    ])
    def test_gen_exit_2(self, workdir, capsys, setting, message):
        tmp, cfg = workdir
        code = run("gen", "--config", cfg, "--set", "synthetic.n_queries=50",
                   "--set", setting, "--out", tmp / "g")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "g").exists()

    def test_stream_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        capsys.readouterr()
        code = run("stream", "--config", cfg, "--bundle", tmp / "b",
                   "--set", "labels.alpha=-Infinity", "--out", tmp / "s")
        assert code == 2
        assert "labels.alpha must be a finite number; got -inf" in capsys.readouterr().err
        assert not (tmp / "s").exists()


class TestBaseline:
    def test_clm_only_smoke(self, workdir):
        tmp, cfg = workdir
        assert run("baseline", "--config", cfg, "--policy", "clm-only",
                   "--out", tmp / "c") == 0
        report = json.loads((tmp / "c" / "baseline_cloud_only_report.json").read_text())
        assert report["totals"]["tier_fractions"]["cloud"] == 1.0

    def test_update_interval_past_int64_is_one_window(self, workdir):
        tmp, cfg = workdir
        for out, interval in (("top", 2**63 - 1), ("s", 10**20)):
            assert run("baseline", "--config", cfg, "--policy", "clm-only",
                       "--out", tmp / out, "--update-interval", interval) == 0
        assert_one_window_outputs(tmp / "top", tmp / "s", 10**20)

    def test_global_static_needs_taus(self, workdir, capsys):
        tmp, cfg = workdir
        code = run("baseline", "--config", cfg, "--policy", "global-static",
                   "--out", tmp / "g")
        assert code == 2
        assert "tau1" in capsys.readouterr().err

    def test_global_static_missing_bundle_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        code = run("baseline", "--config", cfg, "--policy", "global-static",
                   "--tau1", "0.7", "--tau2", "0.3", "--bundle", tmp / "nope", "--out", tmp / "g")
        assert code == 2
        assert f"{tmp / 'nope'}: missing bundle_manifest.json" in capsys.readouterr().err

    def test_tampered_predictor_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "predictor.ckpt"
        set_payload_entry(path, 20, payload_entry(path, 20) + 100.0)  # params[0], still finite
        capsys.readouterr()
        assert run("baseline", "--config", cfg, "--policy", "global-static", "--tau1", "0.8",
                   "--tau2", "0.4", "--bundle", tmp / "b", "--out", tmp / "g") == 2
        assert "checksum mismatch for predictor.ckpt" in capsys.readouterr().err
        assert not (tmp / "g" / "baseline_global_static_report.json").exists()

    def test_value_error_in_baseline_route_is_a_bug(self, workdir, monkeypatch):
        tmp, cfg = workdir

        def broken(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(cli, "baseline_route", broken)
        assert run("baseline", "--config", cfg, "--policy", "clm-only", "--out", tmp / "c") == 1

    # The payload holds input_mean (10), input_scale (10), then the parameters.
    @pytest.mark.parametrize("index, value, message", [
        (20, float("nan"), "params[0] is nan, not a finite number"),
        (3, float("inf"), "input_mean[3] is inf, not a finite number"),
        (12, 0.0, "input_scale[2] is 0.0; it must be positive"),
        (10, -1.5, "input_scale[0] is -1.5; it must be positive"),
    ])
    def test_bad_checkpoint_payload_exit_2(self, workdir, capsys, index, value, message):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "predictor.ckpt"
        set_payload_entry(path, index, value)
        rehash(tmp / "b", "predictor.ckpt")
        capsys.readouterr()
        assert run("baseline", "--config", cfg, "--policy", "global-static", "--tau1", "0.8",
                   "--tau2", "0.4", "--bundle", tmp / "b", "--out", tmp / "g") == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp / "g" / "baseline_global_static_report.json").exists()

    def test_infeasible_pair_is_config_error(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        code = run("baseline", "--config", cfg, "--policy", "global-static",
                   "--tau1", "0.3", "--tau2", "0.7", "--bundle", tmp / "b",
                   "--out", tmp / "g")
        assert code == 2


class TestSweep:
    def test_anchors_and_bounds(self, workdir):
        tmp, cfg = workdir
        assert run("sweep", "--config", cfg, "--kappa-grid", "1,5",
                   "--out", tmp / "sw", "--seed", 1) == 0
        lines = (tmp / "sw" / "pareto.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        by_policy = {r["policy"]: r for r in rows}
        assert float(by_policy["device_only"]["norm_latency"]) == 0.0
        assert float(by_policy["device_only"]["norm_cost"]) == 0.0
        assert float(by_policy["cloud_only"]["norm_latency"]) == pytest.approx(100.0)
        assert float(by_policy["cloud_only"]["norm_cost"]) == pytest.approx(100.0)
        assert "edge_only" in by_policy
        anchors_min = min(float(by_policy[p]["norm_latency"])
                          for p in ("device_only", "edge_only", "cloud_only"))
        for row in rows:
            assert anchors_min - 5.0 <= float(row["norm_latency"]) <= 105.0

    def test_zero_accuracy_span_reads_zero(self, workdir):
        # Every tier is always right, so cloud_only's accuracy equals device_only's.
        tmp, cfg = workdir
        assert run("sweep", "--config", cfg, "--kappa-grid", "1,5", "--out", tmp / "sw",
                   "--set", "synthetic.tier_accuracy_profile=[[1,1,1],[1,1,1]]") == 0
        lines = (tmp / "sw" / "pareto.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 5 and {row["accuracy"] for row in rows} == {"1.0"}
        assert [row["norm_score"] for row in rows] == ["0.0"] * 5
        assert rows[2]["norm_latency"] == rows[2]["norm_cost"] == "100.0"

    def test_deterministic(self, workdir):
        tmp, cfg = workdir
        assert run("sweep", "--config", cfg, "--kappa-grid", "2",
                   "--out", tmp / "s1", "--seed", 3) == 0
        assert run("sweep", "--config", cfg, "--kappa-grid", "2",
                   "--out", tmp / "s2", "--seed", 3) == 0
        assert ((tmp / "s1" / "pareto.csv").read_bytes()
                == (tmp / "s2" / "pareto.csv").read_bytes())


class TestManifests:
    def test_identical_manifest_identical_outputs(self, workdir):
        tmp, cfg = workdir
        for out in ("m1", "m2"):
            assert run("tune", "--config", cfg, "--out", tmp / out, "--seed", 11) == 0
        m1, m2 = tmp / "m1", tmp / "m2"
        assert ((m1 / "manifest.json").read_bytes() == (m2 / "manifest.json").read_bytes())
        for name in ("predictor.ckpt", "centroids.bin", "thresholds.json",
                     "observations.csv", "bundle_manifest.json"):
            assert (m1 / name).read_bytes() == (m2 / name).read_bytes()

    def test_stream_mode_recorded(self, workdir):
        # --online and --static set stream.online (the config file says true),
        # so the two modes' manifests differ there and in the config hash only.
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        manifests, policies = [], []
        for mode in ("online", "static"):
            assert run("stream", "--config", cfg, "--bundle", tmp / "b", "--out", tmp / mode,
                       f"--{mode}") == 0
            manifests.append(json.loads((tmp / mode / "manifest.json").read_text()))
            policies.append(json.loads((tmp / mode / "stream_report.json").read_text())["policy"])
        assert policies == ["router_online", "router_static"]
        assert [m["config"]["stream"]["online"] for m in manifests] == [True, False]
        assert manifests[0]["config_sha256"] != manifests[1]["config_sha256"]
        for m in manifests:
            del m["config"]["stream"]["online"], m["config_sha256"]
        assert manifests[0] == manifests[1]

    def test_baseline_policy_recorded(self, workdir):
        # --policy sets no config key; the manifest records it under args,
        # by the name of the policy that ran.
        tmp, cfg = workdir
        runs = {"clm-only": "cloud_only", "dlm-only": "device_only", "elm-only": "edge_only",
                "cloud-only": "cloud_only", "device-only": "device_only", "edge-only": "edge_only"}
        manifests = []
        for flag, policy in runs.items():
            assert run("baseline", "--config", cfg, "--policy", flag, "--out", tmp / flag) == 0
            assert (tmp / flag / f"baseline_{policy}_report.json").exists()
            manifests.append(json.loads((tmp / flag / "manifest.json").read_text()))
        assert [m["args"] for m in manifests] == [
            {"bundle": None, "policy": policy, "tau1": None, "tau2": None}
            for policy in runs.values()]
        for m in manifests:
            del m["args"]["policy"]
        assert all(m == manifests[0] for m in manifests)

    def test_flags_recorded_where_defined(self, workdir):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        assert "args" not in json.loads((tmp / "g" / "manifest.json").read_text())
        assert run("tune", "--config", cfg, "--out", tmp / "t", "--kappa-grid", "1,5") == 0
        assert json.loads((tmp / "t" / "manifest.json").read_text())["args"] == {
            "kappa_grid": "1,5"}

    def test_non_finite_flag_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        code = run("baseline", "--config", cfg, "--policy", "dlm-only", "--tau1", "nan",
                   "--out", tmp / "n")
        assert code == 2
        assert "--tau1 must be a finite number; got nan" in capsys.readouterr().err
        assert not (tmp / "n" / "manifest.json").exists()

    def test_unknown_scenario_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        code = run("baseline", "--config", cfg, "--policy", "clm-only",
                   "--set", 'network.scenario="lunar"', "--out", tmp / "x")
        assert code == 2

    def test_scenario_file_accepted(self, workdir):
        from tierroute.network import save_scenario, scenario_by_name

        tmp, cfg = workdir
        scn = tmp / "custom.jsonl"
        save_scenario(scenario_by_name("bad"), scn)
        code = run("baseline", "--config", cfg, "--policy", "clm-only",
                   "--network", scn, "--out", tmp / "y")
        assert code == 0


def assert_refused(capsys, out, *argv, names=()):
    """``argv --out out`` exits 2 with an error naming each of ``names``, and
    leaves no file in ``out``."""
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and all(str(name) in err for name in names), err
    assert not [path for path in out.rglob("*") if path.is_file()]


def edit_record(src, dst, edit):
    """Copy the trace ``src`` to ``dst`` with ``edit`` applied to its fourth
    record; returns that record's id."""
    lines = src.read_text().splitlines(keepends=True)
    record = json.loads(lines[4])
    edit(record)
    lines[4] = json.dumps(record) + "\n"
    dst.write_text("".join(lines))
    return record["id"]


def null_cloud_correct(record):
    record["has_reference"] = False
    record["tier_info"]["cloud"]["correct"] = None


def drop_edge_judge(record):
    record["has_reference"] = False
    del record["judge_edge"]


def rename_tiers(record):
    record["tier_info"] = dict(zip("abc", record["tier_info"].values()))


class TestRefusedInputs:
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_exit_2(self, workdir, capsys, below):
        tmp, cfg = workdir
        (tmp / "f").write_text("x")
        out = tmp / "f" / below
        assert run("gen", "--config", cfg, "--out", out) == 2
        assert (f"run.output_dir {str(out)!r}: cannot make the directory"
                in capsys.readouterr().err)
        assert (tmp / "f").read_text() == "x"

    @pytest.mark.parametrize("out, named", [(False, "$TIERROUTE_OUT"), (True, "run.output_dir")])
    def test_env_out_naming_a_file_exit_2(self, workdir, capsys, monkeypatch, out, named):
        # The message names the setting that gave the path: the variable, or --out over it.
        tmp, cfg = workdir
        (tmp / "f").write_text("x")
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp / "f"))
        monkeypatch.chdir(tmp)
        assert run("gen", "--config", cfg, *(["--out", tmp / "f"] if out else [])) == 2
        err = capsys.readouterr().err
        assert f"error: {named} {str(tmp / 'f')!r}: cannot make the directory (File exists)" in err
        assert sorted(path.name for path in tmp.iterdir()) == ["cfg.jsonl", "f"]
        assert (tmp / "f").read_text() == "x"

    @pytest.mark.parametrize("command, edit, message", [
        *(pytest.param(command, null_cloud_correct, "missing correct bit for tier cloud",
                       id=f"{command}-null_correct") for command in ("stream", "baseline", "tune")),
        pytest.param("train", lambda record: record.pop("sim_cloud"),
                     "missing sim_cloud or sim_edge", id="train-no_sim_cloud"),
        pytest.param("tune", drop_edge_judge, "no reference and no judge score for tier edge",
                     id="tune-no_judge_edge"),
    ])
    def test_record_errors_name_the_trace(self, workdir, capsys, command, edit, message):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        path = tmp / "edited.jsonl"
        rid = edit_record(tmp / "g" / "trace.jsonl", path, edit)
        argv = [command, "--config", cfg, "--trace", path]
        if command == "stream":
            assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
            argv += ["--bundle", tmp / "b"]
        elif command == "baseline":
            argv += ["--policy", "clm-only"]
        assert_refused(capsys, tmp / "o", *argv, names=[f"{path}: record {rid!r}: {message}"])

    def test_tier_info_without_the_tiers_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        path = tmp / "edited.jsonl"
        edit_record(tmp / "g" / "trace.jsonl", path, rename_tiers)
        assert_refused(capsys, tmp / "o", "baseline", "--config", cfg, "--trace", path,
                       "--policy", "clm-only",
                       names=[f"{path}: line 5: ", "tier_info must hold exactly device, edge"])

    def test_other_bundle_format_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "bundle_manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "format": "other"}))
        assert_refused(capsys, tmp / "o", "stream", "--config", cfg, "--bundle", tmp / "b",
                       names=[f"{path}: format must be 'tierroute-bundle-v1'; got 'other'"])

    def test_cost_model_tier_missing_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "b") == 0
        path = tmp / "b" / "state.json"
        obj = json.loads(path.read_text())
        del obj["cost_model"]["edge"]
        path.write_text(json.dumps(obj))
        rehash(tmp / "b", "state.json")
        assert_refused(capsys, tmp / "o", "stream", "--config", cfg, "--bundle", tmp / "b",
                       names=[f"{path}: cost_model.edge must be a finite number; got nothing"])

    def test_config_line_without_section_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        cfg.write_text(SMALL_CONFIG + '{"mlp": {"max_epochs": 3}}\n')
        assert_refused(capsys, tmp / "o", "gen", "--config", cfg,
                       names=[f"{cfg}: line 6: expected an object with a 'section' key"])

    @pytest.mark.parametrize("setting, message", [
        pytest.param("mlp", "--set expects section.key=VALUE, got 'mlp'", id="no_equals"),
        pytest.param("max_epochs=3", "--set key must look like section.key, got 'max_epochs'",
                     id="no_dot"),
    ])
    def test_malformed_set_exit_2(self, workdir, capsys, setting, message):
        tmp, cfg = workdir
        assert_refused(capsys, tmp / "o", "gen", "--config", cfg, "--set", setting,
                       names=[message])

    def test_trace_and_synthetic_section_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        assert_refused(capsys, tmp / "o", "baseline", "--config", cfg, "--policy", "clm-only",
                       "--set", f"run.trace={tmp / 'g' / 'trace.jsonl'}",
                       names=["run.trace and a synthetic section both give a trace"])

    def test_no_trace_exit_2(self, tmp_path, capsys):
        assert_refused(capsys, tmp_path / "o", "baseline", "--policy", "clm-only",
                       names=["no trace: set run.trace or a synthetic section"])

    def test_global_static_without_bundle_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        assert_refused(capsys, tmp / "o", "baseline", "--config", cfg, "--policy",
                       "global-static", "--tau1", "0.7", "--tau2", "0.3",
                       names=["global-static needs --bundle"])


class TestDocumentedBehaviour:
    def test_only_the_sections_a_command_reads_are_checked(self, workdir):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--set", 'cluster.restarts="x"',
                   "--set", "mlp.hidden_dims=7", "--out", tmp / "o") == 0
        config = json.loads((tmp / "o" / "manifest.json").read_text())["config"]
        assert config["cluster"]["restarts"] == "x" and config["mlp"]["hidden_dims"] == 7

    def test_bare_string_set_value(self, workdir):
        tmp, cfg = workdir
        assert run("baseline", "--config", cfg, "--policy", "clm-only",
                   "--set", "network.scenario=bad", "--out", tmp / "o") == 0
        manifest = json.loads((tmp / "o" / "manifest.json").read_text())
        assert manifest["config"]["network"]["scenario"] == "bad"

    def test_gen_without_synthetic_section(self, tmp_path):
        assert run("gen", "--out", tmp_path) == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 2000 and json.loads(lines[0])["embedding_dim"] == 32
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["synthetic"] == {}

    def test_cluster_without_members_keeps_the_neutral_pair(self, workdir):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
        lines = (tmp / "g" / "trace.jsonl").read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            record["embedding"] = records[0]["embedding"]
        trace = tmp / "equal.jsonl"
        trace.write_text(lines[0] + "".join(json.dumps(r) + "\n" for r in records))
        assert run("tune", "--config", cfg, "--trace", trace, "--set", "cluster.fixed_k=2",
                   "--out", tmp / "b") == 0
        assert json.loads((tmp / "b" / "thresholds.json").read_text())["1"] == {
            "tau1": 0.75, "tau2": 0.25}
        state = router.load_bundle(tmp / "b")
        assert len(state.observations[1]) == 0 and len(state.observations[0]) > 0
        for mode in ("--online", "--static"):
            assert run("stream", "--config", cfg, "--trace", trace, "--bundle", tmp / "b",
                       mode, "--out", tmp / mode.lstrip("-")) == 0


def test_library_and_cli_defaults_agree():
    """Each default is stated once: DEFAULT_CONFIG takes the cluster section from
    ClusterConfig, and every keyword default of the interval, the BO seed points
    and the k-means restarts equals the CLI's."""
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    assert (json.dumps(cli.DEFAULT_CONFIG["cluster"], sort_keys=True)
            == json.dumps(dataclasses.asdict(ClusterConfig()), sort_keys=True))
    assert default(router.fit_representation, "cluster") == ClusterConfig()
    interval = cli.DEFAULT_CONFIG["stream"]["update_interval"]
    assert (default(router.tune_thresholds, "update_interval")
            == default(router.baseline_route, "window_size") == interval)
    seed_points = cli.DEFAULT_CONFIG["bo"]["seed_points"]
    assert (default(router.tune_thresholds, "seed_points")
            == default(bayesopt.optimize_offline, "seed_points") == seed_points)
    assert (default(cluster.kmeans_fit, "restarts") == default(cluster.elbow_sweep, "restarts")
            == ClusterConfig.restarts)
    assert (default(cluster.elbow_sweep, "k_min"), default(cluster.elbow_sweep, "k_max")) == (
        ClusterConfig.k_min, ClusterConfig.k_max)
