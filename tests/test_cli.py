import json
import struct
import warnings

import pytest

from helpers import rehash
from tierroute import cli, router
from tierroute.cli import main

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

    @pytest.mark.parametrize("setting", ["synthetic.n_queries=0",
                                         "synthetic.reference_fraction=1.5"])
    def test_invalid_synthetic_config_exit_2(self, workdir, capsys, setting):
        tmp, cfg = workdir
        assert run("gen", "--config", cfg, "--out", tmp / "g", "--set", setting) == 2
        assert "bad synthetic config" in capsys.readouterr().err

    def test_drift_trace(self, workdir):
        tmp, cfg = workdir
        code = run("gen", "--config", cfg, "--out", tmp / "g",
                   "--set", 'synthetic.drift_at=0.5',
                   "--set", 'synthetic.drift_tier_accuracy_profile=[[0.1,0.5,0.9],[0.2,0.6,0.95]]')
        assert code == 0
        from tierroute.trace import load_trace
        trace = load_trace(tmp / "g" / "trace.jsonl")
        assert trace.metadata["drift_at_record"] == 200


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
        code = run("tune", "--config", cfg, "--out", tmp / "b",
                   "--set", f"cluster.restarts={value}")
        assert code == 2
        assert "cluster.restarts must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp / "b" / "thresholds.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("cluster.fixed_k", "0"), ("cluster.fixed_k", '"2"'), ("cluster.fixed_k", "2.5"),
        ("cluster.k_min", "2.7"), ("cluster.k_max", '"4"'), ("bo.seed_points", "0"),
    ])
    def test_integer_fields_checked(self, workdir, capsys, key, value):
        tmp, cfg = workdir
        code = run("tune", "--config", cfg, "--out", tmp / "b", "--set", f"{key}={value}")
        assert code == 2
        assert f"{key} must be an integer >= 1; got" in capsys.readouterr().err
        assert not (tmp / "b" / "thresholds.json").exists()

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
         "network.switch_window must be an integer; got 2.5"),
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
        out = tmp / "o"
        assert run(command, "--config", cfg, "--out", out, "--set", setting) == 2
        assert message in capsys.readouterr().err
        assert not (out / "thresholds.json").exists() and not (out / "trace.jsonl").exists()

    @pytest.mark.parametrize("grid, named", [("1,x", "'x'"), ("1,0", "kappas must be positive"),
                                             ("inf", "'inf'"), ("1_0", "'1_0'")])
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
        argv = ["sweep", "--config", cfg, "--out", tmp / "sw", "--kappa-grid", "1"]
        for setting in settings:
            argv += ["--set", setting]
        assert run(*argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp / "sw" / "pareto.csv").exists()

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
        capsys.readouterr()
        code = run("stream", "--config", cfg, "--bundle", tmp / "b",
                   "--out", tmp / "s", *flag)
        assert code == 2
        assert f"got {flag[1].rpartition('=')[2]}" in capsys.readouterr().err

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


class TestBaseline:
    def test_clm_only_smoke(self, workdir):
        tmp, cfg = workdir
        assert run("baseline", "--config", cfg, "--policy", "clm-only",
                   "--out", tmp / "c") == 0
        report = json.loads((tmp / "c" / "baseline_cloud_only_report.json").read_text())
        assert report["totals"]["tier_fractions"]["cloud"] == 1.0

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
