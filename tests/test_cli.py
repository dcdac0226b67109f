import json

import pytest

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
        assert run("tune", "--config", cfg, "--out", tmp / "k", "--kappa-grid", "1,5") == 0
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

    def test_parallel_clusters_matches_serial(self, workdir):
        tmp, cfg = workdir
        assert run("tune", "--config", cfg, "--out", tmp / "serial", "--seed", 4) == 0
        assert run("tune", "--config", cfg, "--out", tmp / "par", "--seed", 4,
                   "--parallel-clusters") == 0
        assert ((tmp / "serial" / "thresholds.json").read_text()
                == (tmp / "par" / "thresholds.json").read_text())


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
