import itertools
import json

import pytest

from tierroute.errors import TraceFormatError
from tierroute.network import (
    BAD_CLOUD,
    BAD_EDGE,
    GOOD_CLOUD,
    GOOD_EDGE,
    LinkProfile,
    NetworkScenario,
    builtin_profiles,
    load_scenario,
    round_trip_latency,
    save_scenario,
    scenario_by_name,
    scenario_link,
)
from tierroute.trace import TierId


class TestBuiltinProfiles:
    def test_good_edge_fields(self):
        p = builtin_profiles()["good"].edge
        assert p == LinkProfile(downlink_kbps=10_000, uplink_kbps=5_000, loss_rate=0.001,
                                oneway_down_ms=40, oneway_up_ms=20, dns_ms=50)

    def test_good_cloud_fields(self):
        p = builtin_profiles()["good"].cloud
        assert p == LinkProfile(downlink_kbps=8_000, uplink_kbps=4_000, loss_rate=0.001,
                                oneway_down_ms=80, oneway_up_ms=40, dns_ms=70)

    def test_bad_edge_fields(self):
        p = builtin_profiles()["bad"].edge
        assert p == LinkProfile(downlink_kbps=2_000, uplink_kbps=500, loss_rate=0.01,
                                oneway_down_ms=120, oneway_up_ms=80, dns_ms=200)

    def test_bad_cloud_fields(self):
        p = builtin_profiles()["bad"].cloud
        assert p == LinkProfile(downlink_kbps=800, uplink_kbps=200, loss_rate=0.03,
                                oneway_down_ms=250, oneway_up_ms=200, dns_ms=400)

    def test_bad2good_composes_both(self):
        s = builtin_profiles()["bad2good"]
        assert s.edge == BAD_EDGE and s.cloud == BAD_CLOUD
        assert s.edge_after == GOOD_EDGE and s.cloud_after == GOOD_CLOUD
        assert s.switch_at == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown network scenario"):
            scenario_by_name("excellent")


class TestRoundTripLatency:
    def test_zero_payload_good_edge(self):
        assert round_trip_latency(GOOD_EDGE, 0, 0) == pytest.approx(0.110, abs=1e-12)

    def test_bad_cloud_with_payload(self):
        got = round_trip_latency(BAD_CLOUD, 1000, 4000)
        expected = 0.400 + 0.200 + 0.250 + 8000 / (200_000 * 0.97) + 32000 / (800_000 * 0.97)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.932474, abs=1e-6)

    def test_zero_loss_removes_divisor(self):
        lossless = LinkProfile(downlink_kbps=1000, uplink_kbps=1000, loss_rate=0.0,
                               oneway_down_ms=10, oneway_up_ms=10, dns_ms=10)
        got = round_trip_latency(lossless, 1250, 2500)
        assert got == pytest.approx(0.030 + 0.010 + 0.020, abs=1e-12)

    def test_monotonicity_grid(self):
        base = dict(downlink_kbps=2000.0, uplink_kbps=1000.0, loss_rate=0.01,
                    oneway_down_ms=50.0, oneway_up_ms=25.0, dns_ms=40.0)
        payloads = [(0, 0), (100, 400), (5000, 20000)]
        for req, resp in payloads:
            ref = round_trip_latency(LinkProfile(**base), req, resp)
            # Nondecreasing in payloads, loss, and delays.
            assert round_trip_latency(LinkProfile(**base), req + 100, resp) >= ref
            assert round_trip_latency(LinkProfile(**base), req, resp + 100) >= ref
            worse = dict(base)
            worse["loss_rate"] = 0.05
            assert round_trip_latency(LinkProfile(**worse), req, resp) >= ref
            worse = dict(base)
            worse["dns_ms"] = 100.0
            assert round_trip_latency(LinkProfile(**worse), req, resp) >= ref
            # Nonincreasing in each bandwidth.
            faster = dict(base)
            faster["downlink_kbps"] = 4000.0
            assert round_trip_latency(LinkProfile(**faster), req, resp) <= ref
            faster = dict(base)
            faster["uplink_kbps"] = 2000.0
            assert round_trip_latency(LinkProfile(**faster), req, resp) <= ref

    def test_bad_dominates_good_on_payload_grid(self):
        for req, resp in itertools.product([0, 200, 2000, 20000], repeat=2):
            assert (round_trip_latency(BAD_EDGE, req, resp)
                    >= round_trip_latency(GOOD_EDGE, req, resp))
            assert (round_trip_latency(BAD_CLOUD, req, resp)
                    >= round_trip_latency(GOOD_CLOUD, req, resp))

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            round_trip_latency(GOOD_EDGE, -1, 0)


class TestScenarioLink:
    def test_pre_switch_window_uses_bad(self):
        s = scenario_by_name("bad2good", switch_at=7)
        assert scenario_link(s, TierId.EDGE, 3) == BAD_EDGE

    def test_post_switch_window_uses_good(self):
        s = scenario_by_name("bad2good", switch_at=7)
        assert scenario_link(s, TierId.CLOUD, 9) == GOOD_CLOUD
        assert scenario_link(s, TierId.CLOUD, 7) == GOOD_CLOUD

    def test_constant_scenario_ignores_window(self):
        s = scenario_by_name("good")
        for window in (0, 5, 100):
            assert scenario_link(s, TierId.EDGE, window) == GOOD_EDGE

    def test_device_tier_rejected(self):
        with pytest.raises(ValueError, match="device"):
            scenario_link(scenario_by_name("good"), TierId.DEVICE, 0)

    def test_switch_requires_post_profiles(self):
        with pytest.raises(ValueError, match="post-switch"):
            NetworkScenario(name="x", edge=GOOD_EDGE, cloud=GOOD_CLOUD, switch_at=3)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LinkProfile(downlink_kbps=100, uplink_kbps=100, loss_rate=1.0,
                        oneway_down_ms=1, oneway_up_ms=1, dns_ms=1)


class TestScenarioFiles:
    def test_round_trip_constant_scenario(self, tmp_path):
        path = tmp_path / "good.jsonl"
        save_scenario(scenario_by_name("good"), path)
        loaded = load_scenario(path)
        assert loaded == scenario_by_name("good")

    def test_round_trip_switching_scenario(self, tmp_path):
        path = tmp_path / "b2g.jsonl"
        save_scenario(scenario_by_name("bad2good", switch_at=4), path)
        loaded = load_scenario(path)
        assert loaded.switch_at == 4
        assert loaded.edge == BAD_EDGE and loaded.edge_after == GOOD_EDGE

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\n{"tier": "edge"}\n')
        with pytest.raises(TraceFormatError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"{path}: line 2: edge.downlink_kbps must be a finite number; got nothing")


def edited_scenario(tmp_path, line, key, value):
    """A bad2good scenario file whose ``line`` (1 is the header) has ``key``
    set to the raw JSON text ``value``, or removed when ``value`` is None."""
    path = tmp_path / "scn.jsonl"
    save_scenario(scenario_by_name("bad2good", switch_at=4), path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line - 1])
    if value is None:
        del lines[line - 1]
    else:
        obj[key] = "@"
        lines[line - 1] = json.dumps(obj).replace('"@"', value)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestScenarioFields:
    """Every scenario value is type-checked; an error names the file, the line and the key."""

    @pytest.mark.parametrize("line, key, value, message", [
        (2, "dns_ms", "1e999", "line 2: edge.dns_ms must be a finite number; got inf"),
        (3, "uplink_kbps", '"5000"',
         "line 3: cloud.uplink_kbps must be a finite number; got '5000'"),
        (4, "loss_rate", "true", "line 4: edge.loss_rate must be a finite number"),
        (1, "switch_at", "2.5", "line 1: header.switch_at must be an integer; got 2.5"),
        (1, "switch_at", '"7"', "line 1: header.switch_at must be an integer; got '7'"),
        (1, "switch_at", "-3", "line 1: header: switch_at must be >= 0; got -3"),
        (1, "name", "[]", "line 1: header.name must be a string; got []"),
        (2, "tier", '"fog"', "line 2: tier must be edge or cloud"),
        (3, None, None, "scenario has no line for tier cloud, phase pre"),
    ])
    def test_bad_value_named(self, tmp_path, line, key, value, message):
        path = edited_scenario(tmp_path, line, key, value)
        with pytest.raises(TraceFormatError) as info:
            load_scenario(path)
        assert f"{path}: {message}" in str(info.value)

    def test_integers_read_as_floats(self, tmp_path):
        path = edited_scenario(tmp_path, 2, "dns_ms", "200")
        loaded = load_scenario(path)
        assert type(loaded.edge.dns_ms) is float and loaded.edge == BAD_EDGE
        assert type(loaded.switch_at) is int
