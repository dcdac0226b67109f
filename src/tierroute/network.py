"""Deterministic network latency model for device-to-edge and device-to-cloud links.

Each link is parameterized by bandwidth, packet loss rate, one-way delays, and
DNS delay. A round trip costs the fixed delays plus serialization time, with
packet loss modeled as an expected-retransmission throughput divisor, keeping
the simulator deterministic:

    latency = dns + oneway_up + oneway_down
              + request_bits / (uplink_bps * (1 - loss))
              + response_bits / (downlink_bps * (1 - loss))

Scenario files use the traces' line-delimited convention: a header object
({"name": ..., "switch_at": ...}) followed by one line per link with
``tier`` (edge/cloud), ``phase`` (pre/post), and the LinkProfile fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import TraceFormatError
from .trace import TierId


@dataclass(frozen=True)
class LinkProfile:
    downlink_kbps: float
    uplink_kbps: float
    loss_rate: float
    oneway_down_ms: float
    oneway_up_ms: float
    dns_ms: float

    def __post_init__(self) -> None:
        if self.downlink_kbps <= 0 or self.uplink_kbps <= 0:
            raise ValueError("bandwidths must be positive")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("loss_rate must lie in [0, 1)")
        if min(self.oneway_down_ms, self.oneway_up_ms, self.dns_ms) < 0:
            raise ValueError("delays must be >= 0")


@dataclass(frozen=True)
class NetworkScenario:
    name: str
    edge: LinkProfile
    cloud: LinkProfile
    switch_at: int | None = None
    edge_after: LinkProfile | None = None
    cloud_after: LinkProfile | None = None

    def __post_init__(self) -> None:
        if self.switch_at is not None and (self.edge_after is None or self.cloud_after is None):
            raise ValueError("a switching scenario needs post-switch edge and cloud profiles")


GOOD_EDGE = LinkProfile(downlink_kbps=10_000, uplink_kbps=5_000, loss_rate=0.001,
                        oneway_down_ms=40, oneway_up_ms=20, dns_ms=50)
GOOD_CLOUD = LinkProfile(downlink_kbps=8_000, uplink_kbps=4_000, loss_rate=0.001,
                         oneway_down_ms=80, oneway_up_ms=40, dns_ms=70)
BAD_EDGE = LinkProfile(downlink_kbps=2_000, uplink_kbps=500, loss_rate=0.01,
                       oneway_down_ms=120, oneway_up_ms=80, dns_ms=200)
BAD_CLOUD = LinkProfile(downlink_kbps=800, uplink_kbps=200, loss_rate=0.03,
                        oneway_down_ms=250, oneway_up_ms=200, dns_ms=400)

DEFAULT_SWITCH_WINDOW = 7


def builtin_profiles(switch_at: int = DEFAULT_SWITCH_WINDOW) -> dict[str, NetworkScenario]:
    """The good, bad, and bad-to-good scenarios with their measured link parameters."""
    return {
        "good": NetworkScenario(name="good", edge=GOOD_EDGE, cloud=GOOD_CLOUD),
        "bad": NetworkScenario(name="bad", edge=BAD_EDGE, cloud=BAD_CLOUD),
        "bad2good": NetworkScenario(name="bad2good", edge=BAD_EDGE, cloud=BAD_CLOUD,
                                    switch_at=switch_at,
                                    edge_after=GOOD_EDGE, cloud_after=GOOD_CLOUD),
    }


def scenario_by_name(name: str, switch_at: int = DEFAULT_SWITCH_WINDOW) -> NetworkScenario:
    profiles = builtin_profiles(switch_at)
    if name not in profiles:
        raise ValueError(f"unknown network scenario {name!r}; choose from {sorted(profiles)}")
    return profiles[name]


def with_switch_window(scenario: NetworkScenario, switch_at: int) -> NetworkScenario:
    if scenario.switch_at is None:
        return scenario
    return replace(scenario, switch_at=switch_at)


def round_trip_latency(link: LinkProfile, request_bytes, response_bytes):
    """End-to-end network seconds per request/response exchange (elementwise)."""
    if np.any(np.less(request_bytes, 0)) or np.any(np.less(response_bytes, 0)):
        raise ValueError("byte counts must be >= 0")
    effective = 1.0 - link.loss_rate
    fixed = (link.dns_ms + link.oneway_up_ms + link.oneway_down_ms) / 1000.0
    up = (request_bytes * 8.0) / (link.uplink_kbps * 1000.0 * effective)
    down = (response_bytes * 8.0) / (link.downlink_kbps * 1000.0 * effective)
    return fixed + up + down


def scenario_link(scenario: NetworkScenario, tier: TierId, window_index: int) -> LinkProfile:
    """Link profile in force for a tier at a given stream window."""
    if tier == TierId.DEVICE:
        raise ValueError("the device tier has no network link")
    switched = scenario.switch_at is not None and window_index >= scenario.switch_at
    if tier == TierId.EDGE:
        return scenario.edge_after if switched else scenario.edge
    return scenario.cloud_after if switched else scenario.cloud


def save_scenario(scenario: NetworkScenario, path: str | Path) -> None:
    header: dict = {"name": scenario.name}
    if scenario.switch_at is not None:
        header["switch_at"] = scenario.switch_at
    lines = [json.dumps(header, sort_keys=True)]
    links = [("edge", "pre", scenario.edge), ("cloud", "pre", scenario.cloud)]
    if scenario.switch_at is not None:
        links += [("edge", "post", scenario.edge_after),
                  ("cloud", "post", scenario.cloud_after)]
    for tier, phase, link in links:
        obj = {"tier": tier, "phase": phase, **asdict(link)}
        lines.append(json.dumps(obj, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scenario(path: str | Path) -> NetworkScenario:
    path = Path(path)
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError(f"{path}: empty scenario file")
    try:
        header = json.loads(lines[0])
        links: dict[tuple[str, str], LinkProfile] = {}
        for line in lines[1:]:
            obj = json.loads(line)
            tier = obj.pop("tier")
            phase = obj.pop("phase", "pre")
            links[(tier, phase)] = LinkProfile(**obj)
        return NetworkScenario(
            name=str(header.get("name", path.stem)),
            edge=links[("edge", "pre")],
            cloud=links[("cloud", "pre")],
            switch_at=header.get("switch_at"),
            edge_after=links.get(("edge", "post")),
            cloud_after=links.get(("cloud", "post")),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: bad scenario file ({exc})") from exc
