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

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import TraceFormatError
from .fields import MISSING, read, typed
from .formats import read_json_lines, write_json_lines
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
        if self.switch_at is not None and self.switch_at < 0:
            raise ValueError(f"switch_at must be >= 0; got {self.switch_at}")


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


# Scenario file lines by (tier, phase), and the NetworkScenario field each sets.
_LINK_FIELDS = {("edge", "pre"): "edge", ("cloud", "pre"): "cloud",
                ("edge", "post"): "edge_after", ("cloud", "post"): "cloud_after"}


def save_scenario(scenario: NetworkScenario, path: str | Path) -> None:
    header: dict = {"name": scenario.name}
    if scenario.switch_at is not None:
        header["switch_at"] = scenario.switch_at
    write_json_lines(path, [header] + [
        {"tier": tier, "phase": phase, **asdict(getattr(scenario, name))}
        for (tier, phase), name in _LINK_FIELDS.items()
        if phase == "pre" or scenario.switch_at is not None])


def load_scenario(path: str | Path) -> NetworkScenario:
    path, error = Path(path), TraceFormatError
    objs = read_json_lines(path, error)
    if not objs:
        raise error(f"{path}: empty scenario file")
    links = dict.fromkeys(_LINK_FIELDS.values())
    for where, obj in objs[1:]:
        tier = typed(obj.get("tier", MISSING), str, f"{where}: tier", error)
        phase = typed(obj.get("phase", "pre"), str, f"{where}: phase", error)
        if (tier, phase) not in _LINK_FIELDS:
            raise error(f"{where}: tier must be edge or cloud and phase pre or post; "
                        f"got {tier!r} and {phase!r}")
        links[_LINK_FIELDS[tier, phase]] = read(LinkProfile, obj, f"{where}: {tier}", error=error)
    for tier in ("edge", "cloud"):
        if links[tier] is None:
            raise error(f"{path}: scenario has no line for tier {tier}, phase pre")
    where, header = objs[0]
    return read(NetworkScenario, {"name": path.stem, **header}, f"{where}: header", error=error,
                **links)
