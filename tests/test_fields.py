"""The typed reader, and a fuzz of every input file through it.

The fuzz mutates one value of a valid trace, config, scenario or bundle file
(replaces it with a value of another JSON type, deletes it or adds a key),
rewrites the bundle's manifest hashes so that the content checks run, and
calls the loaders and materializers directly. Each mutation must either load
with correctly typed values or raise a TierRouteError naming the file (the
config section, for a config). Any other exception fails the test.
"""

import argparse
import dataclasses
import json
import math
import shutil
import typing
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import build_state, rehash
from tierroute import cli
from tierroute.errors import ConfigError, TierRouteError
from tierroute.fields import cell, read, typed
from tierroute.network import load_scenario, save_scenario, scenario_by_name
from tierroute.router import load_bundle, save_bundle
from tierroute.trace import SyntheticConfig, generate_synthetic_trace, load_trace, save_trace


@dataclass(frozen=True)
class Sample:
    count: int
    rate: float = 0.5
    flag: bool = True
    name: str | None = None
    pair: tuple[int, float] = (1, 2.0)
    rows: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


class TestTyped:
    @pytest.mark.parametrize("value, hint", [
        (True, int), (1.0, int), ("1", int), (None, int), (True, float), ("0.5", float),
        (math.inf, float), (-math.inf, float), (math.nan, float), (10**400, float),
        (0, bool), ("true", bool), (5, str), ([1], dict), ((1, 2), tuple[int, int]),
        ([1], tuple[int, int]), ([1, 2.5], tuple[int, int]), ([[1.0]], tuple[float, ...]),
    ])
    def test_rejected_with_name(self, value, hint):
        with pytest.raises(ConfigError, match="^sec.key"):
            typed(value, hint, "sec.key", ConfigError)

    def test_float_field_holds_a_float(self):
        assert type(typed(1, float, "k", ConfigError)) is float
        assert typed(10**300, float, "k", ConfigError) == 1e300

    def test_optional_tuple_and_minimum(self):
        assert typed(None, int | None, "k", ConfigError, minimum=1) is None
        assert typed([[1, 2]], tuple[tuple[float, float], ...], "k", ConfigError) == ((1.0, 2.0),)
        with pytest.raises(ConfigError, match="k must be an integer >= 1; got 0"):
            typed(0, int | None, "k", ConfigError, minimum=1)

    def test_cell_names_the_text(self):
        assert cell("3", int, "c", ConfigError) == 3
        for text in ("inf", "1.5", "", None):
            with pytest.raises(ConfigError, match=f"c must be an integer; got {text!r}"):
                cell(text, int, "c", ConfigError)


class TestRead:
    def test_schema_from_the_declaration(self):
        got = read(Sample, {"count": 2, "rate": 1, "pair": [3, 4], "rows": [[1, 2]],
                            "unknown": "ignored"}, "s", error=ConfigError)
        assert got == Sample(count=2, rate=1.0, pair=(3, 4.0), rows=((1.0, 2.0),))
        assert type(got.rate) is float and type(got.pair[1]) is float

    def test_absent_required_field(self):
        with pytest.raises(ConfigError, match="s.count must be an integer; got nothing"):
            read(Sample, {}, "s", error=ConfigError)

    def test_given_fields_come_from_the_program(self):
        assert read(Sample, {"count": "x"}, "s", error=ConfigError, count=3).count == 3

    def test_dataclass_value_error_named(self):
        with pytest.raises(ConfigError, match="^s: count must be >= 0$"):
            read(Sample, {"count": -1}, "s", error=ConfigError)

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match=r"s must be a JSON object; got \[1\]"):
            read(Sample, [1], "s", error=ConfigError)


# ---------------------------------------------------------------------------
# Fuzz
# ---------------------------------------------------------------------------

NASTY = [None, True, False, 0, -1, 1, 3, 2.5, -0.0, 1e308, math.inf, -math.inf, math.nan,
         10**30, "", "x", "7", "0.5", [], [1.5], [[1, 2, 3]], {}, {"a": 1}]
NASTY_TEXT = ["", "x", "nan", "inf", "-1", "1.5", "99", "1e999", "0x1", " 2 "]
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def paths(obj, prefix=()):
    """Every path to a value inside a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutate(data, obj):
    """Replace or delete one value inside ``obj``, or add an unknown key to an
    object in it; returns the mutated copy."""
    obj = json.loads(json.dumps(obj))
    path = data.draw(st.sampled_from(sorted(paths(obj), key=repr)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "replace", "delete", "add"]))
    if action == "add" and isinstance(parent, dict):
        parent["unknown_key"] = data.draw(st.sampled_from(NASTY))
    elif action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(NASTY))
    return obj


def conforms(value, hint) -> bool:
    """Whether ``value`` has exactly the type ``hint`` names."""
    if typing.get_origin(hint) in (typing.Union, type(int | None)):
        return value is None or conforms(value, typing.get_args(hint)[0])
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return (type(value) is tuple and len(value) == len(args)
                and all(conforms(v, a) for v, a in zip(value, args)))
    if hint is float:
        return type(value) is float and math.isfinite(value)
    return type(value) is hint


def conforming(obj) -> bool:
    """Whether every field of a dataclass built from outside values has its hinted type."""
    hints = typing.get_type_hints(type(obj))
    return all(conforms(getattr(obj, f.name), hints[f.name])
               for f in dataclasses.fields(obj) if hints[f.name] in (int, float, bool, str)
               or typing.get_origin(hints[f.name]) not in (None, dict))


def expect_typed_or_named(load, named):
    """``load()``'s result, or None when it raised a TierRouteError naming ``named``."""
    try:
        return load()
    except TierRouteError as exc:
        assert named in str(exc), str(exc)
        return None


@pytest.fixture(scope="module")
def tiny_trace():
    trace, _ = generate_synthetic_trace(SyntheticConfig(n_queries=60, embedding_dim=4,
                                                        n_latent_clusters=2, seed=3))
    return trace


def test_fuzz_trace(tiny_trace, tmp_path_factory):
    base = tmp_path_factory.mktemp("trace")
    save_trace(tiny_trace.subset(slice(0, 3)), base / "t.jsonl")
    lines = (base / "t.jsonl").read_text().splitlines()

    @FUZZ
    @given(st.data())
    def check(data):
        edited = list(lines)
        i = data.draw(st.integers(0, len(lines) - 1))
        edited[i] = json.dumps(mutate(data, json.loads(lines[i])))
        path = base / "mutated.jsonl"
        path.write_text("\n".join(edited) + "\n")
        trace = expect_typed_or_named(lambda: load_trace(path), str(path))
        if trace is not None:
            assert all(type(rid) is str for rid in trace.ids)
            assert type(trace.prompt_text) is str and type(trace.metadata) is dict
            assert trace.embeddings.dtype == np.float64 and trace.correct.dtype == np.int8
            trace.validate()

    check()


FUZZ_CONFIG = {
    "run": {"seed": 4},
    "synthetic": {"n_queries": 50, "embedding_dim": 4, "n_latent_clusters": 2,
                  "tier_accuracy_profile": [[0.3, 0.5, 0.9], [0.6, 0.7, 0.9]],
                  "prompt_token_range": [10, 20], "seed": None},
    "labels": {"alpha": 0.5, "beta": 0.5},
    "mlp": {"hidden_dims": [8], "learning_rate": 0.003, "batch_size": 16},
    "cluster": {"k_min": 2, "k_max": 4, "fixed_k": None, "restarts": 2},
    "bo": {"offline_budget": 5, "seed_points": 3},
    "weights": {"lambda1": 1.0, "lambda2": 0.2, "lambda3": 0.2},
    "cost": {"device": 1.7, "edge": 14, "cloud": 32.0},
    "network": {"scenario": "bad2good", "switch_window": 3},
    "stream": {"update_interval": 100, "online": False},
}
SETTINGS = [("run.seed", int, 0), ("run.trace", str | None, None),
            ("run.output_dir", str | None, None), ("cluster.k_min", int, 1),
            ("cluster.k_max", int, 1), ("cluster.restarts", int, 1),
            ("cluster.fixed_k", int | None, 1), ("bo.seed_points", int, 1),
            ("stream.online", bool, None)]


def materialize(config):
    """Every value the CLI reads out of a resolved config."""
    built = [cli.synthetic_config(config, 0), cli.label_config(config),
             cli.mlp_config(config, 4, 0), cli.bo_config(config, 0),
             cli.utility_weights(config), cli.cost_model(config)]
    assert all(conforming(obj) for obj in built if dataclasses.is_dataclass(obj))
    assert all(type(p) is float for p in built[-1].activated_params.values())
    for key, hint, minimum in SETTINGS:
        value = cli._setting(config, key, hint, minimum)
        assert conforms(value, hint) and (value is None or minimum is None or value >= minimum)
    assert type(cli.update_interval(config)) is int
    assert conforms(cli.network_scenario(config).switch_at, int | None)


def load_config(config, path):
    """Write ``config`` as a config file and materialize it."""
    path.write_text("".join(json.dumps({"section": name, **body}) + "\n"
                            for name, body in config.items() if type(body) is dict))
    materialize(cli.resolve_config(argparse.Namespace(config=path)))


def test_fuzz_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "cfg.jsonl"
    load_config(FUZZ_CONFIG, path)

    @FUZZ
    @given(st.data())
    def check(data):
        config = mutate(data, FUZZ_CONFIG)
        # The sections the mutation touched, compared as JSON, since False == 0 == -0.0.
        sections = [name for name in {**FUZZ_CONFIG, **config}
                    if json.dumps(config.get(name)) != json.dumps(FUZZ_CONFIG.get(name))]
        try:
            load_config(config, path)
        except TierRouteError as exc:
            message = str(exc)
            assert isinstance(exc, ConfigError), message
            assert any(name in message for name in sections), message

    check()


def test_fuzz_scenario(tmp_path_factory):
    base = tmp_path_factory.mktemp("scenario")
    save_scenario(scenario_by_name("bad2good", switch_at=4), base / "s.jsonl")
    lines = (base / "s.jsonl").read_text().splitlines()

    @FUZZ
    @given(st.data())
    def check(data):
        edited = list(lines)
        i = data.draw(st.integers(0, len(lines) - 1))
        edited[i] = json.dumps(mutate(data, json.loads(lines[i])))
        path = base / "mutated.jsonl"
        path.write_text("\n".join(edited) + "\n")
        scenario = expect_typed_or_named(lambda: load_scenario(path), str(path))
        if scenario is not None:
            assert conforming(scenario)
            for link in (scenario.edge, scenario.cloud, scenario.edge_after,
                         scenario.cloud_after):
                assert link is None or conforming(link)

    check()


@pytest.fixture(scope="module")
def tiny_bundle(tiny_trace, tmp_path_factory):
    state = build_state(tiny_trace, scenario_by_name("good"), seed=2, fixed_k=2,
                        mlp_overrides={"hidden_dims": (4,), "max_epochs": 2},
                        bo_overrides={"offline_budget": 4}, seed_points=2)
    return save_bundle(state, tmp_path_factory.mktemp("bundle") / "b")


BUNDLE_JSON = ["state.json", "thresholds.json"]
BUNDLE_HEADERS = ["predictor.ckpt", "centroids.bin"]


def test_fuzz_bundle(tiny_bundle, tmp_path_factory):
    base = tmp_path_factory.mktemp("bundles")

    @FUZZ
    @given(st.data())
    def check(data):
        bundle = base / "b"
        shutil.rmtree(bundle, ignore_errors=True)
        shutil.copytree(tiny_bundle, bundle)
        name = data.draw(st.sampled_from(BUNDLE_JSON + BUNDLE_HEADERS + ["observations.csv"]))
        path = bundle / name
        if name in BUNDLE_JSON:
            path.write_text(json.dumps(mutate(data, json.loads(path.read_text()))))
        elif name in BUNDLE_HEADERS:
            head, _, body = path.read_bytes().partition(b"\n")
            head = json.dumps(mutate(data, json.loads(head))).encode()
            path.write_bytes(head + b"\n" + body)
        else:
            rows = [line.split(",") for line in path.read_text().splitlines()]
            row = data.draw(st.integers(1, len(rows) - 1))
            rows[row][data.draw(st.integers(0, len(rows[0]) - 1))] = data.draw(
                st.sampled_from(NASTY_TEXT))
            path.write_text("".join(",".join(r) + "\n" for r in rows))
        rehash(bundle, name)
        state = expect_typed_or_named(lambda: load_bundle(bundle), str(bundle))
        if state is not None:
            assert all(conforming(obj) for obj in (
                state.weights, state.bo_config, state.cloud_baselines, state.predictor.config,
                state.clusters, *state.thresholds.values()))
            assert all(type(p) is float for p in state.cost_model.activated_params.values())
            assert type(state.update_interval) is int and state.update_interval >= 1

    check()
