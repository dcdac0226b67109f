"""Shared builders for router and acceptance tests."""

import hashlib
import json

import numpy as np

from tierroute.accounting import QWEN3_COST_MODEL, UtilityWeights
from tierroute.bayesopt import BoConfig
from tierroute.cluster import ClusterConfig
from tierroute.labels import LabelConfig, build_labels
from tierroute.mlp import MlpConfig
from tierroute.router import fit_representation, tune_thresholds
from tierroute.trace import BYTES_PER_TOKEN, CORRECT_ABSENT, SyntheticConfig, Trace

# Four latent clusters with heterogeneous device-consistency and token costs.
# Clusters 1 and 3 share success probabilities (so their predicted scores are
# indistinguishable) but cluster 3 generates far longer responses, making
# escalation expensive: only per-cluster thresholds can route them apart.
HETERO_PROFILE = (
    (0.95, 0.97, 0.97),
    (0.895, 0.955, 0.96),
    (0.30, 0.55, 0.95),
    (0.895, 0.955, 0.96),
)
HETERO_TOKENS = (
    (80, 80, 80),
    (50, 50, 50),
    (110, 110, 110),
    (450, 450, 450),
)


def hetero_config(n_queries, seed, noise_sigma=0.05, embedding_dim=32):
    return SyntheticConfig(
        n_queries=n_queries,
        embedding_dim=embedding_dim,
        n_latent_clusters=4,
        seed=seed,
        noise_sigma=noise_sigma,
        tier_accuracy_profile=HETERO_PROFILE,
        token_mean_profile=HETERO_TOKENS,
    )


def broadcast_kernel(hypers, a, b):
    """The squared-exponential kernel in its broadcast form: the (m, n, 2)
    squared differences summed over their last axis. ``bayesopt._kernel``
    must equal it bit for bit, and the reference fits build on it."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return hypers.signal_variance * np.exp(-d2 / (2.0 * hypers.length_scale ** 2))


def quick_mlp(input_dim, seed=0, **overrides):
    base = dict(input_dim=input_dim, hidden_dims=(64, 32), activation="relu",
                learning_rate=3e-3, batch_size=128, max_epochs=40,
                early_stop_patience=6, seed=seed, validation_fraction=0.1)
    base.update(overrides)
    return MlpConfig(**base)


def quick_bo(seed=0, **overrides):
    base = dict(offline_budget=30, online_steps_per_refresh=2,
                candidate_pool_size=512, seed=seed)
    base.update(overrides)
    return BoConfig(**base)


def build_state(trace, scenario, seed=0, weights=None, label_cfg=None,
                mlp_overrides=None, bo_overrides=None, k_min=ClusterConfig.k_min,
                k_max=ClusterConfig.k_max, kmeans_restarts=ClusterConfig.restarts, fixed_k=None,
                **tune_kw):
    """fit_representation then tune_thresholds, for one weight vector."""
    labels = build_labels(trace, label_cfg or LabelConfig())
    mlp_cfg = quick_mlp(trace.embedding_dim, seed=seed, **(mlp_overrides or {}))
    rep = fit_representation(trace, labels, mlp_config=mlp_cfg,
                             cluster=ClusterConfig(k_min=k_min, k_max=k_max, fixed_k=fixed_k,
                                                   restarts=kmeans_restarts))
    return tune_thresholds(
        rep, trace,
        scenario=scenario,
        weights=weights or UtilityWeights(),
        cost_model=QWEN3_COST_MODEL,
        bo_config=quick_bo(seed=seed, **(bo_overrides or {})),
        **tune_kw,
    )


def truth_fractions(report, truth, tier):
    """Fraction of each latent cluster's queries routed to the given tier."""
    tiers = report.decisions["tier"]
    return {int(k): float(np.mean(tiers[truth.cluster_of == k] == tier))
            for k in np.unique(truth.cluster_of)}


def nested_correctness(trace, seed=0, p_device=0.55, p_edge_extra=0.5, p_cloud_extra=0.6):
    """Rewrite correct bits so cloud dominates edge dominates device pointwise."""
    rng = np.random.default_rng(seed)
    for i in range(len(trace)):
        device = bool(rng.random() < p_device)
        edge = device or bool(rng.random() < p_edge_extra)
        cloud = edge or bool(rng.random() < p_cloud_extra)
        trace.correct[i] = (device, edge, cloud)
    return trace


def column_trace(embeddings, ids=None, correct=True, generated_tokens=10, compute_s=0.5,
                 prompt_tokens=5, sim_cloud=0.5, sim_edge=0.5, judge_cloud=0.5,
                 judge_edge=0.5, has_reference=True, **header):
    """A trace built from columns: each argument is one value for every query,
    a (device, edge, cloud) triple for per-tier columns, or a full column.
    A correct bit of None is absent; absent scores are NaN."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    n = len(embeddings)

    def per_tier(value, dtype):
        return np.array(np.broadcast_to(np.asarray(value, dtype=dtype), (n, 3)))

    def per_query(value, dtype=np.float64):
        return np.array(np.broadcast_to(np.asarray(value, dtype=dtype), (n,)))

    bits = np.asarray(correct, dtype=object)
    bits = np.where(bits == None, CORRECT_ABSENT, bits)  # noqa: E711 - elementwise None test
    generated = per_tier(generated_tokens, np.int64)
    prompt = per_tier(prompt_tokens, np.int64)
    return Trace(
        ids=list(ids) if ids is not None else [f"q{i}" for i in range(n)],
        embeddings=embeddings,
        generated_tokens=generated,
        prompt_tokens=prompt,
        request_bytes=BYTES_PER_TOKEN * prompt,
        response_bytes=BYTES_PER_TOKEN * generated,
        compute_s=per_tier(compute_s, np.float64),
        correct=per_tier(bits.astype(np.int8), np.int8),
        sim_cloud=per_query(np.nan if sim_cloud is None else sim_cloud),
        sim_edge=per_query(np.nan if sim_edge is None else sim_edge),
        judge_cloud=per_query(np.nan if judge_cloud is None else judge_cloud),
        judge_edge=per_query(np.nan if judge_edge is None else judge_edge),
        has_reference=per_query(has_reference, bool),
        **header,
    )


def rehash(bundle, name):
    """Record bundle file ``name``'s current hash in the bundle manifest, so
    that loading it gets past the checksum to the content checks."""
    manifest_path = bundle / "bundle_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"][name] = hashlib.sha256((bundle / name).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
