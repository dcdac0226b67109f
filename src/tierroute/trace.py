"""Trace schema, line-delimited serialization, and synthetic trace generation.

A trace replaces live model / reranker / judge calls with recorded outcomes:
per-tier correctness, token counts, compute times, and agreement scores. In
memory a trace is a set of columns with one row per query.

File format (UTF-8, one JSON object per line; a line ends at LF, and CRLF reads the same):
  line 1    header: {"embedding_dim": int, "prompt_text": str, "metadata": {...}}
  line 2..  one record per line: id, embedding, has_reference, the optional
            scores (omitted when absent) and tier_info with all three tiers.
            Floats use Python's shortest round-trip representation (well above
            6 significant digits).

A record line is decoded by orjson. Stdlib ``json`` is the reference: a line
that orjson refuses, or whose object fails a typed read, is decoded again by
``json.loads`` and read again, and that outcome stands.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from enum import IntEnum
from pathlib import Path

import numpy as np
import orjson

from .errors import TraceFormatError, TraceValidationError
from .fields import bad_value, read
# The per-record readers under private names, which tracers of public functions skip.
from .fields import json_bool as _json_bool, json_int as _json_int, json_number as _json_number
from .formats import write_json_lines

BYTES_PER_TOKEN = 4  # UTF-8 proxy used when byte sizes are not given explicitly

DEFAULT_SYNTHETIC_PROMPT = "synthetic probe prompt (embeddings generated directly; no LLM involved)"


class TierId(IntEnum):
    """Serving tiers, totally ordered by ascending capability."""

    DEVICE = 0
    EDGE = 1
    CLOUD = 2

    @property
    def label(self) -> str:
        return self.name.lower()


TIERS: tuple[TierId, TierId, TierId] = (TierId.DEVICE, TierId.EDGE, TierId.CLOUD)


_SCORE_FIELDS = ("sim_cloud", "sim_edge", "judge_cloud", "judge_edge")
_TIER_LABELS = tuple(tier.label for tier in TIERS)
_INT_FIELDS = ("generated_tokens", "prompt_tokens", "request_bytes", "response_bytes")
_TIER_COLUMNS = _INT_FIELDS + ("compute_s", "correct")

# Codes in Trace.correct besides 1 (right) and 0 (wrong).
CORRECT_ABSENT = -1  # the tier has no "correct" key
CORRECT_NULL = -2    # the tier has "correct": null


@dataclass(eq=False)
class Trace:
    """Queries as columns, one row per query.

    Per-tier columns are (n, 3) in TierId order. Scores are NaN where absent;
    ``correct`` holds 1 or 0, or a CORRECT_* code where the bit is missing.
    """

    ids: list[str]
    embeddings: np.ndarray        # (n, d) float64
    generated_tokens: np.ndarray  # (n, 3) int64
    prompt_tokens: np.ndarray     # (n, 3) int64
    request_bytes: np.ndarray     # (n, 3) int64
    response_bytes: np.ndarray    # (n, 3) int64
    compute_s: np.ndarray         # (n, 3) float64
    correct: np.ndarray           # (n, 3) int8
    sim_cloud: np.ndarray         # (n,) float64
    sim_edge: np.ndarray
    judge_cloud: np.ndarray
    judge_edge: np.ndarray
    has_reference: np.ndarray     # (n,) bool
    prompt_text: str = DEFAULT_SYNTHETIC_PROMPT
    metadata: dict = field(default_factory=dict)

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, rows) -> Trace:
        """A copy holding ``rows`` (a slice, index array or boolean mask), in that order."""
        picked = np.arange(len(self.ids))[rows]
        return replace(self, ids=[self.ids[i] for i in picked], metadata=dict(self.metadata),
                       **{name: getattr(self, name)[picked] for name in _ARRAY_COLUMNS})

    def validate(self) -> None:
        if self.embedding_dim <= 0:
            raise TraceValidationError("embedding_dim must be positive")
        seen: set[str] = set()
        for rid in self.ids:
            if rid in seen:
                raise TraceValidationError(f"duplicate record id {rid!r}")
            seen.add(rid)
        per_row = [(~np.isfinite(self.embeddings).all(axis=1), "embedding has non-finite values")]
        for name in _SCORE_FIELDS:
            score = getattr(self, name)
            per_row.append(((score < 0) | (score > 1), f"{name} outside [0, 1]"))
        for bad, what in per_row:
            if bad.any():
                raise TraceValidationError(f"record {self.ids[np.argmax(bad)]!r}: {what}")
        per_tier = [
            (self.generated_tokens < 1, "generated_tokens must be >= 1 for a produced response"),
            (self.prompt_tokens < 0, "prompt_tokens must be >= 0"),
            (self.compute_s < 0, "compute_seconds must be >= 0"),
            ((self.request_bytes < 0) | (self.response_bytes < 0), "byte counts must be >= 0"),
            (self.has_reference[:, None] & (self.correct < 0),
             "has_reference requires a correct bit"),
        ]
        for bad, what in per_tier:
            if bad.any():
                row, tier = np.argwhere(bad)[0]
                raise TraceValidationError(
                    f"record {self.ids[row]!r}: tier {TIERS[tier].label}: {what}")

    def correctness_matrix(self) -> np.ndarray:
        """Per-record, per-tier correct bits as an (n, 3) float array.

        Raises if any record lacks a correct bit for any tier.
        """
        missing = self.correct < 0
        if missing.any():
            row, tier = np.argwhere(missing)[0]
            raise TraceValidationError(
                f"record {self.ids[row]!r}: missing correct bit for tier {TIERS[tier].label}")
        return self.correct.astype(np.float64)


@dataclass
class TraceHeader:
    """Line 1 of a trace file."""

    embedding_dim: int
    prompt_text: str = ""
    metadata: dict = field(default_factory=dict)


_ARRAY_COLUMNS = tuple(f.name for f in fields(Trace)
                       if f.name not in ("ids", "prompt_text", "metadata"))


def _empty_columns(n: int, dim: int) -> dict[str, np.ndarray]:
    cols = {name: np.empty((n, 3), np.int64) for name in _INT_FIELDS}
    cols.update({name: np.empty(n) for name in _SCORE_FIELDS})
    cols.update(embeddings=np.empty((n, dim)), compute_s=np.empty((n, 3)),
                correct=np.empty((n, 3), np.int8), has_reference=np.empty(n, bool))
    return cols


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace in the line-delimited format described in the module docstring."""
    ints = [getattr(trace, name).tolist() for name in _INT_FIELDS]
    compute, correct = trace.compute_s.tolist(), trace.correct.tolist()
    scores = [(name, getattr(trace, name).tolist()) for name in _SCORE_FIELDS]
    has_reference = trace.has_reference.tolist()

    def lines():
        yield asdict(TraceHeader(trace.embedding_dim, trace.prompt_text, trace.metadata))
        for i, rid in enumerate(trace.ids):
            tier_info = {}
            for t, label in enumerate(_TIER_LABELS):
                sub = {name: col[i][t] for name, col in zip(_INT_FIELDS, ints)}
                sub["compute_seconds"] = compute[i][t]
                if correct[i][t] != CORRECT_ABSENT:
                    sub["correct"] = None if correct[i][t] == CORRECT_NULL else bool(correct[i][t])
                tier_info[label] = sub
            obj = {"id": rid, "embedding": trace.embeddings[i].tolist(),
                   "tier_info": tier_info, "has_reference": has_reference[i]}
            for name, col in scores:
                if not math.isnan(col[i]):
                    obj[name] = col[i]
            yield obj

    write_json_lines(path, lines())


def _correct_code(tier_obj: dict) -> int:
    if "correct" not in tier_obj:
        return CORRECT_ABSENT
    if tier_obj["correct"] is None:
        return CORRECT_NULL
    return _json_bool(tier_obj, "correct", TraceValidationError)  # stored as 1 or 0


def _read_tier(sub: dict) -> tuple:
    """One tier's values, in _TIER_COLUMNS order."""
    generated = _json_int(sub, "generated_tokens", TraceValidationError)
    prompt = _json_int(sub, "prompt_tokens", TraceValidationError, 0)
    return (generated, prompt,
            _json_int(sub, "request_bytes", TraceValidationError, BYTES_PER_TOKEN * prompt),
            _json_int(sub, "response_bytes", TraceValidationError, BYTES_PER_TOKEN * generated),
            _json_number(sub, "compute_seconds", TraceValidationError), _correct_code(sub))


def _read_record(obj: dict, i: int, cols: dict[str, np.ndarray]) -> str:
    """Parse one record object into row ``i`` of the columns; returns its id."""
    rid = obj["id"]
    if type(rid) is not str:
        raise bad_value("id", rid, "a string", TypeError)
    try:
        rid.encode()  # json.loads passes a lone surrogate escape, which no UTF-8 file can hold
    except UnicodeEncodeError:
        raise bad_value("id", rid, "a string without lone surrogates", ValueError) from None
    try:
        _read_fields(obj, i, cols)
    except TraceValidationError as exc:
        raise TraceValidationError(f"record {rid!r}: {exc}") from exc
    return rid


def _read_fields(obj: dict, i: int, cols: dict[str, np.ndarray]) -> None:
    """Every field of a record but its id, into row ``i`` of the columns."""
    embedding = obj["embedding"]
    dim = cols["embeddings"].shape[1]
    if len(embedding) != dim:
        raise TraceValidationError(f"embedding has length {len(embedding)}, expected {dim}")
    if not {float, int}.issuperset(map(type, embedding)):  # NumPy would take "0.5" and true
        j, value = next((j, v) for j, v in enumerate(embedding) if type(v) not in (float, int))
        raise bad_value(f"embedding[{j}]", value, "a JSON number", TraceValidationError)
    cols["embeddings"][i] = embedding
    tier_info = obj["tier_info"]
    if tier_info.keys() != set(_TIER_LABELS):
        raise TraceValidationError(
            f"tier_info must hold exactly device, edge and cloud; got {sorted(tier_info)}")
    tiers = []
    for label in _TIER_LABELS:
        try:
            tiers.append(_read_tier(tier_info[label]))
        except TraceValidationError as exc:
            raise TraceValidationError(f"tier {label}: {exc}") from exc
    for name, values in zip(_TIER_COLUMNS, zip(*tiers)):
        cols[name][i] = values
    for name in _SCORE_FIELDS:
        cols[name][i] = _json_number(obj, name, TraceValidationError, math.nan)
    cols["has_reference"][i] = _json_bool(obj, "has_reference", TraceValidationError, False)


def _text(line: bytes) -> str:
    """A line as text-mode reading gave it: UTF-8, with a final CRLF read as LF."""
    return line.decode("utf-8").replace("\r\n", "\n")


# What reading a malformed record line raises, besides TraceValidationError.
# JSONDecodeError (json's and orjson's) and UnicodeDecodeError are ValueErrors.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError)


def load_trace(path: str | Path) -> Trace:
    """Parse and validate a trace file; errors name the offending line or record."""
    path = Path(path)
    with path.open("rb") as fh:  # a line count bounds the rows to preallocate
        capacity = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    with path.open("rb") as fh:  # lines split at b"\n", as counted
        first = fh.readline()
        if not first:
            raise TraceFormatError(f"{path}: empty trace file (missing header line)")
        try:
            header = read(TraceHeader, json.loads(_text(first)),
                          f"{path}: line 1: header", error=TraceFormatError)
            cols = _empty_columns(capacity, header.embedding_dim)
        except (ValueError, MemoryError, RecursionError) as exc:  # bad JSON, or no room
            raise TraceFormatError(f"{path}: line 1: bad header ({exc})") from exc
        ids: list[str] = []
        for lineno, line in enumerate(fh, start=2):
            try:
                ids.append(_read_record(orjson.loads(line), len(ids), cols))
                continue
            except (TraceValidationError, *_MALFORMED):
                pass  # refused, or read into a bad row: stdlib json decides the line
            try:
                text = _text(line)
                if not text.strip():
                    continue
                ids.append(_read_record(json.loads(text), len(ids), cols))
            except TraceValidationError as exc:
                raise TraceValidationError(f"{path}: line {lineno}: {exc}") from exc
            except _MALFORMED as exc:
                raise TraceFormatError(f"{path}: line {lineno}: malformed record ({exc})") from exc
    n = len(ids)
    trace = Trace(ids=ids, prompt_text=header.prompt_text, metadata=header.metadata,
                  **{name: col[:n] for name, col in cols.items()})
    try:
        trace.validate()
    except TraceValidationError as exc:
        raise TraceValidationError(f"{path}: {exc}") from exc
    return trace


def concat_traces(first: Trace, second: Trace) -> Trace:
    """Concatenate two compatible traces, disambiguating ids of the second."""
    if first.embedding_dim != second.embedding_dim:
        raise TraceValidationError(
            f"cannot concatenate traces with dims {first.embedding_dim} and "
            f"{second.embedding_dim}"
        )
    ids = list(first.ids)
    existing = set(ids)
    for rid in second.ids:
        while rid in existing:
            rid += "+"
        existing.add(rid)
        ids.append(rid)
    return Trace(ids=ids, prompt_text=first.prompt_text, metadata=dict(first.metadata),
                 **{name: np.concatenate([getattr(first, name), getattr(second, name)])
                    for name in _ARRAY_COLUMNS})


# ---------------------------------------------------------------------------
# Synthetic traces with a known consistency oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for oracle-backed synthetic traces.

    ``tier_accuracy_profile`` holds one (device, edge, cloud) success-probability
    triple per latent cluster; probabilities must be nondecreasing from device
    to cloud within each cluster. ``token_mean_profile`` holds one per-tier
    triple of mean generated-token counts per cluster.
    """

    n_queries: int
    embedding_dim: int = 64
    n_latent_clusters: int = 4
    seed: int = 0
    noise_sigma: float = 0.05
    tier_accuracy_profile: tuple[tuple[float, float, float], ...] | None = None
    token_mean_profile: tuple[tuple[int, int, int], ...] | None = None
    token_jitter: float = 0.2
    prompt_token_range: tuple[int, int] = (30, 120)
    tier_tokens_per_second: tuple[float, float, float] = (40.0, 30.0, 25.0)
    cluster_std: float = 1.0
    cluster_separation: float = 12.0
    reference_fraction: float = 1.0

    def resolved_accuracy_profile(self) -> np.ndarray:
        if self.tier_accuracy_profile is not None:
            prof = np.asarray(self.tier_accuracy_profile, dtype=np.float64)
        else:
            k = self.n_latent_clusters
            dev = np.linspace(0.3, 0.9, k) if k > 1 else np.array([0.7])
            edge = dev + 0.6 * (0.96 - dev)
            cloud = np.full(k, 0.96)
            prof = np.stack([dev, edge, cloud], axis=1)
        if prof.shape != (self.n_latent_clusters, 3):
            raise ValueError(
                f"tier_accuracy_profile must have shape ({self.n_latent_clusters}, 3)"
            )
        if np.any(prof < 0) or np.any(prof > 1):
            raise ValueError("success probabilities must lie in [0, 1]")
        if np.any(np.diff(prof, axis=1) < 0):
            raise ValueError("success probabilities must be nondecreasing device->cloud")
        return prof

    def resolved_token_profile(self) -> np.ndarray:
        if self.token_mean_profile is not None:
            prof = np.asarray(self.token_mean_profile, dtype=np.float64)
        else:
            prof = np.tile(np.array([80.0, 100.0, 120.0]), (self.n_latent_clusters, 1))
        if prof.shape != (self.n_latent_clusters, 3):
            raise ValueError(
                f"token_mean_profile must have shape ({self.n_latent_clusters}, 3)"
            )
        if np.any(prof < 1):
            raise ValueError("mean token counts must be >= 1")
        return prof

    def validate(self) -> None:
        if self.n_queries <= 0 or self.embedding_dim <= 0 or self.n_latent_clusters <= 0:
            raise ValueError("n_queries, embedding_dim, n_latent_clusters must be positive")
        if self.noise_sigma < 0 or self.seed < 0:
            raise ValueError("noise_sigma and seed must be >= 0")
        if not (0.0 <= self.reference_fraction <= 1.0):
            raise ValueError("reference_fraction must lie in [0, 1]")
        self.resolved_accuracy_profile()
        self.resolved_token_profile()


@dataclass(frozen=True)
class GroundTruth:
    """Latent quantities underlying a synthetic trace, for oracle-based tests."""

    cluster_of: np.ndarray          # (n,) latent cluster index per record
    centers: np.ndarray             # (k, d) latent cluster centers
    tier_probs: np.ndarray          # (k, 3) success probabilities
    consistency_edge: np.ndarray    # (n,) P(device answer agrees with edge)
    consistency_cloud: np.ndarray   # (n,) P(device answer agrees with cloud)


def agreement_probability(p_device: np.ndarray, p_other: np.ndarray) -> np.ndarray:
    """P(device and the other tier are both right or both wrong), independently."""
    return p_device * p_other + (1.0 - p_device) * (1.0 - p_other)


def _separated_centers(rng: np.random.Generator, k: int, dim: int,
                       std: float, separation: float) -> np.ndarray:
    # Gaussian centers, resampled until pairwise distances clear the separation
    # floor; converges immediately for desk-scale k and dim.
    min_dist = separation * std
    for _ in range(1000):
        centers = rng.normal(0.0, separation, size=(k, dim))
        if k == 1:
            return centers
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs ** 2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= min_dist:
            return centers
    raise RuntimeError("failed to place separated cluster centers; lower the separation")


def generate_synthetic_trace(cfg: SyntheticConfig) -> tuple[Trace, GroundTruth]:
    """Generate a deterministic synthetic trace plus its latent ground truth."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n, dim, k = cfg.n_queries, cfg.embedding_dim, cfg.n_latent_clusters
    acc = cfg.resolved_accuracy_profile()
    tokens_mean = cfg.resolved_token_profile()
    speeds = np.asarray(cfg.tier_tokens_per_second, dtype=np.float64)

    centers = _separated_centers(rng, k, dim, cfg.cluster_std, cfg.cluster_separation)
    cluster_of = rng.integers(0, k, size=n)
    embeddings = centers[cluster_of] + rng.normal(0.0, cfg.cluster_std, size=(n, dim))

    correct = rng.random((n, 3)) < acc[cluster_of]

    lo = 1.0 - cfg.token_jitter
    hi = 1.0 + cfg.token_jitter
    gen_tokens = np.maximum(
        1, np.rint(tokens_mean[cluster_of] * rng.uniform(lo, hi, size=(n, 3))).astype(int)
    )
    p_lo, p_hi = cfg.prompt_token_range
    prompt_tokens = rng.integers(p_lo, p_hi + 1, size=n)

    cons_edge = agreement_probability(acc[cluster_of, 0], acc[cluster_of, 1])
    cons_cloud = agreement_probability(acc[cluster_of, 0], acc[cluster_of, 2])
    noise = rng.normal(0.0, 1.0, size=(n, 4)) * cfg.noise_sigma
    sim_cloud = np.clip(cons_cloud + noise[:, 0], 0.0, 1.0)
    sim_edge = np.clip(cons_edge + noise[:, 1], 0.0, 1.0)
    judge_cloud = np.clip(cons_cloud + noise[:, 2], 0.0, 1.0)
    judge_edge = np.clip(cons_edge + noise[:, 3], 0.0, 1.0)

    has_ref = rng.random(n) < cfg.reference_fraction

    width = len(str(max(n - 1, 1)))
    prompt3 = np.repeat(prompt_tokens[:, None], 3, axis=1)
    trace = Trace(
        ids=[f"q{i:0{width}d}" for i in range(n)],
        embeddings=embeddings,
        generated_tokens=gen_tokens,
        prompt_tokens=prompt3,
        request_bytes=BYTES_PER_TOKEN * prompt3,
        response_bytes=BYTES_PER_TOKEN * gen_tokens,
        compute_s=gen_tokens / speeds,
        correct=correct.astype(np.int8),
        sim_cloud=sim_cloud,
        sim_edge=sim_edge,
        judge_cloud=judge_cloud,
        judge_edge=judge_edge,
        has_reference=has_ref,
        prompt_text=DEFAULT_SYNTHETIC_PROMPT,
        metadata={"generator": "synthetic", "seed": cfg.seed,
                  "n_latent_clusters": k, "noise_sigma": cfg.noise_sigma},
    )
    trace.validate()
    truth = GroundTruth(
        cluster_of=cluster_of,
        centers=centers,
        tier_probs=acc,
        consistency_edge=cons_edge,
        consistency_cloud=cons_cloud,
    )
    return trace, truth
