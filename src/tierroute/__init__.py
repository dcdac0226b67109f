"""Consistency-aware query routing for device/edge/cloud LLM serving.

Trace-driven: per-tier outcomes come from recorded or synthetic traces, never
from live model calls. The pipeline builds soft consistency labels, trains a
small MLP score predictor, clusters embeddings, learns per-cluster routing
thresholds with GP Bayesian optimization, and evaluates routing policies in a
deterministic simulator with explicit network and cost models.
"""

from .accounting import (
    CloudBaselines,
    CostModel,
    UtilityWeights,
    cloud_reference_means,
    tier_cost,
    tier_latency,
    utility_matrix,
)
from .bayesopt import (
    BoConfig,
    GpHyperparameters,
    GpSurrogate,
    ObservationSet,
    ThresholdPair,
    gp_fit,
    optimize_offline,
    propose_thresholds,
    refresh_online,
)
from .cluster import ClusterModel, assign_batch, elbow_select_k, elbow_sweep, fit_sweep
from .labels import (
    ConsistencyLabels,
    LabelConfig,
    aug_with_reference,
    aug_without_reference,
    build_labels,
    fuse_label,
)
from .mlp import (
    MlpConfig,
    MlpModel,
    TrainReport,
    gradient_check,
    init_model,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train,
)
from .network import (
    LinkProfile,
    NetworkScenario,
    builtin_profiles,
    round_trip_latency,
    scenario_by_name,
    scenario_link,
)
from .router import (
    Representation,
    RouterState,
    StreamReport,
    baseline_route,
    fit_representation,
    load_bundle,
    route_tiers,
    run_stream,
    save_bundle,
    state_checksum,
    tune_thresholds,
)
from .trace import (
    GroundTruth,
    SyntheticConfig,
    TierId,
    Trace,
    concat_traces,
    generate_synthetic_trace,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"
