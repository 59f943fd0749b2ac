"""Distributed contextual linear bandit simulation under uplink bit constraints."""

from .quantizer import (
    AssumptionViolation,
    QuantizationRangeError,
    QuantizedContext,
    StochasticQuantizer,
    magnitude_scale,
    quantize_context,
    reconstruct_context,
)
from .codec import (
    BitBuffer,
    KnownMessage,
    LatticeMembershipError,
    MessageCodecError,
    UnknownMessage,
    bit_budget,
    decode_known,
    decode_unknown,
    encode_known,
    encode_unknown,
    lattice_enumerator,
    q_size,
)
from .env import (
    Bernoulli,
    BinarySupport,
    CustomDiscrete,
    EnvironmentSpec,
    GaussianProjected,
    RegretTrace,
    TruncatedGaussian,
    assumption2_diagnostic,
    context_mean,
    mean_reward,
    realize_reward,
    regret_gap,
    regret_step,
    sample_context,
    sample_contexts,
)
from .known import (
    ActionMap,
    LinUcb,
    build_action_map,
    estimate_xstar,
    exact_xstar,
    greedy_action,
    misspecify_xstar,
    run_known,
    run_naive_baseline,
    simulate,
    theta_net,
)
from .unknown import (
    UnknownLearnerState,
    apply_update,
    new_learner_state,
    run_full_precision,
    run_unknown,
)
from .harness import (
    AlgorithmConfig,
    ConfigValidationError,
    ExperimentConfig,
    config_to_dict,
    dump_config,
    load_config,
    parse_config,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
