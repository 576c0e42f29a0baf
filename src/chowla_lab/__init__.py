"""chowla-lab: generators and numerical test batteries for correlation
conditions on sequences over {-1, 0, 1}."""

__version__ = "0.1.0"

from .seqcore import (
    Block,
    SignSeq,
    pointwise_product,
    read_sqz,
    square_map,
    write_sqz,
)
from .numbergen import (
    BSet,
    admissible_block_count,
    is_admissible,
    liouville_prefix,
    mobius_prefix,
    mu_b_prefix,
)
from .symbolicgen import (
    BernoulliParams,
    DeterminizeParams,
    DeterminizeResult,
    SturmianParams,
    bernoulli_prefix,
    determinize_step,
    doubling_word_prefix,
    masked_coin_prefix,
    pair_code_prefix,
    sparse_embed,
    sturmian_prefix,
)
from .empirics import (
    ComplexityProfile,
    EmpiricalMeasure,
    EntropyEstimate,
    SignExtensionReport,
    block_frequencies,
    complexity_profile,
    entropy_estimate,
    positive_frequency_blocks,
    sign_extension_test,
)
from .correlations import (
    BatteryReport,
    CorrelationCurve,
    CorrelationSpec,
    DavenportResult,
    PeriodicSampler,
    RotationSampler,
    SubshiftSampler,
    ch_battery,
    chowla_sum,
    davenport_scan,
    enumerate_chowla_specs,
    sarnak_sum,
    strong_sarnak_sum,
)
from .toeplitz import (
    CorrelationBound,
    EntropyLowerBound,
    IntervalReport,
    build_toeplitz,
    classify_initials,
    interval_analytics,
    toeplitz_correlation,
    toeplitz_entropy_lower_bound,
)
from .entbounds import (
    EntropyPair,
    PairAuditVerdict,
    audit_entropy_pair,
    binary_entropy,
    entropy_inverse,
    full_entropy_lower,
    full_entropy_upper,
    sign_extension_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
