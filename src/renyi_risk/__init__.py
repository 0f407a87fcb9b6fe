"""Entropic value-at-risk of arbitrary Renyi order on finite discrete distributions."""

__version__ = "0.1.0"

from .distribution import (
    DiscreteDistribution,
    essinf,
    esssup,
    expectation,
    from_samples,
    lp_norm,
    power_mean,
    var_level,
)
from .entropy import (
    Density,
    hellinger_divergence,
    kl_divergence,
    renyi_entropy,
)
from .solver import SolverError, find_root
from .evar import (
    BRANCHES,
    RiskResult,
    RiskSpec,
    avar,
    conjugate,
    evar,
    evar_derivative_pprime,
    evar_power,
    norm_equivalence_bounds,
    risk_level_bound,
)
from .duality import (
    DegenerateBranchError,
    KusuokaMeasure,
    NoFiniteWitnessError,
    alt_dual_check,
    dual_norm,
    dual_norm_raw,
    hb_density_for,
    hb_witness_for,
    kusuoka,
    kusuoka_evaluate,
    sup_oracle,
)
