"""Entropic value-at-risk of arbitrary Renyi order on finite discrete distributions."""

__version__ = "0.1.0"

from .distribution import (
    DiscreteDistribution,
    essinf,
    esssup,
    expectation,
    from_samples,
)
from .entropy import (
    Density,
    renyi_entropy,
)
from .evar import (
    RiskResult,
    RiskSpec,
    conjugate,
    evar,
    evar_derivative_pprime,
    norm_equivalence_bounds,
    risk_level_bound,
)
from .duality import (
    KusuokaMeasure,
    dual_norm,
    dual_norm_raw,
    hb_density_for,
    hb_witness_for,
    kusuoka,
    kusuoka_evaluate,
    sup_oracle,
)
