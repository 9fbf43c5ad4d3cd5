"""Repeated-measurement statistics for an Unruh-DeWitt detector.

A pointlike two-level detector, Gaussian-switched and repeatedly measured
along inertial or uniformly accelerated worldlines, does not produce exactly
i.i.d. outcome strings: field-mediated memory between interaction windows
corrects the Born product law.  This package computes the single-window
excitation probability, the leading cross-window corrections and rigorous
bounds on them, per-string probabilities, Bayesian model selection between
the Born law and its corrected variant, and an exact finite-dimensional
model used as an independent oracle.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bayes import (
    CorrectionModel,
    DegenerateEvidenceError,
    Posterior,
    delta_p_first_order,
    fapp_verdict,
    update_posterior,
)
from .bounds import (
    BoundPair,
    GammaProfile,
    HorizonExceededError,
    MonotonicityError,
    loose_bounds,
    n_limit,
    parity_correction_sum,
    tight_bounds,
)
from .combinatorics import (
    ContractionClass,
    RestrictedPartition,
    crossing_count,
    cyclic_term_count,
    double_factorial,
    enumerate_contraction_classes,
    partition_term_count,
    restricted_partitions,
    wick_term_count,
)
from .kernel import WightmanKernel, Worldline, accelerated, inertial, unruh_temperature
from .oracle import (
    FiniteRmModel,
    ModelError,
    WeakStructure,
    exact_step_probability,
    exact_string_prob,
    iid_model,
    operator_schmidt,
    perturbative_corrections,
    propagator_consistency,
    random_model,
    random_weak_model,
    string_distribution,
)
from .response import (
    BoundViolationError,
    DetectorParams,
    HistoryRecord,
    ProbabilityResult,
    QuadratureError,
    ResponseModel,
    calQ,
    q_closed_accelerated,
    q_closed_inertial,
    q_direct,
)
from .schedule import (
    RepetitionSchedule,
    SwitchingProfile,
    bump,
    default_schedule,
    max_repetitions,
    truncated_gaussian,
)
from .strings import (
    BitString,
    RateReport,
    StringProbability,
    born_string_prob,
    rate_report,
    ratio_bounds,
    rm_string_prob,
)

__all__ = [
    "__version__",
    "BitString",
    "BoundPair",
    "BoundViolationError",
    "ContractionClass",
    "CorrectionModel",
    "DegenerateEvidenceError",
    "DetectorParams",
    "FiniteRmModel",
    "GammaProfile",
    "HistoryRecord",
    "HorizonExceededError",
    "ModelError",
    "MonotonicityError",
    "Posterior",
    "ProbabilityResult",
    "QuadratureError",
    "RateReport",
    "RepetitionSchedule",
    "ResponseModel",
    "RestrictedPartition",
    "StringProbability",
    "SwitchingProfile",
    "WeakStructure",
    "WightmanKernel",
    "Worldline",
    "accelerated",
    "born_string_prob",
    "bump",
    "calQ",
    "crossing_count",
    "cyclic_term_count",
    "default_schedule",
    "delta_p_first_order",
    "double_factorial",
    "enumerate_contraction_classes",
    "exact_step_probability",
    "exact_string_prob",
    "fapp_verdict",
    "iid_model",
    "inertial",
    "loose_bounds",
    "max_repetitions",
    "n_limit",
    "operator_schmidt",
    "parity_correction_sum",
    "partition_term_count",
    "perturbative_corrections",
    "propagator_consistency",
    "q_closed_accelerated",
    "q_closed_inertial",
    "q_direct",
    "random_model",
    "random_weak_model",
    "rate_report",
    "ratio_bounds",
    "restricted_partitions",
    "rm_string_prob",
    "string_distribution",
    "tight_bounds",
    "truncated_gaussian",
    "unruh_temperature",
    "update_posterior",
    "wick_term_count",
]
