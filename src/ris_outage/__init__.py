"""Outage statistics for RIS-assisted UAV wireless links.

The library statistically characterizes the cascade gain of an N-element
reflecting surface under mixture-Gamma fading on both hops, the geometric
loss caused by receiver disorientation and beam misalignment, and
transceiver hardware imperfections, and evaluates outage probability in
closed form with quadrature and Monte Carlo oracles alongside.
"""

from .cascade import (
    KGParams,
    cdf_A,
    cdf_Ae2e,
    cdf_Ae2e_quadrature,
    moment_match,
    pdf_A,
    pdf_Ae2e,
    sum_moments,
)
from .errors import (
    AsymptoteOutOfRegime,
    ConfigError,
    DegenerateJitter,
    DegenerateParameters,
    DomainError,
    FloorUndefined,
    MomentMatchFailure,
    NoConvergence,
    OverflowGuard,
    RisOutageError,
)
from .fading import (
    MGDistribution,
    envelope_moment,
    envelope_pdf,
    from_nakagami,
    from_rice,
    product_moment,
    product_pdf,
    sample_envelope,
)
from .geometry import (
    GeometryConfig,
    LinkBudget,
    MisalignmentStats,
    average_snr,
    beamwidth,
    coherence_length,
    hg_pdf,
    misalignment_stats,
    sample_hg,
)
from .montecarlo import MCConfig, MCEstimate, simulate_cdf, simulate_curve, simulate_op
from .outage import (
    DiversityReport,
    HardwareProfile,
    OutageScenario,
    diversity_order,
    max_threshold,
    op_asymptotic,
    op_exact,
    op_floor,
)
from .scenario import ScenarioFile, SweepSpec, load_scenario, parse_scenario
from .special import hyp1f2
from .sweep import SweepRow, derived_report, evaluate_sweep

__version__ = "0.1.0"

__all__ = [
    "KGParams",
    "cdf_A",
    "cdf_Ae2e",
    "cdf_Ae2e_quadrature",
    "moment_match",
    "pdf_A",
    "pdf_Ae2e",
    "sum_moments",
    "AsymptoteOutOfRegime",
    "ConfigError",
    "DegenerateJitter",
    "DegenerateParameters",
    "DomainError",
    "FloorUndefined",
    "MomentMatchFailure",
    "NoConvergence",
    "OverflowGuard",
    "RisOutageError",
    "MGDistribution",
    "envelope_moment",
    "envelope_pdf",
    "from_nakagami",
    "from_rice",
    "product_moment",
    "product_pdf",
    "sample_envelope",
    "GeometryConfig",
    "LinkBudget",
    "MisalignmentStats",
    "average_snr",
    "beamwidth",
    "coherence_length",
    "hg_pdf",
    "misalignment_stats",
    "sample_hg",
    "MCConfig",
    "MCEstimate",
    "simulate_cdf",
    "simulate_curve",
    "simulate_op",
    "DiversityReport",
    "HardwareProfile",
    "OutageScenario",
    "diversity_order",
    "max_threshold",
    "op_asymptotic",
    "op_exact",
    "op_floor",
    "ScenarioFile",
    "SweepSpec",
    "load_scenario",
    "parse_scenario",
    "hyp1f2",
    "SweepRow",
    "derived_report",
    "evaluate_sweep",
]
