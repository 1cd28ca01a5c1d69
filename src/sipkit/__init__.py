"""Contraction-rate analysis in weighted l^p and Sobolev coordinates.

Semi-inner products and one-sided norm derivatives (spaces), matrix
measures and sampled rate estimates (measures), trajectory integration
and decay-envelope certificates (flows), invariant subspace/manifold and
limit-cycle certification (invariants), interconnection calculus
(couplings), finite-difference PDE analysis (pdelab), duality-map
regression (mirror), and a batch scenario harness (cli).
"""

from .errors import (
    CertificateRefusedError,
    ConditioningError,
    DegenerateArgumentError,
    DegenerateProjectionError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    RegularityError,
    SipkitError,
    StepSizeError,
    SymmetryError,
    UnsupportedNormError,
)
from .spaces import (
    NormSpec,
    complex_sip,
    conjugate_exponent,
    dini_plus,
    gateaux_sip,
    norm,
    norm_rows,
    sip,
    sip_rows,
)
from .measures import (
    Ball,
    Box,
    DomainSampler,
    Points,
    RateEstimate,
    Sphere,
    VectorField,
    WeightFamily,
    differential_rate,
    integral_rate,
    lognorm_closed,
    lognorm_limit,
    lp_comparison_bound,
    operator_norm,
    operator_rate,
    weighted_rate,
)
from .flows import (
    CertificateResult,
    Trajectory,
    distance_series,
    integrate,
    overshoot_fit,
    pair_distances,
    variational_flow,
    verify_contraction,
)
from .invariants import (
    DecayFit,
    DiffeoSymmetry,
    LimitCycleReport,
    LinearSymmetry,
    ManifoldReport,
    ManifoldSpec,
    SubspaceReport,
    SubspaceSpec,
    equivariance_residual,
    limit_cycle_certificate,
    manifold_certificate,
    newton_project,
    set_distance_decay,
    spatiotemporal_residual,
    subspace_certificate,
)
from .couplings import (
    AdditiveReport,
    BlockSystem,
    ContinuumReport,
    FeedbackReport,
    ProductReport,
    additive_rate,
    continuum_rate,
    feedback_certificate,
    feedforward_bound,
    product_lp_rate,
    trapezoid_rule,
    zero_diagonal_unitary,
)
from .pdelab import (
    ConservationReport,
    ExcitationReport,
    FixedPointReport,
    Grid1D,
    Grid2D,
    SobolevSpec,
    SuppressionReport,
    build_laplacian,
    conservation_rate,
    demean,
    difference_operator,
    fixed_point_solve,
    mass_zero_basis,
    pattern_report,
    poincare_rate,
    rd_simulate,
    sobolev_rate,
    total_mass,
)
from .mirror import (
    SQUARED_LOSS,
    DualState,
    Loss,
    MirrorReport,
    RegressionProblem,
    duality_map,
    inverse_duality,
    mirror_descent_run,
    predictions,
    risk_and_gradient,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
