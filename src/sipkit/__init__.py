"""Contraction-rate analysis in weighted l^p and Sobolev coordinates.

Semi-inner products and one-sided norm derivatives (spaces), matrix
measures and sampled rate estimates (measures), trajectory integration
and decay-envelope certificates (flows), invariant subspace/manifold and
limit-cycle certification (invariants), interconnection calculus
(couplings), finite-difference PDE analysis (pdelab), duality-map
regression (mirror), and a batch scenario harness (cli).

``import sipkit`` loads none of these modules.  Each public name is
imported from its home module (``_EXPORTS``) on first access and then
bound here, so a program, or a ``sipkit run`` process, pays only for the
modules it uses (PEP 562).
"""

import importlib

_EXPORTS = {  # home module: its public names, blank-separated
    "errors": """CertificateRefusedError ConditioningError DegenerateArgumentError DegenerateProjectionError
        DimensionError DivergenceError EvaluationError RegularityError SipkitError StepSizeError SymmetryError
        UnsupportedNormError""",
    "spaces": "NormSpec complex_sip conjugate_exponent dini_plus gateaux_sip norm norm_rows sip sip_rows",
    "measures": """Ball Box DomainSampler Points RateEstimate Sphere VectorField WeightFamily differential_rate
        integral_rate lognorm_closed lognorm_limit lp_comparison_bound operator_norm operator_rate weighted_rate""",
    "flows": """CertificateResult Trajectory distance_series integrate overshoot_fit pair_distances variational_flow
        verify_contraction""",
    "invariants": """DecayFit DiffeoSymmetry LimitCycleReport LinearSymmetry ManifoldReport ManifoldSpec SubspaceReport
        SubspaceSpec equivariance_residual limit_cycle_certificate manifold_certificate newton_project
        set_distance_decay spatiotemporal_residual subspace_certificate""",
    "couplings": """AdditiveReport BlockSystem ContinuumReport FeedbackReport ProductReport additive_rate continuum_rate
        feedback_certificate feedforward_bound product_lp_rate trapezoid_rule zero_diagonal_unitary""",
    "pdelab": """ConservationReport ExcitationReport FixedPointReport Grid1D Grid2D SobolevSpec SuppressionReport
        build_laplacian conservation_rate demean difference_operator fixed_point_solve mass_zero_basis pattern_report
        poincare_rate rd_simulate sobolev_rate total_mass""",
    "mirror": """SQUARED_LOSS DualState Loss MirrorReport RegressionProblem duality_map inverse_duality
        mirror_descent_run predictions risk_and_gradient""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
