"""Construction and verification of planar domains whose boundary tangent
angle is driven by a (possibly non-Dini) modulus of continuity: smoothed
modulus, tangent-angle profile, conjugate function (Hilbert transform),
half-plane harmonic extensions, conformal boundary trace, and harmonic-measure
density checks with independent brute-force oracles."""

from .conformal import (
    BASE_POINT,
    BoundaryTrace,
    GrowthReport,
    InjectivityReport,
    PathSpec,
    average_derivative,
    check_injectivity,
    growth_check,
    integrate_phi,
    secant_tangent,
    segment_margin,
    trace_boundary,
)
from .halfplane import (
    HarmonicEvaluator,
    poisson_kernel,
)
from .hilbert import (
    HilbertEvaluator,
    K_heaviside,
    decay_bounds,
    pv_quadrature_oracle,
    region_bracket,
)
from .measure import (
    AppendixReport,
    BallRatio,
    CenterReport,
    DensityReport,
    DensitySample,
    MCConfig,
    PoleReport,
    WosReport,
    appendix_product_integral,
    density_at,
    is_interior,
    measure_ratio,
    pole_comparison,
    resolution_term,
    singular_set_scan,
    wos_harmonic_measure,
)
from .modulus import (
    DiniClass,
    ModulusSpec,
    SmoothedModulus,
    classify_dini,
    select_x0,
)
from .profile import (
    MODE_C1,
    MODE_LIPSCHITZ,
    BridgeSpline,
    TangentProfile,
    build_bridge,
    build_profile,
)
from .quadrature import QuadratureError, split_integrals

__all__ = [
    "BASE_POINT",
    "MODE_C1",
    "MODE_LIPSCHITZ",
    "AppendixReport",
    "BallRatio",
    "BoundaryTrace",
    "BridgeSpline",
    "CenterReport",
    "DensityReport",
    "DensitySample",
    "DiniClass",
    "GrowthReport",
    "HarmonicEvaluator",
    "HilbertEvaluator",
    "InjectivityReport",
    "K_heaviside",
    "MCConfig",
    "ModulusSpec",
    "PathSpec",
    "PoleReport",
    "QuadratureError",
    "SmoothedModulus",
    "TangentProfile",
    "WosReport",
    "appendix_product_integral",
    "average_derivative",
    "build_bridge",
    "build_profile",
    "check_injectivity",
    "classify_dini",
    "decay_bounds",
    "density_at",
    "growth_check",
    "integrate_phi",
    "is_interior",
    "measure_ratio",
    "pole_comparison",
    "poisson_kernel",
    "pv_quadrature_oracle",
    "region_bracket",
    "resolution_term",
    "secant_tangent",
    "segment_margin",
    "select_x0",
    "singular_set_scan",
    "split_integrals",
    "trace_boundary",
    "wos_harmonic_measure",
]

__version__ = "0.1.0"
