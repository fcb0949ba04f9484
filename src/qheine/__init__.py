"""qheine: basic (Heine) hypergeometric series, g-fraction expansions of
shifted-parameter ratios, Hausdorff moment checks, and boundary-curve
geometry tests, with a CLI front end."""

from .errors import (
    CapExceeded,
    CutError,
    DegenerateCurve,
    DenominatorZero,
    DomainError,
    InconsistentCoefficients,
    NoConvergence,
    QHeineError,
)
from .gfrac import (
    GFraction,
    MomentSequence,
    RatioVariant,
    gfraction_coeffs,
    gfraction_eval,
    gfraction_series,
    hypothesis_check,
    ratio_eval,
    ratio_moments,
    raw_cfrac_coeffs,
    totally_monotone_check,
)
from .geomtest import (
    BoundaryCurve,
    CurveMap,
    KqGrid,
    KqReport,
    KqRoute,
    SequenceVerdict,
    bn_sequence,
    boundary_curve,
    kq_conditions_check,
    kq_membership_test,
    map_gauss_ratio,
    map_shift_a,
    map_shift_all,
    map_shift_bc,
    map_zphi,
    t1_threshold,
    vertical_convexity_check,
)
from .qcore import (
    INFINITY,
    EvalResult,
    ParamSet,
    PowerSeries,
    gauss_coeffs,
    gauss_f,
    heine_coeffs,
    heine_phi,
    log_q,
    q_gamma,
    q_pochhammer,
    verify_identities,
)
from .scanner import GridSpec, Range, ScanRecord, records_to_csv, scan, soundness_violations

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
