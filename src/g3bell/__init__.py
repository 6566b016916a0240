"""g3bell: geometric-algebra audit of a trivector hidden-variable model.

The package provides an exact arithmetic kernel for G3, the disputed
correlation model built on it, expectation functionals under scalar and
directed (trivector-valued) measures, CHSH machinery for legitimate
scalarizations, and an audit pipeline with a CLI front end.
"""

from .ga import (
    BASIS,
    BLADE_NAMES,
    DEFAULT_TOLERANCE,
    E1,
    E2,
    E3,
    E12,
    E13,
    E23,
    GradeSupport,
    I,
    Multivector,
    NonUnitVectorError,
    ONE,
    Vector3,
    ZERO,
    cross,
    dot,
    ensure_unit,
    gp,
    grade_audit,
    grade_project,
    wedge,
)
from .model import (
    ISOTROPIC,
    ORIENTATIONS,
    PRODUCT_FORMS,
    HiddenVariable,
    OrientationDistribution,
    observable,
    product_identity,
    product_raw,
)
from .measure import (
    DEFAULT_P_GRID,
    ExpectationResult,
    MeasureKind,
    Sweep,
    codomain_support,
    expectation,
    measure_total,
    p_grid,
    p_grid_size,
    sweeps,
)
from .bell import (
    DEFAULT_ANGLES_DEG,
    ChshScenario,
    Scalarizer,
    chsh,
    default_scalarizers,
    lhv_bruteforce_bound,
    make_scalarizer,
    quantum_target,
    scalarizer_audit,
    scalarizer_maxima,
)
from .audit import (
    AuditConfig,
    AuditReport,
    CLAIM_MAP,
    DEFAULT_PAIRS,
    TOOL_VERSION as __version__,
    emit,
    run_audit,
)
