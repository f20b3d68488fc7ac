"""rigidity3d: infinitesimal rigidity of polyhedral frameworks.

Rigidity and equilibrium-stress analysis for bar/cable/strut frameworks,
suspension (bipyramid) surfaces and their scalar/matrix rigidity
invariants, plus the sign-counting machinery behind convexity-based
rigidity arguments.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    DEFAULT_TOL,
    Convexity,
    ConvexityReport,
    GeometryError,
    InvariantError,
    PolyhedralSurface,
    Tolerances,
    classify_convexity,
    classify_convexity_from_hull,
    dihedral_angles,
    edge_flags,
    is_weakly_convex,
    normalize_pole_frame,
)

from .frameworks import (  # noqa: F401
    EdgeKind,
    FlexSpace,
    Framework,
    FrameworkError,
    Motion,
    Stress,
    bar_flex_space,
    equilibrium_residual,
    equilibrium_stress_space,
    is_infinitesimally_rigid,
    is_proper,
    nontrivial_flex,
    rigidity_matrix,
    rigidity_rank,
    trivial_dimension,
    trivial_motion_basis,
)

from .cauchy import (  # noqa: F401
    CauchyError,
    DentHarnessReport,
    DentResult,
    DentTrial,
    SignChangeStats,
    SignVector,
    SignedPlanarGraph,
    VertexSignReport,
    count_sign_changes,
    cyclic_sign_changes,
    dent,
    dent_rigidity_harness,
    dihedral_rates,
    sign_subgraph,
    sign_vector_from_flex,
    vertex_sign_change_check,
)

from .suspensions import (  # noqa: F401
    ConvexProfileReport,
    LambdaBreakdown,
    NSDecomposability,
    Suspension,
    SuspensionError,
    axis_decomposition,
    build_suspension,
    convex_profile_certificate,
    cylindrical_equator,
    inductive_proper_stress,
    is_ns_decomposable,
    lambda_scalar,
    reflex_lateral_edges,
    suspension_rigidity,
    tensegrity_labeling,
    theta_prime,
)

from .hessian import (  # noqa: F401
    Decomposition,
    DecompositionError,
    LambdaMatrix,
    ProbeReport,
    ProbeTrial,
    decompose_star,
    lambda_matrix,
    pd_probe,
    rigidity_from_lambda,
)

from .generators import (  # noqa: F401
    GenerationError,
    convex_suspension,
    dented_hull_star,
    probe_decomposition,
    random_convex_hull_surface,
    random_suspension,
    star_suspension,
    suspension_profile,
)

from .fileio import (  # noqa: F401
    FileFormatError,
    LoadedInstance,
    analysis_report,
    from_document,
    instance_hash,
    load,
    save,
    to_document,
    validate_document,
)
