"""Corner statistics in finite abelian groups.

Exact corner profiles and popular differences, Fourier analysis with
mean/sum normalization, exact-arithmetic Bohr sets and partitions,
spectral and weak regularity decompositions, and the grid functional
whose minimum governs corner-count lower bounds.
"""
from .bohr import (
    BohrPartition,
    BohrSet,
    BoxDecomposition,
    box_approximation,
    part_absorption_bound,
    translate_containment_bound,
    verify_part_absorption,
    verify_translate_containment,
    volume_lower_bound,
)
from .corners import (
    CornerProfile,
    IntegerScan,
    PlaneSet,
    corner_count_by_difference,
    corner_count_naive,
    hyperplane_views,
    integer_corner_scan,
    integer_corner_scan_naive,
    popular_difference,
    triple_sum_from_views,
    weighted_corner_count,
    weighted_corner_count_direct,
)
from .errors import (
    BoundViolation,
    CapExceededError,
    CornerlabError,
    GroupMismatchError,
    ValidationError,
)
from .fourier import (
    GroupFunction,
    Spectrum,
    convolve,
    convolve_direct,
    dft,
    dft_direct,
    inverse_dft,
    large_spectrum,
    lp_dual_norm,
    lp_norm,
)
from .groups import (
    Character,
    Element,
    GroupSpec,
    parse_group_spec,
    torus_norm,
    torus_norm_fraction,
)
from .regularity import (
    BohrDecomposition,
    DoubleRegularityResult,
    GrowthFunction,
    Partition,
    WeakRegularityResult,
    bohr_regularize,
    cut_norm_witness,
    double_regularity,
    parse_growth_spec,
    weak_regularity,
)
from .variational import (
    BoxInstance,
    EnvelopePoints,
    GridFunction,
    MinimizeResult,
    T_of_box,
    evaluate_T,
    gradient_T,
    minimize_T,
    phi_from_partition,
    pipeline_lower_bound,
    sweep_and_envelope,
)

__version__ = "0.1.0"
