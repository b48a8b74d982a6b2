"""Exact-arithmetic computation on Laakso space.

The package computes distances, geodesics, directional derivatives, and the
differentiability structure of functions on Laakso space (the quotient of
interval x Cantor set glued at wormhole heights), entirely in rational
arithmetic, and mechanically verifies the classification of where maximal
directional derivatives force differentiability and where the distance to a
fixed point fails to be differentiable.
"""

from .core import (
    CantorAddress,
    Direction,
    GapRatioVerdict,
    HeightInterval,
    InternalError,
    LaaksoPoint,
    WormholeLevel,
    canonicalize,
    enumerate_wormhole_heights,
    format_rational,
    gap_ratio_probe,
    nearest_wormhole_gap,
    parse_rational,
    point,
    same_point,
    wormhole_order,
)
from .metric import (
    GeodesicPath,
    Segment,
    distance,
    geodesic_endings,
    minimal_height_intervals,
    synthesize_geodesic,
)
from .oracle import (
    DIMENSION,
    LevelGraph,
    MeasureEstimate,
    ball_measure,
    build_level_graph,
    graph_distance,
    regularity_scan,
)
from .calculus import (
    DerivativeReport,
    PointFunction,
    difference_quotient,
    differentiability_probe,
    directional_derivative,
    triadic_schedule,
)
from .profiles import (
    KinkProfile,
    VerticalLine,
    expected_kinks,
    nondiff_height_census,
    parallel_reduction,
    profile_distance_on_line,
    vertical_lines,
)
from .constructions import (
    BandSchedule,
    PorosityWitness,
    SampledFunction,
    build_flat_nondifferentiable,
    build_steep_nondifferentiable,
    find_band_schedule,
    maximality_verdict,
    porosity_witness,
    sparse_ternary_height,
)

__version__ = "0.1.0"
