"""Rothman diagrams: association measures on the risk plane, standardization
and confounding geometry, collapsibility analysis, binomial GLM inference,
and SVG rendering for stratified 2x2 tables."""

from .errors import (
    ContourRangeError,
    ConvergenceError,
    DomainError,
    ModificationError,
    RothmanError,
    TableParseError,
)
from .tables import (
    CellCounts,
    RiskPoint,
    StratifiedTable,
    Stratum,
    crude_point,
    four_strata_fixture,
    newcastle_fixture,
    parse_table,
    risk,
    serialize_table,
    stratum_points,
)
from .measures import (
    ContourValue,
    Measure,
    contour_polyline,
    contour_y,
    evaluate,
    is_straight,
    is_straight_at,
    null_value,
    valid_x_interval,
)
from .standardize import (
    CollapsibilityReport,
    ConfoundingResult,
    ExtremeResult,
    StandardDistribution,
    StandardizedHull,
    Verdict,
    collapsibility_verdict,
    distance_to_hull,
    extremize_standardized,
    grid_extremize,
    is_confounded,
    marginal_distribution,
    standardized_hull,
    standardized_point,
    uniform_distribution,
)
from .inference import (
    FitResult,
    LinkFunction,
    LRTest,
    ModelSpec,
    ProfileCI,
    chi2_quantile,
    chi2_sf,
    common_measure,
    fit,
    link_for_measure,
    loglik,
    lr_test_interaction,
    measure_for_link,
    profile_ci,
    profile_loglik_slope,
    score,
)
from .render import (
    DiagramSpec,
    Glyph,
    GlyphPoint,
    PanelSpec,
    figure_contours,
    render_svg,
)

__version__ = "0.1.0"
