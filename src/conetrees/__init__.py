"""Coverings of finite metric spaces, separated characteristic sequences,
hyperbolic cone grids, and tree-product embeddings with QI verification."""

from .metric_core import FiniteMetricSpace, MetricError, Subset
from .coverings import ColoredCovering, CoveringError, Family
from .char_seq import (
    CharSequence,
    LadderConstructionError,
    SeparationPreconditionError,
    ast_shrink,
    build_base,
    build_level,
    margin_trace,
    separate,
    separation_margins,
    standing_assumptions,
    verify_base,
    verify_char_seq,
)
from .hyp_cone import (
    ConeError,
    ConeGrid,
    ConePoint,
    build_grid,
    cone_dist,
    cone_metric,
    sphere_dist,
)
from .tree_embed import (
    ProductEmbedding,
    RadialCheckError,
    RootedTree,
    TreeError,
    build_tree,
    embed_grid,
    radial_check,
)
from .qi_verify import (
    QIReport,
    delta_hyperbolicity,
    fit_qi,
)
from .harness import (
    GENERATORS,
    PipelineConfig,
    PipelineResult,
    StageError,
    capacity_profile,
    generate,
    run_pipeline,
    sphere_ratio_check,
    visual_metric_circle,
)
from . import io

__version__ = "0.1.0"

__all__ = [
    "FiniteMetricSpace", "MetricError", "Subset",
    "ColoredCovering", "CoveringError", "Family",
    "CharSequence", "LadderConstructionError", "SeparationPreconditionError",
    "ast_shrink", "build_base", "build_level",
    "margin_trace", "separate", "separation_margins",
    "standing_assumptions", "verify_base", "verify_char_seq",
    "ConeError", "ConeGrid", "ConePoint", "build_grid", "cone_dist",
    "cone_metric", "sphere_dist",
    "ProductEmbedding", "RadialCheckError", "RootedTree", "TreeError",
    "build_tree", "embed_grid", "radial_check",
    "QIReport", "delta_hyperbolicity", "fit_qi",
    "visual_metric_circle",
    "GENERATORS", "PipelineConfig", "PipelineResult", "StageError",
    "capacity_profile", "generate", "run_pipeline", "sphere_ratio_check",
    "io",
    "__version__",
]
