"""Quadratic log-likelihood asymptotics toolkit.

Exactly quadratic likelihood models, Newton-map estimators with NaO
semantics, quadraticity diagnostics over compact boxes, observed-information
confidence regions, and parametric/double bootstrap calibration.
"""

from .core import (
    LikModel,
    MaybeParam,
    NaO,
    NaOType,
    ObjectiveEval,
    OpenBox,
    QuadraticForm,
    ShiftedObjective,
    StackedObjective,
    is_nao,
    local_shift,
    quadratic_loglik,
    quadratic_mle,
    spd_factor,
)
from .funcspace import (
    GridBox,
    NestedBoxes,
    NonFiniteEvaluationError,
    QuadraticityReport,
    c2_distance,
    monte_carlo_points,
    quadratic_fit_at,
    quadraticity_report,
    rudin_distance,
    rudin_tail_bound,
    sup_norm_on_box,
)
from .newton import NewtonTrace, newton_iterate, newton_step, safeguarded_maximize
from .inference import (
    ConfidenceRegion,
    MleResult,
    chisq_upper_quantile,
    chisq_upper_tail,
    confidence_region,
    fit_mle,
    restricted_coverage_bound,
    standardized_estimator,
    symmetric_sqrt,
    wald_pivot,
)
from .lamn import (
    ConstantCurvature,
    KsTestReport,
    LamnDraw,
    LamnSpec,
    WishartCurvature,
    contiguity_estimate,
    hessian_invariance_test,
    lamn_loglik,
    model_contiguity_estimate,
    sample_lamn,
    sample_lamn_batch,
    score_normality_test,
)
from .bootstrap import (
    CalibrationResult,
    DoubleBootstrapReport,
    PivotSamples,
    calibrate,
    double_bootstrap,
    importance_reweight,
    make_wald_pivot,
    parametric_bootstrap,
)
from .models import (
    AnimalModel,
    AnimalParams,
    Ar1Data,
    Ar1Model,
    ExponentialRateIid,
    NormalLocationIid,
    Pedigree,
    PedigreeRecord,
    RelationshipMatrix,
    animal_loglik,
    animal_simulate,
    ar1_expected_info,
    ar1_loglik,
    ar1_simulate,
    ar1_simulate_paths,
    lan_normal_location,
    load_pedigree_csv,
    load_vector_csv,
    logit_heritability,
    logit_heritability_se,
    method_of_moments_start,
    relationship_matrix,
    synthetic_pedigree,
    wishart_lamn_model,
)
from .rng import derive_rng

__version__ = "0.1.0"
