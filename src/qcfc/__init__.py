"""Nuisance-regression pipeline comparison and QC-FC motion metrics.

The package residualizes ROI timeseries against labeled nuisance blocks
(sequentially or in one concatenated regression), quantifies residual
motion coupling via QC-FC correlations and their distance dependence, and
ships a seeded synthetic cohort generator plus a CLI so the whole
comparison runs end to end from one config file.
"""

from .errors import (
    DataIntegrityError,
    DegenerateInputError,
    DimensionError,
    FileFormatError,
    QcfcError,
    SchemaError,
    ValidationError,
)
from .metrics import (
    FcMatrix,
    Parcellation,
    QcFcReport,
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    mean_fd,
    pearson,
    qcfc,
    spearman,
)
from .phantom import PhantomConfig, PhantomCohort, generate_cohort, truth_error
from .pipelines import (
    HMP_PARAM_LABELS,
    HeadMotion,
    PipelineKind,
    PipelineSpec,
    SubjectBundle,
    build_blocks,
    expand_hmp24,
    run_pipeline,
)
from .regression import (
    DesignMatrix,
    RegressorSource,
    SignalMatrix,
    concat_designs,
    max_abs_correlation,
    ols_residualize,
    sequential_residualize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QcfcError",
    "DataIntegrityError",
    "DimensionError",
    "DegenerateInputError",
    "SchemaError",
    "ValidationError",
    "FileFormatError",
    "RegressorSource",
    "DesignMatrix",
    "SignalMatrix",
    "ols_residualize",
    "concat_designs",
    "sequential_residualize",
    "max_abs_correlation",
    "HMP_PARAM_LABELS",
    "HeadMotion",
    "PipelineKind",
    "PipelineSpec",
    "SubjectBundle",
    "expand_hmp24",
    "build_blocks",
    "run_pipeline",
    "FcMatrix",
    "Parcellation",
    "QcFcReport",
    "framewise_displacement",
    "mean_fd",
    "pearson",
    "spearman",
    "fc_matrix",
    "edge_lengths",
    "qcfc",
    "distance_dependence",
    "PhantomConfig",
    "PhantomCohort",
    "generate_cohort",
    "truth_error",
]
