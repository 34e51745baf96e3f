"""Nuisance-regression pipeline comparison and QC-FC motion metrics.

The package residualizes ROI timeseries against labeled nuisance blocks
(sequentially or in one concatenated regression), quantifies residual
motion coupling via QC-FC correlations and their distance dependence, and
ships a seeded synthetic cohort generator plus a CLI so the whole
comparison runs end to end from one config file.
"""

# Each module's `__all__` is the one declaration of its public names.
from . import errors, metrics, phantom, pipelines, regression
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .phantom import *  # noqa: F403
from .pipelines import *  # noqa: F403
from .regression import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *regression.__all__,
    *pipelines.__all__,
    *metrics.__all__,
    *phantom.__all__,
]
