"""racekit: differentially private RACE sketches for streaming kernel sums."""

from .errors import (
    CsvError,
    DimensionMismatchError,
    DoubleReleaseError,
    FrozenSketchError,
    IncompatibleSketchError,
    InsufficientRowsError,
    InvalidParameterError,
    MalformedHeaderError,
    NonFiniteValueError,
    OptimizerDivergenceError,
    RaceError,
    RaggedRowError,
    SketchFormatError,
    TruncationError,
    VersionMismatchError,
    ZeroVectorError,
)
from .estimation import (
    Estimate,
    error_bound,
    estimate,
    f_tilde,
    optimal_rows,
    query_median_of_means,
)
from .io import Dataset, Transform, apply_transform, load_csv, scale, stream_csv, write_csv
from .lsh import (
    HashKind,
    LshFamily,
    collision_probability,
    hash_batch,
    kernel_values,
    new_family,
    rebucket_allowance,
)
from .ml import (
    Classifier,
    RegressionModel,
    anomaly_score,
    find_mode,
    fit_regression,
    is_anomaly,
    load_classifier,
    load_regression,
    save_classifier,
    save_regression,
    surrogate_loss,
    train_classifier,
)
from .optimize import OptimizerConfig, minimize_derivative_free
from .privacy import (
    PrivacyBudget,
    laplace_noise_matrix,
    privatize,
)
from .sketch import RaceSketch, build, deserialize, load, merge, save, serialize

__version__ = "0.1.0"
