"""Self-organizing maps with supervised regression and classification heads.

Train an unsupervised map on a 2-d rectangular grid, attach a frozen-BMU
supervised head, and evaluate with R-squared, overall and average accuracy
and Cohen's kappa, all behind a reproducible seeded pipeline and a CLI.
"""

from .datasets import (
    DatasetError,
    LabeledDataset,
    MinMaxRecord,
    k_fold,
    load_csv,
    minmax_scale,
    save_csv,
    synthetic_blobs,
    synthetic_regression,
    train_test_split,
)
from .distances import (
    METRICS,
    estimate_inverse_covariance,
    feature_distance,
)
from .metrics import (
    ConfusionMatrix,
    EvaluationReport,
    UndefinedMetricError,
    average_accuracy,
    cohens_kappa,
    confusion,
    overall_accuracy,
    r_squared,
)
from .model_io import SomModel, load_model, save_model
from .schedules import (
    LEARNING_RATE_KINDS,
    RADIUS_KINDS,
    ScheduleSpec,
    learning_rate,
    neighborhood_radius,
)
from .seeding import phase_rng
from .som import (
    KERNELS,
    SomConfig,
    WeightGrid,
    batch_update,
    bmu_histogram,
    find_bmu,
    fit_unsupervised,
    init_weights,
    online_update,
    quantization_error,
    transform,
)
from .supervised import (
    ClassificationHead,
    RegressionHead,
    class_weights,
    fit_classifier,
    fit_regressor,
    init_classifier,
    predict_classification,
    predict_regression,
)

__version__ = "0.1.0"
