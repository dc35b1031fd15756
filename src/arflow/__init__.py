"""Action-reaction flow matching lab: paths, guided sampling, geometry, metrics.

Importing this package before numpy pins the BLAS thread pools to
``ARFLOW_THREADS`` (default 1): the workload is many small matrix products,
where thread fan-out costs more than it buys, and single-threaded kernels
keep results bit-reproducible across machines with different core counts.
"""

import os as _os

_threads = _os.environ.get("ARFLOW_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

from . import errors  # noqa: E402
from .data import (  # noqa: E402
    InteractionSample,
    ScenarioConfig,
    default_skeleton,
    generate_mixed,
    load_samples,
    save_samples,
    train_test_split,
)
from .geometry import (  # noqa: E402
    CapsuleSet,
    Skeleton,
    motion_capsules,
    motion_joint_positions,
    sdf_and_gradient,
)
from .metrics import (  # noqa: E402
    FeatureExtractor,
    PenetrationStats,
    diversity,
    extract_features,
    fid,
    multimodality,
    penetration_stats,
)
from .model import (  # noqa: E402
    PredictorConfig,
    PredictorParams,
    TrainConfig,
    as_x1_predictor,
    init_params,
    load_params,
    predict,
    save_params,
    train,
)
from .sampler import (  # noqa: E402
    GuidanceContext,
    SamplerConfig,
    penetration_grad,
    penetration_loss,
    sample,
)

__version__ = "0.1.0"
