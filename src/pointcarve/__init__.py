"""Point-block carving for 3D point cloud completion.

Build a point-block around a partial cloud, carve it with per-cell
convolution kernels predicted from the partial's grid, refine the coarse
result with learned offsets, and train the whole pipeline with Chamfer-based
losses and virtual-sensor augmentation.
"""

from .carving import (
    CarveModelConfig,
    CarveModelParams,
    KernelField,
    cell_conv,
    cell_conv_grads,
    engrave,
    predict_kernels,
)
from .checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from .cloud import (
    BoundingRange,
    Point3,
    PointBlock,
    PointCloud,
    build_point_block,
    compute_bounds,
    mirror_symmetric_block,
    normalize_unit_cube,
    sample_block_points,
    subsample_fixed,
)
from .config import RunConfig
from .gridding import (
    FeatureGrid,
    VoxelGrid,
    feature_sample,
    feature_sample_grad,
    gridding,
    gridding_reverse,
    gridding_reverse_grad,
)
from .losses import (
    LossBreakdown,
    chamfer,
    chamfer_and_grad,
    chamfer_grad,
    loss_comp,
    loss_sim,
)
from .metrics import (
    EvalReport,
    TrackedSequence,
    cd_scaled,
    consistency,
    evaluate,
    sensitivity_sweep,
    valid_point_percentage,
)
from .refine import RefineHeadParams, refine, refine_grads
from .sensoraug import (
    SensorPose,
    VisibilityConfig,
    frustum_cull,
    generate_partials,
    random_drop,
    random_sensor,
    visible_points,
)
from .shapes import SyntheticShapeSpec, gen_shape
from .training import (
    OptimizerState,
    complete_cloud,
    lr_schedule,
    optimizer_step,
    train_toy,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingRange", "CarveModelConfig", "CarveModelParams", "CheckpointMeta",
    "EvalReport", "FeatureGrid", "KernelField", "LossBreakdown",
    "OptimizerState", "Point3", "PointBlock", "PointCloud",
    "RefineHeadParams", "RunConfig", "SensorPose", "SyntheticShapeSpec",
    "TrackedSequence", "VisibilityConfig", "VoxelGrid",
    "build_point_block", "cd_scaled", "cell_conv", "cell_conv_grads",
    "chamfer", "chamfer_and_grad", "chamfer_grad", "complete_cloud", "compute_bounds",
    "consistency", "engrave", "evaluate", "feature_sample",
    "feature_sample_grad", "frustum_cull", "gen_shape", "generate_partials",
    "gridding", "gridding_reverse", "gridding_reverse_grad",
    "load_checkpoint", "loss_comp", "loss_sim", "lr_schedule",
    "mirror_symmetric_block", "normalize_unit_cube", "optimizer_step",
    "predict_kernels", "random_drop", "random_sensor", "refine",
    "refine_grads", "sample_block_points", "save_checkpoint",
    "sensitivity_sweep", "subsample_fixed", "train_toy",
    "valid_point_percentage", "visible_points",
]
