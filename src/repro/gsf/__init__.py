"""GSF: the GreenSKU Framework — adoption, sizing, buffers, orchestration."""

from .adoption import AdoptionDecision, AdoptionModel, default_baseline_skus
from .buffer import (
    DEFAULT_BUFFER_FRACTION,
    BufferPlan,
    baseline_only_buffer,
    proportional_dual_buffer,
)
from .framework import GenerationAwareEvaluation, Gsf, GsfConfig
from .report import evaluation_markdown
from .results import (
    DeploymentEmissions,
    GsfEvaluation,
    IntensitySweepPoint,
)
from .sizing import (
    ClusterSizing,
    GenerationAwareSizing,
    right_size,
    size_generation_aware,
    size_mixed_cluster,
)

__all__ = [
    "AdoptionDecision",
    "AdoptionModel",
    "default_baseline_skus",
    "DEFAULT_BUFFER_FRACTION",
    "BufferPlan",
    "baseline_only_buffer",
    "proportional_dual_buffer",
    "evaluation_markdown",
    "GenerationAwareEvaluation",
    "Gsf",
    "GsfConfig",
    "DeploymentEmissions",
    "GsfEvaluation",
    "IntensitySweepPoint",
    "ClusterSizing",
    "GenerationAwareSizing",
    "right_size",
    "size_generation_aware",
    "size_mixed_cluster",
]
