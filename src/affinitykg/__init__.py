"""Surname affinity graphs as knowledge bases: build, train, evaluate, explain.

The package covers the full pipeline: turning individual name records into a
decile-stratified affinity triple set, training a Tucker-decomposition link
predictor (plus TransE/DistMult/ComplEx baselines) with closed-form gradients,
ranking-based evaluation, and shared-nearest-neighbor explanation of the
predicted ties.
"""

from affinitykg.kg import KnowledgeGraph, KnownTrueSet, Vocab, add_reciprocals, split
from affinitykg.models import (
    DropoutSpec,
    ModelParams,
    init_baseline,
    init_params,
)
from affinitykg.trainer import TrainConfig, TrainResult, fit, grid_search

__all__ = [
    "KnowledgeGraph",
    "KnownTrueSet",
    "Vocab",
    "add_reciprocals",
    "split",
    "DropoutSpec",
    "ModelParams",
    "init_baseline",
    "init_params",
    "TrainConfig",
    "TrainResult",
    "fit",
    "grid_search",
]

__version__ = "0.1.0"
