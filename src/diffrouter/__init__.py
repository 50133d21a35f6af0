"""diffrouter: a desk-scale diffusion router for multi-domain translation.

One noise predictor, conditioned on a source sample and a (source, target)
domain-label pair, learns every tree-edge mapping of a K-domain instance from
paired data only. Non-adjacent translation either routes through the tree
(indirect) or uses a distillation-finetuned direct checkpoint.
"""

__version__ = "0.1.0"

from .datagen import (EvalTuples, GaussianInstance, PairedDataset, Topology,
                      make_chain_instance, make_star_instance)
from .netcore import DivergenceError
from .router import RouterParams, init_router, load_checkpoint, save_checkpoint
from .sample import TranslationRequest, TranslationResult, route_path, translate
from .schedules import Schedule, build_bridge_schedule, build_diffusion_schedule
from .train import TrainConfig, train

__all__ = [
    "__version__",
    "Schedule", "build_bridge_schedule", "build_diffusion_schedule",
    "DivergenceError",
    "RouterParams", "init_router", "load_checkpoint", "save_checkpoint",
    "EvalTuples", "GaussianInstance", "PairedDataset", "Topology",
    "make_chain_instance", "make_star_instance",
    "TranslationRequest", "TranslationResult", "route_path", "translate",
    "TrainConfig", "train",
]
