"""Multilevel region-merging image segmentation.

Regions grow by windowed merges accepted by an autoregressive Gaussian
Markov random field homogeneity test; levels widen the evaluation and
merge windows, producing a multiresolution sequence of partitions.
"""

from .driver import (ConfigError, LevelStats, McvConfig, PartitionSequence,
                     load_permutation, permutation, run_level, run_mcv)
from .geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD, Window,
                       boundary_point, clip, dilate, square_window)
from .metrics import rand_index, region_size_histogram
from .mrf import (GibbsTable, MrfModel, calibrate_rho, energy, evaluate,
                  gibbs_distribution, neighborhood_squared, tau_rho_consistency)
from .partition import (ABSENT, Partition, canonicalize, components_by_class,
                        connected_components, m_step, merge_step,
                        same_partition, singletons, singletons_full)
from .pnmio import (ImageBuffer, PnmParseError, colorize, load_labels,
                    load_pnm, save_labels, save_pnm)
from .pyramid import (PyramidEvaluator, WindowImage, downsample,
                      make_pyramid_evaluator, pyramid_evaluate, verdict_map)

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "ConfigError",
    "FIVE_NEIGHBORHOOD",
    "GibbsTable",
    "ImageBuffer",
    "Lattice",
    "LevelStats",
    "McvConfig",
    "MrfModel",
    "NINE_NEIGHBORHOOD",
    "Partition",
    "PartitionSequence",
    "PnmParseError",
    "PyramidEvaluator",
    "WindowImage",
    "Window",
    "boundary_point",
    "calibrate_rho",
    "canonicalize",
    "clip",
    "colorize",
    "components_by_class",
    "connected_components",
    "dilate",
    "downsample",
    "energy",
    "evaluate",
    "gibbs_distribution",
    "load_labels",
    "load_permutation",
    "load_pnm",
    "m_step",
    "make_pyramid_evaluator",
    "merge_step",
    "neighborhood_squared",
    "permutation",
    "pyramid_evaluate",
    "rand_index",
    "region_size_histogram",
    "run_level",
    "run_mcv",
    "same_partition",
    "save_labels",
    "save_pnm",
    "singletons",
    "singletons_full",
    "square_window",
    "tau_rho_consistency",
    "verdict_map",
    "__version__",
]
