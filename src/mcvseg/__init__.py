"""Multilevel region-merging image segmentation.

Regions grow by windowed merges accepted by an autoregressive Gaussian
Markov random field homogeneity test; levels widen the evaluation and
merge windows, producing a multiresolution sequence of partitions.
"""

from .driver import (ConfigError, LevelStats, McvConfig, PartitionSequence,
                     load_permutation, permutation, run_level, run_mcv)
from .geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD, Window,
                       dilate, square_window)
from .partition import (ABSENT, Partition, canonicalize, components_by_class,
                        connected_components, rand_index, region_size_histogram,
                        same_partition, singletons, singletons_full)
from .pnmio import (ImageBuffer, PnmParseError, colorize, load_labels,
                    load_pnm, save_labels, save_pnm)
from .pyramid import MrfModel, check_chain, make_pyramid_evaluator, verdict_map

#: The public names of ``reference``, the paper's literal operators, which
#: no run executes: that module is imported on first access to one of them.
_REFERENCE = frozenset({
    "GibbsTable", "boundary_point", "calibrate_rho", "clip", "downsample", "energy",
    "evaluate", "gibbs_distribution", "m_step", "merge_step", "neighborhood_squared",
    "pyramid_evaluate", "tau_rho_consistency",
})


def __getattr__(name: str):
    if name in _REFERENCE:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _REFERENCE)


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
    "Window",
    "boundary_point",
    "calibrate_rho",
    "canonicalize",
    "check_chain",
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
