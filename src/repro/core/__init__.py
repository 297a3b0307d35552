"""The paper's core machinery: dominance, extended skylines, Algorithms 1 & 2."""

from .dataset import PointSet
from .dominance import (
    dominates,
    ext_dominates,
    skyline_mask,
)
from .extended_skyline import (
    extended_skyline,
    subspace_skyline,
    subspace_skyline_points,
)
from .local_skyline import SkylineComputation, local_subspace_skyline
from .mapping import dist_value, dist_values, f_value, f_values
from .merging import merge_sorted_skylines
from .store import SortedByF
from .subspace import Subspace, all_subspaces, full_space, normalize_subspace

__all__ = [
    "PointSet",
    "SortedByF",
    "Subspace",
    "SkylineComputation",
    "dominates",
    "ext_dominates",
    "skyline_mask",
    "extended_skyline",
    "subspace_skyline",
    "subspace_skyline_points",
    "local_subspace_skyline",
    "merge_sorted_skylines",
    "f_value",
    "f_values",
    "dist_value",
    "dist_values",
    "full_space",
    "all_subspaces",
    "normalize_subspace",
]
