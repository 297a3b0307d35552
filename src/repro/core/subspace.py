"""Subspace algebra.

A *subspace* ``U`` of the full dimension set ``D = {0, .., d-1}`` is a
non-empty subset of dimension indices (paper, section 3.1).  Subspaces
are represented as sorted tuples of ints throughout the library.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Subspace",
    "full_space",
    "normalize_subspace",
    "is_subspace_of",
    "all_subspaces",
    "subspaces_of_size",
]

Subspace = tuple[int, ...]


def full_space(dimensionality: int) -> Subspace:
    """Return the full dimension set ``D`` for the given dimensionality."""
    if dimensionality <= 0:
        raise ValueError("dimensionality must be positive")
    return tuple(range(dimensionality))


def normalize_subspace(dims: Iterable[int], dimensionality: int) -> Subspace:
    """Validate and canonicalize a subspace specification.

    Dimensions are deduplicated and sorted; the result is guaranteed to
    be a non-empty subset of ``{0, .., dimensionality-1}``.
    """
    subspace = tuple(sorted(set(int(i) for i in dims)))
    if not subspace:
        raise ValueError("a subspace must contain at least one dimension")
    if subspace[0] < 0 or subspace[-1] >= dimensionality:
        raise ValueError(
            f"subspace {subspace} out of range for dimensionality {dimensionality}"
        )
    return subspace


def is_subspace_of(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """Return True when every dimension of ``inner`` appears in ``outer``."""
    return set(inner) <= set(outer)


def all_subspaces(dimensionality: int) -> Iterator[Subspace]:
    """Yield every non-empty subspace of a ``dimensionality``-dim space.

    There are ``2^d - 1`` of them; only use on small ``d`` (the
    Observation 4 test does).  Yields in order of increasing size, then
    lexicographically.
    """
    dims = range(dimensionality)
    for size in range(1, dimensionality + 1):
        for combo in combinations(dims, size):
            yield combo


def subspaces_of_size(dimensionality: int, size: int) -> Iterator[Subspace]:
    """Yield every subspace with exactly ``size`` dimensions."""
    if not 1 <= size <= dimensionality:
        raise ValueError(f"size must be in [1, {dimensionality}], got {size}")
    yield from combinations(range(dimensionality), size)
