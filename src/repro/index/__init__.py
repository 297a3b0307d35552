"""Spatial index: a main-memory R-tree the BBS traversals expand."""

from .rtree import RTree

__all__ = ["RTree"]
