"""Centralized skyline algorithms from the related work.

One classic algorithm the paper builds on, kept for a use nothing else
in the repository covers: BNL [Borzsonyi et al., ICDE'01] — the naive
baseline's kernel (Section 3.2) and the tests' independent reference.

Algorithm 1 (``SKY_U``) and the Section 5.3 filter (``ext-SKY``) live in
:mod:`repro.core`.
"""

from .bnl import block_nested_loops

__all__ = ["block_nested_loops"]
