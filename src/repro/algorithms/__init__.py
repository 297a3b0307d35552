"""Centralized skyline algorithms from the related work.

Two classic algorithms the paper builds on, each kept for a use nothing
else in the repository covers:

* BNL [Borzsonyi et al., ICDE'01] — the naive baseline's kernel
  (Section 3.2) and the tests' independent reference;
* BBS [Papadias et al., TODS 2005] — the only *progressive* skyline:
  :func:`~repro.algorithms.bbs.bbs_iter` reports skyline points one at a
  time in mindist order.

Algorithm 1 (``SKY_U``) and the Section 5.3 filter (``ext-SKY``) live in
:mod:`repro.core`.
"""

from .bbs import branch_and_bound_skyline
from .bnl import block_nested_loops

__all__ = [
    "block_nested_loops",
    "branch_and_bound_skyline",
]
