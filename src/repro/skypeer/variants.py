"""The SKYPEER variants (Table 2 of the paper) plus the naive baseline.

Two orthogonal choices define the four variants:

* **Threshold propagation** — *Fixed* (``FT*``): the initiator computes
  the threshold ``t`` once and every super-peer receives the same
  ``q(U, t)``; *Refined* (``RT*``): each super-peer finishes its local
  computation first, lowers the threshold, and only then forwards
  ``q(U, t')`` to its neighbours.
* **Merging strategy** — *Fixed at the initiator* (``*FM``): every
  super-peer ships its local result to the initiator, intermediates
  merely relay; *Progressive* (``*PM``): each super-peer merges the
  results of its subtree before sending a single list upwards.

``NAIVE`` is the baseline of section 3.2: no mapping, no threshold —
plain local skylines (BNL) shipped whole and merged centrally.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Variant"]


class Variant(str, Enum):
    """Execution strategy identifiers (mnemonics follow Table 2)."""

    FTFM = "FTFM"
    FTPM = "FTPM"
    RTFM = "RTFM"
    RTPM = "RTPM"
    NAIVE = "naive"

    @property
    def refined_threshold(self) -> bool:
        """True for the RT* variants."""
        return self in (Variant.RTFM, Variant.RTPM)

    @property
    def progressive_merging(self) -> bool:
        """True for the *PM variants."""
        return self in (Variant.FTPM, Variant.RTPM)

    @property
    def uses_threshold(self) -> bool:
        """False only for the naive baseline."""
        return self is not Variant.NAIVE

    @classmethod
    def skypeer_variants(cls) -> tuple["Variant", ...]:
        """The four real SKYPEER variants, excluding the baseline."""
        return (cls.FTFM, cls.FTPM, cls.RTFM, cls.RTPM)

    @classmethod
    def parse(cls, name: str) -> "Variant":
        """Parse a (case-insensitive) mnemonic such as ``"ftpm"``."""
        if not isinstance(name, str):
            raise ValueError(f"variant must be a string, got {name!r}")
        try:
            return cls[name.upper()] if name.upper() in cls.__members__ else cls(name.lower())
        except (KeyError, ValueError):
            raise ValueError(
                f"unknown variant {name!r}; expected one of "
                f"{[v.value for v in cls]}"
            ) from None
