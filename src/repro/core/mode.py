"""The adaptive scheme's mode variable (paper §3.1)."""

from __future__ import annotations

import enum

__all__ = ["Mode"]


class Mode(enum.IntEnum):
    """Paper §3.1: the four values of ``mode_i``."""

    LOCAL = 0
    BORROW_IDLE = 1
    BORROW_UPDATE = 2
    BORROW_SEARCH = 3
