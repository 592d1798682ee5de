"""The display modes and the default limits of the metrics.

The measuring modules and the command line share these. This module imports
only enum, so the command line's argument parser, ``--help`` included, loads
without the modules that measure.
"""

from enum import Enum

__all__ = ["DisplayMode", "MAX_ROW_CHARS", "RS_THRESHOLD_CPS", "MIN_CPL", "MAX_CPL"]

# Maximum characters of a full subtitle row (TED-style two-line block).
MAX_ROW_CHARS = 84

# Conformity defaults: 21 cps reading-speed ceiling, 6-42 characters per line.
RS_THRESHOLD_CPS = 21.0
MIN_CPL = 6
MAX_CPL = 42


class DisplayMode(Enum):
    WORD_FOR_WORD = "word"
    BLOCKS = "block"
    SCROLLING_LINES = "line"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; Enum's default hashes the name in Python,
    # which is slow for the per-segment, per-mode dicts.
    __hash__ = object.__hash__
