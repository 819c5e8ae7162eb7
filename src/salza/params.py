"""The conditioning modes and the default DAG edge threshold.

They live apart from lz and directed, and import nothing, so that the CLI
builds its options from them without loading numpy.
"""

import enum

DEFAULT_THRESHOLD = 5e-3


class Mode(enum.Enum):
    """Which parts of the context may be referenced at lookahead position t."""

    #: The position-aligned past of the single source: source[0 : min(t, len(source))).
    SOURCE_PAST = "past"
    #: Every byte of every source (cross parsing); the target's past is excluded.
    SOURCE_ALL = "all"
    #: The target's own past plus the aligned past of every source.
    PAST_OF_BOTH = "both"
    #: The target's own past plus every byte of every source.
    PAST_AND_SOURCES = "past-all"
