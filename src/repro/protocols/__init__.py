"""Channel-allocation protocols: framework, baselines and monitor.

The paper's own scheme lives in :mod:`repro.core`; this package holds
the shared MSS framework, message vocabulary, the safety monitor and
the three published baselines it is compared against (§2.2, §5):
fixed allocation, basic search, basic update, advanced update.
"""

from .. import lazy_exports
from .base import MSS
from .monitor import InterferenceMonitor, InterferenceViolation

__all__ = [
    "MSS",
    "FixedMSS",
    "BasicSearchMSS",
    "BasicUpdateMSS",
    "AdvancedUpdateMSS",
    "PrakashMSS",
    "InterferenceMonitor",
    "InterferenceViolation",
    "Request",
    "Response",
    "ChangeMode",
    "Acquisition",
    "Release",
    "ReqType",
    "ResType",
    "AcqType",
    "Timestamp",
    "NO_CHANNEL",
]

#: A scheme's module loads at its first lookup, so a run imports only
#: the scheme it runs (``repro.harness.SCHEMES``), and the message
#: vocabulary with the first scheme that sends one.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".messages": (
        "Request", "Response", "ChangeMode", "Acquisition", "Release",
        "ReqType", "ResType", "AcqType", "Timestamp", "NO_CHANNEL",
    ),
    ".fixed": ("FixedMSS",),
    ".basic_search": ("BasicSearchMSS",),
    ".basic_update": ("BasicUpdateMSS",),
    ".advanced_update": ("AdvancedUpdateMSS",),
    ".prakash": ("PrakashMSS",),
})
