"""Channel-allocation protocols: framework, baselines and monitor.

The paper's own scheme lives in :mod:`repro.core`; this package holds
the shared MSS framework, message vocabulary, the safety monitor and
the three published baselines it is compared against (§2.2, §5):
fixed allocation, basic search, basic update, advanced update.
"""

from .advanced_update import AdvancedUpdateMSS
from .base import MSS
from .basic_search import BasicSearchMSS
from .basic_update import BasicUpdateMSS
from .fixed import FixedMSS
from .messages import (
    Acquisition,
    AcqType,
    ChangeMode,
    NO_CHANNEL,
    Release,
    ReqType,
    Request,
    ResType,
    Response,
    Timestamp,
)
from .monitor import InterferenceMonitor, InterferenceViolation
from .prakash import PrakashMSS

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
