"""Protocol message types (paper §3.2).

The five message families of the adaptive scheme — REQUEST, RESPONSE,
CHANGE_MODE, ACQUISITION, RELEASE — are shared by the baseline schemes
(which use subsets of them), so message-complexity counts are directly
comparable across protocols: the network counts envelopes by payload
class name.

Every message that participates in a request/response round carries a
``round_id`` so late (deferred) responses are matched to the right
round and stale responses from a superseded round are discarded — the
paper leaves this bookkeeping implicit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

from ..sim.network import Message

__all__ = [
    "Timestamp",
    "ReqType",
    "ResType",
    "AcqType",
    "Request",
    "Response",
    "ChangeMode",
    "Acquisition",
    "Release",
    "NO_CHANNEL",
]

#: A request timestamp: (generation time, node id).  Comparing tuples
#: lexicographically yields the total order the paper's proofs rely on
#: (time first, node id as the tie-breaker).
Timestamp = Tuple[float, int]

#: Channel placeholder used by failed searches (paper's ``-1``).
NO_CHANNEL = -1


class ReqType(enum.IntEnum):
    """REQUEST.req_type (paper: 0 = update, 1 = search)."""

    UPDATE = 0
    SEARCH = 1


class ResType(enum.IntEnum):
    """RESPONSE.res_type (paper: reject/grant carry a channel id,
    search/status carry the responder's Use set)."""

    REJECT = 0
    GRANT = 1
    SEARCH = 2
    STATUS = 3
    #: Extension used by the advanced-update baseline ([3], Figure 11):
    #: a grant that is valid only if the earlier grantee's request fails.
    CONDITIONAL_GRANT = 4


class AcqType(enum.IntEnum):
    """ACQUISITION.acq_type (paper: 0 = non-search, 1 = search)."""

    NON_SEARCH = 0
    SEARCH = 1


@dataclass(frozen=True)
class Request(Message):
    """REQUEST(req_type, r, ts_j, j): sender j wants to acquire a channel.

    ``channel`` is the concrete channel sought for update requests and
    ``NO_CHANNEL`` for search requests (paper passes ``-1``).
    """

    req_type: ReqType
    channel: int
    ts: Timestamp
    sender: int
    round_id: int


@dataclass(frozen=True)
class Response(Message):
    """RESPONSE(res_type, j, ch): reply to a Request or ChangeMode.

    ``payload`` is a channel id for REJECT/GRANT (and CONDITIONAL_GRANT)
    and the sender's frozen ``Use`` set for SEARCH/STATUS.
    """

    is_reply = True

    res_type: ResType
    sender: int
    payload: Union[int, FrozenSet[int]]
    round_id: int


@dataclass(frozen=True)
class ChangeMode(Message):
    """CHANGE_MODE(mode, j): sender j switched local (0) / borrowing (1)."""

    mode: int
    sender: int
    round_id: int


@dataclass(frozen=True)
class Acquisition(Message):
    """ACQUISITION(acq_type, j, r): sender j acquired channel r.

    A failed search still broadcasts this with ``channel=NO_CHANNEL`` so
    that responders can decrement their ``waiting`` counters (Fig. 3,
    case 3 runs regardless of the search outcome).
    """

    acq_type: AcqType
    sender: int
    channel: int


@dataclass(frozen=True)
class Release(Message):
    """RELEASE(j, r): sender j relinquished channel r."""

    sender: int
    channel: int
