"""Closed-form performance models from the paper's §5 (Tables 1–3).

All expressions are parameterized exactly as in the paper:

=============  ==========================================================
``N``          number of nodes in the interference region of any cell
``N_search``   average number of cells in the neighborhood initiating a
               simultaneous search/update
``N_borrow``   average number of neighbors in borrowing mode
``alpha``      maximum borrow attempts before switching to search
``m``          average number of update attempts (``m <= alpha``)
``xi1/2/3``    fraction of acquisitions in local / borrowing-update /
               borrowing-search paths (``xi1 + xi2 + xi3 = 1``)
``n_p``        primary cells of a channel inside an interference region
``T``          maximum one-way message latency
=============  ==========================================================

Each scheme exposes ``message_complexity`` and ``acquisition_time``
(per channel acquisition), plus the low-load specialisations of Table 2
and the min/max bounds of Table 3, and ``measured_params(report, N)``:
the parameters above as one run measured them (a report is read by
attribute; nothing here imports the simulator).

Note: the paper's Table 1 prints the adaptive row as
``2ξ1·N_borrow + 3ξ3·mN + 2ξ3(α+2)N``; the derivation in the body of §5
gives ``2ξ1·N_borrow + 3ξ2·mN + ξ3(3α+4)N``.  We implement the body's
derivation and flag the typo in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = [
    "ModelParams",
    "basic_search",
    "basic_update",
    "advanced_update",
    "adaptive",
    "fixed",
    "SchemeModel",
    "MODELS",
    "low_load_table",
    "bounds_table",
]


@dataclass(frozen=True)
class ModelParams:
    """Inputs of the §5 analytical model."""

    N: float = 18.0
    N_search: float = 1.0
    N_borrow: float = 0.0
    alpha: float = 2.0
    m: float = 0.0
    xi1: float = 1.0
    xi2: float = 0.0
    xi3: float = 0.0
    n_p: float = 3.0
    T: float = 1.0

    def __post_init__(self) -> None:
        total = self.xi1 + self.xi2 + self.xi3
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"xi fractions must sum to 1 (got {total})")
        if self.m > self.alpha:
            raise ValueError("m cannot exceed alpha")

    @classmethod
    def low_load(cls, N: float = 18.0, n_p: float = 3.0, T: float = 1.0) -> "ModelParams":
        """The paper's low-load regime: ξ1=1, m=0, N_search=1, N_borrow=0."""
        return cls(N=N, N_search=1.0, N_borrow=0.0, m=0.0,
                   xi1=1.0, xi2=0.0, xi3=0.0, n_p=n_p, T=T)


@dataclass(frozen=True)
class SchemeModel:
    """A scheme's closed-form costs (Table 1) and bounds (Table 3)."""

    name: str
    message_complexity: "callable"
    acquisition_time: "callable"
    #: ``(report, N) -> ModelParams``: what to evaluate the two at.
    #: Raises ValueError where the run falls outside the model's domain.
    measured_params: "callable"
    msg_min: "callable"
    msg_max: "callable"
    time_min: "callable"
    time_max: "callable"


# -- Table 1 rows -----------------------------------------------------------
def _search_msgs(p: ModelParams) -> float:
    return 2 * p.N


def _search_time(p: ModelParams) -> float:
    return (p.N_search + 1) * p.T


def _update_msgs(p: ModelParams) -> float:
    return 2 * p.N * p.m + 2 * p.N


def _update_time(p: ModelParams) -> float:
    return 2 * p.T * p.m


def _advanced_msgs(p: ModelParams) -> float:
    return (1 - p.xi1) * (2 * p.n_p * p.m + p.n_p * (p.m - 1)) + 2 * p.N


def _advanced_time(p: ModelParams) -> float:
    return (1 - p.xi1) * 2 * p.T * p.m


def _adaptive_msgs(p: ModelParams) -> float:
    # §5 derivation (see module docstring about the Table 1 typo).
    return 2 * p.xi1 * p.N_borrow + 3 * p.xi2 * p.m * p.N + p.xi3 * (
        3 * p.alpha + 4
    ) * p.N


def _adaptive_time(p: ModelParams) -> float:
    return (2 * p.m * p.xi2 + (2 * p.alpha + p.N_search + 1) * p.xi3) * p.T


def _fixed_msgs(p: ModelParams) -> float:
    return 0.0


def _fixed_time(p: ModelParams) -> float:
    return 0.0


# -- Table 1 parameters, as measured by one run ------------------------------
def _search_params(report: Any, N: float) -> ModelParams:
    # Search has no retry concept; m is not used by its formulas.
    return ModelParams(N=N, N_search=1.0, m=0.0, xi1=0, xi2=0, xi3=1,
                       alpha=report.scenario.alpha)


def _update_params(report: Any, N: float) -> ModelParams:
    m = report.mean_attempts
    return ModelParams(N=N, m=m, alpha=max(m, 25), xi1=0, xi2=1, xi3=0)


def _advanced_params(report: Any, N: float) -> ModelParams:
    m = report.mean_attempts
    # A run too short to ground xi counts as all-local.
    xi1 = report.xi["local"] if any(report.xi.values()) else 1.0
    return ModelParams(N=N, n_p=3.0, m=max(m, 1.0), alpha=max(m, 25),
                       xi1=xi1, xi2=1 - xi1, xi3=0)


def _adaptive_params(report: Any, N: float) -> ModelParams:
    xi = report.xi
    total = sum(xi.values())
    if not total:  # as above: all-local
        xi, total = {"local": 1.0, "update": 0.0, "search": 0.0}, 1.0
    m = report.mean_attempts
    return ModelParams(
        N=N,
        N_search=1.0,
        N_borrow=report.measured_n_borrow,
        m=m,
        alpha=max(report.scenario.alpha, m),
        xi1=xi["local"] / total,
        xi2=xi["update"] / total,
        xi3=xi["search"] / total,
    )


def _fixed_params(report: Any, N: float) -> ModelParams:
    return ModelParams(N=N)


# -- Table 3 bounds ---------------------------------------------------------
INF = float("inf")

basic_search = SchemeModel(
    name="Basic Search",
    message_complexity=_search_msgs,
    acquisition_time=_search_time,
    measured_params=_search_params,
    msg_min=lambda p: 2 * p.N,
    msg_max=lambda p: 2 * p.N,
    time_min=lambda p: 2 * p.T,
    time_max=lambda p: (p.N + 1) * p.T,
)

basic_update = SchemeModel(
    name="Basic Update",
    message_complexity=_update_msgs,
    acquisition_time=_update_time,
    measured_params=_update_params,
    msg_min=lambda p: 2 * p.N,
    msg_max=lambda p: INF,
    time_min=lambda p: 2 * p.T,
    time_max=lambda p: INF,
)

advanced_update = SchemeModel(
    name="Advanced Update",
    message_complexity=_advanced_msgs,
    acquisition_time=_advanced_time,
    measured_params=_advanced_params,
    msg_min=lambda p: p.N,
    msg_max=lambda p: INF,
    time_min=lambda p: 0.0,
    time_max=lambda p: INF,
)

adaptive = SchemeModel(
    name="Adaptive (Proposed)",
    message_complexity=_adaptive_msgs,
    acquisition_time=_adaptive_time,
    measured_params=_adaptive_params,
    msg_min=lambda p: 0.0,
    msg_max=lambda p: 2 * p.alpha * p.N + 4 * p.N,
    time_min=lambda p: 0.0,
    time_max=lambda p: (2 * p.alpha * p.N + 1) * p.T,
)

fixed = SchemeModel(
    name="Fixed (FCA)",
    message_complexity=_fixed_msgs,
    acquisition_time=_fixed_time,
    measured_params=_fixed_params,
    msg_min=lambda p: 0.0,
    msg_max=lambda p: 0.0,
    time_min=lambda p: 0.0,
    time_max=lambda p: 0.0,
)

#: Scheme models keyed by the harness scheme name.
MODELS: Dict[str, SchemeModel] = {
    "basic_search": basic_search,
    "basic_update": basic_update,
    "advanced_update": advanced_update,
    "adaptive": adaptive,
    "fixed": fixed,
}


def low_load_table(N: float = 18.0, n_p: float = 3.0, T: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Table 2: message complexity and acquisition time at ξ1 = 1.

    The paper tabulates Basic Search 2N/2T, Basic Update 4N/2T,
    Advanced Update 2N/0, Adaptive 0/0.  Our formulas reproduce these
    with the convention that even at "low load" the two basic schemes
    run one request round per acquisition (m = 1 for update).
    """
    p_local = ModelParams.low_load(N=N, n_p=n_p, T=T)
    # At low load the basic schemes still pay a full round per call.
    p_update = ModelParams(N=N, N_search=1.0, N_borrow=0.0, m=1.0,
                           xi1=0.0, xi2=1.0, xi3=0.0, n_p=n_p, T=T)
    return {
        "basic_search": {
            "messages": basic_search.message_complexity(p_local),
            "time": basic_search.acquisition_time(p_local),
        },
        "basic_update": {
            "messages": basic_update.message_complexity(p_update),
            "time": basic_update.acquisition_time(p_update),
        },
        "advanced_update": {
            "messages": 2 * N,  # ACQUISITION + RELEASE broadcasts
            "time": 0.0,
        },
        "adaptive": {"messages": 0.0, "time": 0.0},
        "fixed": {"messages": 0.0, "time": 0.0},
    }


def bounds_table(N: float = 18.0, alpha: float = 2.0, T: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Table 3: min/max message complexity and acquisition time."""
    p = ModelParams(N=N, alpha=alpha, m=0.0, xi1=1.0, xi2=0.0, xi3=0.0, T=T)
    out: Dict[str, Dict[str, float]] = {}
    for key, model in MODELS.items():
        out[key] = {
            "msg_min": model.msg_min(p),
            "msg_max": model.msg_max(p),
            "time_min": model.time_min(p),
            "time_max": model.time_max(p),
        }
    return out
