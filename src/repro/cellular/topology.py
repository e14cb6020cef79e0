"""Bundled cellular topology: grid + reuse pattern + spectrum.

A :class:`CellularTopology` is the single object the protocol layer
needs: it knows every cell's interference region ``IN_i``, primary set
``PR_i``, and the global channel pool ``Spectrum``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from .hexgrid import HexGrid
from .spectrum import ReusePattern, Spectrum, mask

__all__ = ["CellularTopology", "topology_for"]


class CellularTopology:
    """Immutable description of the cellular system under simulation.

    The paper fixes ``IN_i``, ``PR_i`` and ``Spectrum`` for the life of
    the system, and :func:`topology_for` hands one instance to every
    simulation of the same shape in this process — so the object is
    frozen once constructed: attributes cannot be rebound and the
    per-cell tables are read-only mappings (so an instance does not
    pickle; rebuild it from its scenario).  The freeze is shallow:
    ``grid``, ``pattern`` and ``spectrum`` are shared along with it and
    must not be mutated either.

    Parameters
    ----------
    rows, cols:
        Hex grid dimensions.
    num_channels:
        Size of the radio spectrum (paper's ``n``).
    cluster_size:
        Reuse cluster ``k`` (paper's implicit reuse pattern for PR sets).
    wrap:
        Toroidal grid (recommended for experiments; removes edge bias).
    channels_per_color:
        Optional demand-weighted static plan: explicit channel-pool
        size per reuse color (see ``analysis.planning``).  Default is
        the balanced split.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        num_channels: int,
        cluster_size: int = 7,
        wrap: bool = False,
        channels_per_color: Optional[Dict[int, int]] = None,
    ) -> None:
        self.grid = HexGrid(rows, cols, wrap=wrap)
        self.pattern = ReusePattern(self.grid, cluster_size)
        self.spectrum = Spectrum(num_channels)
        #: Reuse radius in cell hops, ``IN_i`` = all cells within it: the
        #: largest radius the reuse pattern safely supports.
        self.interference_radius = self.pattern.min_cochannel_distance() - 1
        #: ``IN_i`` for every cell i (read-only).
        self.interference: Mapping[int, FrozenSet[int]] = MappingProxyType(
            self.grid.interference_map(self.interference_radius)
        )
        #: ``PR_i`` for every cell i (read-only).
        self.primaries: Mapping[int, FrozenSet[int]] = MappingProxyType(
            self.spectrum.primary_sets(self.pattern, channels_per_color)
        )
        #: ``Spectrum`` and ``PR_i`` as channel masks (``spectrum.mask``).
        self.spectrum_mask = mask(self.spectrum.all_channels)
        self.primary_masks: Mapping[int, int] = MappingProxyType(
            {cell: mask(pr) for cell, pr in self.primaries.items()}
        )
        self._sorted_in: Dict[int, Tuple[int, ...]] = {
            cell: tuple(sorted(region))
            for cell, region in self.interference.items()
        }
        self._frozen = True

    def __setattr__(self, name: str, value: Any) -> None:
        if self.__dict__.get("_frozen"):
            raise AttributeError(
                f"CellularTopology is immutable (shared between "
                f"simulations): cannot set {name!r}"
            )
        object.__setattr__(self, name, value)

    @property
    def num_cells(self) -> int:
        return self.grid.num_cells

    @property
    def num_channels(self) -> int:
        return self.spectrum.num_channels

    def IN(self, cell: int) -> FrozenSet[int]:
        """Interference region of ``cell`` (excludes the cell itself)."""
        return self.interference[cell]

    def sorted_IN(self, cell: int) -> Tuple[int, ...]:
        """``IN_cell`` in ascending id order (deterministic iteration)."""
        return self._sorted_in[cell]

    def PR(self, cell: int) -> FrozenSet[int]:
        """Primary channel set of ``cell``."""
        return self.primaries[cell]

    def describe(self) -> str:
        """One-line human-readable summary."""
        g = self.grid
        sizes = {len(v) for v in self.interference.values()}
        return (
            f"{g.rows}x{g.cols} hex grid ({'torus' if g.wrap else 'plane'}), "
            f"{self.num_channels} channels, reuse k={self.pattern.cluster_size}, "
            f"interference radius {self.interference_radius} "
            f"(|IN| in {sorted(sizes)}), "
            f"{min(len(p) for p in self.primaries.values())}-"
            f"{max(len(p) for p in self.primaries.values())} primaries/cell"
        )


@lru_cache(maxsize=4)
def _shared_topology(
    rows: int,
    cols: int,
    num_channels: int,
    cluster_size: int,
    wrap: bool,
    channels_per_color: Optional[Tuple[Tuple[int, int], ...]],
) -> CellularTopology:
    return CellularTopology(
        rows,
        cols,
        num_channels=num_channels,
        cluster_size=cluster_size,
        wrap=wrap,
        channels_per_color=(
            None if channels_per_color is None else dict(channels_per_color)
        ),
    )


def topology_for(scenario: Any) -> CellularTopology:
    """The (shared, frozen) topology of ``scenario``'s shape.

    The one place a scenario becomes a :class:`CellularTopology`.
    Scenarios that agree on the six shape fields get the same object
    from a small least-recently-used memo, so replications and
    snapshot restores stop rebuilding identical static tables; a shape
    that fails validation raises every time (errors are not memoized).
    """
    plan = scenario.channels_per_color
    return _shared_topology(
        scenario.rows,
        scenario.cols,
        scenario.num_channels,
        scenario.cluster_size,
        scenario.wrap,
        None if plan is None else tuple(sorted(plan.items())),
    )
