"""Cellular substrate: hex geometry, reuse patterns, spectrum partition."""

from .geometry import (
    axial_to_xy,
    cell_center,
    grid_bounds,
    nearest_cell,
    xy_to_axial,
)
from .hexgrid import AXIAL_DIRECTIONS, Hex, HexGrid, hex_distance
from .spectrum import ReusePattern, Spectrum, cluster_shift, valid_cluster_sizes
from .topology import CellularTopology, topology_for

__all__ = [
    "Hex",
    "HexGrid",
    "hex_distance",
    "AXIAL_DIRECTIONS",
    "ReusePattern",
    "Spectrum",
    "cluster_shift",
    "valid_cluster_sizes",
    "CellularTopology",
    "topology_for",
    "axial_to_xy",
    "xy_to_axial",
    "nearest_cell",
    "cell_center",
    "grid_bounds",
]
