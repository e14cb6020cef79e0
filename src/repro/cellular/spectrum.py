"""Spectrum partitioning and channel-reuse patterns.

Fixed channel allocation (and the primary sets ``PR_i`` of the paper's
hybrid scheme) rest on a *reuse pattern*: a k-coloring of the hex
lattice such that equal-colored cells are farther apart than the
interference radius.  Valid cluster sizes are the rhombic numbers
``k = i² + ij + j²`` (1, 3, 4, 7, 9, 12, 13, ...); k = 7 is the classic
AMPS pattern and the paper's implicit default.

The coloring is computed exactly: two cells share a color iff their
axial-coordinate difference lies in the reuse lattice generated by
``u = (i, j)`` and ``v = (-j, i+j)``.  Canonical representatives of the
quotient group Z²/L index the colors, so the construction works for any
valid (i, j) — including those with gcd(i, j) > 1 where simple modular
formulas fail.

A channel set can also be one ``int``, a *mask*: bit ``c`` is set iff
channel ``c`` is in the set.  :func:`mask`, :func:`channels` and
:func:`lowest` are the whole format; a popcount is
``bin(m).count("1")`` (``int.bit_count`` needs Python 3.10).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .hexgrid import Hex, HexGrid, hex_distance

__all__ = [
    "channels",
    "cluster_shift",
    "lowest",
    "mask",
    "valid_cluster_sizes",
    "ReusePattern",
    "Spectrum",
]


def mask(members: Iterable[int]) -> int:
    """The mask of a channel set."""
    m = 0
    for channel in members:
        m |= 1 << channel
    return m


def channels(m: int) -> List[int]:
    """The channels of mask ``m``, ascending (``sorted`` of the set)."""
    found = []
    while m:
        low = m & -m
        found.append(low.bit_length() - 1)
        m ^= low
    return found


def lowest(m: int) -> int:
    """The smallest channel of a non-empty mask (``min`` of the set)."""
    return (m & -m).bit_length() - 1


def valid_cluster_sizes(limit: int = 50) -> List[int]:
    """All rhombic cluster sizes i²+ij+j² up to ``limit``."""
    sizes = set()
    for i in range(0, limit + 1):
        for j in range(0, limit + 1):
            k = i * i + i * j + j * j
            if 0 < k <= limit:
                sizes.add(k)
    return sorted(sizes)


def cluster_shift(k: int) -> Tuple[int, int]:
    """Return shift parameters (i, j) with i²+ij+j² = k, i >= j >= 0.

    Raises ``ValueError`` if ``k`` is not a valid cluster size.
    """
    for i in range(int(math.isqrt(k)) + 1, -1, -1):
        for j in range(0, i + 1):
            if i * i + i * j + j * j == k:
                return (i, j)
    raise ValueError(
        f"{k} is not a valid reuse cluster size (need k = i^2+ij+j^2); "
        f"valid sizes: {valid_cluster_sizes(max(50, k))}"
    )


class ReusePattern:
    """A k-cell reuse coloring of a :class:`HexGrid`.

    Parameters
    ----------
    grid:
        The cell grid (wrapped grids are validated for compatibility:
        the torus translations must belong to the reuse lattice,
        otherwise the coloring would be inconsistent across the seam).
    cluster_size:
        k = i²+ij+j²; the shift (i, j) is :func:`cluster_shift` of it.
    """

    def __init__(self, grid: HexGrid, cluster_size: int = 7) -> None:
        self.grid = grid
        i, j = cluster_shift(cluster_size)
        self.cluster_size = cluster_size
        self.shift = (i, j)
        # Reuse lattice basis: u = (i, j), v = rotate60(u) = (-j, i+j).
        self._u = (i, j)
        self._v = (-j, i + j)
        self._det = cluster_size  # |det [[i, -j], [j, i+j]]| = i²+ij+j²

        if grid.wrap:
            self._validate_torus()

        self._colors: Dict[int, int] = {}
        self._rep_index: Dict[Tuple[int, int], int] = {}
        for cell in grid:
            h = grid.coord(cell)
            rep = self._canonical_rep(h.q, h.r)
            if rep not in self._rep_index:
                self._rep_index[rep] = len(self._rep_index)
            self._colors[cell] = self._rep_index[rep]
        if grid.num_cells >= cluster_size and len(self._rep_index) != cluster_size:
            raise AssertionError(
                f"coloring produced {len(self._rep_index)} colors, expected {cluster_size}"
            )

    # -- lattice arithmetic --------------------------------------------------
    def _lattice_coeffs(self, q: int, r: int) -> Tuple[float, float]:
        """Real coefficients (a, b) with (q, r) = a·u + b·v."""
        i, j = self.shift
        k = self._det
        # inverse of [[i, -j], [j, i+j]] is (1/k) [[i+j, j], [-j, i]]
        a = ((i + j) * q + j * r) / k
        b = (-j * q + i * r) / k
        return a, b

    def _in_lattice(self, q: int, r: int) -> bool:
        a, b = self._lattice_coeffs(q, r)
        return abs(a - round(a)) < 1e-9 and abs(b - round(b)) < 1e-9

    def _canonical_rep(self, q: int, r: int) -> Tuple[int, int]:
        """Unique representative of (q, r) modulo the reuse lattice."""
        a, b = self._lattice_coeffs(q, r)
        a0, b0 = math.floor(a + 1e-12), math.floor(b + 1e-12)
        uq, ur = self._u
        vq, vr = self._v
        return (q - a0 * uq - b0 * vq, r - a0 * ur - b0 * vr)

    def _validate_torus(self) -> None:
        g = self.grid
        if not (
            self._in_lattice(g.cols, 0) and self._in_lattice(0, g.rows)
        ):
            raise ValueError(
                f"torus {g.rows}x{g.cols} is incompatible with reuse "
                f"cluster k={self.cluster_size} (shift {self.shift}): grid "
                f"dimensions must be multiples that keep the coloring "
                f"consistent across the wrap seam"
            )

    # -- public API -----------------------------------------------------------
    def color(self, cell: int) -> int:
        """Reuse color (0..k-1) of a cell."""
        return self._colors[cell]

    @property
    def colors(self) -> Dict[int, int]:
        return dict(self._colors)

    def cells_of_color(self, color: int) -> List[int]:
        return sorted(c for c, col in self._colors.items() if col == color)

    def min_cochannel_distance(self) -> int:
        """Smallest hex-hop distance between equal-colored cells.

        This equals the hex-hop length of the shortest nonzero reuse
        lattice vector.
        """
        best = None
        # The shortest vector is among small integer combinations of u, v.
        for a in range(-2, 3):
            for b in range(-2, 3):
                if a == 0 and b == 0:
                    continue
                q = a * self._u[0] + b * self._v[0]
                r = a * self._u[1] + b * self._v[1]
                d = hex_distance(Hex(0, 0), Hex(q, r))
                if best is None or d < best:
                    best = d
        return best

    def validate_against_radius(self, interference_radius: int) -> None:
        """Check that same-color cells never interfere at this radius."""
        if self.min_cochannel_distance() <= interference_radius:
            raise ValueError(
                f"reuse cluster k={self.cluster_size} has co-channel "
                f"distance {self.min_cochannel_distance()} <= interference "
                f"radius {interference_radius}; increase the cluster size"
            )


class Spectrum:
    """The system's channel pool and its static primary partition.

    Channels are numbered 0..n-1 (the paper's 1..n).  Under a reuse
    pattern with k colors, channel ``c`` belongs to color ``c % k``,
    which yields a balanced partition: each color owns ``n // k`` or
    ``n // k + 1`` channels.
    """

    def __init__(self, num_channels: int) -> None:
        if num_channels < 1:
            raise ValueError("need at least one channel")
        self.num_channels = num_channels
        self.all_channels: FrozenSet[int] = frozenset(range(num_channels))

    def __len__(self) -> int:
        return self.num_channels

    def channels_of_color(self, color: int, k: int) -> FrozenSet[int]:
        """Channels assigned to a reuse color under a k-coloring."""
        if not (0 <= color < k):
            raise ValueError(f"color {color} outside 0..{k - 1}")
        return frozenset(c for c in range(self.num_channels) if c % k == color)

    def partition(self, counts) -> List[FrozenSet[int]]:
        """Split the spectrum into consecutive pools of given sizes.

        Used for demand-weighted static plans (``analysis.planning``):
        ``partition([30, 20, 20])`` gives pools {0..29}, {30..49},
        {50..69}.  Sizes must sum to the spectrum size.
        """
        counts = list(counts)
        if any(c < 0 for c in counts):
            raise ValueError("pool sizes must be >= 0")
        if sum(counts) != self.num_channels:
            raise ValueError(
                f"pool sizes sum to {sum(counts)}, expected {self.num_channels}"
            )
        pools: List[FrozenSet[int]] = []
        start = 0
        for size in counts:
            pools.append(frozenset(range(start, start + size)))
            start += size
        return pools

    def primary_sets(
        self,
        pattern: ReusePattern,
        channels_per_color: Optional[Dict[int, int]] = None,
    ) -> Dict[int, FrozenSet[int]]:
        """``PR_i`` for every cell i of the pattern's grid.

        By default the split is balanced (channel ``c`` to color
        ``c % k``).  ``channels_per_color`` gives each color an explicit
        pool size instead — a demand-weighted static plan.
        """
        k = pattern.cluster_size
        if channels_per_color is None:
            by_color = {
                color: self.channels_of_color(color, k) for color in range(k)
            }
        else:
            if sorted(channels_per_color) != list(range(k)):
                raise ValueError(
                    f"channels_per_color must cover colors 0..{k - 1}"
                )
            pools = self.partition(
                [channels_per_color[color] for color in range(k)]
            )
            by_color = dict(enumerate(pools))
        return {
            cell: by_color[pattern.color(cell)] for cell in pattern.grid
        }
