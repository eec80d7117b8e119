"""The availability engine: which channels may a radio use, where, how loud.

A channel is *occupied* at a location when at least one transmitter
carrying it is too close -- closer than its keep-out radius for the
queried transmit power (disk model), or simply covering the location
(raster model, the zero-power limit).  Everything else in the interleaved
plan is *vacant*; ``rho`` counts the vacant interleaved channels.

Two tracks, mirroring how such studies are actually run:

* exact rasters for the low-power limit (:func:`availability_lowpower`),
* enclosing disks plus keep-out math for arbitrary power, which
  over-protects by construction, so its vacant set can only be a subset
  of the raster answer at zero power.

Every disk-model answer comes from one kernel, :func:`occupied_masks`;
:func:`availability`, :func:`availability_batch`, :func:`power_sweep` and
:func:`availability_grid` only shape its input and output.

Transmitters carrying cleared or excluded channels still show up in
``per_channel_blockers`` for diagnostics, but never change ``rho``:
availability is accounted over the interleaved plan only.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from tvws.channel_plan import CHANNEL_MIN, CHANNEL_WIDTH_MHZ, ChannelPlan
from tvws.coverage import CoverageDisk, CoverageRaster, covers
from tvws.geo import BoundingBox, NgPoint
from tvws.keepout import PropagationParams, QueryParams, keepout_radius
from tvws.txdb import TransmitterDb

# Kernel temporaries hold about this many (power, point, transmitter) pairs.
_CHUNK_PAIRS = 1 << 14
# numpy's hypot and ** can differ from math.hypot and Python's ** in the
# last place, so a distance this close to R' (relative) is re-decided with
# the scalar definitions, geo.distance's arithmetic and keepout_radius.
_TIE_BAND = 2.0**-40
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@dataclass
class AvailabilityResult:
    """Vacant/occupied split at one location and power."""

    location: NgPoint
    p_cr_watts: float
    vacant: frozenset[int]
    occupied: frozenset[int]
    rho: int
    per_channel_blockers: dict[int, tuple[str, ...]] | None = None  # None: not computed
    filtered_vacant: frozenset[int] | None = None


def _bits(channels: Iterable[int]) -> int:
    return sum(1 << (ch - CHANNEL_MIN) for ch in channels)


def channel_bits(db: TransmitterDb, plan: ChannelPlan) -> np.ndarray:
    """Per transmitter, bit ``ch - 21`` set for each interleaved channel ``ch`` it carries."""
    return np.array([_bits(tx.channels & plan.interleaved) for tx in db], dtype=np.uint64)


@dataclass(eq=False)
class KeepoutDisks:
    """Keep-out disks as arrays: ``radii[p, t]`` is R' of transmitter ``t`` at ``powers[p]``."""

    powers: list[float]
    prop: PropagationParams
    east: np.ndarray
    north: np.ndarray
    erp: np.ndarray
    coverage: np.ndarray
    radii: np.ndarray

    @classmethod
    def build(
        cls,
        db: TransmitterDb,
        disks: Mapping[str, CoverageDisk],
        powers: Sequence[float],
        prop: PropagationParams,
    ) -> KeepoutDisks:
        """R' once per (power, transmitter), by :func:`keepout_radius`'s formula.

        ERP and coverage radius are positive by construction of
        :class:`Transmitter` and :class:`CoverageDisk`; powers are checked here.
        """
        for p in powers:
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"transmit power must be >= 0 W, got {p}")
        try:
            rows = [
                (tx.position.easting, tx.position.northing, tx.erp_watts, disks[tx.id].radius_m)
                for tx in db
            ]
        except KeyError as exc:
            raise ValueError(f"no coverage disk for transmitter {exc.args[0]!r}") from None
        flat = np.fromiter(itertools.chain.from_iterable(rows), float, 4 * len(rows))
        east, north, erp, coverage = flat.reshape(-1, 4).T
        with np.errstate(over="ignore"):  # overflow gives R' = inf, as in keepout_radius
            radii = prop.beta_th * np.array(powers, dtype=float)[:, np.newaxis] / erp
            np.power(radii, 1.0 / prop.alpha, out=radii)
        radii += 1.0
        radii *= coverage
        return cls([float(p) for p in powers], prop, east, north, erp, coverage, radii)

    def inside(self, east: np.ndarray, north: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """d < R' for every power x point x transmitter in ``keep``."""
        d = np.hypot(
            east[:, np.newaxis] - self.east[keep], north[:, np.newaxis] - self.north[keep]
        )
        r = self.radii[:, np.newaxis, keep]
        inside = d < r
        gap = d / r  # |d / R' - 1|, computed in place
        gap -= 1.0
        for p, i, k in zip(*np.nonzero(np.abs(gap, out=gap) <= _TIE_BAND)):
            t = keep[k]
            exact = math.hypot(east[i] - self.east[t], north[i] - self.north[t])
            inside[p, i, k] = exact < keepout_radius(
                self.powers[p], float(self.erp[t]), float(self.coverage[t]), self.prop
            )
        return inside


def occupied_masks(
    kd: KeepoutDisks,
    bits: np.ndarray,
    east: np.ndarray,
    north: np.ndarray,
    keep: Sequence[int] | None = None,
) -> np.ndarray:
    """The disk-model kernel: ``uint64`` occupied-channel masks, shape (powers, points).

    A transmitter blocks its channels ``bits`` (see :func:`channel_bits`)
    where a point is strictly inside its keep-out radius; the boundary
    itself is permitted.  ``keep`` limits the transmitters compared
    (default: all with a bit set).  Points go a chunk at a time, so no
    points x transmitters matrix is built.
    """
    keep = np.flatnonzero(bits) if keep is None else np.asarray(keep)
    masks = np.zeros((kd.radii.shape[0], east.size), dtype=np.uint64)
    step = max(1, _CHUNK_PAIRS // (kd.radii.shape[0] * max(1, keep.size)))
    for i in range(0, east.size, step):
        inside = kd.inside(east[i : i + step], north[i : i + step], keep)
        masks[:, i : i + step] = np.bitwise_or.reduce(
            np.where(inside, bits[keep], np.uint64(0)), axis=2
        )
    return masks


def _result(
    location: NgPoint,
    p_cr_watts: float,
    plan: ChannelPlan,
    occupied: Iterable[int],
    blockers: dict[int, list[str]] | None = None,
) -> AvailabilityResult:
    occupied = frozenset(occupied) & plan.interleaved
    vacant = plan.interleaved - occupied
    listed = None if blockers is None else {ch: tuple(blockers[ch]) for ch in sorted(blockers)}
    return AvailabilityResult(location, p_cr_watts, vacant, occupied, len(vacant), listed)


def availability(
    db: TransmitterDb,
    disks: Mapping[str, CoverageDisk],
    plan: ChannelPlan,
    q: QueryParams,
) -> AvailabilityResult:
    """Disk-model availability at a location for a given transmit power.

    A transmitter blocks its channels when the query point is strictly
    inside its keep-out radius; sitting exactly on the boundary is
    permitted.  Also lists each channel's blocking transmitters.
    """
    kd = KeepoutDisks.build(db, disks, [q.p_cr_watts], q.prop)
    east, north = np.array([q.location.easting]), np.array([q.location.northing])
    keep = np.arange(len(db))
    blockers: dict[int, list[str]] = {}
    for t in keep[kd.inside(east, north, keep)[0, 0]]:
        tx = db.transmitters[t]
        for ch in tx.channels:
            blockers.setdefault(ch, []).append(tx.id)
    return _result(q.location, q.p_cr_watts, plan, blockers, blockers)


def availability_batch(
    db: TransmitterDb,
    disks: Mapping[str, CoverageDisk],
    plan: ChannelPlan,
    locations: Sequence[NgPoint],
    p_cr_watts: float,
    prop: PropagationParams,
) -> list[AvailabilityResult]:
    """:func:`availability` at many locations in one kernel call, without blockers."""
    kd = KeepoutDisks.build(db, disks, [p_cr_watts], prop)
    east = np.array([loc.easting for loc in locations], dtype=float)
    north = np.array([loc.northing for loc in locations], dtype=float)
    masks = occupied_masks(kd, channel_bits(db, plan), east, north)[0].tolist()
    return [
        _result(loc, p_cr_watts, plan, (c for c in plan.interleaved if m >> (c - CHANNEL_MIN) & 1))
        for loc, m in zip(locations, masks)
    ]


def availability_lowpower(
    db: TransmitterDb,
    rasters: Mapping[str, CoverageRaster],
    plan: ChannelPlan,
    loc: NgPoint,
) -> AvailabilityResult:
    """Raster-model availability: the zero-power upper bound.

    A transmitter blocks its channels exactly where its coverage map says
    it can be received.  This is the most optimistic vacant set a location
    can have; any positive transmit power only removes channels.
    """
    blockers: dict[int, list[str]] = {}
    for tx in db:
        raster = rasters.get(tx.id)
        if raster is None:
            raise ValueError(f"no coverage raster for transmitter {tx.id!r}")
        if covers(raster, loc):
            for ch in tx.channels:
                blockers.setdefault(ch, []).append(tx.id)
    return _result(loc, 0.0, plan, blockers, blockers)


def adjacent_filter(
    result: AvailabilityResult, extra_blockers: Iterable[int] = ()
) -> frozenset[int]:
    """Drop vacant channels whose immediate neighbours are occupied.

    High-power devices leak energy into channels N-1 and N+1, so regulators
    may bar a vacant channel whose neighbour still carries DTV.  Only
    DTV-occupied channels block; cleared and excluded neighbours do not,
    unless passed in via ``extra_blockers`` (the strict mode used for the
    withdrawn channels 61/62).  The surviving set is also stored on the
    result as ``filtered_vacant``.
    """
    blocked = set(result.occupied) | set(extra_blockers)
    kept = frozenset(
        ch for ch in result.vacant if ch - 1 not in blocked and ch + 1 not in blocked
    )
    result.filtered_vacant = kept
    return kept


def contiguity(vacant: Iterable[int]) -> tuple[list[tuple[int, int]], int]:
    """Maximal runs of consecutive vacant channels, plus the widest run in MHz.

    Fragmentation matters as much as the total: many radios need one
    contiguous block, so 12 vacant channels in runs of two offer them only
    16 MHz despite 96 MHz being nominally free.
    """
    channels = sorted(set(vacant))
    runs: list[tuple[int, int]] = []
    for ch in channels:
        if runs and ch == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], ch)
        else:
            runs.append((ch, ch))
    longest = max((hi - lo + 1 for lo, hi in runs), default=0)
    return runs, longest * CHANNEL_WIDTH_MHZ


def power_sweep(
    db: TransmitterDb,
    disks: Mapping[str, CoverageDisk],
    plan: ChannelPlan,
    loc: NgPoint,
    powers: Sequence[float],
    prop: PropagationParams,
) -> list[tuple[float, int, int]]:
    """Evaluate availability across transmit powers.

    Returns ``(power_watts, rho, filtered_rho)`` per input power, in input
    order.  Keep-out radii grow with power, so rho is nonincreasing along
    any ascending power list.
    """
    if not powers:
        raise ValueError("powers must be nonempty")
    bits = channel_bits(db, plan)
    east, north = np.array([loc.easting]), np.array([loc.northing])
    block = max(1, _CHUNK_PAIRS // max(1, len(db)))  # powers x transmitters per kernel call
    masks: list[int] = []
    for i in range(0, len(powers), block):
        kd = KeepoutDisks.build(db, disks, powers[i : i + block], prop)
        masks += occupied_masks(kd, bits, east, north)[:, 0].tolist()
    interleaved = _bits(plan.interleaved)
    points: list[tuple[float, int, int]] = []
    for p, occupied in zip(powers, masks):
        vacant = interleaved & ~occupied
        kept = vacant & ~(occupied << 1) & ~(occupied >> 1)  # adjacent_filter
        points.append((p, vacant.bit_count(), kept.bit_count()))
    return points


@dataclass(eq=False)
class RhoGrid:
    """Vacant-channel counts over a region (row 0 = southern row)."""

    origin: NgPoint
    cell_size_m: float
    values: np.ndarray  # int, shape (nrows, ncols)

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def cell_center(self, row: int, col: int) -> NgPoint:
        return NgPoint(
            self.origin.easting + (col + 0.5) * self.cell_size_m,
            self.origin.northing + (row + 0.5) * self.cell_size_m,
        )


def availability_grid(
    db: TransmitterDb,
    disks: Mapping[str, CoverageDisk],
    plan: ChannelPlan,
    region: BoundingBox,
    cell_size_m: float,
    p_cr_watts: float,
    prop: PropagationParams,
) -> RhoGrid:
    """Batch form of :func:`availability` over a region.

    Each cell holds rho evaluated at the cell centre; results are
    deterministic and identical to pointwise queries.
    """
    if region.is_empty():
        raise ValueError("region is empty")
    if cell_size_m <= 0:
        raise ValueError(f"cell size must be positive, got {cell_size_m}")

    ncols = max(1, int(np.ceil(region.width / cell_size_m)))
    nrows = max(1, int(np.ceil(region.height / cell_size_m)))
    centers_e = region.min_e + (np.arange(ncols) + 0.5) * cell_size_m
    centers_n = region.min_n + (np.arange(nrows) + 0.5) * cell_size_m

    kd = KeepoutDisks.build(db, disks, [p_cr_watts], prop)
    bits = channel_bits(db, plan)
    masks = np.zeros((nrows, ncols), dtype=np.uint64)
    for t in np.flatnonzero(bits):  # only the cells a transmitter's R' can reach
        reach = kd.radii[0, t] + 1.0  # a metre spare, so rounding cannot clip the window
        c0, c1 = np.searchsorted(centers_e, [kd.east[t] - reach, kd.east[t] + reach])
        r0, r1 = np.searchsorted(centers_n, [kd.north[t] - reach, kd.north[t] + reach])
        east, north = np.meshgrid(centers_e[c0:c1], centers_n[r0:r1])
        window = occupied_masks(kd, bits, east.ravel(), north.ravel(), [t])
        masks[r0:r1, c0:c1] |= window.reshape(east.shape)
    # rho = interleaved count - popcount, by byte table (numpy < 2 has no bitwise_count)
    per_byte = _POPCOUNT8[masks.view(np.uint8)].reshape(nrows, ncols, 8)
    values = len(plan.interleaved) - per_byte.sum(axis=2, dtype=int)
    return RhoGrid(
        origin=NgPoint(region.min_e, region.min_n), cell_size_m=cell_size_m, values=values
    )
