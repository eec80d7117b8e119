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

# The kernel tests about this many (power, point, transmitter) pairs at a time,
# and lays one lattice over at most _BLOCK_POINTS points.
_CHUNK_PAIRS = 1 << 12
_BLOCK_POINTS = 1 << 12
# power_sweep computes R' for at most this many (power, transmitter) pairs at a time.
_SWEEP_PAIRS = 1 << 14
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


def channel_mask(channels: Iterable[int]) -> int:
    """Bit ``ch - 21`` set for each channel ``ch``: the mask form of a channel set."""
    return sum(1 << (ch - CHANNEL_MIN) for ch in channels)


def channel_bits(db: TransmitterDb, plan: ChannelPlan) -> np.ndarray:
    """Per transmitter, bit ``ch - 21`` set for each interleaved channel ``ch`` it carries."""
    return np.array([channel_mask(tx.channels & plan.interleaved) for tx in db], dtype=np.uint64)


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

    def inside(self, east: np.ndarray, north: np.ndarray, t: np.ndarray) -> np.ndarray:
        """d < R' at every power, pairing point (``east[k]``, ``north[k]``) with ``t[k]``."""
        d = np.hypot(east - self.east[t], north - self.north[t])
        r = self.radii[:, t]
        inside = d < r
        gap = d / r  # |d / R' - 1|, computed in place
        gap -= 1.0
        for p, k in zip(*np.nonzero(np.abs(gap, out=gap) <= _TIE_BAND)):
            tk = t[k]
            exact = math.hypot(east[k] - self.east[tk], north[k] - self.north[tk])
            inside[p, k] = exact < keepout_radius(
                self.powers[p], float(self.erp[tk]), float(self.coverage[tk]), self.prop
            )
        return inside


def _lattice(
    east: np.ndarray, north: np.ndarray, reach: np.ndarray
) -> tuple[float, float, float, int, int]:
    """``(e0, n0, edge, nx, ny)``: square buckets over the points' bounding box.

    edge = cbrt(2r * area / points), for the mean reach r, balances buckets
    listed per transmitter (~(2r / edge)^2) against pairs per point
    (~(2r + edge)^2 / area); it never leaves many more buckets than points.
    """
    e0, n0 = float(east.min()), float(north.min())
    width, height = float(east.max()) - e0, float(north.max()) - n0
    r = float(np.minimum(reach, max(width, height)).mean())
    area, n = width * height, east.size
    edge = max((2.0 * r * area / n) ** (1 / 3), math.sqrt(area / n), width / n, height / n, 1.0)
    nx = int(math.floor(width / edge)) + 1
    ny = int(math.floor(height / edge)) + 1
    return e0, n0, edge, nx, ny


def occupied_masks(
    kd: KeepoutDisks, bits: np.ndarray, east: np.ndarray, north: np.ndarray
) -> np.ndarray:
    """The disk-model kernel: ``uint64`` occupied-channel masks, shape (powers, points).

    A transmitter blocks its channels ``bits`` (see :func:`channel_bits`)
    where a point is strictly inside its keep-out radius; the boundary
    itself is permitted.  Only pairs that can be that close are compared, by
    a cell-list join (Bentley & Friedman, ACM Comput. Surv. 11(4), 1979):
    each transmitter is listed in the buckets of :func:`_lattice` that its
    reach box touches, and each point meets the transmitters listed in its
    own bucket.  The box is R' at the largest power, widened past the tie
    band and by a metre for the rounding of its ends, so every pair the tie
    rule re-decides is a candidate.  Points go a block at a time, each block
    on its own lattice, and their candidates about ``_CHUNK_PAIRS`` at a time.
    """
    masks = np.zeros((len(kd.powers), east.size), dtype=np.uint64)
    keep = np.flatnonzero(bits)
    if not keep.size:
        return masks
    reach = kd.radii[:, keep].max(axis=0) * (1.0 + 4 * _TIE_BAND) + 1.0
    budget = max(1, _CHUNK_PAIRS // len(kd.powers))
    for i in range(0, east.size, _BLOCK_POINTS):
        e, n = east[i : i + _BLOCK_POINTS], north[i : i + _BLOCK_POINTS]
        e0, n0, edge, nx, ny = _lattice(e, n, reach)
        # every (bucket, transmitter) listing, sorted by bucket
        centre = np.stack([kd.east[keep], kd.north[keep]]) - np.array([[e0], [n0]])
        lo = np.floor((centre - reach) / edge).clip(0, [[nx], [ny]]).astype(np.int64)
        hi = np.floor((centre + reach) / edge).clip(-1, [[nx - 1], [ny - 1]]).astype(np.int64)
        (x0, y0), (wx, wy) = lo, np.maximum(hi - lo + 1, 0)
        cells = wx * wy
        listed = np.repeat(keep, cells)
        j = np.arange(listed.size) - np.repeat(np.cumsum(cells) - cells, cells)
        wx = np.repeat(wx, cells)
        bucket = (np.repeat(y0, cells) + j // wx) * nx + np.repeat(x0, cells) + j % wx
        order = np.argsort(bucket, kind="stable")
        bucket, listed = bucket[order], listed[order]
        # each point's run of listings, taken in chunks of about `budget` pairs
        at = (np.floor((n - n0) / edge) * nx + np.floor((e - e0) / edge)).astype(np.int64)
        first = np.searchsorted(bucket, at, "left")
        counts = np.searchsorted(bucket, at, "right") - first
        ends = np.cumsum(counts)
        a = 0
        while a < e.size:
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + budget, "right")))
            c, starts = counts[a:b], ends[a:b] - counts[a:b] - done
            if ends[b - 1] > done:
                t = listed[np.arange(ends[b - 1] - done) + np.repeat(first[a:b] - starts, c)]
                inside = kd.inside(np.repeat(e[a:b], c), np.repeat(n[a:b], c), t)
                hit = np.flatnonzero(c)
                masks[:, i + a + hit] = np.bitwise_or.reduceat(
                    np.where(inside, bits[t], np.uint64(0)), starts[hit], axis=1
                )
            a = b
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
    t = np.arange(len(db))
    east, north = np.full(t.size, q.location.easting), np.full(t.size, q.location.northing)
    blockers: dict[int, list[str]] = {}
    for k in np.flatnonzero(kd.inside(east, north, t)[0]):
        tx = db.transmitters[k]
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
) -> np.ndarray:
    """:func:`availability`'s occupied channels at many locations, one :func:`channel_mask` each."""
    kd = KeepoutDisks.build(db, disks, [p_cr_watts], prop)
    east = np.array([loc.easting for loc in locations], dtype=float)
    north = np.array([loc.northing for loc in locations], dtype=float)
    return occupied_masks(kd, channel_bits(db, plan), east, north)[0]


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


def vacancy(
    occupied: np.ndarray, plan: ChannelPlan, extra_blockers: Iterable[int] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Vacant and N+-1 filtered masks for occupied ones: ``result.vacant`` and adjacent_filter."""
    vacant = np.uint64(channel_mask(plan.interleaved)) & ~occupied
    blocked = occupied | np.uint64(channel_mask(extra_blockers))
    one = np.uint64(1)
    return vacant, vacant & ~(blocked << one) & ~(blocked >> one)


def popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each ``uint64`` mask, by byte table (numpy < 2 has no bitwise_count)."""
    per_byte = _POPCOUNT8[np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)]
    return per_byte.reshape(*masks.shape, 8).sum(axis=-1, dtype=int)


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
    block = max(1, _SWEEP_PAIRS // max(1, len(db)))  # powers per kernel call
    kds = (KeepoutDisks.build(db, disks, powers[i : i + block], prop)
           for i in range(0, len(powers), block))
    masks = np.concatenate([occupied_masks(kd, bits, east, north)[:, 0] for kd in kds])
    vacant, kept = vacancy(masks, plan)
    return list(zip(powers, popcount(vacant).tolist(), popcount(kept).tolist()))


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
    centres = (a.ravel() for a in np.meshgrid(centers_e, centers_n))  # freed after the call
    masks = occupied_masks(kd, channel_bits(db, plan), *centres)[0]
    values = len(plan.interleaved) - popcount(masks).reshape(nrows, ncols)
    return RhoGrid(
        origin=NgPoint(region.min_e, region.min_n), cell_size_m=cell_size_m, values=values
    )
