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

Every disk-model answer is decided by one keep-out test,
:meth:`KeepoutDisks.inside`, through one of three kernels picked by the
input's shape: :func:`_point_masks` for one point at many powers
(:func:`availability` and :func:`power_sweep` only shape its input and
output), :func:`occupied_masks` for scattered points (:func:`batch_kernel`),
and :func:`_grid_fill` for the cell centres of :func:`availability_grid`, a
lattice, where each transmitter blocks one column interval per row.

Transmitters carrying cleared or excluded channels still show up in
:func:`availability`'s ``per_channel_blockers`` for diagnostics, but never
change ``rho``: availability is accounted over the interleaved plan only.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from tvws.channel_plan import CHANNEL_WIDTH_MHZ, ChannelPlan, channel_mask, mask_channels
from tvws.coverage import CoverageDisk, CoverageRaster, DiskSet, covers
from tvws.geo import BoundingBox, NgPoint
from tvws.keepout import PropagationParams, QueryParams, keepout_radius
from tvws.txdb import TransmitterDb

# occupied_masks tests about this many (point, transmitter) pairs at a time,
# and lays one lattice over at most _BLOCK_POINTS points.
_CHUNK_PAIRS = 1 << 12
_BLOCK_POINTS = 1 << 12
# power_sweep computes R' for at most this many (power, transmitter) pairs at a time.
_SWEEP_PAIRS = 1 << 14
# numpy's hypot and ** can differ from math.hypot and Python's ** in the
# last place, so a distance this close to R' (relative) is re-decided with
# the scalar definitions, geo.distance's arithmetic and keepout_radius.
_TIE_BAND = 2.0**-40
# _grid_fill leaves to KeepoutDisks.inside only the cells between the half-widths
# of R'(1 - _ZONE) and R'(1 + _ZONE), each widened by _MARGIN times the largest
# coordinate; the bound is argued there.
_ZONE = 2.0**-36
_MARGIN = 2.0**-48
# _grid_fill spreads blocks down one level this many cells at a time.
_FILL_CELLS = 1 << 14


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


def channel_bits(db: TransmitterDb, plan: ChannelPlan) -> np.ndarray:
    """Per transmitter, bit ``ch - 21`` set for each interleaved channel ``ch`` it carries."""
    return db.channels & np.uint64(channel_mask(plan.interleaved))


def _radii(db: TransmitterDb, disks: Mapping[str, CoverageDisk]) -> np.ndarray:
    """Each station's coverage radius, in ``db`` order."""
    if isinstance(disks, DiskSet) and disks.ids == db.ids:
        return disks.radii
    try:
        return np.array([disks[tx_id].radius_m for tx_id in db.ids], dtype=float)
    except KeyError as exc:
        raise ValueError(f"no coverage disk for transmitter {exc.args[0]!r}") from None


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
        east, north, erp, coverage = db.east, db.north, db.erp, _radii(db, disks)
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
        with np.errstate(over="ignore"):  # a subnormal R' gives gap = inf, outside the band
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
    """The disk-model kernel for scattered points: one ``uint64`` occupied mask per point.

    A transmitter blocks its channels ``bits`` (see :func:`channel_bits`)
    where a point is strictly inside its keep-out radius at ``kd.powers[0]``;
    the boundary itself is permitted.  Only pairs that can be that close are
    compared, by a cell-list join (Bentley & Friedman, ACM Comput. Surv.
    11(4), 1979): each transmitter is listed in the buckets of
    :func:`_lattice` that its reach box touches, and each point meets the
    transmitters listed in its own bucket.  The box is R', widened past the
    tie band and by a metre for the rounding of its ends, so every pair the
    tie rule re-decides is a candidate.  Points go a block at a time, each
    block on its own lattice, and their candidates about ``_CHUNK_PAIRS`` at
    a time.  The cell centres of a grid go through :func:`_grid_fill` instead.
    """
    masks = np.zeros(east.size, dtype=np.uint64)
    keep = np.flatnonzero(bits)
    if not keep.size:
        return masks
    reach = kd.radii[0, keep] * (1.0 + 4 * _TIE_BAND) + 1.0
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
        # each point's run of listings, taken in chunks of about _CHUNK_PAIRS pairs
        at = (np.floor((n - n0) / edge) * nx + np.floor((e - e0) / edge)).astype(np.int64)
        first = np.searchsorted(bucket, at, "left")
        counts = np.searchsorted(bucket, at, "right") - first
        ends = np.cumsum(counts)
        a = 0
        while a < e.size:
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + _CHUNK_PAIRS, "right")))
            c, starts = counts[a:b], ends[a:b] - counts[a:b] - done
            if ends[b - 1] > done:
                t = listed[np.arange(ends[b - 1] - done) + np.repeat(first[a:b] - starts, c)]
                inside = kd.inside(np.repeat(e[a:b], c), np.repeat(n[a:b], c), t)[0]
                hit = np.flatnonzero(c)
                masks[i + a + hit] = np.bitwise_or.reduceat(
                    np.where(inside, bits[t], np.uint64(0)), starts[hit]
                )
            a = b
    return masks


def _point_masks(
    kd: KeepoutDisks, bits: np.ndarray, loc: NgPoint
) -> tuple[np.ndarray, np.ndarray]:
    """The disk-model kernel for one point: occupied masks per power, and ``inside``.

    ``inside[p, t]`` is whether ``loc`` lies strictly inside transmitter
    ``t``'s keep-out disk at ``kd.powers[p]``, by :meth:`KeepoutDisks.inside`
    over every transmitter; ``masks[p]`` ORs the ``bits`` (see
    :func:`channel_bits`) of the transmitters inside at that power.
    """
    t = np.arange(kd.east.size)
    inside = kd.inside(np.full(t.size, loc.easting), np.full(t.size, loc.northing), t)
    return np.bitwise_or.reduce(np.where(inside, bits, np.uint64(0)), axis=1), inside


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
    masks, inside = _point_masks(kd, channel_bits(db, plan), q.location)
    blockers: dict[int, list[str]] = {}
    for k in np.flatnonzero(inside[0]).tolist():
        for ch in mask_channels(int(db.channels[k])):
            blockers.setdefault(ch, []).append(db.ids[k])
    return _result(q.location, q.p_cr_watts, plan, mask_channels(int(masks[0])), blockers)


def batch_kernel(
    db: TransmitterDb,
    disks: Mapping[str, CoverageDisk],
    plan: ChannelPlan,
    p_cr_watts: float,
    prop: PropagationParams,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Occupied-channel masks as a function of the locations' eastings and northings alone.

    What every call shares, the keep-out disks and the channel bits, is
    built once here, so parts of one batch can be answered separately.
    """
    kd = KeepoutDisks.build(db, disks, [p_cr_watts], prop)
    return functools.partial(occupied_masks, kd, channel_bits(db, plan))


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
    occupied = 0
    for tx_id, mask in zip(db.ids, db.channels.tolist()):
        raster = rasters.get(tx_id)
        if raster is None:
            raise ValueError(f"no coverage raster for transmitter {tx_id!r}")
        if covers(raster, loc):
            occupied |= mask
    return _result(loc, 0.0, plan, mask_channels(occupied))


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
    block = max(1, _SWEEP_PAIRS // max(1, len(db)))  # powers per kernel call
    kds = (KeepoutDisks.build(db, disks, powers[i : i + block], prop)
           for i in range(0, len(powers), block))
    masks = np.concatenate([_point_masks(kd, bits, loc)[0] for kd in kds])
    vacant, kept = vacancy(masks, plan)
    return list(zip(powers, np.bitwise_count(vacant).tolist(), np.bitwise_count(kept).tolist()))


@dataclass(eq=False)
class RhoGrid:
    """Vacant-channel counts over a region (row 0 = southern row)."""

    origin: NgPoint
    cell_size_m: float
    values: np.ndarray  # uint8, shape (nrows, ncols)

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


def _or_intervals(
    masks: np.ndarray, start: np.ndarray, length: np.ndarray, bits: np.ndarray
) -> None:
    """OR ``bits[i]`` into the ``length[i] > 0`` cells of ``masks`` from flat index ``start[i]``.

    Each interval lies in one row of the 2-D ``masks``.  A sparse-table fill:
    an interval of length L is the two blocks of 2^k cells, k = floor(log2 L),
    that start at its two ends.  Level by level from the top, each block is
    ORed into its first cell with ``np.bitwise_or.at``, then every cell's
    value spreads to the cell 2^(k-1) to its right, in place and a few rows
    at a time, which splits each block of the level into its two halves.
    """
    if not start.size:
        return
    flat = masks.reshape(-1)
    level = np.frexp(length)[1] - 1
    other = start + length - (np.int64(1) << level)
    step = max(1, _FILL_CELLS // masks.shape[1])
    for k in range(int(level.max()), -1, -1):
        at = level == k
        np.bitwise_or.at(flat, start[at], bits[at])
        np.bitwise_or.at(flat, other[at], bits[at])
        if k:
            half = 1 << (k - 1)
            for r in range(0, masks.shape[0], step):
                part = masks[r : r + step]
                part[:, half:] |= part[:, :-half]


def _grid_fill(
    masks: np.ndarray,
    kd: KeepoutDisks,
    bits: np.ndarray,
    centers_e: np.ndarray,
    centers_n: np.ndarray,
) -> None:
    """The disk-model kernel for a lattice: OR each transmitter's ``bits`` into ``masks``.

    ``masks[row, col]`` gets the bits of every transmitter whose keep-out
    disk at ``kd.powers[0]`` strictly contains (``centers_e[col]``,
    ``centers_n[row]``); both centre arrays ascend.  In each row a disk's
    reach box touches, the cells it contains are one column interval: the
    centres within sqrt(R'^2 - dy^2) of its easting, found by ``searchsorted``
    and ORed in by :func:`_or_intervals`.  Rows go in bands of about
    ``_CHUNK_PAIRS`` (transmitter, row) pairs.

    Exactness.  Outside the tie band, :meth:`KeepoutDisks.inside` answers
    d < R' with ``np.hypot`` (within an ulp), so a centre closer than
    R'(1 - 2^-39) is inside and one farther than R'(1 + 2^-39) is not.  The
    half-widths are taken at r = R'(1 -+ _ZONE) as sqrt(r - dy) * sqrt(r + dy),
    which cannot overflow; each operation rounds by at most u = 2^-53 of its
    own result, so a squared half-width lands within 20u * R'^2 of
    r^2 - dy^2, and 2 * _ZONE = 2^-35 > 2^-38 + 20u.  Rounding an interval
    end te -+ h cannot move a float centre across it (a float above the
    rounded end is above the exact one); besides, the half-widths are moved
    in or out by _MARGIN * X = 32u * X, for X the largest coordinate, which
    alone exceeds the part of that rounding, u * X, that _ZONE does not
    cover.  So every cell of an inner interval is closer than R'(1 - 2^-39),
    and every cell outside the outer one, or in a row the reach box (taken
    the same way) leaves out, is farther than R'(1 + 2^-39), for any
    positive R', tiny or infinite.  Only the cells between the two
    intervals go through :meth:`KeepoutDisks.inside`, and typical grids
    have none.
    """
    keep = np.flatnonzero(bits)
    if not keep.size:
        return
    nrows, ncols = masks.shape
    east, north, bits, radius = kd.east[keep], kd.north[keep], bits[keep], kd.radii[0, keep]
    r_in, r_out = radius * (1.0 - _ZONE), radius * (1.0 + _ZONE)
    ends = np.abs([centers_e[0], centers_e[-1], centers_n[0], centers_n[-1]])
    margin = _MARGIN * max(float(ends.max()), float(east.max()), float(north.max()))
    first = np.searchsorted(centers_n, north - (r_out + margin), "left")
    last = np.searchsorted(centers_n, north + (r_out + margin), "right")
    edges = np.bincount(first, minlength=nrows + 1) - np.bincount(last, minlength=nrows + 1)
    per_row = np.cumsum(edges[:nrows])  # (transmitter, row) pairs in each row
    through = np.cumsum(per_row)
    r0 = 0
    while r0 < nrows:
        budget = through[r0] - per_row[r0] + _CHUNK_PAIRS
        r1 = max(r0 + 1, int(np.searchsorted(through, budget, "right")))
        lo_row = np.maximum(first, r0)
        n = np.minimum(last, r1) - lo_row
        t = np.flatnonzero(n > 0)  # each (transmitter, row) pair of the band, by transmitter
        t, row = np.repeat(t, n[t]), np.repeat(lo_row[t] - (np.cumsum(n[t]) - n[t]), n[t])
        row += np.arange(t.size)
        dy = np.abs(centers_n[row] - north[t])
        e, ri, ro = east[t], r_in[t], r_out[t]
        h_in = np.sqrt(np.maximum(ri - dy, 0.0)) * np.sqrt(ri + dy) - margin
        h_out = np.sqrt(np.maximum(ro - dy, 0.0)) * np.sqrt(ro + dy) + margin
        lo = np.searchsorted(centers_e, e - h_out, "left")
        il = np.searchsorted(centers_e, e - h_in, "right")
        ih = np.maximum(np.searchsorted(centers_e, e + h_in, "left"), il)
        hi = np.searchsorted(centers_e, e + h_out, "right")
        band, base = masks[r0:r1], (row - r0) * ncols
        full = np.flatnonzero(ih > il)
        _or_intervals(band, base[full] + il[full], ih[full] - il[full], bits[t[full]])
        # the zone, columns [lo, il) and [ih, hi), goes through the keep-out test
        left, zone = il - lo, il - lo + hi - ih
        if zone.any():
            k = np.repeat(np.arange(t.size), zone)
            j = np.arange(k.size) - np.repeat(np.cumsum(zone) - zone, zone)
            col = np.where(j < left[k], lo[k] + j, ih[k] + j - left[k])
            hit = kd.inside(centers_e[col], centers_n[row[k]], keep[t[k]])[0]
            np.bitwise_or.at(band.reshape(-1), (base[k] + col)[hit], bits[t[k]][hit])
        r0 = r1


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
    deterministic and identical to pointwise queries.  The centres form a
    lattice, so the masks come from :func:`_grid_fill`, which costs about
    one interval per (transmitter, row) plus a few passes over the cells.
    """
    if region.is_empty():
        raise ValueError("region is empty")
    if cell_size_m <= 0:
        raise ValueError(f"cell size must be positive, got {cell_size_m}")

    ncols = max(1, int(np.ceil(region.width / cell_size_m)))
    nrows = max(1, int(np.ceil(region.height / cell_size_m)))
    masks = np.zeros((nrows, ncols), dtype=np.uint64)  # first: a grid too large fails here
    centers_e = region.min_e + (np.arange(ncols) + 0.5) * cell_size_m
    centers_n = region.min_n + (np.arange(nrows) + 0.5) * cell_size_m

    kd = KeepoutDisks.build(db, disks, [p_cr_watts], prop)
    _grid_fill(masks, kd, channel_bits(db, plan), centers_e, centers_n)
    # the masks hold interleaved channels only, so the vacant ones are the rest
    np.invert(masks, out=masks)
    masks &= np.uint64(channel_mask(plan.interleaved))
    values = np.bitwise_count(masks)
    return RhoGrid(
        origin=NgPoint(region.min_e, region.min_n), cell_size_m=cell_size_m, values=values
    )
