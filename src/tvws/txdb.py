"""The DTV transmitter database: CSV ingestion, validation, synthesis.

The canonical power unit is watts (ERP); parsers accept ``mW``/``W``/``kW``
suffixes but everything downstream works on a single linear scale.
Antenna height is carried through for format fidelity only -- the keep-out
math never reads it.
"""

from __future__ import annotations

import csv
import io
import math
import random
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from tvws.channel_plan import CHANNEL_MAX, CHANNEL_MIN, ChannelPlan, channel_mask, mask_channels
from tvws.errors import ParseError
from tvws.geo import EASTING_MAX, NORTHING_MAX, BoundingBox, NgPoint, distance

CSV_HEADER = "id,easting,northing,erp_watts,antenna_height_m,channels"

# Typical UK DTT ERP range; rows outside it load with a warning.
ERP_TYPICAL_MIN_W = 25.0
ERP_TYPICAL_MAX_W = 200_000.0

_UNIT_FACTORS = {"mw": 1e-3, "w": 1.0, "kw": 1e3}


def parse_watts(text: str) -> float:
    """Parse a power with an optional mW/W/kW suffix; bare numbers are watts."""
    s = text.strip()
    factor = 1.0
    lower = s.lower()
    for suffix in ("mw", "kw", "w"):
        if lower.endswith(suffix):
            factor = _UNIT_FACTORS[suffix]
            s = s[: -len(suffix)]
            break
    try:
        value = float(s)
    except ValueError:
        raise ValueError(f"bad power value {text!r}") from None
    return value * factor


@dataclass(frozen=True)
class Transmitter:
    """One DTV station and the channels it radiates."""

    id: str
    position: NgPoint
    erp_watts: float
    antenna_height_m: float
    channels: frozenset[int]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("transmitter id must be nonempty")
        if not (math.isfinite(self.erp_watts) and self.erp_watts > 0):
            raise ValueError(f"transmitter {self.id!r}: ERP must be positive watts")
        if not self.channels:
            raise ValueError(f"transmitter {self.id!r}: channel set must be nonempty")
        for ch in self.channels:
            if not CHANNEL_MIN <= ch <= CHANNEL_MAX:
                raise ValueError(
                    f"transmitter {self.id!r}: channel {ch} outside "
                    f"{CHANNEL_MIN}..{CHANNEL_MAX}"
                )


class TransmitterDb:
    """The stations as columns, in file order; :class:`Transmitter` objects on first use.

    ``ids`` is a list of str; ``east``, ``north``, ``erp`` and ``height`` are
    float64 arrays, and ``channels`` holds each station's
    :func:`~tvws.channel_plan.channel_mask` as ``uint64``.  The kernels read
    only the columns, so a database loaded from a coverage pack builds no
    per-station object unless something asks for ``transmitters``.
    """

    def __init__(self, transmitters: Iterable[Transmitter] = (), source: str = "unknown"):
        transmitters = tuple(transmitters)
        seen: set[str] = set()
        for tx in transmitters:
            if tx.id in seen:
                raise ValueError(f"duplicate transmitter id {tx.id!r}")
            seen.add(tx.id)
        rows = [(tx.position.easting, tx.position.northing, tx.erp_watts, tx.antenna_height_m)
                for tx in transmitters]
        self._set_columns(
            [tx.id for tx in transmitters],
            np.array(rows, dtype=np.float64).reshape(-1, 4),
            np.array([channel_mask(tx.channels) for tx in transmitters], dtype=np.uint64),
            source,
        )
        self._transmitters: tuple[Transmitter, ...] | None = transmitters

    @classmethod
    def from_columns(
        cls, ids: list[str], floats: np.ndarray, channels: np.ndarray, source: str
    ) -> TransmitterDb:
        """A database of already validated columns; ``floats`` rows are (east, north, ERP, height)."""
        db = cls.__new__(cls)
        db._set_columns(ids, floats, channels, source)
        db._transmitters = None
        return db

    def _set_columns(self, ids, floats, channels, source) -> None:
        self.ids = ids
        self.floats = floats
        self.east, self.north, self.erp, self.height = floats.T
        self.channels = channels
        self.source = source

    @property
    def transmitters(self) -> tuple[Transmitter, ...]:
        if self._transmitters is None:
            self._transmitters = tuple(
                Transmitter(tx_id, NgPoint(e, n), erp, height, frozenset(mask_channels(mask)))
                for tx_id, (e, n, erp, height), mask in zip(
                    self.ids, self.floats.tolist(), self.channels.tolist()
                )
            )
        return self._transmitters

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.transmitters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransmitterDb):
            return NotImplemented
        return self.source == other.source and self.transmitters == other.transmitters

    def __repr__(self) -> str:
        return f"TransmitterDb({len(self)} transmitters, source={self.source!r})"


def _erp_note(erp: float, *, source: str, line: int) -> str | None:
    """The warning for an ERP outside the typical UK DTT range, if it is."""
    if ERP_TYPICAL_MIN_W <= erp <= ERP_TYPICAL_MAX_W:
        return None
    return (
        f"{source}:{line}: ERP {erp:g} W outside the typical UK DTT range "
        f"[{ERP_TYPICAL_MIN_W:g} W, {ERP_TYPICAL_MAX_W:g} W]"
    )


def _csv_fields(raw: str, *, source: str, line: int) -> list[str]:
    try:
        return next(csv.reader([raw]))
    except csv.Error as exc:  # a NUL byte, before Python 3.11
        raise ParseError(f"bad CSV line: {exc}", source=source, line=line) from None


def load_txdb(text: str, source: str = "txdb", *, notes: list[str] | None = None) -> TransmitterDb:
    """Load a transmitter database from CSV contents.

    Expected header: ``id,easting,northing,erp_watts,antenna_height_m,channels``
    with channels as ``;``-separated integers.  Lines starting with ``#``
    are comments; a ``# source: ...`` comment restores the provenance
    string written by :func:`serialize`.  A row whose ERP is outside the
    typical UK range loads with a warning; given ``notes``, the warnings'
    texts are appended to it instead of being issued.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("source:"):
                source = body[len("source:"):].strip()
            continue
        rows.append((lineno, raw))

    if not rows:
        raise ParseError("no header row found", source=source)

    header_line, header_raw = rows[0]
    header = [h.strip() for h in _csv_fields(header_raw, source=source, line=header_line)]
    if header != CSV_HEADER.split(","):
        raise ParseError(
            f"expected header {CSV_HEADER!r}, got {','.join(header)!r}",
            source=source,
            line=header_line,
        )

    transmitters: list[Transmitter] = []
    found: list[str] = [] if notes is None else notes
    first_row_of: dict[str, int] = {}
    for lineno, raw in rows[1:]:
        fields = _csv_fields(raw, source=source, line=lineno)
        if len(fields) != 6:
            raise ParseError(
                f"expected 6 fields, got {len(fields)}", source=source, line=lineno
            )
        tx_id, e_s, n_s, erp_s, height_s, chan_s = (f.strip() for f in fields)

        # <id>.asc and <id>.disk must be one file in the coverage directory
        if "\0" in tx_id or "/" in tx_id or tx_id in (".", ".."):
            raise ParseError(
                f"id {tx_id!r} cannot name a coverage file", source=source, line=lineno
            )
        if tx_id in first_row_of:
            raise ParseError(
                f"duplicate id {tx_id!r} (first seen on line {first_row_of[tx_id]})",
                source=source,
                line=lineno,
            )

        try:
            position = NgPoint(float(e_s), float(n_s))
        except ValueError as exc:
            raise ParseError(f"bad coordinates: {exc}", source=source, line=lineno) from None
        try:
            erp = parse_watts(erp_s)
            height = float(height_s)
        except ValueError as exc:
            raise ParseError(str(exc), source=source, line=lineno) from None

        chan_tokens = [t.strip() for t in chan_s.split(";") if t.strip()]
        if not chan_tokens:
            raise ParseError("empty channel list", source=source, line=lineno)
        try:
            channels = frozenset(int(t) for t in chan_tokens)
        except ValueError:
            raise ParseError(f"bad channel list {chan_s!r}", source=source, line=lineno) from None

        try:
            tx = Transmitter(tx_id, position, erp, height, channels)
        except ValueError as exc:
            raise ParseError(str(exc), source=source, line=lineno) from None
        note = _erp_note(erp, source=source, line=lineno)
        if note is not None:
            found.append(note)
        first_row_of[tx_id] = lineno
        transmitters.append(tx)

    if notes is None:
        for note in found:
            warnings.warn(note, stacklevel=2)
    return TransmitterDb(transmitters, source=source)


def serialize(db: TransmitterDb) -> str:
    """CSV text that :func:`load_txdb` reads back to an equal database."""
    out = io.StringIO()
    out.write(f"# source: {db.source}\n")
    out.write(CSV_HEADER + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for tx in db.transmitters:
        writer.writerow(
            [
                tx.id,
                tx.position.easting,
                tx.position.northing,
                tx.erp_watts,
                tx.antenna_height_m,
                ";".join(str(c) for c in sorted(tx.channels)),
            ]
        )
    return out.getvalue()


# Previously-placed transmitters inside this radius have their channels
# avoided when assigning a new transmitter's channels.
_REUSE_DISTANCE_M = 100_000.0


def generate_synthetic(
    seed: int, n: int, region: BoundingBox, plan: ChannelPlan
) -> TransmitterDb:
    """Deterministic synthetic transmitter database for desk-scale runs.

    Positions are uniform in ``region``, ERP is log-uniform across the
    typical UK range, and each transmitter gets 3-6 interleaved channels.
    Channel choice avoids channels already used within 100 km when it can,
    a crude stand-in for national frequency planning -- enough to make
    availability vary realistically from place to place, no more.
    """
    if n < 1:
        raise ValueError(f"need at least one transmitter, got n={n}")
    if region.is_empty():
        raise ValueError("region is empty")
    if not plan.interleaved:
        raise ValueError("plan has no interleaved channels to assign")

    rng = random.Random(seed)
    interleaved = sorted(plan.interleaved)
    width = len(str(n))
    transmitters: list[Transmitter] = []

    for i in range(1, n + 1):
        position = NgPoint(
            rng.uniform(region.min_e, min(region.max_e, EASTING_MAX - 1e-6)),
            rng.uniform(region.min_n, min(region.max_n, NORTHING_MAX - 1e-6)),
        )
        erp = math.exp(rng.uniform(math.log(ERP_TYPICAL_MIN_W), math.log(ERP_TYPICAL_MAX_W)))
        height = rng.uniform(50.0, 300.0)

        used_nearby: set[int] = set()
        for other in transmitters:
            if distance(position, other.position) < _REUSE_DISTANCE_M:
                used_nearby |= other.channels

        k = min(rng.randint(3, 6), len(interleaved))
        preferred = [c for c in interleaved if c not in used_nearby]
        if len(preferred) >= k:
            channels = rng.sample(preferred, k)
        else:
            channels = preferred + rng.sample(
                [c for c in interleaved if c in used_nearby], k - len(preferred)
            )

        transmitters.append(
            Transmitter(
                id=f"tx{i:0{width}d}",
                position=position,
                erp_watts=erp,
                antenna_height_m=height,
                channels=frozenset(channels),
            )
        )

    return TransmitterDb(
        tuple(transmitters), source=f"synthetic(seed={seed}, n={n})"
    )
