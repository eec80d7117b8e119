"""TV white space availability engine for the UK UHF band.

Given a database of DTV transmitters and their coverage, answers: which
channels may a cognitive radio at a given location and transmit power use,
how fragmented are they, and how does the answer change with power?
"""

from tvws.availability import (
    AvailabilityResult,
    RhoGrid,
    adjacent_filter,
    availability,
    availability_grid,
    availability_lowpower,
    contiguity,
    power_sweep,
)
from tvws.channel_plan import (
    ChannelPlan,
    bandwidth_mhz,
    channel_to_band,
    default_plan,
    load_plan,
    plan_hash,
)
from tvws.coverage import (
    CoverageDisk,
    CoverageRaster,
    covers,
    enclosing_disk,
    load_disks,
    load_rasters,
    load_stations,
    nominal_coverage_radius,
    read_asc,
    synth_coverage,
    write_asc,
)
from tvws.errors import ParseError
from tvws.geo import (
    BoundingBox,
    NgPoint,
    distance,
    format_gridref,
    parse_gridref,
    parse_location,
)
from tvws.keepout import PropagationParams, QueryParams, keepout_radius, margin
from tvws.report import (
    LocationReport,
    build_report,
    emit_channel_chart,
    emit_csv,
    emit_json,
    emit_sweep,
    emit_sweep_json,
)
from tvws.txdb import (
    Transmitter,
    TransmitterDb,
    generate_synthetic,
    load_txdb,
    parse_watts,
    serialize,
)

__version__ = "0.1.0"

__all__ = [
    "AvailabilityResult",
    "BoundingBox",
    "ChannelPlan",
    "CoverageDisk",
    "CoverageRaster",
    "LocationReport",
    "NgPoint",
    "ParseError",
    "PropagationParams",
    "QueryParams",
    "RhoGrid",
    "Transmitter",
    "TransmitterDb",
    "adjacent_filter",
    "availability",
    "availability_grid",
    "availability_lowpower",
    "bandwidth_mhz",
    "build_report",
    "channel_to_band",
    "contiguity",
    "covers",
    "default_plan",
    "distance",
    "emit_channel_chart",
    "emit_csv",
    "emit_json",
    "emit_sweep",
    "emit_sweep_json",
    "enclosing_disk",
    "format_gridref",
    "generate_synthetic",
    "keepout_radius",
    "load_disks",
    "load_plan",
    "load_rasters",
    "load_stations",
    "load_txdb",
    "margin",
    "nominal_coverage_radius",
    "parse_gridref",
    "parse_location",
    "parse_watts",
    "plan_hash",
    "power_sweep",
    "read_asc",
    "serialize",
    "synth_coverage",
    "write_asc",
]
