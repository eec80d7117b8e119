from __future__ import annotations

import random

import pytest
from hypothesis import settings

import acceptance_log

from tvws.channel_plan import default_plan
from tvws.cli import main
from tvws.coverage import load_disks, load_rasters
from tvws.geo import NgPoint
from tvws.keepout import PropagationParams
from tvws.txdb import load_txdb

# tests/mutants.py runs each mutant's killing tests under this profile, so a kill
# does not depend on the seed
settings.register_profile("derandomized", derandomize=True, database=None)


@pytest.fixture(scope="session")
def plan():
    return default_plan()


@pytest.fixture(scope="session")
def prop():
    return PropagationParams()


@pytest.fixture(scope="session")
def uk81_dir(tmp_path_factory):
    """Full-envelope synthetic fixture tree, built once through the CLI."""
    out = tmp_path_factory.mktemp("uk81")
    code = main(["synth", "--preset", "uk81", "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="session")
def uk81(uk81_dir):
    """(db, rasters, disks) loaded from the uk81 fixture tree."""
    db = load_txdb((uk81_dir / "transmitters.csv").read_text())
    rasters = load_rasters(uk81_dir / "coverage", db)
    disks = load_disks(uk81_dir / "coverage", db)
    return db, rasters, disks


def random_point(rng: random.Random) -> NgPoint:
    return NgPoint(rng.uniform(0, 699_999), rng.uniform(0, 1_299_999))


def pytest_terminal_summary(terminalreporter):
    if acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(f"[PASS] {line}")
