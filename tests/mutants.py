"""Kernel mutants the tier-1 tests must kill, and a runner that checks they still do.

Each entry of ``MUTANTS`` replaces one text in one file under ``src/`` with a
plausible mistake and names the tests that fail on it.  Killing every entry
shows the tests hold the argument that the mutated text carries, not only
the cases that happen to exercise it (mutation adequacy: DeMillo, Lipton
and Sayward, "Hints on Test Data Selection", IEEE Computer 1978).
``tests/test_mutants.py`` checks, in milliseconds, that each old text still
occurs exactly once under ``src/``, so an edit that moves guarded code has
to update its entry here.

Run from anywhere, optionally naming mutants::

    python tests/mutants.py [NAME ...]

Each mutant is applied to a temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, and its killing tests run there under the
``derandomized`` hypothesis profile, so a kill does not depend on the seed.
The exit status is 0 when every mutant is killed, 1 when one survives, and
2 when a mutant cannot be applied or its tests cannot run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once under src/
    new: str
    guards: str  # the argument the old text carries
    killed_by: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "exact-tie-not-strict", "src/tvws/availability.py",
        "math.hypot(de[k], dn[k]) < keepout_radius(", "math.hypot(de[k], dn[k]) <= keepout_radius(",
        "the keep-out test is strict, d < R', and a pair in the tie band is decided by the "
        "scalar definitions: a point exactly at R' may use the channel",
        (
            "tests/test_availability.py::TestAvailability::test_boundary_is_vacant",
            "tests/test_availability.py::TestKernelAtTheBoundary::test_grid_cell_centre_exactly_at_keepout_radius_is_vacant",
        ),
    ),
    Mutant(
        "tie-band-off", "src/tvws/availability.py",
        "_TIE_BAND = 2.0**-40", "_TIE_BAND = 0.0",
        "numpy's hypot and ** can miss the scalar definitions by an ulp, so pairs near a tie "
        "are decided again by math.hypot and keepout_radius",
        (
            "tests/test_availability.py::TestTieRule::test_hypot_rounding_at_the_boundary",
            "tests/test_availability.py::TestTieRule::test_scalar_keepout_two_ulps_past_numpy_reaches_the_point",
        ),
    ),
    Mutant(
        "adjacent-rule-without-n-minus-1", "src/tvws/availability.py",
        "return vacant & ~(blocked << 1) & ~(blocked >> 1)", "return vacant & ~(blocked >> 1)",
        "the N+-1 rule bars a channel whose lower neighbour is blocked, not only its upper one",
        (
            "tests/test_availability.py::TestAdjacentFilter::test_neighbours_of_occupied_dropped",
            "tests/test_acceptance.py::test_criterion_6_adjacent_filter_soundness_and_worst_case",
        ),
    ),
    Mutant(
        "grid-zone-zero", "src/tvws/availability.py",
        "_ZONE = 2.0**-36", "_ZONE = 0.0",
        "the lattice kernel's inner and outer intervals must leave out the cells the "
        "half-width's rounding can misplace, for KeepoutDisks.inside to decide",
        (
            "tests/test_availability.py::TestKernelAtTheBoundary::test_grid_cell_centre_exactly_at_keepout_radius_is_vacant",
            "tests/test_availability.py::TestLatticeKernel::test_millimetre_cells_across_the_top_of_a_disk",
        ),
    ),
    Mutant(
        "raster-nominate-edge", "src/tvws/availability.py",
        "(q_col <= ncols)", "(q_col < ncols)",
        "covers' cell index ceil(q) - 1 is in [0, n) exactly when 0 < q <= n, so a point on a "
        "raster's east edge is nominated",
        (
            "tests/test_coverage.py::TestRasterKernel::test_nominated_rasters_decide_as_covers_on_every_station",
        ),
    ),
    Mutant(
        "covers-at-q-zero", "src/tvws/coverage.py",
        "if 0 < q_col <= raster.ncols", "if 0 <= q_col <= raster.ncols",
        "at q = 0 the cell index ceil(q) - 1 is -1, which would wrap to the raster's last column",
        (
            "tests/test_coverage.py::TestRasterKernel::test_nominated_rasters_decide_as_covers_on_every_station",
        ),
    ),
    Mutant(
        "pack-fresh-same-tick", "src/tvws/coverage.py",
        "keys[:, 1:3] - 1 < mtime_ns - 1", "keys[:, 1:3] - 1 <= mtime_ns - 1",
        "a file changed within the tick its pack was written in can still show its old stat "
        "key, so the pack vouches only for files strictly older than itself",
        (
            "tests/test_pack.py::TestFreshRule::test_every_pair_of_times",
            "tests/test_pack.py::TestFreshness::test_racy_source",
        ),
    ),
    Mutant(
        "sweep-step-clearance-zero", "src/tvws/availability.py",
        "_STEP_CLEARANCE = 2.0**-30", "_STEP_CLEARANCE = 0.0",
        "power_sweep trusts a breakpoint only where R' clears d by more than its rounding "
        "just outside the window",
        (
            "tests/test_availability.py::TestPowerStaircase::test_powers_an_ulp_either_side_of_the_step",
        ),
    ),
    Mutant(
        "enclosing-disk-half-side", "src/tvws/coverage.py",
        "raster.cell_size_m * math.sqrt(2.0) / 2.0", "raster.cell_size_m / 2.0",
        "the enclosing disk pads by half a cell diagonal, so every covered cell's corners are "
        "inside it and the disk model is conservative",
        (
            "tests/test_coverage.py::TestEnclosingDisk::test_corners_always_inside_random",
            "tests/test_acceptance.py::test_criterion_8_disk_construction_on_random_rasters",
        ),
    ),
    Mutant(
        "contiguity-off-by-one", "src/tvws/availability.py",
        "max((hi - lo + 1 for lo, hi in runs)", "max((hi - lo for lo, hi in runs)",
        "a run from lo to hi holds hi - lo + 1 channels",
        (
            "tests/test_availability.py::TestContiguity::test_single_run",
            "tests/test_acceptance.py::test_criterion_7_contiguity_arithmetic",
        ),
    ),
    Mutant(
        "sweep-window-shifted", "src/tvws/availability.py",
        "_WINDOW = np.array([[-2], [-1], [0], [1]])", "_WINDOW = np.array([[-1], [0], [1], [2]])",
        "power_sweep confirms a breakpoint by the keep-out test at the two powers either side "
        "of where P* sorts, and checks its clearance one power further out each way",
        (
            "tests/test_availability.py::TestPowerStaircase::test_clear_steps_need_no_per_power_test",
            "tests/test_availability.py::TestPowerStaircase::test_powers_an_ulp_either_side_of_the_step",
        ),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text by its new one in ``root``'s copy of its file."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} is not in {mutant.file} exactly once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> int:
    """pytest's exit status for the mutant's killing tests on a mutated copy: 1 is a kill."""
    with tempfile.TemporaryDirectory(prefix="tvws-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        apply(mutant, root)
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--hypothesis-profile=derandomized", *mutant.killed_by]
        return subprocess.run(command, cwd=root, env={**os.environ, "PYTHONPATH": "src"},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if unknown := set(argv) - {m.name for m in MUTANTS}:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    status = 0
    for mutant in chosen:
        code = run(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{mutant.name}: {verdict}", flush=True)
        status = max(status, {0: 1, 1: 0}.get(code, 2))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
