"""Tests of the benchmark itself: inputs, tracing and the output checker."""

from __future__ import annotations

import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.use_source_tree()

import oracle_check  # noqa: E402
from harness import (  # noqa: E402
    EPOCH_MIX,
    batch_locations,
    build_fixture,
    interactive_epoch,
    run_loop,
)
from layer_trace import SPAN_TARGETS, Tracer, layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def uk81(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench-uk81")
    _seconds, errors = build_fixture("interactive-uk81", 0, workdir)
    assert errors == []
    return workdir


def small_epoch(seed: int, per_kind: int = 2) -> list[dict]:
    """The first few requests of each kind, in stream order."""
    taken: dict[str, int] = {}
    out = []
    for req in interactive_epoch(seed):
        if taken.get(req["kind"], 0) < per_kind:
            taken[req["kind"]] = taken.get(req["kind"], 0) + 1
            out.append(req)
    return out


def test_inputs_are_a_pure_function_of_the_seed():
    assert interactive_epoch(3) == interactive_epoch(3)
    assert interactive_epoch(3) != interactive_epoch(4)
    assert batch_locations(3, 200) == batch_locations(3, 200)
    assert batch_locations(3, 200) != batch_locations(4, 200)


def test_epoch_mix_does_not_depend_on_the_seed():
    for seed in range(3):
        kinds = [req["kind"] for req in interactive_epoch(seed)]
        assert {k: kinds.count(k) for k in EPOCH_MIX} == EPOCH_MIX


def test_traced_and_untraced_runs_give_identical_digests(uk81):
    import importlib

    cli = importlib.import_module("tvws.cli")
    kernels = importlib.import_module("tvws.availability")  # the package re-exports a function

    requests = small_epoch(11)
    plain = run_loop(requests, uk81, epochs=1)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_phase("workload")
        traced = run_loop(requests, uk81, epochs=1, tracer=tracer)
        assert hasattr(cli.availability, "__wrapped__")
    finally:
        tracer.uninstall()

    assert plain["failures"] == traced["failures"] == []
    assert traced["digests"] == plain["digests"]
    metrics, absent = layer_metrics(tracer, traced["attempted"])
    assert absent == []
    assert metrics["availability.availability.us_per_call"] > 0
    assert metrics["coverage.covers.calls"] > 0
    # every binding is back, including the CLI's command table
    assert cli.availability is kernels.availability
    assert not hasattr(kernels.availability, "__wrapped__")
    assert not hasattr(cli._COMMANDS["query"], "__wrapped__")


def test_a_missing_function_is_reported_absent():
    tracer = Tracer()
    tracer.install(SPAN_TARGETS + [("tvws.availability", "no_such_kernel", "span", None)])
    tracer.uninstall()
    assert tracer.absent == ["availability.no_such_kernel"]


def test_checker_counts_a_corrupted_rho(uk81):
    queries = [req for req in interactive_epoch(5) if req["kind"] == "query"][:1]
    run_loop(queries, uk81, epochs=1)
    stdout = (uk81 / "outputs" / "000.stdout").read_text()
    fixture = oracle_check.Fixture(uk81 / "data")
    assert oracle_check.check_query(fixture, queries[0], stdout) == []

    rho = int(re.search(r"rho=(\d+)", stdout).group(1))
    corrupted = stdout.replace(f"rho={rho}", f"rho={rho + 1}", 1)
    assert any("rho" in e for e in oracle_check.check_query(fixture, queries[0], corrupted))


def test_checker_counts_a_corrupted_batch_row(uk81):
    text, points = batch_locations(2, 30)
    (uk81 / "few.csv").write_text(text)
    req = {"kind": "batch", "out": None, "units": len(points),
           "argv": ["batch", *harness.DATA, "--locations", "few.csv", "--power", "100mW"]}
    run_loop([req], uk81, epochs=1)
    stdout = (uk81 / "outputs" / "000.stdout").read_text()
    fixture = oracle_check.Fixture(uk81 / "data")
    rng = random.Random(0)
    assert oracle_check.check_batch(fixture, points, 0.1, stdout, rng, sample=30) == []

    lines = stdout.splitlines()
    label, rho, rest = lines[2].split(",", 2)
    lines[2] = f"{label},{int(rho) + 1},{rest}"
    bad = oracle_check.check_batch(fixture, points, 0.1, "\n".join(lines) + "\n", rng, sample=30)
    assert bad == [f"row 0: rho {int(rho) + 1}, oracle {rho}"]


def test_gated_rate_is_whole_run_rate_and_median_latency():
    import run

    one = [{"kind": "batch", "units": 100}]
    assert run.gated_rate(one, [4.0, 1.0, 2.0], [3.0, 1.0, 2.0], "batch") == (300 / 7.0, 2.0)
    two = [{"kind": "query", "units": 1}, {"kind": "sweep", "units": 1}]
    sequence = [0.3, 0.5, 0.2, 0.1, 0.4, 0.1]  # three epochs
    assert run.gated_rate(two, sequence, sequence, "query") == pytest.approx((6 / 1.6, 0.3))


def test_rates_scale_by_the_whole_run_and_latencies_by_their_neighbours():
    import run
    from calibration import REFERENCE_S

    worker = {"sequence": [1.0, 1.0, 1.0], "slices": [0, 0, 1],
              "readings": [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S]}
    assert run.scaled(worker) == pytest.approx([0.6, 0.6, 0.6])
    assert run.locally_scaled(worker) == pytest.approx([1.0, 1.0, 0.5])


def test_speed_scales_times_to_the_reference_host(uk81):
    from calibration import REFERENCE_S, speed

    assert speed([REFERENCE_S] * 3) == pytest.approx(1.0)
    assert speed([REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(0.5)
    run = run_loop(small_epoch(2, per_kind=1), uk81, epochs=1)
    assert len(run["readings"]) >= 2 and all(r > 0 for r in run["readings"])


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-n1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
