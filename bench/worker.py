"""One measured process: ``python3 bench/worker.py SPEC.json RESULT.json``.

``run.py`` starts a fresh worker for each pass so the peak resident set is
the workload's own, and so wrappers exist only in the traced pass.  The
untraced pass runs on a fixture ``run.py`` built and stops after
``seconds``.  The traced pass runs exactly ``epochs`` epochs on a copy of
that fixture (the workload phase), then rebuilds the fixture under the
tracer (the setup phase).
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
from pathlib import Path

from harness import build_fixture, run_loop, tree_digest, use_source_tree


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started the worker.

    Not ``ru_maxrss``: on Linux that keeps the peak of the process before
    ``exec``, which is the parent's size at the time it spawned the worker.
    ``VmHWM`` covers only the worker's own address space.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])
    use_source_tree()
    import tvws.cli  # noqa: F401  -- import cost stays outside the timed region

    result: dict = {}
    if spec["trace"]:
        from layer_trace import Tracer, layer_metrics

        # The workload goes first, so the traced pass meets the same fresh
        # process the untraced pass met; then the fixture is rebuilt traced.
        shutil.copytree(spec["fixture"], workdir / "data")
        tracer = Tracer()
        tracer.install()
        try:
            tracer.set_phase("workload")
            run = run_loop(spec["requests"], workdir, epochs=spec["epochs"], tracer=tracer)
            tracer.set_phase("setup")
            rebuild = workdir / "rebuild"
            rebuild.mkdir()
            seconds, errors = build_fixture(spec["workload"], spec["seed"], rebuild)
            result["setup"] = {"seconds": seconds, "errors": errors,
                               "fixture_digest": tree_digest(rebuild / "data")}
        finally:
            tracer.uninstall()
        metrics, absent = layer_metrics(tracer, run["attempted"])
        result.update(layer_metrics=metrics, absent=absent,
                      absent_functions=tracer.absent, spans=len(tracer.spans))
        tracer.dump(spec["spans_path"])
    else:
        run = run_loop(spec["requests"], workdir, seconds=spec["seconds"])
    result.update(run)
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
