"""Outside-in tracing of the ``tvws`` layers, and the per-layer metrics.

:class:`Tracer` rebinds each listed public function, both in its own
module and in every ``tvws`` module (or module-level dict, such as the
CLI's command table) that holds the same object, with a wrapper that
records a span or a count.  Nothing under ``src/`` knows about it, and
:meth:`Tracer.uninstall` puts every original back.  Untraced runs never
construct a Tracer.

A span is ``[name, start, end, parent, request, phase, payload]``.  Its
parent is the innermost open span on the same thread; a span opened on a
pool thread with nothing open hangs under the pool that runs it.  Self
time is a span's duration minus the union of its children's intervals.
Functions called once per (point, transmitter) pair only count calls and
the distinct keys they see.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def _len_result(args, kwargs, result):
    return len(result)


def _cells_read(args, kwargs, result):
    return int(result.cells.size)


def _availability_payload(args, kwargs, result):
    db = args[0] if args else kwargs["db"]
    blockers = getattr(result, "per_channel_blockers", None)
    blocking = None if blockers is None else len(set().union(*blockers.values()))
    return len(db), blocking


def _grid_pairs(args, kwargs, result):
    db = args[0] if args else kwargs["db"]
    return int(result.values.size) * len(db)


def _keepout_key(args, kwargs, result):
    # (P_cr, P_tv, R_tv): the power and the two numbers that identify a station
    return args[:3] if len(args) >= 3 else (args, tuple(sorted(kwargs.items())))


def _plan_key(args, kwargs, result):
    return result


# (module, function, kind, payload or key function)
SPAN_TARGETS = [
    ("tvws.cli", "cmd_query", "span", None),
    ("tvws.cli", "cmd_batch", "span", None),
    ("tvws.cli", "cmd_sweep", "span", None),
    ("tvws.cli", "cmd_grid", "span", None),
    ("tvws.cli", "cmd_synth", "span", None),
    ("tvws.cli", "cmd_disks", "span", None),
    ("tvws.geo", "parse_location", "span", None),
    ("tvws.txdb", "load_txdb", "span", _len_result),
    ("tvws.txdb", "generate_synthetic", "span", None),
    ("tvws.coverage", "load_disks", "span", _len_result),
    ("tvws.coverage", "load_rasters", "span", None),
    ("tvws.coverage", "read_asc", "span", _cells_read),
    ("tvws.coverage", "synth_coverage", "span", None),
    ("tvws.coverage", "write_asc", "span", None),
    ("tvws.coverage", "enclosing_disk", "span", None),
    ("tvws.coverage", "write_asc_grid", "span", None),
    ("tvws.coverage", "covers", "count", None),
    ("tvws.keepout", "keepout_radius", "count", _keepout_key),
    ("tvws.availability", "availability", "span", _availability_payload),
    ("tvws.availability", "availability_lowpower", "span", None),
    ("tvws.availability", "power_sweep", "span", _len_result),
    ("tvws.availability", "availability_grid", "span", _grid_pairs),
    ("tvws.availability", "adjacent_filter", "span", None),
    ("tvws.availability", "contiguity", "span", None),
    ("tvws.report", "build_report", "span", None),
    ("tvws.report", "emit_csv", "span", None),
    ("tvws.report", "emit_json", "span", None),
    ("tvws.report", "emit_channel_chart", "span", None),
    ("tvws.report", "emit_sweep", "span", None),
    ("tvws.channel_plan", "plan_hash", "count", _plan_key),
]

POOL_SPAN = "cli.ThreadPoolExecutor"

# per-layer metric -> (unit, end-to-end metric it should move, on which workload)
LAYER_MAP = {
    "cli.self_ms": ("ms", "query_p50_ms on interactive-uk81"),
    "cli.batch_pool_efficiency": ("ratio", "batch_locs_per_s on batch-n1000"),
    "geo.parse_location.us_per_call": ("us", "batch_locs_per_s on batch-n1000"),
    "txdb.load_txdb.ms": ("ms", "query_p50_ms, sweep_p50_ms on interactive-uk81"),
    "txdb.transmitters": ("count", "query_p50_ms, sweep_p50_ms on interactive-uk81"),
    "txdb.generate_synthetic.s": ("s", "setup_s on batch-n1000, grid-n1000"),
    "coverage.load_disks.ms": ("ms", "query_p50_ms on interactive-uk81"),
    "coverage.disks_from_cache": ("count", "query_p50_ms on interactive-uk81"),
    "coverage.disks_derived": ("count", "query_p50_ms on interactive-uk81"),
    "coverage.load_rasters.ms": ("ms", "raster_query_p50_ms on interactive-uk81"),
    "coverage.read_asc.calls": ("count", "raster_query_p50_ms on interactive-uk81"),
    "coverage.read_asc.cells_per_s": ("cells/s", "raster_query_p50_ms on interactive-uk81"),
    "coverage.synth_coverage.s": ("s", "setup_s on every workload"),
    "coverage.write_asc.s": ("s", "setup_s on every workload"),
    "coverage.enclosing_disk.s": ("s", "setup_s on every workload"),
    "coverage.write_asc_grid.s": ("s", "grid_cells_per_s on grid-n1000"),
    "coverage.covers.calls": ("count", "raster_query_p50_ms on interactive-uk81"),
    "keepout.keepout_radius.calls": ("count", "batch_locs_per_s, sweep_p50_ms"),
    "keepout.keepout_radius.useful_ratio": ("ratio", "batch_locs_per_s, sweep_p50_ms"),
    "availability.availability.us_per_call": ("us", "batch_locs_per_s on batch-n1000"),
    "availability.pairs_tested": ("count", "batch_locs_per_s on batch-n1000"),
    "availability.block_ratio": ("ratio", "batch_locs_per_s on batch-n1000"),
    "availability.availability_lowpower.us_per_call": (
        "us", "raster_query_p50_ms on interactive-uk81"),
    "availability.power_sweep.us_per_power": ("us", "sweep_p50_ms on interactive-uk81"),
    "availability.availability_grid.s": ("s", "grid_cells_per_s on grid-n1000"),
    "availability.grid_pairs_per_s": ("pairs/s", "grid_cells_per_s on grid-n1000"),
    "availability.adjacent_filter.us_per_call": ("us", "batch_locs_per_s on batch-n1000"),
    "availability.contiguity.us_per_call": ("us", "batch_locs_per_s on batch-n1000"),
    "report.build_report.us_per_call": ("us", "batch_locs_per_s on batch-n1000"),
    "report.emit_csv.ms": ("ms", "batch_locs_per_s on batch-n1000"),
    "report.emit_json.ms": ("ms", "batch_locs_per_s on batch-n1000"),
    "report.emit_channel_chart.ms": ("ms", "query_p50_ms, sweep_p50_ms on interactive-uk81"),
    "report.emit_sweep.ms": ("ms", "query_p50_ms, sweep_p50_ms on interactive-uk81"),
    "channel_plan.plan_hash.calls": ("count", "batch_locs_per_s on batch-n1000"),
    "channel_plan.plan_hash.useful_ratio": ("ratio", "batch_locs_per_s on batch-n1000"),
    "trace.overhead_ratio": ("ratio", "none: traced / untraced scaled time of the same work"),
}

# Metrics whose name does not start with the function they are read from.
DEPENDS = {
    "cli.batch_pool_efficiency": POOL_SPAN,
    "txdb.transmitters": "txdb.load_txdb",
    "coverage.disks_from_cache": "coverage.load_disks",
    "coverage.disks_derived": "coverage.load_disks",
    "availability.pairs_tested": "availability.availability",
    "availability.block_ratio": "availability.availability",
    "availability.grid_pairs_per_s": "availability.availability_grid",
}


def absent_metrics(absent_functions) -> set[str]:
    """Metrics that cannot be measured because a traced function is gone."""
    gone = set(absent_functions)
    out = set()
    for metric in LAYER_MAP:
        source = DEPENDS.get(metric) or metric.rsplit(".", 1)[0]
        if source in gone:
            out.add(metric)
    if all(_label("tvws.cli", f) in gone for _m, f, _k, _e in SPAN_TARGETS
           if f.startswith("cmd_")):
        out.add("cli.self_ms")
    return out


def _label(module_name: str, func: str) -> str:
    return f"{module_name.removeprefix('tvws.')}.{func}"


class _Counter:
    """Calls, and distinct keys per request, for one counted function in one phase."""

    def __init__(self):
        self.calls = itertools.count()  # next() is atomic under the GIL
        self.keys = set()
        self.distinct = 0

    def flush(self) -> None:
        """Close a request: its distinct keys are added up, then forgotten."""
        self.distinct += len(self.keys)
        self.keys.clear()

    def total(self) -> int:
        return next(self.calls)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], _Counter] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._request = None
        self._pool = None
        self._restore: list[tuple] = []
        self.set_phase("setup")

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool
        span = [name, time.perf_counter(), None, parent, self._request, self.phase, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def request(self, request_id: str):
        """The benchmark's own root span around one CLI request."""
        self._request = request_id
        span = self._open("request")
        try:
            yield
        finally:
            self._close(span)
            self._request = None
            for (phase, _name), counter in self.counters.items():
                if phase == self.phase:
                    counter.flush()

    def set_phase(self, phase: str) -> None:
        """Start a phase ("setup" or "workload"); counts restart per phase."""
        self.phase = phase
        for _module, func, kind, _extra in SPAN_TARGETS:
            if kind == "count":
                self.counters[(phase, _label(_module, func))] = _Counter()

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, payload):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if payload is not None:
                span[6] = payload(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn, key):
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            counter = counters[(tracer.phase, name)]
            next(counter.calls)
            result = fn(*args, **kwargs)
            if key is not None:
                counter.keys.add(key(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def __enter__(self):
                self._bench_span = tracer._open(POOL_SPAN)
                self._bench_span[6] = self._max_workers
                tracer._pool = self._bench_span
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._pool = None
                    tracer._close(self._bench_span)

        return TracedThreadPoolExecutor

    # -- install / uninstall ---------------------------------------------
    def _rebind(self, original, replacement) -> int:
        """Replace ``original`` wherever a tvws module or module-level dict holds it."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tvws" or mod_name.startswith("tvws.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = replacement
                    self._restore.append((namespace, attr, original))
                    hits += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement
                            self._restore.append((value, k, original))
                            hits += 1
        return hits

    def install(self, targets=SPAN_TARGETS) -> None:
        import importlib

        import tvws.cli  # noqa: F401  -- load every module that may hold a name

        for module_name, func, kind, extra in targets:
            label = _label(module_name, func)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, func, None)
            if not callable(original):
                self.absent.append(label)
                continue
            if kind == "span":
                wrapper = self._span_wrapper(label, original, extra)
            else:
                wrapper = self._count_wrapper(label, original, extra)
            self._rebind(original, wrapper)
        if self._rebind(ThreadPoolExecutor, self._pool_class()) == 0:
            self.absent.append(POOL_SPAN)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    # -- output -----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one tab-separated line (index-linked parents)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as f:
            f.write("index\tname\tstart\tend\tparent\trequest\tphase\n")
            for i, (name, start, end, parent, request, phase, _p) in enumerate(self.spans):
                parent_i = "" if parent is None else index[id(parent)]
                f.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent_i}\t{request}\t{phase}\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """id(span) -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(id(parent), []).append(
                (max(span[1], parent[1]), min(span[2], parent[2]))
            )
    return {
        id(s): (s[2] - s[1]) - _union_length(children.get(id(s), [])) for s in spans
    }


def layer_metrics(tracer: Tracer, requests: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced run, plus the names reported as absent.

    Counts are per request of the workload phase; times are per call unless
    the name says otherwise; setup metrics are totals for one fixture build.
    A metric whose function was never called in the phase reads 0.
    """
    work = [s for s in tracer.spans if s[5] == "workload"]
    setup = [s for s in tracer.spans if s[5] == "setup"]
    by_name: dict[str, list[list]] = {}
    for span in work:
        by_name.setdefault(span[0], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def total(name, pool=None):
        return sum(s[2] - s[1] for s in (pool if pool is not None else spans(name)))

    def per_call(name, scale):
        found = spans(name)
        return total(name) / len(found) * scale if found else 0.0

    def setup_total(name):
        return sum(s[2] - s[1] for s in setup if s[0] == name)

    def count(name):
        counter = tracer.counters.get(("workload", name))
        return (counter.total(), counter.distinct) if counter else (0, 0)

    absent = absent_metrics(tracer.absent)
    m: dict[str, float] = {}
    selfs = self_times(work)

    handlers = [s for s in work if s[0].startswith("cli.cmd_")]
    m["cli.self_ms"] = sum(selfs[id(s)] for s in handlers) / requests * 1e3

    pools = spans(POOL_SPAN)
    busy = sum(s[2] - s[1] for s in work if s[3] is not None and s[3][0] == POOL_SPAN)
    capacity = sum((p[2] - p[1]) * p[6] for p in pools)
    m["cli.batch_pool_efficiency"] = busy / capacity if capacity else 0.0

    m["geo.parse_location.us_per_call"] = per_call("geo.parse_location", 1e6)
    m["txdb.load_txdb.ms"] = per_call("txdb.load_txdb", 1e3)
    loads = spans("txdb.load_txdb")
    m["txdb.transmitters"] = statistics.fmean(s[6] for s in loads) if loads else 0.0
    m["txdb.generate_synthetic.s"] = setup_total("txdb.generate_synthetic")

    m["coverage.load_disks.ms"] = per_call("coverage.load_disks", 1e3)
    disk_loads = spans("coverage.load_disks")
    derived = sum(
        1 for s in spans("coverage.enclosing_disk")
        if s[3] is not None and s[3][0] == "coverage.load_disks"
    )
    m["coverage.disks_derived"] = derived / requests
    m["coverage.disks_from_cache"] = (sum(s[6] for s in disk_loads) - derived) / requests
    m["coverage.load_rasters.ms"] = per_call("coverage.load_rasters", 1e3)
    reads = spans("coverage.read_asc")
    m["coverage.read_asc.calls"] = len(reads) / requests
    read_time = total("coverage.read_asc")
    m["coverage.read_asc.cells_per_s"] = (
        sum(s[6] for s in reads) / read_time if read_time else 0.0
    )
    m["coverage.synth_coverage.s"] = setup_total("coverage.synth_coverage")
    m["coverage.write_asc.s"] = setup_total("coverage.write_asc")
    m["coverage.enclosing_disk.s"] = setup_total("coverage.enclosing_disk")
    m["coverage.write_asc_grid.s"] = per_call("coverage.write_asc_grid", 1.0)
    m["coverage.covers.calls"] = count("coverage.covers")[0] / requests

    calls, distinct = count("keepout.keepout_radius")
    m["keepout.keepout_radius.calls"] = calls / requests
    m["keepout.keepout_radius.useful_ratio"] = distinct / calls if calls else 0.0

    avail = spans("availability.availability")
    m["availability.availability.us_per_call"] = per_call("availability.availability", 1e6)
    tested = sum(s[6][0] for s in avail)
    m["availability.pairs_tested"] = tested / requests
    if any(s[6][1] is None for s in avail):
        absent.add("availability.block_ratio")
        m["availability.block_ratio"] = 0.0
    else:
        m["availability.block_ratio"] = (
            sum(s[6][1] for s in avail) / tested if tested else 0.0
        )
    m["availability.availability_lowpower.us_per_call"] = per_call(
        "availability.availability_lowpower", 1e6
    )
    sweeps = spans("availability.power_sweep")
    powers = sum(s[6] for s in sweeps)
    m["availability.power_sweep.us_per_power"] = (
        total("availability.power_sweep") / powers * 1e6 if powers else 0.0
    )
    grids = spans("availability.availability_grid")
    m["availability.availability_grid.s"] = per_call("availability.availability_grid", 1.0)
    grid_time = total("availability.availability_grid")
    m["availability.grid_pairs_per_s"] = (
        sum(s[6] for s in grids) / grid_time if grid_time else 0.0
    )
    m["availability.adjacent_filter.us_per_call"] = per_call("availability.adjacent_filter", 1e6)
    m["availability.contiguity.us_per_call"] = per_call("availability.contiguity", 1e6)

    m["report.build_report.us_per_call"] = per_call("report.build_report", 1e6)
    for emitter in ("emit_csv", "emit_json", "emit_channel_chart", "emit_sweep"):
        m[f"report.{emitter}.ms"] = per_call(f"report.{emitter}", 1e3)

    calls, distinct = count("channel_plan.plan_hash")
    m["channel_plan.plan_hash.calls"] = calls / requests
    m["channel_plan.plan_hash.useful_ratio"] = distinct / calls if calls else 0.0
    return m, sorted(absent)
