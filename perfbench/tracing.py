"""Outside-in layer tracing for the benchmark.

Each traced function is replaced, at every module attribute where the
program looks it up, by a wrapper that records one span (name, unit id,
parent span, start, end) and per-name call counts, total time and self time.
A span's self time is its duration minus the time its child spans cover.

Work the tracer does for itself -- fingerprinting inputs for repeat
fractions and reading counts out of results -- runs with the tracer's clock
paused, so it lands in no span, the parents' included.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time

# Traced functions by metric name, each with the module attributes through
# which the program reaches it. A site that is missing (a later change may
# stop importing a name into a module) is recorded as absent, not an error.
SITES = {
    "stereo.compute_disparity": ("stereo", "sensornet", "cli"),
    "stereo.rle_encode_disparity": ("stereo", "sensornet"),
    "stereo.serialize_disparity": ("stereo", "cli"),
    "stereo.parse_disparity": ("stereo", "cli"),
    "stereo.disparity_to_depth": ("stereo", "cli"),
    "imaging.parse_pgm": ("imaging", "sensornet", "cli"),
    "metrics.ssim": ("metrics", "cli"),
    "sensornet.run_simulation": ("sensornet", "cli"),
    "sensornet.detect_event": ("sensornet",),
    "sensornet.validate_scenario": ("sensornet",),
    "sensornet.charge_transmission": ("sensornet",),
    "sensornet.load_scenario": ("sensornet", "cli"),
    "sensornet.save_report": ("sensornet", "cli"),
    "sensornet.route_to_sink": ("sensornet",),
    "cli.cmd_disparity": ("cli",),
    "cli.cmd_depth": ("cli",),
    "cli.cmd_metrics": ("cli",),
    "cli.cmd_simulate": ("cli",),
}


def _digest_pixels(img) -> bytes:
    return hashlib.blake2b(img.pixels.tobytes(), digest_size=16).digest()


def _matcher_key(a):
    return (_digest_pixels(a["left"]), _digest_pixels(a["right"]), a["params"])


def _route_key(a):
    scenario = a["scenario"]
    nodes = tuple((n.id, n.role) for n in scenario.nodes)
    return (nodes, tuple(map(tuple, scenario.links)), a["from_id"])


# name -> (input fingerprint over the bound arguments, for repeat_frac;
#          (counter name, value read from the result))
PROBES = {
    "stereo.compute_disparity": (_matcher_key, ("elementary_ops", lambda r: r[1].elementary_ops)),
    "stereo.rle_encode_disparity": (None, ("bytes_out", len)),
    "sensornet.route_to_sink": (_route_key, None),
}


class FnStats:
    __slots__ = ("calls", "total_ns", "self_ns", "repeats", "counters", "seen")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.repeats = 0
        self.counters: dict[str, int] = {}
        self.seen: set = set()


class Tracer:
    """Installs timing wrappers, collects spans, and restores the originals.

    Use as a context manager around the traced work; `begin_unit` tags the
    spans that follow with a unit id so the spans of one unit share it.
    """

    def __init__(self):
        self.stats = {name: FnStats() for name in SITES}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.patched: list[tuple] = []
        self._stack: list[list] = []
        self._paused_ns = 0
        self._next_id = 0
        self.unit = 0

    # -- clock ---------------------------------------------------------------
    def _now(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def _off_clock(self, fn, *args):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._paused_ns += time.perf_counter_ns() - t0

    # -- spans ---------------------------------------------------------------
    def begin_unit(self, unit: int):
        self.unit = unit

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, self._now(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = self._now()
        self._stack.pop()
        span_id, name, parent, start, child_ns = frame
        dur = end - start
        st = self.stats[name]
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - child_ns
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append((span_id, self.unit, name, parent, start, end))

    def _record(self, name: str, key, result):
        st = self.stats[name]
        fingerprint, counter = PROBES.get(name, (None, None))
        if fingerprint is not None:
            if key in st.seen:
                st.repeats += 1
            else:
                st.seen.add(key)
        if counter is not None:
            cname, read = counter
            st.counters[cname] = st.counters.get(cname, 0) + read(result)

    def _wrap(self, name: str, fn):
        tracer = self
        fingerprint = PROBES.get(name, (None, None))[0]
        signature = inspect.signature(fn) if fingerprint else None

        def bound_key(args, kwargs):
            return fingerprint(signature.bind(*args, **kwargs).arguments)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = tracer._off_clock(bound_key, args, kwargs) if fingerprint else None
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._off_clock(tracer._record, name, key, result)
            return result

        return traced

    # -- install / restore ---------------------------------------------------
    def __enter__(self):
        for name, sites in SITES.items():
            for site in sites:
                mod = importlib.import_module(f"stereosim.{site}")
                attr = name.rsplit(".", 1)[1]
                original = getattr(mod, attr, None)
                if not callable(original):
                    self.absent.append(f"{site}.{attr}")
                    continue
                self.patched.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()
        return False
