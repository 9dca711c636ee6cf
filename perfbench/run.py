#!/usr/bin/env python3
"""stereosim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. One process, one thread, closed loop:
each unit starts only after the previous one finished and was checked.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates traced and untraced batches of a fixed number of units and
reports the per-layer metrics of the traced ones. The last stdout line is
the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 25
# Never used while tuning the benchmark; re-check any claim on it.
HELD_OUT_SEED = 104729

E2E = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mib": "MiB",
    "pass_frac": "frac",
}

PER_LAYER = {
    "stereo.compute_disparity.calls": "count",
    "stereo.compute_disparity.self_s": "s",
    "stereo.compute_disparity.elementary_ops": "count",
    "stereo.compute_disparity.gops_per_s": "Gop/s",
    "stereo.compute_disparity.repeat_frac": "frac",
    "stereo.rle_encode_disparity.calls": "count",
    "stereo.rle_encode_disparity.self_s": "s",
    "stereo.rle_encode_disparity.bytes_out": "B",
    "stereo.rle_encode_disparity.mb_per_s": "MB/s",
    "stereo.serialize_disparity.self_s": "s",
    "stereo.parse_disparity.self_s": "s",
    "stereo.disparity_to_depth.self_s": "s",
    "imaging.parse_pgm.self_s": "s",
    "metrics.ssim.calls": "count",
    "metrics.ssim.self_s": "s",
    "sensornet.run_simulation.self_s": "s",
    "sensornet.detect_event.self_s": "s",
    "sensornet.validate_scenario.self_s": "s",
    "sensornet.charge_transmission.self_s": "s",
    "sensornet.load_scenario.self_s": "s",
    "sensornet.save_report.self_s": "s",
    "sensornet.route_to_sink.calls": "count",
    "sensornet.route_to_sink.self_s": "s",
    "sensornet.route_to_sink.repeat_frac": "frac",
    "sensornet.sent_map_frac": "frac",
    "sensornet.events": "count",
    "sensornet.transmissions": "count",
    "sensornet.drops": "count",
    "cli.cmd_disparity.self_s": "s",
    "cli.cmd_depth.self_s": "s",
    "cli.cmd_metrics.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "trace.overhead_frac": "frac",
}


def import_program() -> float:
    """Import stereosim afresh from ./src and return the seconds it took."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] in ("stereosim", "workloads", "tracing")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import stereosim
    import stereosim.cli  # noqa: F401

    seconds = time.perf_counter() - t0
    if Path(stereosim.__file__).resolve().parent != (SRC / "stereosim").resolve():
        raise SystemExit(f"error: imported stereosim from {stereosim.__file__}, not {SRC}")
    return seconds


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and generate the workload's inputs SETUP_REPS times.

    numpy, a prerequisite, is imported once beforehand; each repetition then
    imports stereosim (and the benchmark modules bound to it) from scratch,
    so the median is not the first import's byte-compilation. Returns the
    workload of the last repetition and each repetition's seconds.
    """
    import numpy  # noqa: F401

    seconds = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous repetition's garbage is not this one's cost
        import_s = import_program()
        from workloads import WORKLOADS

        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, workdir)
        wl.generate()
        seconds.append(import_s + time.perf_counter() - t0)
    return wl, seconds


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


class Clock:
    """Run budget: go on while the next step, predicted to take as long as
    the last one, still ends within the budget."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.last = 0.0

    def more(self) -> bool:
        return time.perf_counter() + self.last <= self.deadline

    def timed(self, step):
        t0 = time.perf_counter()
        result = step()
        self.last = time.perf_counter() - t0
        return result


def run_end_to_end(wl, seconds: float) -> tuple[list, dict]:
    outcomes = [wl.call(0)]  # warm-up: checked, not timed
    timed = []
    clock = Clock(seconds)
    while not timed or clock.more():
        timed.append(clock.timed(lambda: wl.call(len(timed) + 1)))
    outcomes += timed
    units = sum(o.units for o in timed)
    passed = sum(o.units for o in outcomes if o.ok)
    metrics = {
        "throughput_per_s": metric(units / sum(o.seconds for o in timed), "1/s"),
        "latency_p50_s": metric(statistics.median(o.seconds / o.units for o in timed), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "pass_frac": metric(passed / sum(o.units for o in outcomes), "frac"),
    }
    return outcomes, {"metrics": metrics, "latency_samples": len(timed), "units_timed": units}


def layer_values(tracer, outcomes) -> dict:
    """Per-layer figures of one traced batch, keyed like PER_LAYER."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_ns / 1e9
        out[f"{name}.repeat_frac"] = st.repeats / st.calls if st.calls else 0.0
    cd = tracer.stats["stereo.compute_disparity"]
    ops = cd.counters.get("elementary_ops", 0)
    out["stereo.compute_disparity.elementary_ops"] = ops
    out["stereo.compute_disparity.gops_per_s"] = ops / cd.self_ns if cd.self_ns else 0.0
    rle = tracer.stats["stereo.rle_encode_disparity"]
    nbytes = rle.counters.get("bytes_out", 0)
    out["stereo.rle_encode_disparity.bytes_out"] = nbytes
    out["stereo.rle_encode_disparity.mb_per_s"] = nbytes * 1e3 / rle.self_ns if rle.self_ns else 0.0
    for key in ("events", "transmissions", "drops"):
        out[f"sensornet.{key}"] = sum(o.counts.get(key, 0) for o in outcomes)
    sent = sum(o.counts.get("map_payloads", 0) for o in outcomes)
    out["sensornet.sent_map_frac"] = sent / rle.calls if rle.calls else 0.0
    return out


EXACT = ("calls", "elementary_ops", "bytes_out", "repeat_frac", "sent_map_frac",
         "events", "transmissions", "drops")


def run_traced(wl, seconds: float, trace_path: Path) -> tuple[list, dict]:
    from tracing import Tracer

    def traced_call(tracer, j):
        tracer.begin_unit(j)
        return wl.call(j)

    outcomes = [wl.call(0)]  # warm-up
    busy = {True: [], False: []}
    layers, absent = [], []
    pattern = (True, False, False, True)
    clock = Clock(seconds)
    k = 0
    while k < 2 or clock.more():
        traced = pattern[k % 4]
        if traced:
            with Tracer() as tracer:
                batch = clock.timed(lambda: [traced_call(tracer, j) for j in range(wl.trace_calls)])
            layers.append(layer_values(tracer, batch))
            absent, spans = tracer.absent, tracer.spans
        else:
            batch = clock.timed(lambda: [wl.call(j) for j in range(wl.trace_calls)])
        busy[traced].append(sum(o.seconds for o in batch))
        outcomes += batch
        k += 1

    exact = [n for n in PER_LAYER if n.rsplit(".", 1)[1] in EXACT]
    repeat = all(all(b[n] == layers[0][n] for n in exact) for b in layers)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = statistics.median(busy[True]) / statistics.median(busy[False]) - 1
        elif name in exact:
            value = layers[0].get(name, 0)
        else:
            value = statistics.median(b.get(name, 0.0) for b in layers)
        metrics[name] = metric(value, unit)
    trace_path.write_text(json.dumps({
        "fields": ["id", "unit", "name", "parent", "start_ns", "end_ns"],
        "spans": spans,
    }))
    detail = {
        "metrics": metrics,
        "traced_batches": len(layers),
        "untraced_batches": len(busy[False]),
        "units_per_batch": sum(o.units for o in outcomes[1 : 1 + wl.trace_calls]),
        "counts_repeat": repeat,
        "absent_sites": absent,
        "spans": str(trace_path.relative_to(ROOT)),
    }
    return outcomes, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli-files", "field-shared"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stereosim" / "__init__.py").is_file():
        raise SystemExit(f"error: no stereosim sources under {SRC}")
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl, setup_reps = set_up(args.workload, args.seed, workdir)
        if args.trace:
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.json"
            outcomes, detail = run_traced(wl, args.seconds, trace_path)
        else:
            outcomes, detail = run_end_to_end(wl, args.seconds)
            setup_s = metric(statistics.median(setup_reps), "s")
            detail["metrics"] = {"setup_s": setup_s, **detail["metrics"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o for o in outcomes if not o.ok]
    for o in failures[:5]:
        print(f"failed unit: {o.reason}", file=sys.stderr)
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.units for o in failures)
    metrics = detail.pop("metrics")
    info = {
        "workload": args.workload,
        "unit": wl.unit,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "setup_reps_s": setup_reps,
        "failed_frac": failed / attempted,
        **detail,
    }
    print(json.dumps({"info": info}))
    correct = not failures and detail.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
