#!/usr/bin/env python3
"""Time each stage of `stereosim simulate` and record it in BENCH_simulate.json.

    python3 tools/bench_simulate.py [--tree LABEL=SRC_DIR ...] [--runs 15]

Each tree is a stereosim source directory (default: current=src). All trees
are imported into one process, each as a package of its own name, and their
runs alternate, in an order that reverses from run to run, so that a slow
spell of the host falls on every tree alike. For each field, every tree
simulates once as a warm-up and then `--runs` times, timing these stages of
each run with perf_counter:

- load_scenario: read and build the scenario file;
- validate_scenario: the checks run_simulation starts with;
- run_simulation: the whole step loop, validation included;
- save_report: render the report and write it to a temporary file;
- cli_simulate: `stereosim simulate SCENARIO --out REPORT`, end to end.

The fields have the shape of the benchmark's `field-shared` workload: a sink,
two relays and fifty event-gated 64x64 pairs over forty steps. In
`field-shared` every pair sees the same synthetic frames; in
`field-distinct` each pair has its own seed, so every pair is matched.

A record holds one tree's runs of one field: the median and quartiles of
each stage, in how many runs each stage was faster than in the first tree's
run next to it, the sizes, and the Python version, numpy version and core
count. Each run starts after a garbage collection, so no tree pays for
another's garbage.
Records already in the file under other labels or fields are kept, so
before and after records can sit side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_simulate.json"
FIELDS = ("field-shared", "field-distinct")
PAIRS, STEPS, SIDE = 50, 40, 64


def scenario(field: str) -> dict:
    """The benchmark's field-shared shape; field-distinct gives pair p the seed p."""
    cams, links = [], []
    for p in range(PAIRS):
        left, right = 3 + 2 * p, 4 + 2 * p
        cams += [{"id": i, "role": "camera", "battery": 1e6} for i in (left, right)]
        links += [[2, left], [left, right]]
    pairs = []
    for p, cam in enumerate(cams[::2]):
        synthetic = {"width": SIDE, "height": SIDE, "seed": p if field == "field-distinct" else 0,
                     "shift_per_step": [1] * (STEPS // 2) + [3] * (STEPS - STEPS // 2)}
        pairs.append({"left": cam["id"], "right": cam["id"] + 1, "baseline": 0.5,
                      "focal_length": 100.0, "frames": {"synthetic": synthetic},
                      "match": {"window_radius": 1, "max_disparity": 4, "method": "sad"}})
    return {
        "seed": 0,
        "policy": "disparity_on_event",
        "event_threshold": 1.0,
        "nodes": [{"id": 0, "role": "sink"}] + [{"id": i, "role": "relay", "battery": 1e6} for i in (1, 2)] + cams,
        "links": [[0, 1], [1, 2]] + links,
        "pairs": pairs,
    }


def import_tree(index: int, src: Path, *submodules: str) -> tuple:
    """The named submodules of the stereosim package under src, imported under a package name of its own."""
    name = f"_stereosim_tree{index}"
    spec = importlib.util.spec_from_file_location(
        name, src / "stereosim" / "__init__.py", submodule_search_locations=[str(src / "stereosim")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{sub}") for sub in submodules)


def simulate(sensornet, cli, path: Path, saved: Path, out: Path, samples: dict) -> tuple[dict, str]:
    """One timed run of every stage; returns the report's sizes and text.

    save_report writes to saved and the CLI to out, and both must hold the
    same bytes.
    """

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        samples.setdefault(stage, []).append(time.perf_counter() - t0)
        return result

    sc = timed("load_scenario", sensornet.load_scenario, path)
    timed("validate_scenario", sensornet.validate_scenario, sc)
    report = timed("run_simulation", sensornet.run_simulation, sc)
    timed("save_report", sensornet.save_report, report, saved)
    text = saved.read_text()
    with contextlib.redirect_stdout(io.StringIO()):
        code = timed("cli_simulate", cli.main, ["simulate", str(path), "--out", str(out)])
    if code != 0 or out.read_text() != text:
        raise SystemExit(f"simulate failed or wrote other bytes (exit code {code})")
    sizes = {"pairs": PAIRS, "steps": STEPS, "width": SIDE, "height": SIDE,
             "transmissions": len(report.transmissions), "report_bytes": len(text)}
    return sizes, text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC_DIR",
                    help="a stereosim source directory to time, under a label (repeatable)")
    ap.add_argument("--runs", type=int, default=15, help="timed runs per tree and field, after one warm-up")
    args = ap.parse_args(argv)
    if args.runs < 5:
        ap.error("--runs must be >= 5")
    trees = dict(t.split("=", 1) for t in args.tree or ["current=src"])
    modules = {label: import_tree(i, (ROOT / src).resolve(), "sensornet", "cli")
               for i, (label, src) in enumerate(trees.items())}

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path, saved, out = (Path(tmp) / name for name in ("scenario.json", "saved.json", "report.json"))
        for field in FIELDS:
            path.write_text(json.dumps(scenario(field)))
            samples = {label: {} for label in modules}
            labels, texts = list(modules), {}
            for run in range(args.runs + 1):
                for label in labels if run % 2 == 0 else labels[::-1]:
                    gc.collect()
                    sizes, texts[label] = simulate(*modules[label], path, saved, out, samples[label] if run else {})
            if len(set(texts.values())) > 1:
                raise SystemExit(f"{field}: the trees write different report bytes")
            first = samples[labels[0]]
            for label in labels:
                stages = {}
                for stage, values in samples[label].items():
                    q1, median, q3 = statistics.quantiles(values, n=4)
                    wins = sum(a < b for a, b in zip(values, first[stage]))
                    stages[stage] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                                     f"runs_faster_than_{labels[0]}": wins}
                records.append({
                    "label": label, "field": field, "sizes": sizes, "runs": args.runs,
                    "stages": stages, "python": platform.python_version(),
                    "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
                })
                print(f"{field} {label}: " + ", ".join(
                    f"{stage} {s['median_s'] * 1e3:.2f} ms" for stage, s in stages.items()), file=sys.stderr)

    fresh = {(rec["label"], rec["field"]) for rec in records}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {"records": []}
    doc["records"] = [rec for rec in doc["records"] if (rec["label"], rec["field"]) not in fresh] + records
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
