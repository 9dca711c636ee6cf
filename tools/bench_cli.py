#!/usr/bin/env python3
"""Time the `cli-files` commands and their kernels, and record them in BENCH_cli.json.

    python3 tools/bench_cli.py [--tree LABEL=SRC_DIR ...] [--runs 11]

Each tree is a stereosim source directory (default: current=src). All trees
are imported into one process, each as a package of its own name, and their
runs alternate, in an order that reverses from run to run, so that a slow
spell of the host falls on every tree alike. Every tree runs once as a
warm-up and then `--runs` times, timing these stages of each run with
perf_counter, on one seeded 640x480 pair whose right view is the left one
shifted by 7 pixels:

- disparity: `stereosim disparity LEFT RIGHT --method ssd --radius 3
  --max-disparity 64 --out PREFIX`, which writes PREFIX.pgm and PREFIX.dsp;
- depth: `stereosim depth PREFIX.dsp --focal-length 100 --baseline 0.5
  --out DEPTH.json`;
- metrics: `stereosim metrics LEFT PREFIX.pgm --json`;
- compute_disparity: the matcher alone, on the parsed pair;
- ssim: ssim alone, on the left frame and the parsed gray map.

These are the commands and sizes of the benchmark's `cli-files` workload.
Every run must write the same bytes (both map files, the depth JSON and the
metrics line) in every tree; the tool exits with an error otherwise.

A record holds one tree's runs: the median and quartiles of each stage, in
how many runs each stage was faster than in the first tree's run next to
it, the sizes and parameters, a digest of the outputs, and the Python
version, numpy version, core count and the number of CPUs the process may
run on (its affinity), which decides whether the matcher uses two threads.
Each run starts after a garbage collection. A record is the median of at least 5 runs, so with `--runs`
below 5 the tool checks the bytes and prints the timings but writes no
record. Records already in the file under other labels are kept, so
before and after records can sit side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
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

from bench_simulate import import_tree

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_cli.json"
WIDTH, HEIGHT, SHIFT, SEED = 640, 480, 7, 0
MATCH = {"method": "ssd", "radius": 3, "max_disparity": 64}
DEPTH = {"focal_length": 100.0, "baseline": 0.5}
MIN_RECORD_RUNS = 5


def usable_cpus() -> int:
    """The CPUs this process may run on, which decide whether the matcher splits a frame."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def write_pair(left_path: Path, right_path: Path):
    """A seeded random texture and its view shifted by SHIFT, as binary PGM files."""
    rng = numpy.random.default_rng(SEED)
    master = rng.integers(0, 256, size=(HEIGHT, WIDTH + SHIFT), dtype=numpy.uint8)
    header = b"P5\n%d %d\n255\n" % (WIDTH, HEIGHT)
    left_path.write_bytes(header + master[:, :WIDTH].tobytes())
    right_path.write_bytes(header + master[:, SHIFT:].tobytes())


def run(modules, tmp: Path, samples: dict) -> str:
    """One timed run of every stage; returns the digest of the bytes it wrote and printed."""
    cli, imaging, stereo, metrics = modules
    left, right = tmp / "left.pgm", tmp / "right.pgm"
    prefix, depth = tmp / "disp", tmp / "depth.json"
    gray, sidecar = prefix.with_suffix(".pgm"), prefix.with_suffix(".dsp")
    for stale in (gray, sidecar, depth):
        stale.unlink(missing_ok=True)

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        samples.setdefault(stage, []).append(time.perf_counter() - t0)
        return result

    out = io.StringIO()
    commands = {
        "disparity": ["disparity", str(left), str(right), "--method", MATCH["method"],
                      "--radius", str(MATCH["radius"]), "--max-disparity", str(MATCH["max_disparity"]),
                      "--out", str(prefix)],
        "depth": ["depth", str(sidecar), "--focal-length", str(DEPTH["focal_length"]),
                  "--baseline", str(DEPTH["baseline"]), "--out", str(depth)],
        "metrics": ["metrics", str(left), str(gray), "--json"],
    }
    with contextlib.redirect_stdout(out):
        for stage, argv in commands.items():
            code = timed(stage, cli.main, argv)
            if code != 0:
                raise SystemExit(f"{stage} exited with code {code}")
    metrics_line = out.getvalue().splitlines()[-1]
    frames = [imaging.parse_pgm(p.read_bytes()) for p in (left, right, gray)]
    params = stereo.MatchParams(MATCH["radius"], MATCH["max_disparity"], MATCH["method"])
    dmap, _ = timed("compute_disparity", stereo.compute_disparity, frames[0], frames[1], params)
    score = timed("ssim", metrics.ssim, frames[0], frames[2])
    if stereo.serialize_disparity(dmap) != sidecar.read_bytes():
        raise SystemExit("the matcher's map differs from the one disparity wrote")
    if json.loads(metrics_line)["ssim"] != score.value:
        raise SystemExit("ssim differs from the score metrics printed")
    digest = hashlib.sha256()
    for part in (gray.read_bytes(), sidecar.read_bytes(), depth.read_bytes(), metrics_line.encode()):
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC_DIR",
                    help="a stereosim source directory to time, under a label (repeatable)")
    ap.add_argument("--runs", type=int, default=11,
                    help=f"timed runs per tree, after one warm-up; below {MIN_RECORD_RUNS}, no record is written")
    args = ap.parse_args(argv)
    if args.runs < 3:
        ap.error("--runs must be >= 3")
    trees = dict(t.split("=", 1) for t in args.tree or ["current=src"])
    modules = {label: import_tree(i, (ROOT / src).resolve(), "cli", "imaging", "stereo", "metrics")
               for i, (label, src) in enumerate(trees.items())}

    samples = {label: {} for label in modules}
    labels, digests = list(modules), {label: set() for label in modules}
    with tempfile.TemporaryDirectory() as tmp:
        write_pair(Path(tmp) / "left.pgm", Path(tmp) / "right.pgm")
        for i in range(args.runs + 1):
            for label in labels if i % 2 == 0 else labels[::-1]:
                gc.collect()
                digests[label].add(run(modules[label], Path(tmp), samples[label] if i else {}))
    found = set().union(*digests.values())
    if len(found) > 1:
        raise SystemExit(f"outputs differ between runs or trees: {sorted(map(sorted, digests.values()))}")
    (outputs_sha256,) = found

    records = []
    first = samples[labels[0]]
    for label in labels:
        stages = {}
        for stage, values in samples[label].items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            wins = sum(a < b for a, b in zip(values, first[stage]))
            stages[stage] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                             f"runs_faster_than_{labels[0]}": wins}
        records.append({
            "label": label, "sizes": {"width": WIDTH, "height": HEIGHT, "shift": SHIFT, "seed": SEED},
            "params": {**MATCH, **DEPTH, "ssim_window_side": 8}, "runs": args.runs,
            "stages": stages, "outputs_sha256": outputs_sha256,
            "python": platform.python_version(), "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
        })
        print(f"{label}: " + ", ".join(
            f"{stage} {s['median_s'] * 1e3:.2f} ms" for stage, s in stages.items()), file=sys.stderr)

    if args.runs < MIN_RECORD_RUNS:
        print(f"fewer than {MIN_RECORD_RUNS} runs: no record written", file=sys.stderr)
        return 0
    fresh = {rec["label"] for rec in records}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {"records": []}
    doc["records"] = [rec for rec in doc["records"] if rec["label"] not in fresh] + records
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
