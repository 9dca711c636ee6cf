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
- depth_short_runs: the same `depth --out` on a map of short runs, which
  `stereosim disparity LEFT OTHER --method sad --radius 1 --max-disparity 64`
  writes, untimed, from the left frame and an unrelated seeded frame
  (its mean run is ~1.4 pixels, against ~215 on the shifted pair);
- metrics: `stereosim metrics LEFT PREFIX.pgm --json`;
- compute_disparity: the matcher alone, on the parsed pair;
- ssim: ssim alone, on the left frame and the parsed gray map.

The first three are the commands and sizes of the benchmark's `cli-files`
workload. Every run must write the same bytes (both map files, the depth
JSON and the metrics line, and the short-run map and its depth JSON) in
every tree; the tool exits with an error otherwise.

A record holds one tree's runs: the median and quartiles of each stage, in
how many runs each stage was faster than in the first tree's run next to
it, the sizes and parameters, the mean run length of both maps, the traced
peak (tracemalloc) of rendering and writing each depth JSON, once after the
timed runs, a digest of the outputs and one of the short-run outputs, and
the Python version, numpy version, core count and the number of CPUs the
process may run on (its affinity), which decides whether the matcher uses
two threads.
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
import tracemalloc
from pathlib import Path

import numpy

from bench_simulate import import_tree

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_cli.json"
WIDTH, HEIGHT, SHIFT, SEED = 640, 480, 7, 0
MATCH = {"method": "ssd", "radius": 3, "max_disparity": 64}
SHORT_RUNS = {"method": "sad", "radius": 1, "max_disparity": 64, "other_seed": SEED + 1}
DEPTH = {"focal_length": 100.0, "baseline": 0.5}
MIN_RECORD_RUNS = 5


def usable_cpus() -> int:
    """The CPUs this process may run on, which decide whether the matcher splits a frame."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def write_frames(tmp: Path):
    """A seeded random texture, its view shifted by SHIFT and an unrelated
    seeded frame, as binary PGM files left, right and other."""
    master = numpy.random.default_rng(SEED).integers(0, 256, size=(HEIGHT, WIDTH + SHIFT), dtype=numpy.uint8)
    other = numpy.random.default_rng(SHORT_RUNS["other_seed"]).integers(0, 256, size=(HEIGHT, WIDTH), dtype=numpy.uint8)
    header = b"P5\n%d %d\n255\n" % (WIDTH, HEIGHT)
    for name, frame in (("left", master[:, :WIDTH]), ("right", master[:, SHIFT:]), ("other", other)):
        (tmp / f"{name}.pgm").write_bytes(header + frame.tobytes())


def mean_run(dmap) -> float:
    """The mean length of the map's runs of equal disparity and validity within a row."""
    d, v = dmap.disparities, dmap.valid
    runs = d.shape[0] + numpy.count_nonzero((d[:, 1:] != d[:, :-1]) | (v[:, 1:] != v[:, :-1]))
    return d.size / runs


def traced_peak_mib(cli, stereo, sidecar: Path, out: Path) -> float:
    """The tracemalloc peak of rendering and writing the depth JSON of sidecar."""
    dmap = stereo.parse_disparity(sidecar.read_bytes())
    depth = stereo.disparity_to_depth(dmap, DEPTH["focal_length"], DEPTH["baseline"])
    gc.collect()
    tracemalloc.start()
    try:
        with open(out, "w") as f:
            f.writelines(cli._depth_json(dmap, depth))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def depth_argv(sidecar: Path, out: Path) -> list[str]:
    return ["depth", str(sidecar), "--focal-length", str(DEPTH["focal_length"]),
            "--baseline", str(DEPTH["baseline"]), "--out", str(out)]


def run(modules, tmp: Path, samples: dict) -> tuple[str, str]:
    """One timed run of every stage; returns the digests of the bytes it
    wrote and printed, and of the short-run map and its depth JSON."""
    cli, imaging, stereo, metrics = modules
    left, right, other = tmp / "left.pgm", tmp / "right.pgm", tmp / "other.pgm"
    prefix, depth = tmp / "disp", tmp / "depth.json"
    gray, sidecar = prefix.with_suffix(".pgm"), prefix.with_suffix(".dsp")
    short, short_depth = tmp / "short", tmp / "short_depth.json"
    for stale in (gray, sidecar, depth, short.with_suffix(".dsp"), short_depth):
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
        "depth": depth_argv(sidecar, depth),
        "depth_short_runs": depth_argv(short.with_suffix(".dsp"), short_depth),
        "metrics": ["metrics", str(left), str(gray), "--json"],
    }
    short_argv = ["disparity", str(left), str(other), "--method", SHORT_RUNS["method"],
                  "--radius", str(SHORT_RUNS["radius"]), "--max-disparity", str(SHORT_RUNS["max_disparity"]),
                  "--out", str(short)]
    with contextlib.redirect_stdout(out):
        code = cli.main(short_argv)  # untimed: it only makes the short-run map
        if code != 0:
            raise SystemExit(f"the short-run disparity exited with code {code}")
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
    return digest(gray.read_bytes(), sidecar.read_bytes(), depth.read_bytes(), metrics_line.encode()), digest(
        short.with_suffix(".dsp").read_bytes(), short_depth.read_bytes())


def digest(*parts: bytes) -> str:
    total = hashlib.sha256()
    for part in parts:
        total.update(hashlib.sha256(part).digest())
    return total.hexdigest()


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
        tmp = Path(tmp)
        write_frames(tmp)
        for i in range(args.runs + 1):
            for label in labels if i % 2 == 0 else labels[::-1]:
                gc.collect()
                digests[label].add(run(modules[label], tmp, samples[label] if i else {}))
        maps = {"depth": tmp / "disp.dsp", "depth_short_runs": tmp / "short.dsp"}
        parse = modules[labels[0]][2].parse_disparity
        mean_runs = {stage: mean_run(parse(path.read_bytes())) for stage, path in maps.items()}
        peaks = {label: {stage: traced_peak_mib(cli, stereo, path, tmp / "traced.json")
                         for stage, path in maps.items()}
                 for label, (cli, _, stereo, _) in modules.items()}
    found = set().union(*digests.values())
    if len(found) > 1:
        raise SystemExit(f"outputs differ between runs or trees: {sorted(map(sorted, digests.values()))}")
    ((outputs_sha256, short_runs_sha256),) = found

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
            "params": {**MATCH, **DEPTH, "ssim_window_side": 8, "short_runs": SHORT_RUNS}, "runs": args.runs,
            "stages": stages, "mean_run_px": mean_runs, "traced_peak_mib": peaks[label],
            "outputs_sha256": outputs_sha256, "short_runs_sha256": short_runs_sha256,
            "python": platform.python_version(), "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
        })
        print(f"{label}: " + ", ".join(
            f"{stage} {s['median_s'] * 1e3:.2f} ms" for stage, s in stages.items()) + "; traced peak " + ", ".join(
            f"{stage} {mib:.2f} MiB" for stage, mib in peaks[label].items()), file=sys.stderr)

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
