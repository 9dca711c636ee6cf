#!/usr/bin/env python3
"""Time the stages of `stereosim simulate` and of the `cli-files` commands in
process, and record them in BENCH_simulate.json and BENCH_cli.json.

    python3 tools/bench.py [--tree LABEL=SRC_DIR ...] [--runs 15]

Each tree is a stereosim source directory (default: current=src). All trees
are imported into one process, each as a package of its own name. For each
case, every tree runs once as a warm-up and then `--runs` times; the trees
take turns, in an order that reverses from run to run, so that a slow spell
of the host falls on every tree alike, and each run starts after a garbage
collection, so no tree pays for another's garbage. Stages are timed with
perf_counter. Every run of every tree must give the same digest of its
outputs for a case, or the tool exits with an error.

The simulate topic runs three fields of the benchmark's `field-shared` shape: a
sink, two relays and fifty event-gated 64x64 pairs over forty steps. In
`field-shared` every pair sees the same synthetic frames; in
`field-distinct` each pair has its own seed, so every pair is matched;
`field-dying` is `field-shared` with right cameras of 500 uJ, which die at
step 22, so their pairs drop from step 23 on. Its stages:

- load_scenario: read and build the scenario file;
- validate_scenario: the checks run_simulation starts with;
- run_simulation: the whole step loop, validation included;
- save_report: render the report and write it to a file, whose bytes
  `stereosim simulate` must write too;
- cli_simulate: `stereosim simulate SCENARIO --out REPORT`, end to end.

Both report files are removed before each run, so each is written anew.

The cli topic runs the commands and sizes of the benchmark's `cli-files`
workload on one seeded 640x480 pair whose right view is the left one
shifted by 7 pixels. Its stages:

- disparity: `stereosim disparity LEFT RIGHT --method ssd --radius 3
  --max-disparity 64 --out PREFIX`, which writes PREFIX.pgm and PREFIX.dsp;
- depth: `stereosim depth PREFIX.dsp --focal-length 100 --baseline 0.5
  --out DEPTH.json`;
- depth_short_runs: the same `depth --out` on a map of short runs, which
  `stereosim disparity LEFT OTHER --method sad --radius 1 --max-disparity 64`
  writes, untimed, from the left frame and an unrelated seeded frame
  (its mean run is ~1.4 pixels, against ~215 on the shifted pair);
- metrics: `stereosim metrics LEFT PREFIX.pgm --json`;
- compute_disparity: the matcher alone, on the parsed pair, whose map must
  equal the sidecar that disparity wrote;
- ssim: ssim alone, on the left frame and the parsed gray map, which must
  equal the score that metrics printed.

Its digests cover both map files, the depth JSON and the metrics line, and
apart the short-run map and its depth JSON.

A record holds one tree's runs of one case: the median and quartiles of
each stage, in how many runs each stage was faster than in the first tree's
run next to it, the sizes, and the Python version, numpy version, core
count and the number of CPUs the process may run on (its affinity), which
decides whether the matcher uses two threads. A cli record also holds the
parameters, the mean run length of both maps, the traced peak
(tracemalloc) of rendering and writing each depth JSON, once after the
timed runs, and the two digests. A record is the median of at least 5 runs,
so with `--runs` 3 or 4 the tool checks the bytes and prints the timings but
writes no record. Records already in a file under other labels (or, for
simulate, other fields) are kept, so before and after records can sit side
by side.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import operator
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS, MIN_RECORD_RUNS = 3, 5
FIELDS = ("field-shared", "field-distinct", "field-dying")
PAIRS, STEPS, SIDE = 50, 40, 64
WIDTH, HEIGHT, SHIFT, SEED = 640, 480, 7, 0
MATCH = {"method": "ssd", "radius": 3, "max_disparity": 64}
SHORT_RUNS = {"method": "sad", "radius": 1, "max_disparity": 64, "other_seed": SEED + 1}
DEPTH = {"focal_length": 100.0, "baseline": 0.5}


def import_tree(index: int, src: Path):
    """The stereosim package under src, imported under a package name of its
    own, with its cli module and every module cli imports."""
    name = f"_stereosim_tree{index}"
    spec = importlib.util.spec_from_file_location(
        name, src / "stereosim" / "__init__.py", submodule_search_locations=[str(src / "stereosim")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def timed(samples: dict, stage: str, fn, *args):
    """fn(*args), its wall time appended to samples[stage]."""
    t0 = time.perf_counter()
    result = fn(*args)
    samples.setdefault(stage, []).append(time.perf_counter() - t0)
    return result


def digest(*parts: bytes) -> str:
    total = hashlib.sha256()
    for part in parts:
        total.update(hashlib.sha256(part).digest())
    return total.hexdigest()


def measure(name: str, trees: dict, runs: int, run, fields, env: dict) -> list[dict]:
    """One record per tree of a case, whose run(tree, timed) times one run
    and returns the digest of its outputs; fields(tree, digest) gives the
    record's own entries."""
    labels = list(trees)
    samples = {label: {} for label in labels}
    digests = set()
    for i in range(runs + 1):
        for label in labels if i % 2 == 0 else labels[::-1]:
            gc.collect()
            digests.add(run(trees[label], functools.partial(timed, samples[label] if i else {})))
    if len(digests) > 1:
        raise SystemExit(f"{name}: outputs differ between runs or trees: {sorted(digests)}")
    (outputs,) = digests
    first, records = samples[labels[0]], []
    for label in labels:
        stages = {}
        for stage, values in samples[label].items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            stages[stage] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                             f"runs_faster_than_{labels[0]}": sum(map(operator.lt, values, first[stage]))}
        records.append({"label": label, **fields(trees[label], outputs), "runs": runs, "stages": stages, **env})
        print(f"{name} {label}: " + ", ".join(
            f"{stage} {s['median_s'] * 1e3:.2f} ms" for stage, s in stages.items()), file=sys.stderr)
    return records


def scenario(field: str) -> dict:
    """The benchmark's field-shared shape; field-distinct gives pair p the seed p,
    and field-dying gives each right camera a battery it empties at step 22."""
    cams, links = [], []
    for p in range(PAIRS):
        left, right = 3 + 2 * p, 4 + 2 * p
        cams += [{"id": left, "role": "camera", "battery": 1e6},
                 {"id": right, "role": "camera", "battery": 500.0 if field == "field-dying" else 1e6}]
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


def simulate_case(tmp: Path, field: str):
    """The run and record fields of the simulate topic on field."""
    path, saved, out = (tmp / name for name in ("scenario.json", "saved.json", "report.json"))
    path.write_text(json.dumps(scenario(field)))

    def run(tree, timed) -> str:
        sensornet = tree.sensornet
        for stale in (saved, out):
            stale.unlink(missing_ok=True)
        sc = timed("load_scenario", sensornet.load_scenario, path)
        timed("validate_scenario", sensornet.validate_scenario, sc)
        report = timed("run_simulation", sensornet.run_simulation, sc)
        timed("save_report", sensornet.save_report, report, saved)
        with contextlib.redirect_stdout(io.StringIO()):
            code = timed("cli_simulate", tree.cli.main, ["simulate", str(path), "--out", str(out)])
        written = saved.read_bytes()
        if code != 0 or out.read_bytes() != written:
            raise SystemExit(f"{field}: simulate failed or wrote other bytes than save_report (exit code {code})")
        return digest(written)

    def fields(tree, outputs: str) -> dict:
        text = saved.read_text()
        return {"field": field, "sizes": {
            "pairs": PAIRS, "steps": STEPS, "width": SIDE, "height": SIDE,
            "transmissions": json.loads(text)["totals"]["transmissions"], "report_bytes": len(text)}}

    return run, fields


def cli_case(tmp: Path, first):
    """The run and record fields of the cli topic, its frames written by the first tree."""
    master = numpy.random.default_rng(SEED).integers(0, 256, size=(HEIGHT, WIDTH + SHIFT), dtype=numpy.uint8)
    other = numpy.random.default_rng(SHORT_RUNS["other_seed"]).integers(0, 256, size=(HEIGHT, WIDTH), dtype=numpy.uint8)
    left, right, other_path = tmp / "left.pgm", tmp / "right.pgm", tmp / "other.pgm"
    for path, frame in ((left, master[:, :WIDTH]), (right, master[:, SHIFT:]), (other_path, other)):
        path.write_bytes(first.imaging.serialize_pgm(first.imaging.GrayImage(frame)))
    prefix, short = tmp / "disp", tmp / "short"
    gray, sidecar, depth = prefix.with_suffix(".pgm"), prefix.with_suffix(".dsp"), tmp / "depth.json"
    short_sidecar, short_depth = short.with_suffix(".dsp"), tmp / "short_depth.json"
    maps = {"depth": sidecar, "depth_short_runs": short_sidecar}

    def disparity_argv(pgm: Path, spec: dict, out: Path) -> list[str]:
        return ["disparity", str(left), str(pgm), "--method", spec["method"], "--radius", str(spec["radius"]),
                "--max-disparity", str(spec["max_disparity"]), "--out", str(out)]

    def depth_argv(dsp: Path, out: Path) -> list[str]:
        return ["depth", str(dsp), "--focal-length", str(DEPTH["focal_length"]),
                "--baseline", str(DEPTH["baseline"]), "--out", str(out)]

    commands = {
        "disparity": disparity_argv(right, MATCH, prefix),
        "depth": depth_argv(sidecar, depth),
        "depth_short_runs": depth_argv(short_sidecar, short_depth),
        "metrics": ["metrics", str(left), str(gray), "--json"],
    }

    def run(tree, timed) -> tuple[str, str]:
        cli, stereo = tree.cli, tree.stereo
        for stale in (gray, sidecar, depth, short_sidecar, short_depth):
            stale.unlink(missing_ok=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            if cli.main(disparity_argv(other_path, SHORT_RUNS, short)) != 0:  # untimed: it only makes the short-run map
                raise SystemExit("the short-run disparity failed")
            for stage, argv in commands.items():
                if timed(stage, cli.main, argv) != 0:
                    raise SystemExit(f"{stage} failed")
        metrics_line = printed.getvalue().splitlines()[-1]
        frames = [tree.imaging.parse_pgm(p.read_bytes()) for p in (left, right, gray)]
        params = stereo.MatchParams(MATCH["radius"], MATCH["max_disparity"], MATCH["method"])
        dmap, _ = timed("compute_disparity", stereo.compute_disparity, frames[0], frames[1], params)
        score = timed("ssim", tree.metrics.ssim, frames[0], frames[2])
        if stereo.serialize_disparity(dmap) != sidecar.read_bytes():
            raise SystemExit("the matcher's map differs from the one disparity wrote")
        if json.loads(metrics_line)["ssim"] != score.value:
            raise SystemExit("ssim differs from the score metrics printed")
        return (digest(gray.read_bytes(), sidecar.read_bytes(), depth.read_bytes(), metrics_line.encode()),
                digest(short_sidecar.read_bytes(), short_depth.read_bytes()))

    def mean_run(dsp: Path) -> float:
        """The mean length of the map's runs of equal disparity and validity within a row."""
        dmap = first.stereo.parse_disparity(dsp.read_bytes())
        return dmap.disparities.size / len(first.stereo._rle_runs(dmap)[0])

    def traced_peak_mib(tree, dsp: Path) -> float:
        """The tracemalloc peak of rendering and writing the depth JSON of dsp."""
        dmap = tree.stereo.parse_disparity(dsp.read_bytes())
        depth_map = tree.stereo.disparity_to_depth(dmap, DEPTH["focal_length"], DEPTH["baseline"])
        gc.collect()
        tracemalloc.start()
        try:
            with open(tmp / "traced.json", "w") as f:
                f.writelines(tree.cli._depth_json(dmap, depth_map))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def fields(tree, outputs: tuple[str, str]) -> dict:
        return {
            "sizes": {"width": WIDTH, "height": HEIGHT, "shift": SHIFT, "seed": SEED},
            "params": {**MATCH, **DEPTH, "ssim_window_side": 8, "short_runs": SHORT_RUNS},
            "mean_run_px": {stage: mean_run(dsp) for stage, dsp in maps.items()},
            "traced_peak_mib": {stage: traced_peak_mib(tree, dsp) for stage, dsp in maps.items()},
            "outputs_sha256": outputs[0], "short_runs_sha256": outputs[1],
        }

    return run, fields


def merge(path: Path, records: list[dict], key) -> None:
    """Write records into the file at path, replacing those with the same key."""
    fresh = {key(rec) for rec in records}
    doc = json.loads(path.read_text()) if path.exists() else {"records": []}
    doc["records"] = [rec for rec in doc["records"] if key(rec) not in fresh] + records
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC_DIR",
                    help="a stereosim source directory to time, under a label (repeatable)")
    ap.add_argument("--runs", type=int, default=15,
                    help=f"timed runs per tree and case, after one warm-up; below {MIN_RECORD_RUNS}, no record is written")
    args = ap.parse_args(argv)
    if args.runs < MIN_RUNS:
        ap.error(f"--runs must be >= {MIN_RUNS}")
    sources = dict(t.split("=", 1) for t in args.tree or ["current=src"])
    trees = {label: import_tree(i, (ROOT / src).resolve()) for i, (label, src) in enumerate(sources.items())}
    first = next(iter(trees.values()))
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "cpu_count": os.cpu_count(), "usable_cpus": first.stereo._cpu_count()}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        simulate = [rec for field in FIELDS
                    for rec in measure(field, trees, args.runs, *simulate_case(tmp, field), env)]
        cli = measure("cli-files", trees, args.runs, *cli_case(tmp, first), env)

    if args.runs < MIN_RECORD_RUNS:
        print(f"fewer than {MIN_RECORD_RUNS} runs: no record written", file=sys.stderr)
        return 0
    merge(ROOT / "BENCH_simulate.json", simulate, lambda rec: (rec["label"], rec["field"]))
    merge(ROOT / "BENCH_cli.json", cli, lambda rec: rec["label"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
