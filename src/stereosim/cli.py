"""Command-line front end.

Subcommands: generate (seeded synthetic stereo pairs), disparity (match two
PGM files), depth (triangulate a disparity sidecar), metrics (SSIM/PSNR of
two PGM files), bench (timing CSV across resolutions and methods), and
simulate (run a scenario file). Exit codes: 0 success, 2 input or usage
error, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
import traceback
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .imaging import _require_int, parse_pgm, serialize_pgm
from .metrics import psnr, ssim
from .sensornet import ScenarioError, load_scenario, report_summary, run_simulation, save_report
from .stereo import (
    METHODS,
    DepthMap,
    DisparityMap,
    MatchParams,
    _row_runs,
    compute_disparity,
    disparity_to_depth,
    parse_disparity,
    scale_to_gray,
    serialize_disparity,
)
from .synthetic import shifted_pair

__all__ = ["BenchRecord", "bench_records", "main"]


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row: a (method, resolution) cell of the timing sweep."""

    method: str
    width: int
    height: int
    window_radius: int
    max_disparity: int
    repetitions: int
    median_seconds: float
    elementary_ops: int


def bench_records(
    sizes: list[tuple[int, int]],
    window_radius: int,
    max_disparity: int,
    repetitions: int,
    seed: int,
    shift: int | None = None,
) -> list[BenchRecord]:
    """Time both cost methods on seeded textures at each resolution.

    Each size's pair is built once, and each method runs once on it as an
    excluded warm-up. Each repetition then times sad and ssd in turn on the
    monotonic clock, so a slow spell of the host falls on both methods.
    median_seconds is the median of a cell's repetitions. Rows are
    method-major, in the order of sizes. The same seed makes runs comparable.
    """
    _require_int("repetitions", repetitions, 3)
    rows: dict[str, list[BenchRecord]] = {method: [] for method in METHODS}
    for width, height in sizes:
        cells = [MatchParams(window_radius, max_disparity, method) for method in METHODS]
        pair_shift = shift if shift is not None else min(5, max_disparity, width - 1)
        left, right = shifted_pair(width, height, pair_shift, seed)
        # each method's warm-up run, which also gives its elementary_ops
        ops = [compute_disparity(left, right, params)[1].elementary_ops for params in cells]
        times: list[list[float]] = [[] for _ in cells]
        for _ in range(repetitions):
            for params, cell_times in zip(cells, times):
                t0 = time.perf_counter()
                compute_disparity(left, right, params)
                cell_times.append(time.perf_counter() - t0)
        for params, cell_ops, cell_times in zip(cells, ops, times):
            rows[params.method].append(BenchRecord(
                params.method, width, height, window_radius, max_disparity,
                repetitions, statistics.median(cell_times), cell_ops,
            ))
    return [record for method in METHODS for record in rows[method]]


def _read(path: str, parse):
    """parse applied to the bytes of path; a decoder's ValueError is prefixed with path."""
    data = Path(path).read_bytes()
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_sizes(spec: str) -> list[tuple[int, int]]:
    sizes = []
    for token in spec.split(","):
        token = token.strip()
        try:
            w, h = map(int, token.lower().split("x"))
        except ValueError:  # not two parts, or a part that is not an integer
            raise ValueError(f"size {token!r} must look like WIDTHxHEIGHT") from None
        if w < 1 or h < 1:
            raise ValueError(f"size {token!r} must be at least 1x1")
        sizes.append((w, h))
    return sizes


def cmd_generate(args) -> int:
    left, right = shifted_pair(args.width, args.height, args.shift, args.seed)
    left_path = Path(f"{args.out}_left.pgm")
    right_path = Path(f"{args.out}_right.pgm")
    left_path.write_bytes(serialize_pgm(left))
    right_path.write_bytes(serialize_pgm(right))
    print(f"wrote {left_path} and {right_path} ({args.width}x{args.height}, shift {args.shift})")
    return 0


def cmd_disparity(args) -> int:
    left = _read(args.left, parse_pgm)
    right = _read(args.right, parse_pgm)
    params = MatchParams(args.radius, args.max_disparity, args.method)
    t0 = time.perf_counter()
    dmap, stats = compute_disparity(left, right, params)
    wall_time = time.perf_counter() - t0
    gray_path = Path(f"{args.out}.pgm")
    sidecar_path = Path(f"{args.out}.dsp")
    # both encodings are built, and every error raised, before either file is opened
    gray = serialize_pgm(scale_to_gray(dmap))
    sidecar = serialize_disparity(dmap)
    gray_path.write_bytes(gray)
    sidecar_path.write_bytes(sidecar)
    print(f"wrote {gray_path} and {sidecar_path}")
    print(f"elementary_ops={stats.elementary_ops} wall_time_s={wall_time}")
    return 0


def cmd_depth(args) -> int:
    dmap = _read(args.sidecar, parse_disparity)
    depth = disparity_to_depth(dmap, args.focal_length, args.baseline)
    vals = depth.depths[depth.available]
    if vals.size:
        print(
            f"available={vals.size} min_m={float(vals.min())} "
            f"max_m={float(vals.max())} mean_m={float(vals.mean())}"
        )
    else:
        print("available=0")
    if args.out:
        parts = _depth_json(dmap, depth)  # raises, if at all, before the file is opened
        with open(args.out, "w") as f:
            f.writelines(parts)
        print(f"wrote {args.out}")
    return 0


# A run of at least _RUN_PIECE equal tokens is one token * length piece, and
# rows are rendered _BAND_ROWS at a time. With 4 and 128, rendering and
# writing the 640x480 depth JSON of a matched shift (runs of ~215 pixels)
# took 0.48x the time of one piece per pixel, and of a map of ~1.4-pixel
# runs 1.17x; the traced peak fell from 7.4 to 1.8 and 6.7 MiB. A run piece
# from 2 pixels made short runs slower; whole-map bands raised the peak.
_RUN_PIECE = 4
_BAND_ROWS = 128


def _depth_json(dmap: DisparityMap, depth: DepthMap) -> Iterator[str]:
    """The depth document and a newline, in row-sized parts that join to
    json.dumps of the dict with keys width, height, focal_length, baseline
    and depths_m (row-major, null where no depth is available).

    disparity_to_depth makes depth a function of the disparity, so each
    disparity present is rendered once, as a JSON token after its separator,
    and each run of equal pixels is keyed by its token. Every token is
    built, and every error raised, before this returns; the parts only join
    a row's pieces, so the whole document is never one string.
    """
    header = json.dumps(
        {
            "width": dmap.width,
            "height": dmap.height,
            "focal_length": depth.focal_length,
            "baseline": depth.baseline,
        },
        allow_nan=False,
    )
    starts, run_key, run_depth = _depth_runs(dmap, depth)
    # each disparity's entry is the depth of one of its runs; the last
    # slot takes the runs without depth
    entry = np.zeros(int(run_key.max()) + 2)
    entry[run_key] = run_depth
    shown = np.zeros(len(entry), bool)
    shown[run_key] = True
    shown = np.flatnonzero(shown[:-1])
    # A depth that is not bit for bit its disparity's entry, which
    # disparity_to_depth never makes, is rendered on its own, after the
    # disparities' tokens, so the file holds exactly the map's values (NaN
    # and -0.0 included).
    odd = entry[run_key].view(np.uint64) != run_depth.view(np.uint64)
    odd = np.flatnonzero(odd & (run_key >= 0))
    top = len(entry) - 1
    run_key[odd] = np.arange(top, top + len(odd))
    tokens = np.empty(top + len(odd) + 1, dtype=object)
    tokens[shown] = [f", {json.dumps(v)}" for v in entry[shown].tolist()]
    tokens[top:-1] = [f", {json.dumps(v)}" for v in run_depth[odd].tolist()]
    tokens[-1] = ", null"
    rows = _token_rows(starts, run_key, tokens, dmap.width, depth.depths.size)
    # each token leads with its separator, which the first one drops
    return chain((f'{header[:-1]}, "depths_m": [', next(rows)[2:]), rows, ("]}\n",))


def _depth_runs(dmap: DisparityMap, depth: DepthMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of pixels within a row that share their key, the
    disparity or -1 where no depth is available, and their depth's bits:
    each run's flat start, key and depth, row-major."""
    depths = depth.depths.ravel()
    key = np.where(depth.available, dmap.disparities, -1).ravel()
    starts = _row_runs(dmap.width, key, depths.view(np.uint64))
    return starts, key[starts], depths[starts]


def _token_rows(
    starts: np.ndarray, keys: np.ndarray, tokens: np.ndarray, width: int, size: int
) -> Iterator[str]:
    """Each row of a map of size pixels as the join of its runs' tokens:
    the runs are given by their flat starts, row-major, and keys into
    tokens, and every row of width pixels opens a run.

    A run of at least _RUN_PIECE pixels is one piece, its token times its
    length; a shorter run is one piece per pixel.
    """
    step = _BAND_ROWS * width
    for y0 in range(0, size, step):
        y1 = min(y0 + step, size)
        r0, r1 = np.searchsorted(starts, (y0, y1)).tolist()
        band = starts[r0:r1]
        lengths = np.diff(band, append=y1)
        long = lengths >= _RUN_PIECE
        counts = np.where(long, 1, lengths)
        firsts = np.cumsum(counts) - counts  # each run's first piece
        pieces = tokens[np.repeat(keys[r0:r1], counts)].tolist()
        for i, n in zip(firsts[long].tolist(), lengths[long].tolist()):
            pieces[i] *= n
        bounds = firsts[np.searchsorted(band, range(y0, y1, width))].tolist() + [len(pieces)]
        for a, b in zip(bounds, bounds[1:]):
            yield "".join(pieces[a:b])


def cmd_metrics(args) -> int:
    a = _read(args.a, parse_pgm)
    b = _read(args.b, parse_pgm)
    s = ssim(a, b)
    p = psnr(a, b)
    shown_psnr = "inf" if p.infinite else p.value
    if args.json:
        print(json.dumps({"ssim": s.value, "psnr": shown_psnr}))
    else:
        print(f"ssim={s.value}")
        print(f"psnr={shown_psnr}")
    return 0


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    records = bench_records(
        sizes, args.radius, args.max_disparity, args.reps, args.seed, shift=args.shift
    )
    print("method,width,height,radius,max_disparity,reps,median_seconds,elementary_ops")
    for r in records:  # the columns are BenchRecord's fields, in order
        print(",".join(map(str, astuple(r))))
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_simulation(scenario)
    save_report(report, args.out)
    print(f"wrote {args.out}")
    summary = report_summary(report)
    totals = summary["totals"]
    print(f"lifetime={summary['lifetime']}")
    print(f"processing_total_uj={totals['processing_uj']}")
    print(f"transmission_total_uj={totals['transmission_uj']}")
    print(" ".join(f"{k}={totals[k]}" for k in ("events", "transmissions", "drops")))
    for p in report.pairs:
        print(
            f"pair {p.left}-{p.right}: raw_pair_bytes={p.raw_pair_bytes} "
            f"sidecar_bytes={p.sidecar_bytes} rle_bytes_min={p.rle_bytes_min} "
            f"rle_bytes_max={p.rle_bytes_max}"
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main() reuses it."""
    parser = argparse.ArgumentParser(
        prog="stereosim",
        description="Stereo block matching, image metrics, and sensor network simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic stereo pair")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--shift", type=int, default=2, help="exact disparity of the pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix for _left.pgm and _right.pgm")

    p = sub.add_parser("disparity", help="compute a disparity map from two PGM files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--radius", type=int, default=MatchParams.window_radius, help="support window radius"
    )
    p.add_argument("--max-disparity", type=int, default=MatchParams.max_disparity)
    p.add_argument("--method", choices=METHODS, default=MatchParams.method)
    p.add_argument("--out", required=True, help="output prefix for .pgm and .dsp")

    p = sub.add_parser("depth", help="triangulate depth from a disparity sidecar")
    p.add_argument("sidecar", help=".dsp file written by the disparity command")
    p.add_argument("--focal-length", type=float, required=True, help="pixels")
    p.add_argument("--baseline", type=float, required=True, help="meters")
    p.add_argument("--out", help="optional JSON output path")

    p = sub.add_parser("metrics", help="SSIM and PSNR between two PGM files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("bench", help="timing sweep over resolutions, CSV on stdout")
    p.add_argument("--sizes", default="128x128,256x256,512x512", help="comma-separated WxH list")
    p.add_argument("--radius", type=int, default=MatchParams.window_radius)
    p.add_argument("--max-disparity", type=int, default=MatchParams.max_disparity)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=int, default=None, help="pair disparity, defaults to a small value")

    p = sub.add_parser("simulate", help="run a scenario file and write the report")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--out", required=True, help="report JSON path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so a wrapper later set on a cmd_* function runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ScenarioError as exc:
        print("error: scenario validation failed:", file=sys.stderr)
        for e in exc.errors:
            print(f"  {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 1
