import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stereosim
import stereosim.cli as cli_mod
from stereosim import (
    DepthMap,
    DisparityMap,
    MatchParams,
    compute_disparity,
    disparity_to_depth,
    parse_disparity,
    parse_pgm,
    serialize_disparity,
    serialize_pgm,
    shifted_pair,
    texture,
)
from stereosim.cli import _depth_json, main

from oracles import naive_depth_json


def run_cli(*argv):
    return main(list(argv))


def write_pair(tmp_path, shift=2, seed=0, size=32):
    code = run_cli(
        "generate",
        "--width", str(size),
        "--height", str(size),
        "--shift", str(shift),
        "--seed", str(seed),
        "--out", str(tmp_path / "pair"),
    )
    assert code == 0
    return tmp_path / "pair_left.pgm", tmp_path / "pair_right.pgm"


def scenario_file(tmp_path, policy="disparity_on_event", shifts=None, name="scenario.json"):
    doc = {
        "seed": 5,
        "policy": policy,
        "event_threshold": 1.0,
        "nodes": [
            {"id": 0, "role": "sink"},
            {"id": 1, "role": "camera", "battery": 1e9},
            {"id": 2, "role": "camera", "battery": 1e9},
        ],
        "links": [[0, 1], [1, 2]],
        "pairs": [
            {
                "left": 1,
                "right": 2,
                "match": {"window_radius": 1, "max_disparity": 4, "method": "sad"},
                "frames": {
                    "synthetic": {
                        "width": 16,
                        "height": 16,
                        "steps": 3,
                        "shift_per_step": shifts if shifts is not None else 1,
                    }
                },
            }
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_generate_writes_parseable_shifted_pair(tmp_path, capsys):
    left_path, right_path = write_pair(tmp_path, shift=3, seed=11)
    out = capsys.readouterr().out
    assert "pair_left.pgm" in out and "pair_right.pgm" in out
    left = parse_pgm(left_path.read_bytes())
    right = parse_pgm(right_path.read_bytes())
    assert np.array_equal(left.pixels[:, 3:], right.pixels[:, :-3])


def test_generate_rejects_shift_wider_than_frame(tmp_path, capsys):
    code = run_cli("generate", "--width", "8", "--height", "8", "--shift", "8",
                   "--out", str(tmp_path / "p"))
    assert code == 2
    assert "shift" in capsys.readouterr().err


@pytest.mark.parametrize(
    "width, height",
    [(10**9, 10**9), (10**400, 4), (2**62, 4)],  # numpy refuses each before touching memory
    ids=["memory-error", "dimension-too-large", "array-too-big"],
)
def test_generate_too_large_to_hold_in_memory_exits_two(tmp_path, capsys, width, height):
    code = run_cli("generate", "--width", str(width), "--height", str(height),
                   "--out", str(tmp_path / "p"))
    assert code == 2
    assert capsys.readouterr().err == "error: texture too large to hold in memory\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--width", "8", "--height", "8", "--seed", "-1", "--out", "{dir}/g"],
        ["bench", "--sizes", "16x16", "--radius", "1", "--max-disparity", "4", "--reps", "3",
         "--seed", "-1"],
    ],
    ids=["generate", "bench"],
)
def test_negative_seed_exits_two_in_stereosim_words(tmp_path, capsys, argv):
    assert run_cli(*[arg.format(dir=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_generate_zero_height_names_the_height_typed(tmp_path, capsys):
    # the texture is --shift pixels wider than the frame; its width used to be named
    assert run_cli("generate", "--width", "64", "--height", "0", "--out", str(tmp_path / "g")) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: height must be >= 1, got 0\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_generate_zero_width_names_the_width(tmp_path, capsys):
    # the default --shift 2 used to be checked against the zero width first
    assert run_cli("generate", "--width", "0", "--height", "8", "--out", str(tmp_path / "g")) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: width must be >= 1, got 0\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--width", "8", "--height", "8", "--shift", "-1", "--out", "{dir}/g"],
        ["bench", "--sizes", "16x16", "--radius", "1", "--max-disparity", "4", "--reps", "3",
         "--shift", "-1"],
    ],
    ids=["generate", "bench"],
)
def test_negative_shift_is_named_as_the_flag(tmp_path, capsys, argv):
    # one shift, as --shift names it; a scenario's shift_per_step keeps "shifts"
    assert run_cli(*[arg.format(dir=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: shift must be >= 0, got -1\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_disparity_identical_inputs_render_zero(tmp_path, capsys):
    img = texture(24, 24, seed=4)
    p = tmp_path / "same.pgm"
    p.write_bytes(serialize_pgm(img))
    code = run_cli("disparity", str(p), str(p), "--radius", "1", "--max-disparity", "4",
                   "--out", str(tmp_path / "out"))
    assert code == 0
    out = capsys.readouterr().out
    assert "elementary_ops=" in out and "wall_time_s=" in out
    gray = parse_pgm((tmp_path / "out.pgm").read_bytes())
    assert np.all(gray.pixels == 0)
    dmap = parse_disparity((tmp_path / "out.dsp").read_bytes())
    assert np.all(dmap.disparities[dmap.valid] == 0)


def test_disparity_on_shifted_pair_renders_scaled_constant(tmp_path):
    left_path, right_path = write_pair(tmp_path, shift=2, seed=1)
    code = run_cli("disparity", str(left_path), str(right_path),
                   "--radius", "1", "--max-disparity", "4", "--out", str(tmp_path / "d"))
    assert code == 0
    dmap = parse_disparity((tmp_path / "d.dsp").read_bytes())
    gray = parse_pgm((tmp_path / "d.pgm").read_bytes())
    assert np.all(gray.pixels[dmap.valid] == 128)  # round(255 * 2 / 4)


def test_disparity_that_cannot_encode_its_sidecar_writes_no_file(tmp_path, capsys, monkeypatch):
    left_path, right_path = write_pair(tmp_path, size=8)
    capsys.readouterr()
    dmap = DisparityMap(np.zeros((1, 1), np.int32), np.ones((1, 1), bool), 70000)
    monkeypatch.setattr(cli_mod, "compute_disparity", lambda left, right, params: (dmap, None))
    code = run_cli("disparity", str(left_path), str(right_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == "error: max_disparity 70000 exceeds the 16-bit sidecar range\n"
    assert not (tmp_path / "o.pgm").exists() and not (tmp_path / "o.dsp").exists()


def test_missing_file_exits_two_and_names_path(tmp_path, capsys):
    code = run_cli("disparity", str(tmp_path / "nope.pgm"), str(tmp_path / "nope.pgm"),
                   "--out", str(tmp_path / "x"))
    assert code == 2
    assert "nope.pgm" in capsys.readouterr().err


def test_corrupt_pgm_exits_two_and_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6 trash")
    code = run_cli("metrics", str(bad), str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.pgm" in err and "magic" in err


@pytest.mark.parametrize("command", ["disparity", "metrics", "depth"])
def test_decoder_errors_are_prefixed_with_the_file_path(tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"P5 4 4\n255\n" if command != "depth" else b"DSP1")
    decoder = "parse_disparity" if command == "depth" else "parse_pgm"
    args = {"disparity": [str(bad), str(bad), "--out", str(tmp_path / "d")],
            "metrics": [str(bad), str(bad)],
            "depth": [str(bad), "--focal-length", "1", "--baseline", "1"]}[command]
    # the decoder is looked up when the command runs, so a wrapper on the cli attribute sees it
    with mock.patch(f"stereosim.cli.{decoder}", wraps=getattr(stereosim, decoder)) as spy:
        assert run_cli(command, *args) == 2
    assert spy.call_count == 1
    message = {"parse_pgm": "pixel data truncated at byte offset 11: need 16 bytes, have 0",
               "parse_disparity": "header truncated: need 16 bytes, have 4"}[decoder]
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_metrics_same_file(tmp_path, capsys):
    p = tmp_path / "img.pgm"
    p.write_bytes(serialize_pgm(texture(16, 16, seed=2)))
    assert run_cli("metrics", str(p), str(p)) == 0
    out = capsys.readouterr().out
    assert "ssim=1.0" in out
    assert "psnr=inf" in out


def test_metrics_json_output(tmp_path, capsys):
    p = tmp_path / "img.pgm"
    q = tmp_path / "other.pgm"
    p.write_bytes(serialize_pgm(texture(16, 16, seed=2)))
    q.write_bytes(serialize_pgm(texture(16, 16, seed=3)))
    assert run_cli("metrics", str(p), str(q), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"ssim", "psnr"}
    assert isinstance(doc["psnr"], float)
    assert run_cli("metrics", str(p), str(p), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ssim": 1.0, "psnr": "inf"}


def test_metrics_dimension_mismatch_exits_two(tmp_path, capsys):
    p = tmp_path / "a.pgm"
    q = tmp_path / "b.pgm"
    p.write_bytes(serialize_pgm(texture(16, 16, seed=2)))
    q.write_bytes(serialize_pgm(texture(17, 16, seed=2)))
    assert run_cli("metrics", str(p), str(q)) == 2
    assert "error:" in capsys.readouterr().err


def test_depth_summary_and_json(tmp_path, capsys):
    left_path, right_path = write_pair(tmp_path, shift=2, seed=1)
    run_cli("disparity", str(left_path), str(right_path),
            "--radius", "1", "--max-disparity", "4", "--out", str(tmp_path / "d"))
    capsys.readouterr()
    code = run_cli("depth", str(tmp_path / "d.dsp"), "--focal-length", "100",
                   "--baseline", "0.5", "--out", str(tmp_path / "depth.json"))
    assert code == 0
    out = capsys.readouterr().out
    assert "available=" in out and "mean_m=" in out
    doc = json.loads((tmp_path / "depth.json").read_text())
    assert doc["width"] == 32 and doc["height"] == 32
    present = [v for v in doc["depths_m"] if v is not None]
    assert present and all(v == 100 * 0.5 / 2 for v in present)


def test_depth_with_no_available_depth_prints_zero(tmp_path, capsys):
    sidecar = tmp_path / "d.dsp"
    # a valid zero disparity is at infinity and an invalid one has no depth
    sidecar.write_bytes(serialize_disparity(DisparityMap([[0, 3]], [[True, False]], 4)))
    assert run_cli("depth", str(sidecar), "--focal-length", "100", "--baseline", "0.5") == 0
    assert capsys.readouterr().out == "available=0\n"


@pytest.mark.parametrize(
    "focal, baseline",
    [("inf", "0.5"), ("1e308", "10"), ("1e-200", "1e-200")],
    ids=["infinite-focal-length", "overflowing-product", "underflowing-product"],
)
def test_depth_non_finite_scale_exits_two_and_writes_nothing(tmp_path, capsys, focal, baseline):
    sidecar = tmp_path / "d.dsp"
    sidecar.write_bytes(serialize_disparity(DisparityMap([[0, 3]], [[True, True]], 4)))
    out = tmp_path / "depth.json"
    argv = ["depth", str(sidecar), "--focal-length", focal, "--baseline", baseline, "--out", str(out)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "finite" in captured.err
    assert not out.exists()
    # a file already at --out keeps its bytes
    out.write_bytes(b"earlier bytes\n")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b"earlier bytes\n"


def test_calls_that_share_one_parser_stay_independent(tmp_path, capsys):
    sidecar = tmp_path / "d.dsp"
    sidecar.write_bytes(serialize_disparity(DisparityMap([[0, 3]], [[True, True]], 4)))
    out = tmp_path / "depth.json"
    argv = ["depth", str(sidecar), "--focal-length", "100", "--baseline", "0.5"]
    assert run_cli(*argv, "--out", str(out)) == 0
    out.unlink()
    capsys.readouterr()
    # the second call keeps no --out from the first
    assert run_cli(*argv) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("available=1 ") and "wrote" not in printed
    assert list(tmp_path.iterdir()) == [sidecar]


def test_a_wrapper_set_on_a_command_after_the_parser_is_built_runs(tmp_path, monkeypatch):
    left, right = write_pair(tmp_path)  # builds the parser first
    calls = []

    def wrapped(args):
        calls.append(args.command)
        return 0

    monkeypatch.setattr(cli_mod, "cmd_metrics", wrapped)
    assert run_cli("metrics", str(left), str(right)) == 0
    assert calls == ["metrics"]


@pytest.mark.parametrize(
    "disparities, valid",
    [
        ([[3]], [[True]]),
        ([[3, 0, 7, 7, 1]], [[True, True, True, False, True]]),
        ([[3], [0], [7], [7], [1]], [[True], [True], [True], [False], [True]]),
        ([[2, 5], [0, 5], [1, 1]], [[False, False], [False, False], [False, False]]),
    ],
    ids=["one-pixel", "one-row", "one-column", "all-null"],
)
def test_depth_out_file_is_the_per_pixel_writers_document(tmp_path, capsys, disparities, valid):
    dmap = DisparityMap(disparities, valid, 7)
    sidecar, out = tmp_path / "d.dsp", tmp_path / "depth.json"
    sidecar.write_bytes(serialize_disparity(dmap))
    code = run_cli("depth", str(sidecar), "--focal-length", "100", "--baseline", "0.5",
                   "--out", str(out))
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    depth = disparity_to_depth(dmap, 100.0, 0.5)
    assert out.read_text() == naive_depth_json(dmap, depth) + "\n"


@st.composite
def depth_inputs(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 10))
    maxd = draw(st.integers(0, 40))
    disp = draw(st.lists(st.integers(0, maxd), min_size=h * w, max_size=h * w))
    valid = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    focal = draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    baseline = draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    assume(math.isfinite(focal * baseline) and focal * baseline > 0)
    return DisparityMap(np.reshape(disp, (h, w)), np.reshape(valid, (h, w)), maxd), focal, baseline


@settings(max_examples=300)
@given(depth_inputs(), st.lists(st.tuples(st.integers(0, 59), st.floats()), max_size=4))
@example((DisparityMap(np.zeros((3, 4), int), np.ones((3, 4), bool), 0), 100.0, 0.5), [])  # all null
@example((DisparityMap([[3, 7, 0, 9]], [[True, True, True, False]], 9), 100.0, 0.5), [])
def test_depth_json_matches_per_pixel_writer(case, overrides):
    dmap, focal, baseline = case
    depth = disparity_to_depth(dmap, focal, baseline)
    # depths off f*B/d, as a faulty triangulation could make, must reach the file as they are
    depths = depth.depths.copy()
    for i, value in overrides:
        depths.flat[i % depths.size] = value
    depth = DepthMap(depths, depth.available, depth.focal_length, depth.baseline)
    assert "".join(_depth_json(dmap, depth)) == naive_depth_json(dmap, depth) + "\n"


@st.composite
def run_structured_depths(draw):
    """A map laid row-major from a repeated pattern of runs of 1 to 3K
    equal pixels, cut at row ends, from one row to over two bands tall, and
    its depths with some replaced, the last pixel's among them if drawn."""
    k, band = cli_mod._RUN_PIECE, cli_mod._BAND_ROWS
    w = draw(st.integers(1, 3 * k + 2))
    h = draw(st.sampled_from([1, 2, band - 1, band, band + 1, 2 * band + 3]))
    maxd = draw(st.integers(0, 5))
    # a disparity of -1 marks an invalid run; a pattern of one run covers the whole map
    pattern = draw(st.lists(st.tuples(st.integers(1, 3 * k), st.integers(-1, maxd)), min_size=1, max_size=8))
    flat = np.concatenate([np.full(n, v) for n, v in pattern])
    flat = np.resize(flat, h * w).reshape(h, w)
    dmap = DisparityMap(np.maximum(flat, 0), flat >= 0, maxd)
    depth = disparity_to_depth(dmap, *draw(st.sampled_from([(100.0, 0.5), (3.0, 1e-3)])))
    depths = depth.depths.copy()
    for i, value in draw(st.lists(st.tuples(st.integers(0, h * w - 1), st.floats()), max_size=4)):
        depths.flat[i] = value
    if draw(st.booleans()):
        depths.flat[-1] = draw(st.floats())
    return dmap, DepthMap(depths, depth.available, depth.focal_length, depth.baseline)


_TALL = DisparityMap(np.full((300, 9), 4), np.ones((300, 9), bool), 4)  # one run over three bands
_TWOS = DisparityMap(np.full((2, 9), 2), np.ones((2, 9), bool), 2)
# pixels 1, 9 and 17 are off f*B/d: inside a long run, and the last pixel
_TWOS_ODD = DepthMap(np.where(np.arange(18).reshape(2, 9) % 8 == 1, 2.5, 25.0), _TWOS.valid, 100.0, 0.5)


@settings(max_examples=150, deadline=None)
@given(run_structured_depths())
@example((_TALL, disparity_to_depth(_TALL, 100.0, 0.5)))
@example((_TWOS, _TWOS_ODD))
def test_depth_json_of_run_structured_maps_matches_per_pixel_writer(case):
    dmap, depth = case
    assert "".join(_depth_json(dmap, depth)) == naive_depth_json(dmap, depth) + "\n"


def test_depth_out_renders_a_token_only_for_each_disparity_present(tmp_path, monkeypatch):
    dumped = []

    def dumps(value, **kwargs):
        dumped.append(value)
        return json.dumps(value, **kwargs)

    monkeypatch.setattr(cli_mod, "json", SimpleNamespace(dumps=dumps))
    dmap = DisparityMap([[3, 65535]], [[True, True]], 65535)
    sidecar, out = tmp_path / "d.dsp", tmp_path / "depth.json"
    sidecar.write_bytes(serialize_disparity(dmap))
    code = run_cli("depth", str(sidecar), "--focal-length", "100", "--baseline", "0.5",
                   "--out", str(out))
    assert code == 0
    assert [v for v in dumped if not isinstance(v, dict)] == [50.0 / 3, 50.0 / 65535]
    assert out.read_text() == naive_depth_json(dmap, disparity_to_depth(dmap, 100.0, 0.5)) + "\n"


def test_bench_csv_shape(tmp_path, capsys):
    code = run_cli("bench", "--sizes", "16x16,24x24", "--radius", "1",
                   "--max-disparity", "4", "--reps", "3", "--seed", "0")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "method,width,height,radius,max_disparity,reps,median_seconds,elementary_ops"
    assert len(lines) == 1 + 4  # 2 methods x 2 sizes
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["sad", "sad", "ssd", "ssd"]
    for r in rows:
        w, h, radius, maxd = int(r[1]), int(r[2]), int(r[3]), int(r[4])
        side = 2 * radius + 1
        n_valid = (h - 2 * radius) * (w - maxd - 2 * radius)
        assert int(r[7]) == n_valid * (maxd + 1) * side * side
        assert float(r[6]) > 0


def test_bench_output_is_stable_except_timing(capsys):
    argv = ["bench", "--sizes", "16x16,24x24", "--radius", "1",
            "--max-disparity", "4", "--reps", "3", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out.strip().split("\n")
    assert main(argv) == 0
    second = capsys.readouterr().out.strip().split("\n")

    def drop_timing(lines):
        rows = [line.split(",") for line in lines]
        return [r[:6] + r[7:] for r in rows]

    assert drop_timing(first) == drop_timing(second)


def test_bench_rejects_too_few_reps(capsys):
    assert run_cli("bench", "--sizes", "16x16", "--reps", "2") == 2
    assert "repetitions" in capsys.readouterr().err


def test_bench_rejects_malformed_sizes(capsys):
    assert run_cli("bench", "--sizes", "16by16") == 2
    assert "WIDTHxHEIGHT" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("64x", "size '64x' must look like WIDTHxHEIGHT"),
        ("8x8x8", "size '8x8x8' must look like WIDTHxHEIGHT"),
        ("0x8", "size '0x8' must be at least 1x1"),
    ],
)
def test_bench_rejects_unusable_sizes(capsys, spec, message):
    assert run_cli("bench", "--sizes", spec) == 2
    assert message in capsys.readouterr().err


def test_simulate_writes_report(tmp_path, capsys):
    sc = scenario_file(tmp_path)
    out = tmp_path / "report.json"
    assert run_cli("simulate", str(sc), "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "lifetime=survived" in printed
    assert "raw_pair_bytes=" in printed and "rle_bytes_min=" in printed
    doc = json.loads(out.read_text())
    assert doc["schema"] == "stereosim-report-v1"
    assert doc["totals"]["events"] == 1
    assert doc["lifetime"] == "survived"


def test_simulate_runs_are_byte_identical(tmp_path):
    sc = scenario_file(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("simulate", str(sc), "--out", str(a)) == 0
    assert run_cli("simulate", str(sc), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_report_with_an_infinite_energy_exits_two_and_writes_nothing(tmp_path, capsys):
    # one 256x256 step processes ~3.3e5 bytes, and 3.3e5 * 1e308 / 65536 overflows to inf
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["energy"] = {"tx_energy_per_64kb": 1e308, "cpu_energy_per_64kb_processed": 1e308}
    doc["pairs"][0]["frames"]["synthetic"].update(width=256, height=256)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli("simulate", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Out of range float values are not JSON compliant: inf\n"
    assert captured.out == ""
    assert not out.exists()


def test_simulate_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [}')
    assert run_cli("simulate", str(path), "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_simulate_validation_failures_are_listed(tmp_path, capsys):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["nodes"][0]["role"] = "camera"  # no sink anywhere
    doc["nodes"][1]["battery"] = -3
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert run_cli("simulate", str(path), "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert "exactly one sink" in err
    assert "nodes[1].battery" in err


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("energy", "tx_energy_per_64kb"), float("inf"), "$.energy.tx_energy_per_64kb"),
        (("event_threshold",), float("nan"), "$.event_threshold"),
        (("nodes", 1, "battery"), float("-inf"), "nodes[1].battery"),
        (("pairs", 0, "baseline"), 10**400, "pairs[0].baseline"),  # beyond the float range
        (("nodes", 1, "position"), [10**400, 0], "nodes[1].position"),
    ],
    ids=["Infinity", "NaN", "-Infinity", "huge-integer", "huge-position"],
)
def test_simulate_non_finite_number_exits_two(tmp_path, capsys, path, value, where):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["energy"] = {}
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value  # json.dumps writes the non-standard NaN and Infinity
    scenario = tmp_path / "non_finite.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run_cli("simulate", str(scenario), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{where}: must be a" in err and "finite number" in err
    assert not out.exists()


def _replaced(path, value):
    """Scenario bytes with the value at path (a key/index tuple) replaced."""

    def build(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return json.dumps(doc).encode()

    return build


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda doc: b"", "Expecting value"),
        (lambda doc: b"\xff\xfe{", "$: not valid JSON"),
        (lambda doc: b"[" * 100_000 + b"]" * 100_000, "$: nested too deeply to parse"),
        (
            _replaced(("pairs", 0, "frames", "synthetic", "steps"), 10**30),
            "pairs[0].frames.synthetic.steps: too many steps to hold in memory",
        ),
        (lambda doc: b"[]", "$: must be an object, got list"),
        (_replaced(("energy",), []), "$.energy: must be an object, got list"),
        (_replaced(("nodes",), {}), "$.nodes: must be a non-empty list"),
        (_replaced(("nodes", 0), "sink"), "nodes[0]: must be an object, got str"),
        (_replaced(("links",), {}), "$.links: must be a list, got dict"),
        (_replaced(("links", 0), "0-1"), "links[0]: must be an [a, b] node id pair"),
        (_replaced(("pairs",), {}), "$.pairs: must be a list"),
        (_replaced(("pairs", 0), []), "pairs[0]: must be an object, got list"),
        (_replaced(("pairs", 0, "match"), []), "pairs[0].match: must be an object, got list"),
        (_replaced(("pairs", 0, "frames"), 7), "pairs[0].frames: must be an object, got int"),
        (
            _replaced(("pairs", 0, "frames", "synthetic"), "x"),
            "pairs[0].frames.synthetic: must be an object, got str",
        ),
        (
            _replaced(("pairs", 0, "frames", "synthetic", "shift_per_step"), {}),
            "pairs[0].frames.synthetic.shift_per_step: must be an integer or a list",
        ),
        (_replaced(("seed",), -1), "$.seed: must be >= 0, got -1"),
        (
            # 10**18 bytes: numpy refuses it before touching memory
            _replaced(("pairs", 0, "frames", "synthetic"), {"width": 10**9, "height": 10**9, "steps": 1}),
            "pairs[0].frames.synthetic: texture too large to hold in memory",
        ),
        (
            _replaced(("pairs", 0, "match", "window_radius"), "x"),
            "pairs[0].match.window_radius: must be an integer, got str",
        ),
        (
            _replaced(("pairs", 0, "frames"), {"files": []}),
            "pairs[0].frames.files: must be a non-empty list of [left, right] path pairs",
        ),
        (
            _replaced(("pairs", 0, "frames"), {"files": [["l.pgm"]]}),
            "pairs[0].frames.files[0]: must be a [left, right] path pair",
        ),
    ],
    ids=[
        "empty", "non-utf8", "deep-nesting", "huge-steps", "top-level-list", "energy-list",
        "nodes-object", "node-string", "links-object", "link-string", "pairs-object",
        "pair-list", "match-list", "frames-int", "synthetic-string", "shift-object",
        "negative-seed", "huge-frames", "radius-string", "files-empty", "files-one-path",
    ],
)
def test_simulate_malformed_scenario_file_exits_two(tmp_path, capsys, build, message):
    doc = json.loads(scenario_file(tmp_path).read_text())
    scenario = tmp_path / "malformed.json"
    scenario.write_bytes(build(doc))
    out = tmp_path / "r.json"
    assert run_cli("simulate", str(scenario), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    # one fault, one finding: at most the "scenario validation failed" line and the finding
    assert len(err.splitlines()) <= 2, err
    assert not out.exists()


_LEFT, _RIGHT = (serialize_pgm(image) for image in shifted_pair(16, 12, 2, 3))
_VALID_INPUTS = {
    "disparity": _LEFT,
    "depth": serialize_disparity(compute_disparity(parse_pgm(_LEFT), parse_pgm(_RIGHT), MatchParams(1, 4))[0]),
    "metrics": _LEFT,
    "simulate": json.dumps({
        "nodes": [{"id": 0, "role": "sink"}] + [{"id": i, "role": "camera", "battery": 1e6} for i in range(1, 5)],
        "links": [[0, 1], [1, 2], [0, 3], [3, 4]],
        "pairs": [
            {"left": 1, "right": 2, "match": {"window_radius": 1, "max_disparity": 4},
             "frames": {"files": [["left.pgm", "right.pgm"]]}},
            {"left": 3, "right": 4, "match": {"window_radius": 1, "max_disparity": 4, "method": "ssd"},
             "frames": {"synthetic": {"width": 16, "height": 12, "shift_per_step": [1, 3]}}},
        ],
    }).encode(),
}
_FUZZ_ARGV = {
    "disparity": ["disparity", "{dir}/input", "{dir}/right.pgm", "--radius", "1", "--max-disparity", "4",
                  "--out", "{dir}/out"],
    "depth": ["depth", "{dir}/input", "--focal-length", "100", "--baseline", "0.5", "--out", "{dir}/depth.json"],
    "metrics": ["metrics", "{dir}/input", "{dir}/right.pgm"],
    "simulate": ["simulate", "{dir}/input", "--out", "{dir}/report.json"],
}


@st.composite
def fuzzed_inputs(draw):
    """A command and its input file: arbitrary bytes, or a valid file with one to three byte edits.

    Edits only replace, insert or delete single bytes, so a number in the
    scenario grows by three digits at most and no example allocates much.
    """
    command = draw(st.sampled_from(sorted(_VALID_INPUTS)))
    if draw(st.booleans()):
        return command, draw(st.binary(max_size=64))
    data = bytearray(_VALID_INPUTS[command])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            data.insert(i, byte)
        elif i < len(data):
            if edit == "replace":
                data[i] = byte
            else:
                del data[i]
    return command, bytes(data)


@settings(max_examples=300)
@given(fuzzed_inputs())
@example(("disparity", _VALID_INPUTS["disparity"]))
@example(("depth", _VALID_INPUTS["depth"]))
@example(("metrics", _VALID_INPUTS["metrics"]))
@example(("simulate", _VALID_INPUTS["simulate"]))
def test_fuzzed_input_file_exits_zero_or_two_without_traceback(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "left.pgm").write_bytes(_LEFT)
        (folder / "right.pgm").write_bytes(_RIGHT)
        (folder / "input").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(dir=tmp) for arg in _FUZZ_ARGV[command]])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_internal_error_exits_one(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("matcher exploded")

    monkeypatch.setattr(cli_mod, "compute_disparity", boom)
    p = tmp_path / "img.pgm"
    p.write_bytes(serialize_pgm(texture(16, 16, seed=0)))
    code = run_cli("disparity", str(p), str(p), "--radius", "1",
                   "--max-disparity", "4", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "internal error" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_module_entry_point(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(serialize_pgm(texture(16, 16, seed=2)))
    # the child imports the same stereosim as this process, however pytest found it
    src = str(Path(stereosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "stereosim", "metrics", str(p), str(p)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "ssim=1.0" in proc.stdout
