"""The two workloads: seeded inputs, one timed unit, and its correctness check.

Every input comes from the workload seed through the benchmark's own
generator, never through stereosim, and the program sees only those inputs
(PGM files, scenario JSON). Each `call` times the program with its own
clock, around the program calls alone; input preparation and checking sit
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stereosim import cli

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())


@dataclass
class Outcome:
    units: int
    seconds: float
    ok: bool
    reason: str = ""
    counts: dict = field(default_factory=dict)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def seeded_master(seed: int, index: int, width: int, height: int, max_shift: int):
    """A texture wide enough to cut both views of any shift up to max_shift from."""
    rng = np.random.default_rng([seed, index])
    return rng.integers(0, 256, size=(height, width + max_shift), dtype=np.uint8)


def cut_views(master: np.ndarray, width: int, shift: int):
    """Left view and the right view shifted by `shift`: right(x) = left(x + shift)."""
    return master[:, :width], master[:, shift : shift + width]


def map_error(disp, valid, shift: int, radius: int, max_disparity: int) -> str:
    """Empty when the valid region is exactly the generated shift."""
    h, w = disp.shape
    want = np.zeros((h, w), dtype=bool)
    want[radius : h - radius, max_disparity + radius : w - radius] = True
    if not np.array_equal(valid, want):
        return "valid region differs from the window and search bounds"
    wrong = int(np.count_nonzero(disp[want] != shift))
    return f"{wrong} valid pixels differ from shift {shift}" if wrong else ""


def decode_dsp(data: bytes):
    """Independent reader of the DSP1 sidecar: (disparities, valid, max_disparity)."""
    if data[:4] != b"DSP1" or len(data) < 16:
        raise ValueError("not a DSP1 sidecar")
    width, height, max_disparity = struct.unpack("<III", data[4:16])
    if len(data) != 16 + 3 * width * height:
        raise ValueError("DSP1 length does not match its header")
    body = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(height, width, 3)
    disp = body[:, :, 0].astype(np.int64) | (body[:, :, 1].astype(np.int64) << 8)
    if not np.isin(body[:, :, 2], (0, 1)).all():
        raise ValueError("DSP1 valid bytes other than 0/1")
    return disp, body[:, :, 2].astype(bool), max_disparity


def write_pgm(path: Path, pixels: np.ndarray):
    h, w = pixels.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels).tobytes())


def _quiet_cli(argvs: list[list[str]]) -> tuple[list[int], float, str, str]:
    """Run CLI commands in-process, in order, until one fails; time only main()."""
    out, err = io.StringIO(), io.StringIO()
    codes = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        for argv in argvs:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        seconds = time.perf_counter() - t0
    return codes, seconds, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    unit = ""
    # calls per traced batch; fixed, so traced counts repeat exactly
    trace_calls = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self):
        """Write this workload's inputs; the benchmark times it as set-up."""

    def call(self, index: int) -> Outcome:
        raise NotImplementedError


class CliFiles(Workload):
    """disparity (ssd) -> depth --out -> metrics, in-process, over 640x480 PGM files."""

    name = "cli-files"
    unit = "pipeline"
    trace_calls = 3
    WIDTH, HEIGHT = 640, 480
    RADIUS, MAX_DISPARITY = 3, 64
    FOCAL, BASELINE = 100.0, 0.5
    # Fixed for every seed, which varies only the textures: printing a depth
    # f*B/d costs more when it has no short decimal form, so a seeded shift
    # would change the work from seed to seed. None of these has one.
    SHIFTS = (3, 7, 11, 13, 17, 19, 23, 29)

    def generate(self):
        for k, shift in enumerate(self.SHIFTS):
            master = seeded_master(self.seed, k, self.WIDTH, self.HEIGHT, self.MAX_DISPARITY)
            left, right = cut_views(master, self.WIDTH, shift)
            write_pgm(self.workdir / f"pair{k}_left.pgm", left)
            write_pgm(self.workdir / f"pair{k}_right.pgm", right)

    def call(self, index: int) -> Outcome:
        k = index % len(self.SHIFTS)
        wd = self.workdir
        left, right = str(wd / f"pair{k}_left.pgm"), str(wd / f"pair{k}_right.pgm")
        prefix, depth = wd / "disp", wd / "depth.json"
        for stale in (prefix.with_suffix(".dsp"), prefix.with_suffix(".pgm"), depth):
            stale.unlink(missing_ok=True)
        codes, seconds, out, err = _quiet_cli(
            [
                ["disparity", left, right, "--method", "ssd", "--radius", str(self.RADIUS),
                 "--max-disparity", str(self.MAX_DISPARITY), "--out", str(prefix)],
                ["depth", str(prefix.with_suffix(".dsp")), "--focal-length", str(self.FOCAL),
                 "--baseline", str(self.BASELINE), "--out", str(depth)],
                ["metrics", left, str(prefix.with_suffix(".pgm")), "--json"],
            ]
        )
        reason = self._check(codes, out, err, self.SHIFTS[k], prefix.with_suffix(".dsp"), depth)
        return Outcome(1, seconds, not reason, reason)

    def _check(self, codes, out, err, shift, dsp_path, depth_path) -> str:
        if codes != [0, 0, 0]:
            return f"exit codes {codes}: {err.strip()[-300:]}"
        try:
            disp, valid, max_disparity = decode_dsp(dsp_path.read_bytes())
            doc = strict_json(depth_path.read_text())
            scores = strict_json(out.strip().splitlines()[-1])
        except (OSError, ValueError) as exc:
            return f"missing or malformed output: {exc}"
        if max_disparity != self.MAX_DISPARITY:
            return f"sidecar max_disparity {max_disparity}"
        reason = map_error(disp, valid, shift, self.RADIUS, self.MAX_DISPARITY)
        if reason:
            return f"sidecar: {reason}"
        depth_m = self.FOCAL * self.BASELINE / shift
        want = [depth_m if v else None for v in valid.ravel().tolist()]
        if doc.get("depths_m") != want or (doc.get("width"), doc.get("height")) != valid.shape[::-1]:
            return "depth JSON differs from f*B/d over the valid region"
        s, p = scores.get("ssim"), scores.get("psnr")
        if not (isinstance(s, float) and -1.0 <= s <= 1.0 and isinstance(p, float) and math.isfinite(p)):
            return f"metrics output out of range: {scores}"
        return ""


# Enough for every node, none of which is meant to die, and small enough that
# the ledger check resolves one CPU charge of a 64x64 step (~6e-4 uJ).
AMPLE = 1e6


class FieldShared(Workload):
    """One in-process `simulate` per call of fifty identical event-gated pairs,
    so matcher inputs repeat almost always; unit = pair-step."""

    name = "field-shared"
    unit = "pair-step"
    PAIRS = 50
    STEPS = 40

    def scenario(self) -> dict:
        cams, cam_links = [], []
        for p in range(self.PAIRS):
            left, right = 3 + 2 * p, 4 + 2 * p
            cams += [
                {"id": left, "role": "camera", "battery": AMPLE},
                {"id": right, "role": "camera", "battery": AMPLE},
            ]
            cam_links += [[2, left], [left, right]]
        frames = {
            "synthetic": {"width": 64, "height": 64, "seed": self.seed,
                          "shift_per_step": [1] * 20 + [3] * 20}
        }
        return {
            "seed": self.seed,
            "policy": "disparity_on_event",
            "event_threshold": 1.0,
            "nodes": [{"id": 0, "role": "sink"}]
            + [{"id": i, "role": "relay", "battery": AMPLE} for i in (1, 2)]
            + cams,
            "links": [[0, 1], [1, 2]] + cam_links,
            "pairs": [
                {"left": c["id"], "right": c["id"] + 1, "baseline": 0.5, "focal_length": 100.0,
                 "match": {"window_radius": 1, "max_disparity": 4, "method": "sad"},
                 "frames": frames}
                for c in cams[::2]
            ],
        }

    def generate(self):
        doc = self.scenario()
        self.pair_steps = len(doc["pairs"]) * self.STEPS
        (self.workdir / "scenario.json").write_text(json.dumps(doc))
        self.first_digest = None

    def call(self, index: int) -> Outcome:
        report = self.workdir / "report.json"
        report.unlink(missing_ok=True)
        codes, seconds, _, err = _quiet_cli(
            [["simulate", str(self.workdir / "scenario.json"), "--out", str(report)]]
        )
        counts: dict = {}
        if codes != [0]:
            reason = f"exit code {codes[0]}: {err.strip()[-300:]}"
        elif not report.is_file():
            reason = "simulate exited 0 without writing a report"
        else:
            reason, counts = self._check(report.read_bytes())
        return Outcome(self.pair_steps, seconds, not reason, reason, counts)

    def _check(self, data: bytes) -> tuple[str, dict]:
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        if digest != self.first_digest:
            return "report differs from the first report of this run", {}
        recorded = DIGESTS.get(self.name, {}).get(str(self.seed))
        if recorded is not None and digest != recorded:
            return f"report sha256 {digest} != recorded {recorded}", {}
        try:
            doc = strict_json(data.decode())
            return self._ledger_error(doc) or self._shape_error(doc), self._counts(doc)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}", {}

    @staticmethod
    def _ledger_error(doc: dict) -> str:
        for n in doc["nodes"]:
            drained = n["initial_battery_uj"] - n["final_battery_uj"]
            paid = n["processing_uj"] + n["transmission_uj"]
            # each charge rounds the battery by at most half an ulp of it
            if not math.isclose(drained, paid, rel_tol=1e-9, abs_tol=1e-12 * n["initial_battery_uj"]):
                return f"node {n['id']} drained {drained} uJ but the ledger says {paid}"
        return ""

    @staticmethod
    def _counts(doc: dict) -> dict:
        totals = doc["totals"]
        records = doc["transmissions"] + doc["drops"]
        return {
            "events": totals["events"],
            "transmissions": totals["transmissions"],
            "drops": totals["drops"],
            "map_payloads": sum(1 for r in records if r["payload"] == "disparity_rle"),
        }

    def _shape_error(self, doc: dict) -> str:
        t = doc["totals"]
        if doc["lifetime"] != "survived" or t["drops"] or t["events"] != 2 * self.PAIRS:
            return f"expected no deaths, no drops and {2 * self.PAIRS} events, got {t}"
        return ""


WORKLOADS = {w.name: w for w in (CliFiles, FieldShared)}
