#!/usr/bin/env python3
"""Self-tests of the benchmark: its checks catch wrong output, and tracing
changes nothing the checks observe.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stereosim import cli, sensornet  # noqa: E402
from stereosim.stereo import DepthMap  # noqa: E402


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        scratch = run.ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def workload(self, name: str, seed: int = 0):
        wl = workloads.WORKLOADS[name](seed, self.workdir)
        wl.generate()
        return wl


class ChecksCatchErrors(WorkdirCase):
    def test_corrupted_sidecar_fails(self):
        original = cli.serialize_disparity

        def flip_a_pixel(dmap):
            data = bytearray(original(dmap))
            data[16 + 3 * (240 * dmap.width + 320)] ^= 1
            return bytes(data)

        wl = self.workload("cli-files")
        self.assertTrue(wl.call(0).ok)
        with mock.patch.object(cli, "serialize_disparity", flip_a_pixel):
            outcome = wl.call(0)
        self.assertFalse(outcome.ok)
        self.assertIn("sidecar", outcome.reason)

    def test_nan_in_depth_json_fails(self):
        original = cli.disparity_to_depth

        def nan_depth(dmap, focal_length, baseline):
            depth = original(dmap, focal_length, baseline)
            depths = depth.depths.copy()
            depths[depth.available.nonzero()[0][0], depth.available.nonzero()[1][0]] = np.nan
            return DepthMap(depths, depth.available, depth.focal_length, depth.baseline)

        with mock.patch.object(cli, "disparity_to_depth", nan_depth):
            outcome = self.workload("cli-files").call(0)
        self.assertFalse(outcome.ok)
        self.assertIn("NaN", outcome.reason)

    def test_corrupted_reports_fail(self):
        wl = self.workload("field-shared", seed=1)
        self.assertTrue(wl.call(0).ok)
        good = (self.workdir / "report.json").read_bytes()
        doc = json.loads(good)

        # a report unlike the run's first one
        flipped = good.replace(b'"lifetime": ', b'"lifetime":  ', 1)
        self.assertIn("first report", wl._check(flipped)[0])

        # a report whose own ledger does not add up, as the only report of a run
        doc["nodes"][1]["transmission_uj"] += 1.0
        wl.first_digest = None
        self.assertIn("ledger", wl._check(json.dumps(doc).encode())[0])

        # a report that does not match the digest recorded for its seed
        self.assertIn("recorded", self.workload("field-shared", seed=0)._check(good)[0])

    def test_report_written_wrong_counts_as_failed(self):
        original = cli.save_report

        def drop_a_transmission(report, path):
            report.transmissions.pop()
            original(report, path)

        wl = self.workload("field-shared", seed=0)
        with mock.patch.object(cli, "save_report", drop_a_transmission):
            outcome = wl.call(0)
        self.assertFalse(outcome.ok)
        self.assertIn("recorded", outcome.reason)


class Tracing(WorkdirCase):
    def sites(self):
        out = {}
        for name, mods in tracing.SITES.items():
            attr = name.rsplit(".", 1)[1]
            for mod in mods:
                module = sys.modules[f"stereosim.{mod}"]
                out[(mod, attr)] = getattr(module, attr, None)
        return out

    def test_digest_is_the_same_with_and_without_tracing(self):
        wl = self.workload("field-shared", seed=0)
        plain = wl.call(0)
        with tracing.Tracer():
            traced = wl.call(1)
        self.assertTrue(plain.ok and traced.ok, (plain.reason, traced.reason))
        digest = hashlib.sha256((self.workdir / "report.json").read_bytes()).hexdigest()
        self.assertEqual(digest, workloads.DIGESTS["field-shared"]["0"])

    def test_wrappers_are_removed_afterwards(self):
        before = self.sites()
        with self.assertRaises(RuntimeError):
            with tracing.Tracer() as tracer:
                self.assertTrue(tracer.patched)
                self.assertIsNot(sensornet.route_to_sink, before[("sensornet", "route_to_sink")])
                raise RuntimeError("boom")
        after = self.sites()
        self.assertTrue(all(after[k] is before[k] for k in before))

    def test_absent_site_is_recorded_not_fatal(self):
        original = sensornet.rle_encode_disparity
        del sensornet.rle_encode_disparity
        try:
            with tracing.Tracer() as tracer:
                pass
            self.assertIn("sensornet.rle_encode_disparity", tracer.absent)
            self.assertFalse(hasattr(sensornet, "rle_encode_disparity"))
            values = run.layer_values(tracer, [])
            self.assertEqual(values["stereo.rle_encode_disparity.calls"], 0)
        finally:
            sensornet.rle_encode_disparity = original

    def test_fingerprinting_stays_out_of_every_span(self):
        doc = {
            "nodes": [{"id": 0, "role": "sink"}, {"id": 1, "role": "camera", "battery": 1e6},
                      {"id": 2, "role": "camera", "battery": 1e6}],
            "links": [[0, 1], [1, 2]],
            "pairs": [{"left": 1, "right": 2, "match": {"window_radius": 1, "max_disparity": 2},
                       "frames": {"synthetic": {"width": 16, "height": 16, "steps": 3,
                                                "shift_per_step": 1}}}],
        }
        scenario = sensornet.scenario_from_dict(doc)
        slow = 0.05
        original = tracing._digest_pixels

        def slow_digest(img):
            time.sleep(slow)
            return original(img)

        with mock.patch.object(tracing, "_digest_pixels", slow_digest), tracing.Tracer() as tracer:
            sensornet.run_simulation(scenario)
        matcher = tracer.stats["stereo.compute_disparity"]
        sim = tracer.stats["sensornet.run_simulation"]
        self.assertEqual(matcher.calls, 3)
        self.assertEqual(matcher.repeats, 2)
        # six slow digests (0.3 s) ran inside run_simulation's interval
        self.assertLess(sim.total_ns / 1e9, 2 * slow)
        self.assertGreaterEqual(sim.total_ns, matcher.total_ns)

    def test_traced_counts_repeat_exactly(self):
        wl = self.workload("cli-files", seed=0)
        batches = []
        for _ in range(2):
            with tracing.Tracer() as tracer:
                batch = [wl.call(j) for j in range(wl.trace_calls)]
            batches.append(run.layer_values(tracer, batch))
        exact = [n for n in run.PER_LAYER if n.rsplit(".", 1)[1] in run.EXACT]
        self.assertEqual({n: batches[0].get(n) for n in exact}, {n: batches[1].get(n) for n in exact})
        self.assertEqual(batches[0]["stereo.compute_disparity.calls"], wl.trace_calls)

    def test_held_out_seed_keeps_units_and_repeat_fractions(self):
        for name, units, repeat in (("field-shared", 2000, 0.999), ("cli-files", 1, 0.0)):
            for seed in (0, run.HELD_OUT_SEED):
                wl = self.workload(name, seed)
                with tracing.Tracer() as tracer:
                    batch = [wl.call(j) for j in range(wl.trace_calls)]
                self.assertTrue(all(o.ok for o in batch), [o.reason for o in batch])
                self.assertEqual([o.units for o in batch], [units] * wl.trace_calls)
                values = run.layer_values(tracer, batch)
                self.assertAlmostEqual(values["stereo.compute_disparity.repeat_frac"], repeat)


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_the_program_sources(self):
        scratch = run.ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-files", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
