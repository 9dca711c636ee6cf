"""Acceptance suite: one test per criterion, printing a line per result.

Run with `pytest tests/test_acceptance.py -v` (pass lines are forced through
output capture, so plain runs show them too).
"""

import json
import time

import numpy as np
import pytest

from stereosim import (
    EnergyModel,
    GrayImage,
    MatchParams,
    Scenario,
    SensorNode,
    StereoPair,
    charge_transmission,
    compute_disparity,
    psnr,
    report_to_dict,
    run_simulation,
    scale_to_gray,
    shifted_pair,
    shifted_sequence,
    ssim,
)
from stereosim.cli import bench_records, main as cli_main

from oracles import naive_disparity


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


# ---------------------------------------------------------------------------
# shared scenario builders


def _camera_field(n_pairs, policy, shifts, threshold=1.0, battery=1e9, size=32, maxd=4):
    nodes = [SensorNode(0, "sink")]
    pairs = []
    links = []
    for k in range(n_pairs):
        left_id, right_id = 2 * k + 1, 2 * k + 2
        nodes.append(SensorNode(left_id, "camera", battery=battery))
        nodes.append(SensorNode(right_id, "camera", battery=battery))
        links.append((0, left_id))
        links.append((left_id, right_id))
        frames = shifted_sequence(size, size, list(shifts), seed=13)
        pairs.append(StereoPair(left_id, right_id, MatchParams(1, maxd, "sad"), frames))
    return Scenario(
        nodes=nodes,
        pairs=pairs,
        links=links,
        policy=policy,
        event_threshold=threshold,
        seed=13,
    )


@pytest.fixture(scope="module")
def timing_sweep():
    """Five timed repetitions per (method, size) after a warm-up, shared by
    the two wall-clock criteria."""
    t0 = time.perf_counter()
    records = bench_records(
        [(128, 128), (256, 256), (512, 512)],
        window_radius=3,
        max_disparity=64,
        repetitions=5,
        seed=0,
    )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_01_oracle_equivalence(capsys):
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    cases = 0
    while cases < 200:
        radius = int(rng.integers(0, 3))
        side = 2 * radius + 1
        maxd = int(rng.integers(0, 5))
        w = int(rng.integers(max(side, maxd + 1), 13))
        h = int(rng.integers(side, 13))
        left = GrayImage(rng.integers(0, 256, size=(h, w)))
        right = GrayImage(rng.integers(0, 256, size=(h, w)))
        for method in ("sad", "ssd"):
            dmap, stats = compute_disparity(left, right, MatchParams(radius, maxd, method))
            ref_disp, ref_valid = naive_disparity(
                left.pixels.tolist(), right.pixels.tolist(), radius, maxd, method
            )
            assert dmap.disparities.tolist() == ref_disp
            assert dmap.valid.tolist() == ref_valid
            n_valid = sum(sum(row) for row in ref_valid)
            assert stats.elementary_ops == n_valid * (maxd + 1) * side * side
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(
        capsys,
        f"ACCEPTANCE 1 PASS: oracle equivalence on {cases} randomized cases, "
        f"both methods, bit-for-bit in {elapsed:.1f}s",
    )


def test_criterion_02_shift_recovery(capsys):
    t0 = time.perf_counter()
    for d0, seed in ((1, 101), (2, 102), (5, 105)):
        left, right = shifted_pair(64, 64, d0, seed=seed)
        for method in ("sad", "ssd"):
            dmap, _ = compute_disparity(left, right, MatchParams(2, 8, method))
            assert dmap.valid.any()
            recovered = dmap.disparities[dmap.valid]
            assert np.all(recovered == d0), f"shift {d0} lost under {method}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(
        capsys,
        f"ACCEPTANCE 2 PASS: 100% shift recovery for d0 in (1, 2, 5), "
        f"both methods, in {elapsed:.1f}s",
    )


def test_criterion_03_map_similarity_reproduction(capsys):
    left, right = shifted_pair(64, 64, 2, seed=102)
    sad_map, _ = compute_disparity(left, right, MatchParams(2, 8, "sad"))
    ssd_map, _ = compute_disparity(left, right, MatchParams(2, 8, "ssd"))
    assert sad_map == ssd_map
    a = scale_to_gray(sad_map)
    b = scale_to_gray(ssd_map)
    similarity = ssim(a, b)
    ratio = psnr(a, b)
    assert similarity.value == 1.0
    assert ratio.infinite
    announce(
        capsys,
        "ACCEPTANCE 3 PASS: noise-free sad and ssd maps identical, "
        "ssim exactly 1.0, psnr infinite",
    )


@pytest.mark.wallclock
def test_criterion_04_method_time_ordering(capsys, timing_sweep):
    records, elapsed = timing_sweep
    assert elapsed < 120.0
    by_key = {(r.method, r.width): r for r in records}
    sad = by_key[("sad", 512)]
    ssd = by_key[("ssd", 512)]
    assert sad.repetitions >= 5
    assert sad.median_seconds <= ssd.median_seconds
    announce(
        capsys,
        f"ACCEPTANCE 4 PASS: 512x512 median sad {sad.median_seconds:.4f}s <= "
        f"ssd {ssd.median_seconds:.4f}s over {sad.repetitions} repetitions "
        f"(sweep took {elapsed:.1f}s)",
    )


@pytest.mark.wallclock
def test_criterion_05_resolution_monotonicity(capsys, timing_sweep):
    records, _ = timing_sweep
    for method in ("sad", "ssd"):
        medians = [r.median_seconds for r in records if r.method == method]
        widths = [r.width for r in records if r.method == method]
        assert widths == sorted(widths)
        assert all(a <= b for a, b in zip(medians, medians[1:])), (method, medians)
    announce(
        capsys,
        "ACCEPTANCE 5 PASS: median wall time non-decreasing across "
        "128, 256, 512 squares for both methods",
    )


def test_criterion_06_linear_pair_scaling(capsys):
    shifts = (1, 1, 2)
    base = run_simulation(_camera_field(1, "disparity_always", shifts)).total_elementary_ops
    assert base > 0
    counts = {1: base}
    for n in (2, 4, 8):
        counts[n] = run_simulation(_camera_field(n, "disparity_always", shifts)).total_elementary_ops
        assert counts[n] == n * base
    announce(
        capsys,
        f"ACCEPTANCE 6 PASS: matching operations scale as ops = {base} * pairs "
        f"exactly for 1, 2, 4, 8 pairs",
    )


def test_criterion_07_energy_constants(capsys):
    model = EnergyModel()
    assert model.cpu_cost(65536) == 0.00195
    sender = SensorNode(1, "camera", battery=1000.0)
    charged = charge_transmission([sender, SensorNode(0, "sink")], 65536, model)
    assert [e for _, e in charged] == [377.0]
    hops = [SensorNode(i, "relay", battery=1e6) for i in (5, 4, 3)] + [SensorNode(0, "sink")]
    charged = charge_transmission(hops, 65536, model)
    assert [e for _, e in charged] == [377.0, 377.0, 377.0]
    assert sum(e for _, e in charged) == 3 * 377.0
    announce(
        capsys,
        "ACCEPTANCE 7 PASS: 64 KiB costs exactly 377.0 uJ per hop and "
        "0.00195 uJ of processing; multi-hop is hop count times one hop",
    )


def test_criterion_08_energy_conservation(capsys):
    scenarios = [
        _camera_field(2, policy, (1, 1, 3, 3), battery=battery)
        for policy in ("disparity_on_event", "disparity_always", "raw_always")
        for battery in (1e9, 25.0)  # ample and depleting
    ]
    checked = 0
    for scenario in scenarios:
        report = run_simulation(scenario)
        for node in report.nodes:
            spent = node.processing_uj + node.transmission_uj
            drained = node.initial_battery_uj - node.final_battery_uj
            scale = max(1.0, node.initial_battery_uj, spent)
            assert abs(drained - spent) <= 1e-12 * scale, (node.id, drained, spent)
            checked += 1
    announce(
        capsys,
        f"ACCEPTANCE 8 PASS: battery drain equals the ledger within 1e-12 "
        f"relative for {checked} node ledgers across 6 scenarios",
    )


def test_criterion_09_policy_comparison(capsys):
    shifts = (1, 1, 1, 1, 1, 3, 3, 3, 3, 3)  # one scene change at step 6
    on_event = run_simulation(_camera_field(1, "disparity_on_event", shifts, size=64, maxd=8))
    raw = run_simulation(_camera_field(1, "raw_always", shifts, size=64, maxd=8))
    assert [e.step for e in on_event.events] == [1, 6]

    pair = on_event.pairs[0]
    assert pair.rle_bytes_max is not None
    assert pair.rle_bytes_max < pair.raw_pair_bytes  # auditable size precondition
    doc = report_to_dict(on_event)
    assert {"raw_pair_bytes", "rle_bytes_min", "rle_bytes_max", "sidecar_bytes"} <= set(
        doc["pairs"][0]
    )

    def tx_total(report):
        return sum(n.transmission_uj for n in report.nodes)

    assert tx_total(on_event) < tx_total(raw)
    announce(
        capsys,
        f"ACCEPTANCE 9 PASS: event-gated RLE maps ({pair.rle_bytes_max} B <= "
        f"{pair.raw_pair_bytes} B raw pair) spend {tx_total(on_event):.4f} uJ < "
        f"{tx_total(raw):.4f} uJ over 10 steps with one scene change",
    )


def test_criterion_10_metric_identities(capsys):
    rng = np.random.default_rng(2468)
    images = [GrayImage(rng.integers(0, 256, size=(16, 16))) for _ in range(50)]
    for img in images:
        assert ssim(img, img).value == 1.0
        assert psnr(img, img).infinite
    for a, b in zip(images[:25], images[25:]):
        assert abs(ssim(a, b).value - ssim(b, a).value) <= 1e-12
    announce(
        capsys,
        "ACCEPTANCE 10 PASS: ssim(a, a) = 1.0 and psnr(a, a) infinite on 50 "
        "random images; ssim symmetric within 1e-12 on 25 pairs",
    )


def test_criterion_11_end_to_end_determinism(capsys, tmp_path):
    doc = {
        "seed": 7,
        "policy": "disparity_on_event",
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
                        "width": 24,
                        "height": 24,
                        "steps": 4,
                        "shift_per_step": [1, 1, 3, 3],
                    }
                },
            }
        ],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["simulate", str(scenario), "--out", str(first)]) == 0
    assert cli_main(["simulate", str(scenario), "--out", str(second)]) == 0
    a = first.read_bytes()
    b = second.read_bytes()
    assert a == b
    announce(
        capsys,
        f"ACCEPTANCE 11 PASS: two simulate runs wrote byte-identical "
        f"{len(a)}-byte reports",
    )
