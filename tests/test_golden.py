"""Golden outputs: `simulate` reports and a `depth` JSON pinned byte for byte.

Each policy scenario has multi-hop relay paths, node deaths (a relay, a right
camera, and a left camera that dies at its first step) and drops, so the
fixtures guard the energy ledger, the drop rules and routing along with
matching and the RLE payload sizes. The shared-frames scenario gives four
pairs one synthetic spec (one under other match parameters), a fifth pair
whose frames equal theirs at each step but not at the step before, and a files
pair that names one PGM path more than once, so it guards every result that
equal frames share across pairs and steps. Regenerate a fixture only for an
intended change to the report, and say why in the change.

The depth fixture is a 7x4 sidecar with invalid pixels holding nonzero
disparities, valid zero disparities (null depths) and depths whose shortest
repr is long (f*B/3 = 16.666666666666668 at f=100, B=0.5).
"""

import json
from pathlib import Path

import pytest

from stereosim.cli import main
from stereosim.sensornet import POLICIES, load_scenario, run_simulation, save_report

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("policy", POLICIES)
def test_report_matches_golden_fixture(policy, tmp_path):
    scenario = load_scenario(GOLDEN / f"{policy}.scenario.json")
    assert scenario.policy == policy
    out = tmp_path / "report.json"
    save_report(run_simulation(scenario), out)
    assert out.read_bytes() == (GOLDEN / f"{policy}.report.json").read_bytes()


def test_shared_frames_report_matches_golden_fixture(tmp_path):
    out = tmp_path / "report.json"
    save_report(run_simulation(load_scenario(GOLDEN / "shared_frames.scenario.json")), out)
    assert out.read_bytes() == (GOLDEN / "shared_frames.report.json").read_bytes()


# Two built fields of two pairs: in "survived" no node dies; in "idle_pair"
# camera 3 starts with an empty battery, so pair 3-4 never runs and its RLE
# sizes stay null.
BUILT_FIELDS = {
    name: {
        "seed": 5,
        "policy": "disparity_always",
        "nodes": [{"id": 0, "role": "sink"}]
        + [{"id": i, "role": "camera", "battery": 0 if i == idle else 1e9} for i in (1, 2, 3, 4)],
        "links": [[0, 1], [1, 2], [0, 3], [3, 4]],
        "pairs": [
            {
                "left": left,
                "right": left + 1,
                "match": {"window_radius": 1, "max_disparity": 4},
                "frames": {"synthetic": {"width": 16, "height": 16, "steps": 3, "shift_per_step": 1}},
            }
            for left in (1, 3)
        ],
    }
    for name, idle in (("survived", None), ("idle_pair", 3))
}


def _summary_lines(out: Path) -> list[str]:
    """The lines simulate prints, built from the report file it wrote at out."""
    doc = json.loads(out.read_text())
    t = doc["totals"]
    return [
        f"wrote {out}",
        f"lifetime={doc['lifetime']}",
        f"processing_total_uj={t['processing_uj']}",
        f"transmission_total_uj={t['transmission_uj']}",
        f"events={t['events']} transmissions={t['transmissions']} drops={t['drops']}",
    ] + [
        f"pair {p['left']}-{p['right']}: raw_pair_bytes={p['raw_pair_bytes']} "
        f"sidecar_bytes={p['sidecar_bytes']} rle_bytes_min={p['rle_bytes_min']} "
        f"rle_bytes_max={p['rle_bytes_max']}"
        for p in doc["pairs"]
    ]


@pytest.mark.parametrize("name", [*POLICIES, "shared_frames", *BUILT_FIELDS])
def test_simulate_prints_lines_built_from_its_report(name, tmp_path, capsys):
    if name in BUILT_FIELDS:
        scenario = tmp_path / f"{name}.scenario.json"
        scenario.write_text(json.dumps(BUILT_FIELDS[name]))
    else:
        scenario = GOLDEN / f"{name}.scenario.json"
    out = tmp_path / "report.json"
    assert main(["simulate", str(scenario), "--out", str(out)]) == 0
    lines = _summary_lines(out)
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
    if name == "survived":
        assert lines[1] == "lifetime=survived"
    if name == "idle_pair":
        assert lines[-1].endswith("rle_bytes_min=None rle_bytes_max=None")


def test_depth_json_matches_golden_fixture(tmp_path, capsys):
    out = tmp_path / "depth.json"
    code = main(["depth", str(GOLDEN / "depth.dsp"), "--focal-length", "100",
                 "--baseline", "0.5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    assert out.read_bytes() == (GOLDEN / "depth.json").read_bytes()
