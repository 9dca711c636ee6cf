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


def test_simulate_summary_matches_golden_totals(tmp_path, capsys):
    scenario = GOLDEN / "disparity_on_event.scenario.json"
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "report.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    totals = json.loads((GOLDEN / "disparity_on_event.report.json").read_text())["totals"]
    assert f"processing_total_uj={totals['processing_uj']}" in lines
    assert f"transmission_total_uj={totals['transmission_uj']}" in lines
    assert (
        f"events={totals['events']} transmissions={totals['transmissions']} "
        f"drops={totals['drops']}"
    ) in lines


def test_depth_json_matches_golden_fixture(tmp_path, capsys):
    out = tmp_path / "depth.json"
    code = main(["depth", str(GOLDEN / "depth.dsp"), "--focal-length", "100",
                 "--baseline", "0.5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    assert out.read_bytes() == (GOLDEN / "depth.json").read_bytes()
