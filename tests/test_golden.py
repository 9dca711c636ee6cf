"""Golden reports: `simulate` output pinned byte for byte, one scenario per policy.

Each scenario has multi-hop relay paths, node deaths (a relay, a right
camera, and a left camera that dies at its first step) and drops, so the
fixtures guard the energy ledger, the drop rules and routing along with
matching and the RLE payload sizes. Regenerate a fixture only for an
intended change to the report, and say why in the change.
"""

from pathlib import Path

import pytest

from stereosim.sensornet import POLICIES, load_scenario, run_simulation, save_report

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("policy", POLICIES)
def test_report_matches_golden_fixture(policy, tmp_path):
    scenario = load_scenario(GOLDEN / f"{policy}.scenario.json")
    assert scenario.policy == policy
    out = tmp_path / "report.json"
    save_report(run_simulation(scenario), out)
    assert out.read_bytes() == (GOLDEN / f"{policy}.report.json").read_bytes()
