"""Golden error messages for scenario and disparity inputs, and a scenario loader property.

The scenario corpus starts from one valid scenario and, at every key and
list position of every level, sets the value to each of VALUES, deletes it,
or adds an unknown key. Each input's expected ScenarioError.errors list (from
scenario_from_dict, or from run_simulation when loading succeeds; [] when
both succeed) is pinned in golden/scenario_errors.json, in corpus order.
Regenerate the fixture only for an intended change to a message:

    PYTHONPATH=src python tests/test_input_errors.py
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import MatchParams, Scenario, SensorNode, StereoPair, shifted_sequence, texture
from stereosim import serialize_pgm
from stereosim.cli import main
from stereosim.sensornet import ScenarioError, run_simulation, scenario_from_dict, validate_scenario

GOLDEN = Path(__file__).parent / "golden" / "scenario_errors.json"

BASE = {
    "seed": 5,
    "policy": "disparity_on_event",
    "event_threshold": 1.0,
    "energy": {"tx_energy_per_64kb": 377.0, "cpu_energy_per_64kb_processed": 0.00195},
    "nodes": [
        {"id": 0, "role": "sink"},
        {"id": 1, "role": "camera", "battery": 1e9, "position": [0.0, 10.0]},
        {"id": 2, "role": "camera", "battery": 1e9},
        {"id": 3, "role": "camera", "battery": 1e9},
        {"id": 4, "role": "camera", "battery": 1e9},
    ],
    "links": [[0, 1], [1, 2], [1, 3], [3, 4]],
    "pairs": [
        {
            "left": 1,
            "right": 2,
            "baseline": 0.5,
            "focal_length": 100.0,
            "match": {"window_radius": 1, "max_disparity": 4, "method": "sad"},
            "frames": {
                "synthetic": {"width": 16, "height": 12, "steps": 3, "shift_per_step": 1, "seed": 2}
            },
        },
        {
            # no baseline, focal_length, steps or seed: the defaults apply
            "left": 3,
            "right": 4,
            "match": {"window_radius": 2, "max_disparity": 6, "method": "ssd"},
            "frames": {"synthetic": {"width": 20, "height": 10, "shift_per_step": [1, 2]}},
        },
    ],
}

VALUES = [None, True, "x", [], {}, -1, 0, 1.5, 10**400, [1e400, 0]]
_DELETE = object()
_UNKNOWN = object()


def _locations(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _locations(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _locations(v, path + (i,))


def _mutated(doc, path, value):
    """A copy of doc with the value at path set, deleted (_DELETE) or given an extra key (_UNKNOWN)."""
    holder = [copy.deepcopy(doc)]
    parent = holder
    *steps, last = (0,) + path
    for step in steps:
        parent = parent[step]
    if value is _DELETE:
        del parent[last]
    elif value is _UNKNOWN:
        parent[last]["extra"] = 0
    else:
        parent[last] = value
    return holder[0]


def corpus():
    """(label, scenario dict) for every mutation of BASE, in a fixed order."""
    for path, node in _locations(BASE):
        where = "/".join(map(str, path)) or "$"
        for value in VALUES:
            if path[-1:] == ("steps",) and value == 10**400:
                continue  # the loader's [shift] * steps overflows; kept out of the corpus
            yield f"{where}={value!r:.20}", _mutated(BASE, path, value)
        if path:
            yield f"{where} deleted", _mutated(BASE, path, _DELETE)
        if isinstance(node, dict):
            yield f"{where} with an unknown key", _mutated(BASE, path, _UNKNOWN)


def findings(doc) -> list[str]:
    try:
        run_simulation(scenario_from_dict(doc))
    except ScenarioError as exc:
        return exc.errors
    return []


def test_error_corpus_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    cases = list(corpus())
    assert len(cases) == len(expected)
    for (label, doc), want in zip(cases, expected):
        assert findings(doc) == want, label


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_scenarios(draw):
    """BASE with one to three values replaced or deleted.

    Integers stay small, so no example asks for a huge synthetic allocation.
    """
    doc = BASE
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p, _ in _locations(doc)]))
        value = draw(_json_values | st.just(_DELETE)) if path else draw(_json_values)
        doc = _mutated(doc, path, value)
    return doc


_STEPS = ("pairs", 0, "frames", "synthetic", "steps")

# "<json path>: <message>"; a path segment after "." may be any key the input holds
_FINDING = re.compile(r"(\$|nodes|links|pairs|policy|event_threshold)(\[\d+\]|\..*?)*: .+", re.S)
# a comparison with a failed field, and numpy's own wording for sizes and seeds
_FOREIGN_WORDING = (
    "not supported between instances",
    "Maximum allowed dimension",
    "array is too big",
    "expected non-negative integer",
)


@settings(max_examples=300)
@given(mutated_scenarios())
@example(_mutated(BASE, _STEPS, 10**30))
@example(_mutated(BASE, _STEPS, 10**400))
@example(_mutated(BASE, ("pairs", 0, "frames", "synthetic", "width"), 10**400))
@example(_mutated(_mutated(BASE, ("seed",), 10**400), ("event_threshold",), 10**400))
@example(_mutated(BASE, ("nodes", 1, "battery"), 10**400))
@example(_mutated(BASE, ("seed",), -1))
@example(_mutated(BASE, ("pairs", 0, "match", "window_radius"), "x"))
def test_scenario_from_dict_raises_only_scenario_error(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError as exc:
        errors = exc.errors
        assert errors
    else:
        errors = validate_scenario(scenario)
    for e in errors:
        assert isinstance(e, str) and _FINDING.fullmatch(e), e
        assert not any(phrase in e for phrase in _FOREIGN_WORDING), e


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("nodes", 1, "position"), [0.0, 10.0, 1.0],
         "nodes[1].position: must be a [x, y] pair of finite numbers"),
        (("links", 0), [0, 1, 2], "links[0]: must be an [a, b] node id pair"),
        (("pairs", 0, "frames"), {"files": [["l.pgm", "r.pgm", "x.pgm"]]},
         "pairs[0].frames.files[0]: must be a [left, right] path pair"),
    ],
    ids=["position", "link", "files-entry"],
)
def test_a_pair_of_three_items_is_a_finding(path, value, message):
    # the corpus sets no value to a three-item list
    assert findings(_mutated(BASE, path, value)) == [message]


def test_validation_findings_are_pinned():
    frames = shifted_sequence(8, 8, [1], 0)
    sc = Scenario(
        nodes=[
            SensorNode(0, "sink"),
            SensorNode(0, "camera", battery=-5.0),
            SensorNode(2, "gateway", battery=1.0),
        ],
        pairs=[
            StereoPair(7, 7, MatchParams(1, 4, "sad"), frames),
            StereoPair(2, 0, MatchParams(4, 20, "sad"), frames),
        ],
        links=[(0, 9)],
        policy="sometimes",
        event_threshold=-2.0,
    )
    assert validate_scenario(sc) == [
        "nodes[1].battery: must be >= 0, got -5.0",
        "nodes[1].id: duplicate node id 0",
        "nodes[2].role: must be one of ('camera', 'relay', 'sink'), got 'gateway'",
        "links[0]: references unknown node in (0, 9)",
        "policy: must be one of ('disparity_on_event', 'disparity_always', 'raw_always'), got 'sometimes'",
        "event_threshold: must be >= 0, got -2.0",
        "pairs[0].left: unknown node 7",
        "pairs[0].right: unknown node 7",
        "pairs[0]: left and right must differ, both are 7",
        "pairs[1].left: node 2 has role 'gateway', not camera",
        "pairs[1].right: node 0 has role 'sink', not camera",
        "pairs[1].match: window side 9 exceeds frame extent 8x8",
        "pairs[1].match: max_disparity 20 must be smaller than frame width 8",
        "pairs[1]: node 2 has no route to sink 0",
    ]


def test_duplicate_pair_is_a_finding():
    frames = shifted_sequence(8, 8, [1], 0)
    sc = Scenario(
        nodes=[SensorNode(0, "sink"), SensorNode(1, "camera", 1.0), SensorNode(2, "camera", 1.0)],
        pairs=[StereoPair(1, 2, MatchParams(1, 2, "sad"), frames)] * 2,
        links=[(0, 1), (1, 2)],
    )
    assert validate_scenario(sc) == ["pairs[1]: duplicate pair (1, 2)"]


def test_an_infinite_event_threshold_is_a_finding_before_the_run():
    # a threshold the report could not hold is refused with the other findings,
    # not after the run by save_report; -inf already fails ">= 0"
    for threshold, finding in ((float("inf"), "must be finite, got inf"), (float("-inf"), "must be >= 0, got -inf")):
        sc = Scenario(
            nodes=[SensorNode(0, "sink"), SensorNode(1, "camera", 1.0), SensorNode(2, "camera", 1.0)],
            pairs=[StereoPair(1, 2, MatchParams(1, 2, "sad"), shifted_sequence(8, 8, [1], 0))],
            links=[(0, 1), (1, 2)],
            event_threshold=threshold,
        )
        assert validate_scenario(sc) == [f"event_threshold: {finding}"]
        with pytest.raises(ScenarioError) as info:
            run_simulation(sc)
        assert info.value.errors == [f"event_threshold: {finding}"]


def test_frame_size_findings_are_pinned():
    good = shifted_sequence(16, 16, [1], 7)[0]
    small = shifted_sequence(16, 12, [1], 7)[0]
    cameras = [SensorNode(i, "camera", 1.0) for i in (1, 2, 3)]
    sc = Scenario(
        nodes=[SensorNode(0, "sink"), *cameras],
        pairs=[
            StereoPair(1, 2, MatchParams(1, 4, "sad"), [good, (good[0], small[1]), small]),
            StereoPair(1, 3, MatchParams(1, 4, "sad"), []),
        ],
        links=[(0, 1), (1, 2), (1, 3)],
    )
    expected = [
        "pairs[0].frames[1]: left is 16x16 but right is 16x12",
        "pairs[0].frames[2]: 16x12 differs from step 0 (16x16)",
        "pairs[1].frames: at least one step is required",
    ]
    assert validate_scenario(sc) == expected
    with pytest.raises(ScenarioError) as info:
        run_simulation(sc)
    assert info.value.errors == expected


@pytest.mark.parametrize(
    "right_width, radius, max_disparity, message",
    [
        (17, 3, 4, "left is 16x12 but right is 17x12"),
        (16, 6, 4, "window side 13 exceeds image extent 16x12"),
        (16, 1, 16, "max_disparity 16 must be smaller than image width 16"),
    ],
    ids=["mismatched-sizes", "oversized-window", "max-disparity-at-width"],
)
def test_disparity_input_errors_are_pinned(tmp_path, capsys, right_width, radius, max_disparity, message):
    left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
    left.write_bytes(serialize_pgm(texture(16, 12, 1)))
    right.write_bytes(serialize_pgm(texture(right_width, 12, 1)))
    code = main(["disparity", str(left), str(right), "--radius", str(radius),
                 "--max-disparity", str(max_disparity), "--out", str(tmp_path / "d")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "d.dsp").exists()


if __name__ == "__main__":
    lists = [findings(doc) for _, doc in corpus()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in lists) + "\n]\n")
    print(f"wrote {len(lists)} error lists to {GOLDEN}", file=sys.stderr)
