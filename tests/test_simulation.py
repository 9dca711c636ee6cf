import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import (
    DisparityMap,
    EnergyModel,
    MatchParams,
    RoutingError,
    Scenario,
    ScenarioError,
    SensorNode,
    StereoPair,
    compute_disparity,
    detect_event,
    load_scenario,
    pgm_num_bytes,
    report_to_dict,
    route_to_sink,
    run_simulation,
    save_report,
    scenario_from_dict,
    serialize_pgm,
    shifted_sequence,
    texture,
)

from stereosim.sensornet import (
    POLICIES, DropRecord, EventRecord, NodeReport, TransmissionRecord, _charge, _json_text, validate_scenario,
)

from oracles import all_simple_paths, naive_mean_abs_change, naive_run_simulation

GOLDEN = Path(__file__).parent / "golden"


def _nodes(*specs):
    return [SensorNode(i, role, battery=b) for i, role, b in specs]


def make_line_scenario(
    policy="disparity_on_event",
    shifts=(1, 1, 1),
    threshold=1.0,
    left_battery=1e9,
    right_battery=1e9,
    width=32,
    height=32,
    seed=5,
    energy=None,
):
    """sink 0 -- camera 1 -- camera 2, pair (1, 2) watching a synthetic scene."""
    frames = shifted_sequence(width, height, list(shifts), seed)
    return Scenario(
        nodes=_nodes((0, "sink", 0.0), (1, "camera", left_battery), (2, "camera", right_battery)),
        pairs=[StereoPair(1, 2, MatchParams(1, 4, "sad"), frames)],
        links=[(0, 1), (1, 2)],
        policy=policy,
        event_threshold=threshold,
        seed=seed,
        energy=energy or EnergyModel(),
    )


# ---------------------------------------------------------------------------
# routing


def test_route_from_sink_is_singleton():
    sc = make_line_scenario()
    assert route_to_sink(sc, 0) == [0]


def test_route_on_line_topology():
    sc = make_line_scenario()
    assert route_to_sink(sc, 2) == [2, 1, 0]


def test_route_grid_tie_break_matches_exhaustive_search():
    # 3x3 grid, ids row-major, sink at 8, source at 0
    links = []
    for y in range(3):
        for x in range(3):
            i = 3 * y + x
            if x < 2:
                links.append((i, i + 1))
            if y < 2:
                links.append((i, i + 3))
    nodes = [SensorNode(i, "relay") for i in range(8)] + [SensorNode(8, "sink")]
    sc = Scenario(nodes=nodes, pairs=[], links=links, policy="disparity_always")
    got = route_to_sink(sc, 0)

    adjacency = {}
    for a, b in links:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    paths = all_simple_paths(adjacency, 0, 8)
    shortest = min(len(p) for p in paths)
    expected = min(p for p in paths if len(p) == shortest)
    assert got == expected == [0, 1, 2, 5, 8]


@settings(max_examples=150)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n - 1),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
        )
    )
)
def test_routes_are_the_smallest_shortest_paths(graph):
    n, sink, links = graph
    links = [(a, b) for a, b in links if a != b]
    nodes = [SensorNode(i, "sink" if i == sink else "relay") for i in range(n)]
    sc = Scenario(nodes=nodes, pairs=[], links=links, policy="disparity_always")
    adjacency = {i: set() for i in range(n)}
    for a, b in links:
        adjacency[a].add(b)
        adjacency[b].add(a)
    for src in range(n):
        paths = all_simple_paths(adjacency, src, sink) if src != sink else [[sink]]
        if not paths:
            with pytest.raises(RoutingError, match=f"node {src} has no route to sink {sink}"):
                route_to_sink(sc, src)
            continue
        shortest = min(len(p) for p in paths)
        assert route_to_sink(sc, src) == min(p for p in paths if len(p) == shortest)


def test_route_disconnected_node_is_an_error():
    sc = Scenario(
        nodes=_nodes((0, "sink", 0.0), (1, "camera", 1.0), (5, "camera", 1.0)),
        pairs=[],
        links=[(0, 1)],
    )
    with pytest.raises(RoutingError, match="node 5"):
        route_to_sink(sc, 5)
    with pytest.raises(RoutingError, match="^unknown node 9$"):
        route_to_sink(sc, 9)


@pytest.mark.parametrize(
    "sinks, found", [((), 0), ((0, 5), 2)], ids=["no-sink", "two-sinks"]
)
def test_route_needs_exactly_one_sink(sinks, found):
    nodes = [SensorNode(i, "sink" if i in sinks else "relay") for i in (0, 1, 5)]
    sc = Scenario(nodes=nodes, pairs=[], links=[(1, 5)])
    with pytest.raises(RoutingError, match=f"^exactly one sink required, found {found}$"):
        route_to_sink(sc, 1)


# ---------------------------------------------------------------------------
# event detection


def _map(disp, valid, maxd):
    return DisparityMap(disp, valid, maxd)


def test_detect_event_no_change():
    m = _map([[1, 2]], [[True, True]], 4)
    triggered, change = detect_event(m, m, 0.5)
    assert (triggered, change) == (False, 0.0)


@pytest.mark.parametrize(
    "disp, valid",
    [([[1, 2], [0, 4]], [[True, False], [True, True]]), ([[3, 3]], [[False, False]])],
    ids=["some-valid", "none-valid"],
)
@pytest.mark.parametrize("threshold", [-1.0, -0.0, 0.0, 0.5])
def test_detect_event_on_one_map_twice_equals_the_diff_of_an_equal_copy(disp, valid, threshold):
    m = _map(disp, valid, 4)
    copy = _map(m.disparities, m.valid, m.max_disparity)
    assert copy is not m
    assert detect_event(m, m, threshold) == detect_event(m, copy, threshold)
    assert detect_event(m, m, threshold) == (threshold < 0, 0.0)


def test_detect_event_constant_difference():
    a = _map([[1, 1]], [[True, True]], 8)
    b = _map([[4, 4]], [[True, True]], 8)
    triggered, change = detect_event(a, b, 2.5)
    assert triggered and change == 3.0


def test_detect_event_first_frame_always_triggers():
    m = _map([[0]], [[True]], 1)
    assert detect_event(None, m, 1e9) == (True, 0.0)


def test_detect_event_ignores_uncommon_pixels():
    a = _map([[1, 7, 3]], [[True, True, False]], 8)
    b = _map([[2, 7, 8]], [[True, False, True]], 8)
    triggered, change = detect_event(a, b, 0.5)
    # only column 0 is valid in both maps
    assert change == 1.0 and triggered


def test_detect_event_no_common_pixels_means_zero():
    a = _map([[5]], [[True]], 8)
    b = _map([[1]], [[False]], 8)
    assert detect_event(a, b, 0.1) == (False, 0.0)


def test_detect_event_matches_reference_accumulation():
    rng = np.random.default_rng(12)
    for _ in range(10):
        w, h, maxd = int(rng.integers(1, 8)), int(rng.integers(1, 8)), 9
        a = _map(rng.integers(0, 10, (h, w)), rng.integers(0, 2, (h, w)).astype(bool), maxd)
        b = _map(rng.integers(0, 10, (h, w)), rng.integers(0, 2, (h, w)).astype(bool), maxd)
        _, change = detect_event(a, b, 0.0)
        expected = naive_mean_abs_change(
            a.disparities.tolist(), a.valid.tolist(), b.disparities.tolist(), b.valid.tolist()
        )
        assert change == expected


def test_detect_event_shape_mismatch():
    a = _map([[1]], [[True]], 4)
    b = _map([[1, 2]], [[True, True]], 4)
    with pytest.raises(ValueError, match="dimensions"):
        detect_event(a, b, 1.0)
    c = _map([[1]], [[True]], 5)
    with pytest.raises(ValueError, match="max_disparity"):
        detect_event(a, c, 1.0)


# ---------------------------------------------------------------------------
# energy charges


def test_processing_charge_per_64kb():
    assert EnergyModel().cpu_cost(65536) == 0.00195


def test_processing_charge_zero_bytes():
    assert EnergyModel().cpu_cost(0) == 0.0


def test_processing_charge_scales_linearly():
    assert EnergyModel().cpu_cost(32768) == 0.000975


def _relay_line(*relay_batteries, left_battery=1e9, steps=1):
    """sink 0 -- relay 1 -- ... -- relay k -- camera k+1 -- camera k+2, every
    step's raw pair sent to the sink. A 618x53 frame weighs 32,768 bytes, so
    each raw pair is 64 KiB and the left camera's route has k + 1 transmitters."""
    k = len(relay_batteries)
    left, right = k + 1, k + 2
    nodes = _nodes((0, "sink", 0.0), *((i + 1, "relay", b) for i, b in enumerate(relay_batteries)),
                   (left, "camera", left_battery), (right, "camera", 1e9))
    return Scenario(
        nodes=nodes,
        pairs=[StereoPair(left, right, MatchParams(1, 4, "sad"), shifted_sequence(618, 53, [1] * steps, 7))],
        links=[(i, i + 1) for i in range(right)],
        policy="raw_always",
    )


def _sent(report):
    """The report's sink-bound sends, and its node reports by id."""
    return [t for t in report.transmissions if t.payload == "raw_pair"], {n.id: n for n in report.nodes}


def test_transmission_charge_single_hop():
    (sent,), by_id = _sent(run_simulation(_relay_line(left_battery=1000.0)))
    assert (sent.path, sent.bytes) == ((1, 0), 65536)
    sender = by_id[1]
    assert sender.transmission_uj == 377.0 and sender.bytes_transmitted == 65536
    assert sender.final_battery_uj == 1000.0 - sender.processing_uj - 377.0
    sink = by_id[0]  # the sink never pays
    assert sink.final_battery_uj == sink.transmission_uj == 0.0 and sink.bytes_transmitted == 0


def test_transmission_charge_three_hops():
    (sent,), by_id = _sent(run_simulation(_relay_line(1000.0, 1000.0)))
    assert sent.path == (3, 2, 1, 0)
    charged = [by_id[i].transmission_uj for i in sent.path[:-1]]
    assert charged == [377.0, 377.0, 377.0]
    assert sum(charged) == 1131.0
    assert by_id[0].transmission_uj == 0.0


def test_transmission_charge_zero_bytes():
    cost = EnergyModel().tx_cost(0)
    assert cost == 0.0
    sender, rep = SensorNode(1, "camera", battery=5.0), NodeReport(1, "camera", 5.0, 5.0)
    assert _charge(sender, rep, cost, 1) == 0.0 and sender.battery == 5.0
    assert rep.deficit_uj == 0.0 and rep.died_at_step is None


def test_transmission_from_dead_node_is_refused():
    # a left camera emptied by its own processing drops its send, before
    # any radio charge, so it is charged nothing
    def scenario(left_battery):
        return Scenario(
            nodes=_nodes((0, "sink", 0.0), (1, "camera", left_battery), (2, "camera", 1e9)),
            pairs=[StereoPair(1, 2, MatchParams(1, 4, "sad"), shifted_sequence(16, 16, [1], 7))],
            links=[(0, 1), (1, 2)],
            policy="raw_always",
        )

    cpu = next(n for n in run_simulation(scenario(1e9)).nodes if n.id == 1).processing_uj
    report = run_simulation(scenario(cpu))
    assert not any(t.path[0] == 1 for t in report.transmissions)
    assert [(d.step, d.reason, d.node) for d in report.drops] == [(1, "origin-dead", 1)]
    dead = next(n for n in report.nodes if n.id == 1)
    assert dead.died_at_step == 1
    assert dead.final_battery_uj == dead.transmission_uj == 0.0
    assert dead.bytes_transmitted == 0


def test_node_dying_mid_path_still_forwards():
    # relay 1 holds less than one send's cost, relay 2 plenty
    report = run_simulation(_relay_line(1.0, 1000.0, steps=2))
    (sent,), by_id = _sent(report)
    # the weak relay pays what it has, goes to zero, and the payload completes
    assert (sent.step, sent.path) == (1, (3, 2, 1, 0))
    weak = by_id[1]
    assert weak.transmission_uj == 1.0 and weak.final_battery_uj == 0.0
    assert weak.died_at_step == 1 and weak.deficit_uj == 377.0 - 1.0
    assert by_id[2].transmission_uj == 377.0
    assert by_id[0].transmission_uj == 0.0
    # the next step's send stops at the dead relay
    assert [(d.step, d.reason, d.node) for d in report.drops] == [(2, "relay-dead", 1)]
    assert report.lifetime == 1


def test_energy_model_validation():
    with pytest.raises(ValueError, match="tx_energy"):
        EnergyModel(tx_energy_per_64kb=0.0)
    with pytest.raises(ValueError, match="cpu_energy"):
        EnergyModel(cpu_energy_per_64kb_processed=-1.0)


# ---------------------------------------------------------------------------
# full simulation runs


def test_static_scene_transmits_once():
    sc = make_line_scenario(shifts=(1, 1, 1, 1), threshold=0.5)
    report = run_simulation(sc)
    sink_bound = [t for t in report.transmissions if t.payload == "disparity_rle"]
    assert len(sink_bound) == 1 and sink_bound[0].step == 1
    assert len(report.events) == 1
    assert report.lifetime is None


def test_scene_change_triggers_second_event():
    sc = make_line_scenario(shifts=(1, 1, 3, 3), threshold=1.0)
    report = run_simulation(sc)
    assert [e.step for e in report.events] == [1, 3]
    assert report.events[1].change == 2.0


def test_raw_always_depletion_at_step_three():
    # the left camera holds exactly three sink-bound raw-pair transmissions;
    # processing drains a sliver more, so the third transmission is fatal
    frames = shifted_sequence(32, 32, [1, 1, 1, 1, 1], 5)
    model = EnergyModel()
    raw_pair = 2 * pgm_num_bytes(frames[0][0])
    battery = 3 * model.tx_cost(raw_pair)
    sc = make_line_scenario(policy="raw_always", shifts=(1, 1, 1, 1, 1), left_battery=battery)
    report = run_simulation(sc)
    assert report.lifetime == 3
    left = next(n for n in report.nodes if n.id == 1)
    assert left.died_at_step == 3
    assert left.final_battery_uj == 0.0
    # the fatal transmission completed: three raw_pair records exist
    assert sum(1 for t in report.transmissions if t.payload == "raw_pair") == 3
    # afterwards the pair is offline and recorded as dropped
    assert [d.reason for d in report.drops] == ["camera-dead", "camera-dead"]
    assert [d.step for d in report.drops] == [4, 5]


def test_dead_nodes_never_act_after_death():
    frames = shifted_sequence(32, 32, [1] * 5, 5)
    model = EnergyModel()
    intra = model.tx_cost(pgm_num_bytes(frames[0][1]))
    sc = make_line_scenario(policy="disparity_always", shifts=(1,) * 5, right_battery=2 * intra)
    report = run_simulation(sc)
    right = next(n for n in report.nodes if n.id == 2)
    assert right.died_at_step == 2
    assert right.transmission_uj == 2 * intra  # nothing drawn after death
    assert all(t.step <= 2 for t in report.transmissions if t.path[0] == 2)
    assert all(d.node == 2 for d in report.drops)


@pytest.mark.parametrize("empty", [2, 3], ids=["camera", "relay"])
def test_a_node_empty_at_deployment_is_dead_from_step_zero(empty):
    frames = shifted_sequence(16, 16, [1, 1], 7)
    sc = Scenario(
        nodes=_nodes(
            (0, "sink", 0.0),
            *((i, "camera" if i < 3 else "relay", 0.0 if i == empty else 1e9) for i in (1, 2, 3)),
        ),
        pairs=[StereoPair(1, 2, MatchParams(1, 4, "sad"), frames)],
        links=[(0, 3), (3, 1), (1, 2)],
        policy="disparity_always",
    )
    report = run_simulation(sc)
    assert [n.died_at_step for n in report.nodes] == [None if n.id != empty else 0 for n in sc.nodes]
    assert report.lifetime == 0
    assert report_to_dict(report)["lifetime"] == 0
    reason = "camera-dead" if empty == 2 else "relay-dead"
    assert [(d.step, d.reason, d.node) for d in report.drops] == [(1, reason, empty), (2, reason, empty)]
    # a dropped send is charged to no one: the empty node stays at 0, and the
    # left camera, which originates the send, pays no radio energy
    by_id = {n.id: n for n in report.nodes}
    assert by_id[empty].final_battery_uj == by_id[empty].transmission_uj == 0.0
    assert by_id[1].transmission_uj == 0.0 and by_id[1].bytes_transmitted == 0


def test_an_infinite_battery_or_energy_rate_is_refused_before_the_ledger_can_draw_nan():
    # _charge would leave an infinite battery charged an infinite cost NaN, and
    # a 0-byte charge at an infinite rate costs 0 * inf, NaN
    for rates, name in (((float("inf"), 0.00195), "tx_energy_per_64kb"),
                        ((377.0, float("inf")), "cpu_energy_per_64kb_processed")):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
            EnergyModel(*rates)
    sc = Scenario(
        nodes=_nodes((0, "sink", 0.0), (3, "camera", float("inf")), (4, "camera", float("-inf"))),
        pairs=[StereoPair(3, 4, MatchParams(1, 3, "sad"), shifted_sequence(12, 8, [1, 1, 2], 4))],
        links=[(0, 3), (3, 4)],
        policy="raw_always",
    )
    findings = ["nodes[1].battery: must be finite, got inf", "nodes[2].battery: must be >= 0, got -inf"]
    assert validate_scenario(sc) == findings
    with pytest.raises(ScenarioError) as info:
        run_simulation(sc)
    assert info.value.errors == findings


def test_energy_conservation_exact():
    for policy in ("disparity_on_event", "disparity_always", "raw_always"):
        sc = make_line_scenario(policy=policy, shifts=(1, 2, 1, 3), threshold=0.5)
        report = run_simulation(sc)
        for node in report.nodes:
            spent = node.processing_uj + node.transmission_uj
            drained = node.initial_battery_uj - node.final_battery_uj
            # tolerance scales with the representation of the battery values
            scale = max(1.0, node.initial_battery_uj, spent)
            assert abs(drained - spent) <= 1e-12 * scale


def test_identical_scenarios_give_identical_reports():
    a = run_simulation(make_line_scenario(shifts=(1, 2, 3)))
    b = run_simulation(make_line_scenario(shifts=(1, 2, 3)))
    assert json.dumps(report_to_dict(a), sort_keys=True) == json.dumps(
        report_to_dict(b), sort_keys=True
    )


def test_rerunning_the_same_scenario_object_is_stable():
    sc = make_line_scenario(shifts=(1, 2, 3))
    a = run_simulation(sc)
    b = run_simulation(sc)
    assert report_to_dict(a) == report_to_dict(b)


def _multi_pair_scenario(n_pairs, policy="disparity_always"):
    nodes = [SensorNode(0, "sink")]
    pairs = []
    links = []
    for k in range(n_pairs):
        left_id, right_id = 2 * k + 1, 2 * k + 2
        nodes.append(SensorNode(left_id, "camera", battery=1e9))
        nodes.append(SensorNode(right_id, "camera", battery=1e9))
        links.append((0, left_id))
        links.append((left_id, right_id))
        frames = shifted_sequence(24, 24, [1, 2, 1], 9)
        pairs.append(StereoPair(left_id, right_id, MatchParams(1, 4, "sad"), frames))
    return Scenario(nodes=nodes, pairs=pairs, links=links, policy=policy, seed=9)


def test_pair_count_scales_ops_exactly():
    base = run_simulation(_multi_pair_scenario(1)).total_elementary_ops
    assert base > 0
    for n in (2, 4):
        assert run_simulation(_multi_pair_scenario(n)).total_elementary_ops == n * base


def test_equal_frame_pairs_are_matched_once_per_step(monkeypatch):
    import stereosim.sensornet as sensornet

    calls = []

    def counting(left, right, params):
        calls.append(params)
        return compute_disparity(left, right, params)

    monkeypatch.setattr(sensornet, "compute_disparity", counting)
    for n in (1, 4):
        calls.clear()
        report = run_simulation(_multi_pair_scenario(n))
        # shifts 1, 2, 1: step 3 repeats step 1's input, but no pair used it
        # at step 2, so it is matched again rather than kept for the run
        assert len(calls) == 3
        assert report_to_dict(report) == report_to_dict(run_simulation(_multi_pair_scenario(n)))


def test_match_params_are_hashed_once_per_pair_per_run(monkeypatch):
    hashes = []
    spec_hash = MatchParams.__hash__

    def counting(params):
        hashes.append(params)
        return spec_hash(params)

    monkeypatch.setattr(MatchParams, "__hash__", counting)
    scenario = _multi_pair_scenario(4)
    hashes.clear()
    run_simulation(scenario)
    # 4 pairs over 3 steps execute 12 pair-steps
    assert len(hashes) == 4


def test_pairs_whose_match_params_differ_are_matched_apart(monkeypatch):
    import stereosim.sensornet as sensornet

    calls = []

    def counting(left, right, params):
        calls.append(params)
        return compute_disparity(left, right, params)

    monkeypatch.setattr(sensornet, "compute_disparity", counting)
    scenario = _multi_pair_scenario(3)
    # the same frames, matched with sad, ssd and sad again
    scenario.pairs[1] = replace(scenario.pairs[1], match_params=MatchParams(1, 4, "ssd"))
    run_simulation(scenario)
    assert [p.method for p in calls] == ["sad", "ssd"] * 3


def test_detect_event_runs_once_per_group_step_on_its_consecutive_maps(monkeypatch):
    import stereosim.sensornet as sensornet

    scenario = load_scenario(GOLDEN / "shared_frames.scenario.json")
    calls = []

    def counting(prev, curr, threshold):
        calls.append(threshold)
        return detect_event(prev, curr, threshold)

    monkeypatch.setattr(sensornet, "detect_event", counting)
    report = run_simulation(scenario)

    dropped = {(d.step, d.pair) for d in report.drops if d.reason == "camera-dead"}
    maps, expected, group_steps = {}, [], set()
    for step in range(1, report.steps + 1):
        for pair in sorted(scenario.pairs, key=lambda p: (p.left_node, p.right_node)):
            key = (pair.left_node, pair.right_node)
            if step > len(pair.frames) or (step, key) in dropped:
                continue
            # a group: the same frame tuples at every step, and equal match params
            group_steps.add((step, pair.match_params, tuple(map(id, pair.frames))))
            curr, _ = compute_disparity(*pair.frames[step - 1], pair.match_params)
            triggered, change = detect_event(maps.get(key), curr, scenario.event_threshold)
            if triggered:
                expected.append(EventRecord(step, key, change))
            maps[key] = curr
    assert report.events == expected
    assert len(calls) == len(group_steps) < sum(t.payload == "raw_frame" for t in report.transmissions)


def test_a_death_free_field_charges_hop_processing_and_send_in_pair_order(monkeypatch):
    """Each step of the 4-pair field charges every pair's hop, processing and one-hop send as one
    _charge apiece, in pair order, and no charge leaves a deficit or a death."""
    import stereosim.sensornet as sensornet

    charges = []

    def counting(node, report, cost, step):
        charges.append(node.id)
        return _charge(node, report, cost, step)

    monkeypatch.setattr(sensornet, "_charge", counting)
    scenario = _multi_pair_scenario(4)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        report = run_simulation(scenario)
        save_report(report, out)
        assert out.read_bytes() == naive_run_simulation(scenario)
    per_step = [i for k in range(4) for i in (2 * k + 2, 2 * k + 1, 2 * k + 1)]
    assert charges == per_step * 3
    assert report.lifetime is None
    assert all(n.deficit_uj == 0.0 and n.died_at_step is None for n in report.nodes)


def test_policy_dominance_when_rle_is_smaller():
    reports = {
        policy: run_simulation(make_line_scenario(policy=policy, shifts=(1, 1, 3, 3, 1)))
        for policy in ("disparity_on_event", "disparity_always", "raw_always")
    }
    pair = reports["raw_always"].pairs[0]
    assert pair.rle_bytes_max < pair.raw_pair_bytes  # the size precondition holds

    def tx_total(report):
        return sum(n.transmission_uj for n in report.nodes)

    assert tx_total(reports["disparity_on_event"]) <= tx_total(reports["disparity_always"])
    assert tx_total(reports["disparity_always"]) <= tx_total(reports["raw_always"])
    assert tx_total(reports["disparity_on_event"]) < tx_total(reports["raw_always"])


def test_doubling_batteries_never_shortens_lifetime():
    frames = shifted_sequence(32, 32, [1] * 6, 5)
    model = EnergyModel()
    battery = 2.5 * model.tx_cost(2 * pgm_num_bytes(frames[0][0]))
    small = make_line_scenario(policy="raw_always", shifts=(1,) * 6, left_battery=battery)
    large = make_line_scenario(policy="raw_always", shifts=(1,) * 6, left_battery=2 * battery)
    first = run_simulation(small).lifetime
    second = run_simulation(large).lifetime
    assert first is not None
    assert second is None or second >= first


def test_relay_hops_pay_and_count_bytes():
    frames = shifted_sequence(16, 16, [1, 1], 7)
    sc = Scenario(
        nodes=_nodes(
            (0, "sink", 0.0), (1, "camera", 1e9), (2, "camera", 1e9), (3, "relay", 1e9)
        ),
        pairs=[StereoPair(1, 2, MatchParams(1, 4, "sad"), frames)],
        links=[(0, 3), (3, 1), (1, 2)],
        policy="disparity_always",
        event_threshold=1.0,
    )
    report = run_simulation(sc)
    sink_bound = [t for t in report.transmissions if t.payload == "disparity_rle"]
    assert all(t.path == (1, 3, 0) for t in sink_bound)
    relay = next(n for n in report.nodes if n.id == 3)
    origin = next(n for n in report.nodes if n.id == 1)
    rle_bytes = sum(t.bytes for t in sink_bound)
    assert relay.bytes_transmitted == rle_bytes
    model = EnergyModel()
    assert relay.transmission_uj == pytest.approx(model.tx_cost(rle_bytes), rel=1e-12)
    # the origin also carried the payload, plus nothing else sink-bound
    assert origin.bytes_transmitted == rle_bytes


def test_pairs_with_shorter_schedules_idle_without_drops():
    long_frames = shifted_sequence(16, 16, [1, 1, 1], 7)
    short_frames = shifted_sequence(16, 16, [1, 1], 7)
    sc = Scenario(
        nodes=_nodes(
            (0, "sink", 0.0),
            (1, "camera", 1e9), (2, "camera", 1e9),
            (3, "camera", 1e9), (4, "camera", 1e9),
        ),
        pairs=[
            StereoPair(1, 2, MatchParams(1, 4, "sad"), long_frames),
            StereoPair(3, 4, MatchParams(1, 4, "sad"), short_frames),
        ],
        links=[(0, 1), (1, 2), (0, 3), (3, 4)],
        policy="disparity_always",
    )
    report = run_simulation(sc)
    assert report.steps == 3
    assert not report.drops
    assert sum(1 for t in report.transmissions if t.pair == (3, 4)) == 2 * 2  # hops + payloads
    assert sum(1 for t in report.transmissions if t.pair == (1, 2)) == 3 * 2


def test_scenario_without_pairs_runs_zero_steps():
    sc = Scenario(nodes=_nodes((0, "sink", 0.0)), pairs=[], links=[])
    report = run_simulation(sc)
    assert report.steps == 0
    assert report.lifetime is None
    assert not report.events and not report.transmissions


def test_mismatched_frame_dimensions_rejected():
    good = shifted_sequence(16, 16, [1], 7)[0]
    bad = (good[0], shifted_sequence(16, 12, [1], 7)[0][1])
    sc = Scenario(
        nodes=_nodes((0, "sink", 0.0), (1, "camera", 1.0), (2, "camera", 1.0)),
        pairs=[StereoPair(1, 2, MatchParams(1, 4, "sad"), [good, bad])],
        links=[(0, 1), (1, 2)],
    )
    with pytest.raises(ScenarioError, match=r"frames\[1\]"):
        run_simulation(sc)


def test_a_bad_frame_pair_is_reported_at_every_step_that_shows_it():
    # one unequal pair and one pair of another size, each shared across
    # steps and pairs; a size is bad only against its own pair's step 0, and
    # a pair that repeats a failing pair's frame tuples fails again
    good = shifted_sequence(16, 16, [1], 7)[0]
    small = shifted_sequence(12, 12, [1], 7)[0]
    unequal = (good[0], small[1])
    sc = Scenario(
        nodes=_nodes(*((i, "sink" if i == 0 else "camera", 1.0) for i in range(9))),
        pairs=[
            StereoPair(1, 2, MatchParams(1, 4, "sad"), [unequal, good, unequal]),
            StereoPair(3, 4, MatchParams(1, 4, "sad"), [good, unequal, small, small]),
            StereoPair(5, 6, MatchParams(1, 4, "sad"), [small, unequal, good, small]),
            StereoPair(7, 8, MatchParams(1, 4, "sad"), [unequal, good, unequal]),
        ],
        links=[(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)],
    )
    with pytest.raises(ScenarioError) as info:
        run_simulation(sc)
    unequal_message = "left is 16x16 but right is 12x12"
    assert info.value.errors == [
        f"pairs[0].frames[0]: {unequal_message}",
        f"pairs[0].frames[2]: {unequal_message}",
        f"pairs[1].frames[1]: {unequal_message}",
        "pairs[1].frames[2]: 12x12 differs from step 0 (16x16)",
        "pairs[1].frames[3]: 12x12 differs from step 0 (16x16)",
        f"pairs[2].frames[1]: {unequal_message}",
        "pairs[2].frames[1]: 16x16 differs from step 0 (12x12)",
        "pairs[2].frames[2]: 16x16 differs from step 0 (12x12)",
        f"pairs[3].frames[0]: {unequal_message}",
        f"pairs[3].frames[2]: {unequal_message}",
    ]


def test_energy_model_override_flows_through():
    model = EnergyModel(tx_energy_per_64kb=754.0, cpu_energy_per_64kb_processed=0.0039)
    sc = make_line_scenario(policy="raw_always", shifts=(1,), energy=model)
    base = run_simulation(make_line_scenario(policy="raw_always", shifts=(1,)))
    doubled = run_simulation(sc)
    assert sum(n.transmission_uj for n in doubled.nodes) == pytest.approx(
        2 * sum(n.transmission_uj for n in base.nodes), rel=1e-12
    )


def test_validation_failures_are_enumerated():
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
    with pytest.raises(ScenarioError) as info:
        run_simulation(sc)
    text = "\n".join(info.value.errors)
    assert "nodes[1].id: duplicate" in text
    assert "nodes[1].battery" in text
    assert "nodes[2].role" in text
    assert "links[0]" in text
    assert "policy" in text
    assert "event_threshold" in text
    assert "pairs[0].left: unknown node 7" in text
    assert "pairs[0]: left and right must differ" in text
    assert "pairs[1].left: node 2 has role 'gateway'" in text
    assert "pairs[1].right: node 0 has role 'sink'" in text
    assert "window side" in text
    assert "max_disparity 20" in text


def test_pair_disconnected_from_sink_is_a_validation_error():
    frames = shifted_sequence(8, 8, [1], 0)
    sc = Scenario(
        nodes=_nodes((0, "sink", 0.0), (1, "camera", 1.0), (2, "camera", 1.0)),
        pairs=[StereoPair(1, 2, MatchParams(1, 4, "sad"), frames)],
        links=[(1, 2)],
    )
    with pytest.raises(ScenarioError, match="no route to sink"):
        run_simulation(sc)


# ---------------------------------------------------------------------------
# scenario files


def _scenario_dict(**overrides):
    doc = {
        "seed": 5,
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
                    "synthetic": {"width": 16, "height": 16, "steps": 3, "shift_per_step": 1}
                },
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_scenario_from_dict_round_trip():
    sc = scenario_from_dict(_scenario_dict())
    assert [n.id for n in sc.nodes] == [0, 1, 2]
    assert sc.pairs[0].frames[0][0].width == 16
    report = run_simulation(sc)
    assert len(report.events) == 1


def test_scenario_dict_synthetic_matches_library_generator():
    sc = scenario_from_dict(_scenario_dict())
    expected = shifted_sequence(16, 16, [1, 1, 1], 5)
    assert sc.pairs[0].frames == expected


def test_scenario_synthetic_infers_steps_from_shift_list():
    doc = _scenario_dict()
    doc["pairs"][0]["frames"] = {
        "synthetic": {"width": 16, "height": 16, "shift_per_step": [1, 1, 2, 2]}
    }
    sc = scenario_from_dict(doc)
    assert len(sc.pairs[0].frames) == 4
    doc["pairs"][0]["frames"]["synthetic"]["steps"] = 3  # contradicts the list
    with pytest.raises(ScenarioError, match="disagrees"):
        scenario_from_dict(doc)
    # a scalar shift still needs an explicit step count
    doc["pairs"][0]["frames"] = {"synthetic": {"width": 16, "height": 16, "shift_per_step": 1}}
    with pytest.raises(ScenarioError, match="steps"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("unequal", [[True, 2], [1, 2.0], [1, "2"]])
def test_a_shift_list_equal_in_value_to_a_valid_one_is_still_checked(unequal):
    # True == 1 and 2.0 == 2, so a check keyed by list value would pass these
    doc = _scenario_dict()
    doc["nodes"] += [{"id": 3, "role": "camera", "battery": 1e9}, {"id": 4, "role": "camera", "battery": 1e9}]
    doc["links"] += [[0, 3], [3, 4]]
    synthetic = {"width": 16, "height": 16, "shift_per_step": [1, 2]}
    doc["pairs"][0]["frames"] = {"synthetic": synthetic}
    doc["pairs"].append(dict(doc["pairs"][0], left=3, right=4,
                             frames={"synthetic": dict(synthetic, shift_per_step=unequal)}))
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.errors == [
        "pairs[1].frames.synthetic.shift_per_step: must be a non-empty list of integers"
    ]


def test_scenario_dict_energy_overrides():
    doc = _scenario_dict(energy={"tx_energy_per_64kb": 754.0, "cpu_energy_per_64kb_processed": 0.0039})
    sc = scenario_from_dict(doc)
    assert sc.energy.tx_energy_per_64kb == 754.0
    assert sc.energy.cpu_energy_per_64kb_processed == 0.0039
    with pytest.raises(ScenarioError, match="tx_energy"):
        scenario_from_dict(_scenario_dict(energy={"tx_energy_per_64kb": -1.0}))


def test_scenario_from_dict_structural_errors_carry_paths():
    doc = _scenario_dict()
    doc["nodes"][1]["id"] = "one"
    doc["pairs"][0]["frames"] = {"synthetic": {"width": 16, "height": 16, "steps": 2, "shift_per_step": [1]}}
    doc["pairs"][0]["match"] = {"window_radius": 1, "max_disparity": 4, "method": "ncc"}
    doc["unknown_top"] = 1
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    text = "\n".join(info.value.errors)
    assert "nodes[1].id: must be an integer" in text
    assert "pairs[0].frames.synthetic.steps: disagrees" in text
    assert "pairs[0].match" in text and "ncc" in text
    assert "$.unknown_top: unknown key" in text


def test_scenario_frames_from_pgm_files(tmp_path):
    frames = shifted_sequence(12, 12, [2, 2], 3)
    names = []
    for t, (lf, rf) in enumerate(frames):
        lp, rp = tmp_path / f"l{t}.pgm", tmp_path / f"r{t}.pgm"
        lp.write_bytes(serialize_pgm(lf))
        rp.write_bytes(serialize_pgm(rf))
        names.append([lp.name, rp.name])
    doc = _scenario_dict()
    doc["pairs"][0]["frames"] = {"files": names}
    doc["pairs"][0]["match"] = {"window_radius": 1, "max_disparity": 3, "method": "sad"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(path)
    assert sc.pairs[0].frames == frames


def test_scenario_missing_frame_file_is_reported(tmp_path):
    doc = _scenario_dict()
    doc["pairs"][0]["frames"] = {"files": [["absent.pgm", "also_absent.pgm"]]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="absent.pgm"):
        load_scenario(path)


@pytest.mark.parametrize(
    "data, finding",
    [
        (b"", "Expecting value"),
        (b"{bad", "Expecting property name"),
        (b"\xff\xfe{", "codec can't decode"),
    ],
    ids=["empty", "not-json", "not-unicode"],
)
def test_scenario_bytes_that_are_not_json_raise_scenario_error(tmp_path, data, finding):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    [error] = info.value.errors
    assert error.startswith("$: not valid JSON: ") and finding in error


def test_equal_frame_specs_share_frame_objects():
    scenario = load_scenario(GOLDEN / "shared_frames.scenario.json")
    by_pair = {(p.left_node, p.right_node): p.frames for p in scenario.pairs}
    same_spec = [by_pair[k] for k in ((2, 3), (4, 5), (6, 7), (12, 13))]
    for frames in same_spec[1:]:
        assert frames == same_spec[0] and frames is not same_spec[0]
        assert all(a is b for fa, fb in zip(frames, same_spec[0]) for a, b in zip(fa, fb))
    # one left frame and one right frame for each of the shifts 0, 1, 2 and 3
    assert len({id(img) for frames in same_spec for pair in frames for img in pair}) == 5


def test_equal_but_distinct_match_params_match_each_input_once(monkeypatch):
    import stereosim.sensornet as sensornet

    calls = []

    def counting(left, right, params):
        calls.append(params)
        return compute_disparity(left, right, params)

    monkeypatch.setattr(sensornet, "compute_disparity", counting)
    doc = _scenario_dict(policy="disparity_always")
    doc["pairs"][0]["frames"]["synthetic"]["shift_per_step"] = [1, 2, 3]
    doc["nodes"] += [{"id": i, "role": "camera", "battery": 1e9} for i in (3, 4)]
    doc["links"] += [[0, 3], [3, 4]]
    doc["pairs"] += [dict(doc["pairs"][0], left=3, right=4, match=dict(doc["pairs"][0]["match"]))]
    scenario = scenario_from_dict(doc)
    first, second = scenario.pairs
    assert all(a is b for a, b in zip(first.frames, second.frames, strict=True))  # shared frame tuples
    assert first.match_params == second.match_params and first.match_params is not second.match_params
    run_simulation(scenario)
    # three steps of three distinct inputs, each matched once for both pairs
    assert len({(id(lf), id(rf)) for lf, rf in first.frames}) == len(calls) == 3


def test_a_pgm_path_that_fails_is_reported_at_each_entry(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
    doc = _scenario_dict()
    doc["pairs"][0]["frames"] = {"files": [["bad.pgm", "bad.pgm"]]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert [e.split(":")[0] for e in info.value.errors] == [
        "pairs[0].frames.files[0][0]",
        "pairs[0].frames.files[0][1]",
    ]
    assert all("pixel data truncated" in e for e in info.value.errors)


# ---------------------------------------------------------------------------
# report writer


@st.composite
def small_scenarios(draw):
    """Random small fields for every policy.

    Batteries are low enough that cameras and relays die mid-run, or are
    empty from the start. Two relays and the left cameras carry several
    pairs' traffic, over routes with equal-length alternatives. Schedules
    differ in length. A pair holds its own frames, shares another pair's
    frames and match spec, or joins them after first steps of its own, so
    equal inputs follow unequal ones.
    """
    battery = st.sampled_from([0.0, 1e-6, 0.5, 3.0, 20.0, 1e9])
    nodes = [SensorNode(0, "sink"), SensorNode(1, "relay", draw(battery)), SensorNode(2, "relay", draw(battery))]
    links = [(0, 1)] + [(hub, 2) for hub in draw(st.lists(st.sampled_from([0, 1]), min_size=1, unique=True))]
    width, height = draw(st.integers(8, 12)), draw(st.integers(4, 8))

    def own_frames(min_steps=1, max_steps=5):
        shifts = draw(st.lists(st.integers(0, 3), min_size=min_steps, max_size=max_steps))
        return shifted_sequence(width, height, shifts, draw(st.integers(0, 2)))

    pairs = []
    for k in range(draw(st.integers(1, 4))):
        left, right = 3 + 2 * k, 4 + 2 * k
        nodes += [SensorNode(left, "camera", draw(battery)), SensorNode(right, "camera", draw(battery))]
        hubs = [0, 1, 2] + [p.left_node for p in pairs]
        links += [(hub, left) for hub in draw(st.lists(st.sampled_from(hubs), min_size=1, max_size=2, unique=True))]
        links.append((left, right))
        frames_from = draw(st.sampled_from(["own", "shared", "joined"])) if pairs else "own"
        if frames_from == "own":
            params = MatchParams(
                draw(st.integers(0, 1)), draw(st.integers(2, 3)), draw(st.sampled_from(["sad", "ssd"]))
            )
            frames = own_frames()
        else:
            source = draw(st.sampled_from(pairs))
            params = draw(st.sampled_from([source.match_params, replace(source.match_params)]))
            frames = source.frames
            if frames_from == "joined":
                cut = draw(st.integers(1, max(1, len(frames) - 1)))
                frames = own_frames(cut, cut) + frames[cut:]
        pairs.append(StereoPair(left, right, params, frames))
    return Scenario(
        nodes=nodes,
        pairs=pairs,
        links=links,
        policy=draw(st.sampled_from(POLICIES)),
        event_threshold=draw(st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.5])),
        seed=draw(st.integers(0, 2**40)),
    )


def _json_dumps_report(report) -> bytes:
    return (json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(small_scenarios())
def test_save_report_writes_the_bytes_of_json_dumps(scenario):
    report = run_simulation(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        save_report(report, out)
        assert out.read_bytes() == _json_dumps_report(report)


def _joined_frames_scenario():
    """Pair (5, 6) sees pair (3, 4)'s inputs from step 2 on, after a first step of its own."""
    frames = shifted_sequence(12, 8, [1, 1, 3], 4)
    joined = shifted_sequence(12, 8, [2], 4) + frames[1:]
    return Scenario(
        nodes=_nodes((0, "sink", 0.0), *((i, "camera", 1e9) for i in range(3, 7))),
        pairs=[StereoPair(3, 4, MatchParams(1, 3, "sad"), frames),
               StereoPair(5, 6, MatchParams(1, 3, "sad"), joined)],
        links=[(0, 3), (3, 4), (0, 5), (5, 6)],
        event_threshold=0.5,
    )


# Costs of one uJ per byte, so batteries can hold exact multiples of them.
_PER_BYTE = EnergyModel(tx_energy_per_64kb=65536.0, cpu_energy_per_64kb_processed=65536.0)


def _group_scenario(batteries, lefts, links, shifts, policy):
    """Pairs (left, left + 1) of one group: one frame list and equal match params.

    batteries maps each node but the sink 0 to its battery; node 1 is a
    relay and every other node a camera.
    """
    frames = shifted_sequence(12, 8, shifts, 4)
    return Scenario(
        nodes=_nodes((0, "sink", 0.0), *((i, "relay" if i == 1 else "camera", b) for i, b in batteries.items())),
        pairs=[StereoPair(left, left + 1, MatchParams(1, 3, "sad"), frames) for left in lefts],
        links=links,
        policy=policy,
        energy=_PER_BYTE,
    )


_HOP = pgm_num_bytes(shifted_sequence(12, 8, [1], 4)[0][0])  # the bytes of one 12x8 frame
_THREE_PAIRS = [(0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]


def _middle_member_dies_mid_run():
    """(a) Right camera 6 of the group's middle pair holds three hops: its hop at step 3 draws it
    to 0.0, so it dies at step 3 and its pair drops as camera-dead from step 4, while pairs
    (3, 4) and (7, 8) execute every step."""
    batteries = {3: 1e9, 4: 1e9, 5: 1e9, 6: 3.0 * _HOP, 7: 1e9, 8: 1e9}
    return _group_scenario(batteries, [3, 5, 7], _THREE_PAIRS, [1, 1, 2, 2, 1], "disparity_always"), 3


def _relay_emptied_between_members():
    """(b) Relay 1 holds exactly one raw pair's transmit cost: pair (3, 4)'s send at step 1 draws
    it to 0.0, and pair (5, 6)'s send later in that step is dropped as relay-dead."""
    batteries = {1: 2.0 * _HOP, 3: 1e9, 4: 1e9, 5: 1e9, 6: 1e9}
    links = [(0, 1), (1, 3), (3, 4), (1, 5), (5, 6)]
    return _group_scenario(batteries, [3, 5], links, [1, 2], "raw_always"), 1


def _member_empty_at_deployment():
    """(c) Left camera 5 is empty before step 1, so it dies at step 0 and its pair drops at every
    step, while pairs (3, 4) and (7, 8) execute."""
    batteries = {3: 1e9, 4: 1e9, 5: 0.0, 6: 1e9, 7: 1e9, 8: 1e9}
    return _group_scenario(batteries, [3, 5, 7], _THREE_PAIRS, [1, 2, 1], "disparity_on_event"), 0


def _relay_survives_a_tight_battery():
    """(d) Relay 1 holds 495 uJ, and the pair's three 116-byte maps leave it 147 uJ: the field
    survives on a tight battery."""
    batteries = {1: 495.0, 3: 1e9, 4: 1e9}
    return _group_scenario(batteries, [3], [(0, 1), (1, 3), (3, 4)], [1, 2, 1], "disparity_always"), "survived"


def _camera_deployed_at_negative_zero():
    """(e) Right camera 4 is deployed with -0.0 uJ, a battery validation accepts: it is dead at
    step 0, so its pair drops at every step."""
    return _group_scenario({3: 1e9, 4: -0.0}, [3], [(0, 3), (3, 4)], [1, 2], "disparity_always"), 0


def _camera_deployed_with_the_least_battery():
    """(f) Left camera 3 is deployed with 5e-324 uJ, the least positive float: it executes step 1,
    its processing charge draws it to 0.0, and its send that step is dropped as origin-dead."""
    return _group_scenario({3: 5e-324, 4: 1e9}, [3], [(0, 3), (3, 4)], [1, 2], "disparity_always"), 1


@settings(max_examples=60, deadline=None)
@given(small_scenarios(), st.none())
@example(_joined_frames_scenario(), None)
@example(*_middle_member_dies_mid_run())
@example(*_relay_emptied_between_members())
@example(*_member_empty_at_deployment())
@example(*_relay_survives_a_tight_battery())
@example(*_camera_deployed_at_negative_zero())
@example(*_camera_deployed_with_the_least_battery())
def test_simulate_writes_the_bytes_of_the_naive_simulator(scenario, lifetime):
    """lifetime, given for a boundary example, is the report's: a step, or "survived"."""
    report = run_simulation(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        save_report(report, out)
        assert out.read_bytes() == naive_run_simulation(scenario)
    if lifetime is not None:
        assert report_to_dict(report)["lifetime"] == lifetime


_json_leaves = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _json_records(draw, values):
    keys = draw(st.lists(st.text(max_size=3), unique=True, max_size=3))
    return [dict(zip(keys, draw(st.lists(values, min_size=len(keys), max_size=len(keys)))))
            for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=300)
@given(st.recursive(
    _json_leaves,
    lambda values: (
        st.lists(values, max_size=4) | st.lists(values, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), values, max_size=4) | _json_records(values)
    ),
    max_leaves=20,
))
@example({"numpy": np.float64(2.5), "flag": True, "text": "\u00e9\n", "zero": -0.0, "big": 10**30})
@example([{"n": 1}, {"n": True}, {"n": 1.0}, {"n": 0}])
@example([{"t": (1, 2)}, {"t": (True, 2)}, {"t": (1.0, 2)}])
@example([-0.0, 5e-324, 1.7976931348623157e308])
@example([-0.0, np.float64(5e-324), 1.7976931348623157e308])
@example([1, True, 2])
@example([1, 2.0])
@example((3, 4))
@example([[1, 2], [3]])
@example([{"s": "\u00e9\n", "b": True, "n": None}, {"s": "a", "b": False, "n": None}])
def test_json_text_writes_what_json_dumps_writes(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


# 1, True and 1.0 are equal but print differently; ints above 256 are distinct
# objects even when equal; each drawn tuple is a new object
_record_values = (
    st.sampled_from([1, True, 1.0, 0, False, 0.0, -0.0, None]) | st.integers(257, 2**70)
    | st.integers(-3, 3) | st.text(max_size=3) | st.floats(allow_nan=False, allow_infinity=False)
    | st.tuples(st.integers(0, 3), st.sampled_from([1, True, 1.0]))
)


@st.composite
def _record_lists(draw):
    cls = draw(st.sampled_from([EventRecord, TransmissionRecord, DropRecord]))
    fields = st.lists(_record_values, min_size=len(cls._fields), max_size=len(cls._fields))
    return [cls(*draw(fields)) for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=300)
@given(_record_lists())
@example([EventRecord(1, (3, 4), 1), EventRecord(True, (3, 4), True), EventRecord(1.0, (3, 4), 1.0),
          EventRecord(None, (3, 4), None)])
@example([TransmissionRecord(1, (3, 4), "raw_frame", 10**6 + k, (4, 3)) for k in (0, 0, 1)])
@example([EventRecord(k, (3, 4), c) for k, c in enumerate([-0.0, 5e-324, 1.7976931348623157e308])])
@example([EventRecord(k, (3, 4), c) for k, c in enumerate([-0.0, np.float64(5e-324), 1.7976931348623157e308])])
@example([TransmissionRecord(1, pair, "raw_frame", 9, path)
          for pair, path in [([1, True, 2], [1, 2.0]), ((3, 4), [[1, 2], [3]]), ((3, 4), (4, 3))]])
def test_json_text_writes_a_record_list_as_json_dumps_writes_its_dicts(records):
    expected = json.dumps([r._asdict() for r in records], indent=2, sort_keys=True, allow_nan=False)
    assert _json_text(records) == expected
    assert _json_text({"records": records}) == json.dumps({"records": [r._asdict() for r in records]},
                                                          indent=2, sort_keys=True, allow_nan=False)


def test_records_are_immutable():
    records = [EventRecord(1, (3, 4), 0.0), TransmissionRecord(1, (3, 4), "raw_frame", 9, (4, 3)),
               DropRecord(1, (3, 4), "camera-dead", 3, None, 0)]
    for record in records:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 2)
        assert type(record)(*record) == record


def test_json_text_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError) as refused:
        json.dumps(np.int64(1))
    with pytest.raises(TypeError) as info:
        _json_text(np.int64(1))
    assert str(info.value) == str(refused.value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_save_report_refuses_a_non_finite_number_and_writes_nothing(tmp_path, value):
    report = run_simulation(make_line_scenario())
    report.nodes[1].deficit_uj = value
    message = f"^Out of range float values are not JSON compliant: {value!r}$"
    with pytest.raises(ValueError, match=message):
        _json_dumps_report(report)
    _assert_refused_and_nothing_written(report, tmp_path / "report.json", message)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_save_report_refuses_a_non_finite_number_in_a_record_and_writes_nothing(tmp_path, value):
    report = run_simulation(make_line_scenario())
    report.events[-1] = report.events[-1]._replace(change=value)
    message = f"^Out of range float values are not JSON compliant: {value!r}$"
    _assert_refused_and_nothing_written(report, tmp_path / "report.json", message)


def _assert_refused_and_nothing_written(report, out, message):
    """save_report raises ValueError matching message, creating no file at
    out and leaving the bytes of a file already there as they were."""
    with pytest.raises(ValueError, match=message):
        save_report(report, out)
    assert not out.exists()
    out.write_bytes(b"an earlier report\n")
    with pytest.raises(ValueError, match=message):
        save_report(report, out)
    assert out.read_bytes() == b"an earlier report\n"


def test_save_report_traces_less_memory_than_the_report_it_writes(tmp_path):
    """Each record is joined from its tokens as it is written, so on a field
    of 20,100 transmissions the writer's traced peak stays below the size of
    its file; rendering the whole document as one string peaks at ~3.3x."""
    frames = shifted_sequence(8, 8, [1] * 200, 3)
    nodes, pairs, links = [SensorNode(0, "sink")], [], []
    for k in range(100):
        left_id, right_id = 2 * k + 1, 2 * k + 2
        nodes += [SensorNode(left_id, "camera", battery=1e9), SensorNode(right_id, "camera", battery=1e9)]
        links += [(0, left_id), (left_id, right_id)]
        pairs.append(StereoPair(left_id, right_id, MatchParams(1, 2, "sad"), frames))
    report = run_simulation(Scenario(nodes=nodes, pairs=pairs, links=links, seed=3))
    assert len(report.transmissions) >= 20_000
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        save_report(report, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size
    assert out.read_bytes() == _json_dumps_report(report)
