"""Deterministic lock-step simulator of a stereo camera sensor field.

Camera pairs capture frames, match them locally into disparity maps, detect
depth-change events, and forward payloads hop by hop to a mains-powered sink
while every battery-powered node pays radio and processing energy. Steps are
numbered from 1 and pairs run in ascending (left, right) node-id order, so a
scenario always produces a bit-identical report.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .imaging import GrayImage, _require_same_dims, parse_pgm, pgm_num_bytes
from .stereo import (
    DisparityMap,
    MatchParams,
    compute_disparity,
    # not used here: perfbench's tracing.SITES lists sensornet.rle_encode_disparity,
    # and its self-test test_absent_site_is_recorded_not_fatal reads it
    rle_encode_disparity,  # noqa: F401
    rle_num_bytes,
    sidecar_num_bytes,
)
from .synthetic import shifted_sequence

__all__ = [
    "ROLES", "POLICIES", "EnergyModel", "SensorNode", "StereoPair", "Scenario",
    "ScenarioError", "RoutingError",
    "EventRecord", "TransmissionRecord", "DropRecord", "NodeReport", "PairReport", "SimReport",
    "route_to_sink", "detect_event", "charge_transmission", "run_simulation", "validate_scenario",
    "scenario_from_dict", "load_scenario", "report_summary", "report_to_dict", "save_report",
]

ROLES = ("camera", "relay", "sink")
POLICIES = ("disparity_on_event", "disparity_always", "raw_always")

_BYTES_PER_64KB = 65536.0


class ScenarioError(ValueError):
    """Scenario construction or validation failed; carries every finding."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class RoutingError(ValueError):
    """A node has no path to the sink."""


@dataclass(frozen=True)
class EnergyModel:
    """Radio and CPU energy rates in microjoules per 64 KiB, scaled linearly by byte count."""

    tx_energy_per_64kb: float = 377.0
    cpu_energy_per_64kb_processed: float = 0.00195

    def __post_init__(self):
        for name in ("tx_energy_per_64kb", "cpu_energy_per_64kb_processed"):
            rate = getattr(self, name)
            if not rate > 0:
                raise ValueError(f"{name} must be positive, got {rate}")
            if rate == math.inf:  # a charge of 0 bytes would cost 0 * inf, NaN
                raise ValueError(f"{name} must be finite, got {rate}")

    def tx_cost(self, nbytes: int) -> float:
        return nbytes * (self.tx_energy_per_64kb / _BYTES_PER_64KB)

    def cpu_cost(self, nbytes: int) -> float:
        return nbytes * (self.cpu_energy_per_64kb_processed / _BYTES_PER_64KB)


@dataclass
class SensorNode:
    """Battery-powered field node, or the mains-powered sink."""

    id: int
    role: str
    battery: float = 0.0

    @property
    def alive(self) -> bool:
        return self.battery > 0.0


@dataclass
class StereoPair:
    """Two camera nodes observing one scene plus their frame schedule.

    The left node runs the matcher and originates sink-bound traffic; the
    right node forwards its frame to the left over an assumed one-hop
    intra-pair link every step.
    """

    left_node: int
    right_node: int
    match_params: MatchParams
    frames: list[tuple[GrayImage, GrayImage]]
    baseline: float = 0.1
    focal_length: float = 100.0


@dataclass
class Scenario:
    """Complete simulation input; run_simulation never mutates it."""

    nodes: list[SensorNode]
    pairs: list[StereoPair]
    links: list[tuple[int, int]]
    policy: str = "disparity_on_event"
    event_threshold: float = 1.0
    seed: int = 0
    energy: EnergyModel = field(default_factory=EnergyModel)


class EventRecord(NamedTuple):
    step: int
    pair: tuple[int, int]
    change: float


class TransmissionRecord(NamedTuple):
    step: int
    pair: tuple[int, int]
    payload: str  # raw_frame | disparity_rle | raw_pair
    bytes: int
    path: tuple[int, ...]


class DropRecord(NamedTuple):
    step: int
    pair: tuple[int, int]
    reason: str  # camera-dead | origin-dead | relay-dead
    node: int
    payload: str | None
    bytes: int


@dataclass
class NodeReport:
    id: int
    role: str
    initial_battery_uj: float
    final_battery_uj: float
    processing_uj: float = 0.0
    transmission_uj: float = 0.0
    bytes_transmitted: int = 0
    deficit_uj: float = 0.0
    died_at_step: int | None = None


@dataclass
class PairReport:
    left: int
    right: int
    width: int
    height: int
    max_disparity: int
    elementary_ops: int
    sidecar_bytes: int
    raw_pair_bytes: int
    rle_bytes_min: int | None = None
    rle_bytes_max: int | None = None


@dataclass
class SimReport:
    """Outcome of one simulation run; field names are the stable interface."""

    policy: str
    steps: int
    event_threshold: float
    seed: int
    nodes: list[NodeReport]
    pairs: list[PairReport]
    events: list[EventRecord]
    transmissions: list[TransmissionRecord]
    drops: list[DropRecord]
    total_elementary_ops: int
    lifetime: int | None  # None means every camera and relay survived


def _route_table(scenario: Scenario) -> dict[int, tuple[int, ...]]:
    """Minimum-hop path to the sink from every node connected to it.

    One breadth-first search from the sink, expanding each hop layer in
    ascending id order, reaches every node first from its smallest-id
    neighbour one hop nearer the sink, which is the route's tie-break. The
    table starts with the sink; a node missing from it has no route. Raises
    RoutingError unless the scenario has exactly one sink.
    """
    sinks = [n.id for n in scenario.nodes if n.role == "sink"]
    if len(sinks) != 1:
        raise RoutingError(f"exactly one sink required, found {len(sinks)}")
    sink = sinks[0]
    nodes = {n.id for n in scenario.nodes}
    adjacency: dict[int, set[int]] = {i: set() for i in nodes}
    for a, b in scenario.links:
        if a in nodes and b in nodes:
            adjacency[a].add(b)
            adjacency[b].add(a)
    routes = {sink: (sink,)}
    frontier = [sink]
    while frontier:
        nxt = []
        for u in sorted(frontier):
            for v in adjacency[u]:
                if v not in routes:
                    routes[v] = (v,) + routes[u]
                    nxt.append(v)
        frontier = nxt
    return routes


def route_to_sink(scenario: Scenario, from_id: int) -> list[int]:
    """Minimum-hop path from a node to the sink over the scenario links.

    Among equal-length paths the walk always takes the smallest next node
    id, so the route is deterministic. Raises RoutingError when the node is
    unknown or disconnected from the sink, or the scenario does not have
    exactly one sink.
    """
    if from_id not in {n.id for n in scenario.nodes}:
        raise RoutingError(f"unknown node {from_id}")
    routes = _route_table(scenario)
    if from_id not in routes:
        raise RoutingError(f"node {from_id} has no route to sink {next(iter(routes))}")
    return list(routes[from_id])


def detect_event(
    prev: DisparityMap | None, curr: DisparityMap, threshold: float
) -> tuple[bool, float]:
    """Depth-change trigger between consecutive disparity maps.

    The change is the mean absolute disparity difference over pixels valid
    in both maps (0 when none are). Triggers when change > threshold; the
    first frame of a sequence, prev None, always triggers with change 0.
    A map compared with itself differs by 0 without a diff.
    """
    if prev is None:
        return True, 0.0
    if prev is curr:
        return 0.0 > threshold, 0.0
    if (prev.width, prev.height) != (curr.width, curr.height):
        raise ValueError(
            f"map dimensions differ: {prev.width}x{prev.height} vs {curr.width}x{curr.height}"
        )
    if prev.max_disparity != curr.max_disparity:
        raise ValueError(
            f"max_disparity differs: {prev.max_disparity} vs {curr.max_disparity}"
        )
    both = prev.valid & curr.valid
    count = int(both.sum())
    if count == 0:
        change = 0.0
    else:
        diff = np.abs(
            prev.disparities.astype(np.int64) - curr.disparities.astype(np.int64)
        )
        change = int(diff[both].sum()) / count
    return change > threshold, change


def _draw(node: SensorNode, cost: float) -> float:
    """Take cost from the battery, flooring it at zero; returns the energy drawn."""
    drawn = cost if node.battery >= cost else node.battery
    node.battery -= drawn
    return drawn


def charge_transmission(
    path: list[SensorNode], nbytes: int, model: EnergyModel
) -> list[tuple[SensorNode, float]]:
    """Charge radio energy along a path; every node but the last transmits.

    Returns (node, energy drawn) per transmitter. A node dying mid-path
    still forwards the in-flight payload. The simulator sends only along a
    live path; a transmitter that is already dead draws nothing, because
    _draw floors at zero.
    """
    cost = model.tx_cost(nbytes)
    return [(node, _draw(node, cost)) for node in path[:-1]]


def validate_scenario(scenario: Scenario) -> list[str]:
    """Every validation finding, each prefixed with the offending location."""
    return _validate(scenario)[0]


def _validate(scenario: Scenario) -> tuple[list[str], dict[int, tuple[int, ...]] | None]:
    """validate_scenario's findings, and _route_table's routes (None without exactly one sink)."""
    errors: list[str] = []
    ids: dict[int, SensorNode] = {}
    for i, node in enumerate(scenario.nodes):
        where = f"nodes[{i}]"
        if node.role not in ROLES:
            errors.append(f"{where}.role: must be one of {ROLES}, got {node.role!r}")
        if not node.battery >= 0:  # also rejects NaN
            errors.append(f"{where}.battery: must be >= 0, got {node.battery}")
        elif node.battery == math.inf:  # _draw would turn inf - inf into NaN
            errors.append(f"{where}.battery: must be finite, got {node.battery}")
        if node.id in ids:
            errors.append(f"{where}.id: duplicate node id {node.id}")
        else:
            ids[node.id] = node
    try:
        routes = _route_table(scenario)
    except RoutingError as exc:
        errors.append(f"nodes: {exc}")
        routes = None
    for i, (a, b) in enumerate(scenario.links):
        if a not in ids or b not in ids:
            errors.append(f"links[{i}]: references unknown node in ({a}, {b})")
        elif a == b:
            errors.append(f"links[{i}]: self-link on node {a}")
    if scenario.policy not in POLICIES:
        errors.append(f"policy: must be one of {POLICIES}, got {scenario.policy!r}")
    if not scenario.event_threshold >= 0:
        errors.append(f"event_threshold: must be >= 0, got {scenario.event_threshold}")

    seen_pairs = set()
    # (left, right) frame objects, by identity, that passed against a step-0 size,
    # and the step-0 sizes and frame tuples, by identity, of pairs whose every frame passed
    passed: set[tuple[int, int, int, int]] = set()
    passed_runs: set[tuple[int, ...]] = set()
    for i, pair in enumerate(scenario.pairs):
        where = f"pairs[{i}]"
        ok_nodes = True
        for side, nid in (("left", pair.left_node), ("right", pair.right_node)):
            if nid not in ids:
                errors.append(f"{where}.{side}: unknown node {nid}")
                ok_nodes = False
            elif ids[nid].role != "camera":
                errors.append(f"{where}.{side}: node {nid} has role {ids[nid].role!r}, not camera")
        if pair.left_node == pair.right_node:
            errors.append(f"{where}: left and right must differ, both are {pair.left_node}")
        key = (pair.left_node, pair.right_node)
        if key in seen_pairs:
            errors.append(f"{where}: duplicate pair {key}")
        seen_pairs.add(key)
        if not pair.baseline > 0:
            errors.append(f"{where}.baseline: must be positive, got {pair.baseline}")
        if not pair.focal_length > 0:
            errors.append(f"{where}.focal_length: must be positive, got {pair.focal_length}")
        if not pair.frames:
            errors.append(f"{where}.frames: at least one step is required")
            continue
        w, h = pair.frames[0][0].width, pair.frames[0][0].height
        run = (w, h, *map(id, pair.frames))
        if run not in passed_runs:
            run_found = len(errors)
            for t, (lf, rf) in enumerate(pair.frames):
                checked = (id(lf), id(rf), w, h)
                if checked in passed:
                    continue
                found = len(errors)
                try:
                    _require_same_dims(lf, rf, "left", "right")
                except ValueError as exc:
                    errors.append(f"{where}.frames[{t}]: {exc}")
                if (lf.width, lf.height) != (w, h):
                    errors.append(
                        f"{where}.frames[{t}]: {lf.width}x{lf.height} differs from step 0 ({w}x{h})"
                    )
                if len(errors) == found:
                    passed.add(checked)
            if len(errors) == run_found:
                passed_runs.add(run)
        for finding in pair.match_params.extent_findings(w, h, "frame"):
            errors.append(f"{where}.match: {finding}")
        if ok_nodes and routes is not None and pair.left_node not in routes:
            errors.append(f"{where}: node {pair.left_node} has no route to sink {next(iter(routes))}")
    return errors, routes


def _perceive(
    left: GrayImage, right: GrayImage, params: MatchParams
) -> tuple[DisparityMap, int, int]:
    """Match one frame pair: its map, nominal elementary_ops and RLE payload bytes."""
    dmap, stats = compute_disparity(left, right, params)
    return dmap, stats.elementary_ops, rle_num_bytes(dmap)


def run_simulation(scenario: Scenario) -> SimReport:
    """Run the lock-step rounds and return the full energy and event ledger.

    Each step, each pair in ascending (left, right) id order: the right
    camera forwards its frame to the left over one hop, the left pays CPU
    energy for both frames plus one output map and runs the matcher, the
    event detector compares against the previous map, and the active policy
    decides whether the RLE-encoded map or the raw frame pair travels the
    minimum-hop route to the sink. Dead nodes neither process nor transmit;
    a payload is dropped at its route's first dead transmitter, origin or
    relay, before any radio charge. The lifetime is the least died_at_step.

    Pairs whose frame tuples are the same objects at every step and whose
    match params are equal form a group. A pair executes a prefix of its
    steps, so every member executing a step saw the group's previous map:
    the step's map, RLE size, event and payload are computed once per group,
    at its first executing member. Perception is pure, so equal (left frame,
    right frame, match params) inputs are matched once: a result is reused
    while some group's most recent step used it. Every executed pair-step
    still pays its energy and counts its nominal elementary_ops.

    Every charge is one _draw, in loop order. A charge that leaves its node
    dead books the deficit and the death; any other charge drew its full cost.
    The ledger tests alive's own comparison, battery > 0.0, inline.
    """
    errors, routes = _validate(scenario)
    if errors:
        raise ScenarioError(errors)
    model = scenario.energy
    policy, threshold = scenario.policy, scenario.event_threshold

    nodes = {n.id: SensorNode(n.id, n.role, n.battery) for n in scenario.nodes}
    # a camera or relay with an empty battery is dead before step 1
    reports = {
        n.id: NodeReport(n.id, n.role, n.battery, n.battery,
                         died_at_step=None if n.alive or n.role == "sink" else 0)
        for n in scenario.nodes
    }
    # Per pair, in step order, each one object or value for the whole run: its
    # group, step count, key, report, cameras and their reports, intra-pair hop
    # (right to left) with the bytes and radio cost of the frame it carries,
    # the left camera's processing cost, and its route with the route's nodes.
    # Every frame of a pair has the step-0 size (validated), so byte counts and
    # costs are per-run constants. Equal match params share a spec number,
    # which the group key holds, so the params are hashed once per pair, not at
    # every step.
    plans, pair_reports, specs, groups, sensing = [], [], {}, {}, []
    for pair in sorted(scenario.pairs, key=lambda p: (p.left_node, p.right_node)):
        w, h = pair.frames[0][0].width, pair.frames[0][0].height
        pr = PairReport(
            left=pair.left_node,
            right=pair.right_node,
            width=w,
            height=h,
            max_disparity=pair.match_params.max_disparity,
            elementary_ops=0,
            sidecar_bytes=sidecar_num_bytes(w, h),
            raw_pair_bytes=2 * pgm_num_bytes(pair.frames[0][0]),
        )
        pair_reports.append(pr)
        spec = specs.setdefault(pair.match_params, len(specs))
        g = groups.setdefault((spec, tuple(map(id, pair.frames))), len(groups))
        if g == len(sensing):
            sensing.append((pair.frames, pair.match_params, spec, pr.raw_pair_bytes))
        frame_bytes = pr.raw_pair_bytes // 2  # both frames weigh the same
        route = routes[pair.left_node]
        plans.append((
            g, len(pair.frames), (pair.left_node, pair.right_node), pr,
            nodes[pair.left_node], reports[pair.left_node],
            nodes[pair.right_node], reports[pair.right_node],
            (pair.right_node, pair.left_node), frame_bytes, model.tx_cost(frame_bytes),
            model.cpu_cost(pr.raw_pair_bytes + pr.sidecar_bytes), route, [nodes[i] for i in route],
        ))

    events: list[EventRecord] = []
    transmissions: list[TransmissionRecord] = []
    drops: list[DropRecord] = []
    # each group's latest map, the event detector's prev
    last: list[DisparityMap | None] = [None] * len(sensing)
    perceived: dict[tuple, tuple[DisparityMap, int, int]] = {}
    used: dict[tuple, tuple[DisparityMap, int, int]] = {}
    steps = max((len(p.frames) for p in scenario.pairs), default=0)

    def sense(g: int, step: int):
        """Group g's step: whether its map is new, its ops, RLE bytes, trigger and change, and the
        (kind, bytes) payload that the policy sends, or None."""
        frames, params, spec, raw_pair_bytes = sensing[g]
        lf, rf = frames[step - 1]
        inputs = (lf, rf, spec)
        result = used.get(inputs)
        if result is None:
            result = used[inputs] = perceived.get(inputs) or _perceive(lf, rf, params)
        dmap, ops, rle_nbytes = result
        prev, last[g] = last[g], dmap
        triggered, change = detect_event(prev, dmap, threshold)
        if policy == "raw_always":
            sent = ("raw_pair", raw_pair_bytes)
        elif triggered or policy == "disparity_always":
            sent = ("disparity_rle", rle_nbytes)
        else:
            sent = None
        return dmap is not prev, ops, rle_nbytes, triggered, change, sent

    def book(rep: NodeReport, step: int, cost: float, drawn: float):
        """Record the deficit and the death of a charge that left its node dead.
        Only a live node is charged, so a node dies once."""
        rep.deficit_uj += cost - drawn
        rep.died_at_step = step

    def transmit(step, key, path_ids, path, kind, nbytes):
        """Send a payload along a route to the sink, or record its drop at the first dead
        transmitter, before any radio charge."""
        for node in path[:-1]:
            if not node.battery > 0.0:
                reason = "origin-dead" if node is path[0] else "relay-dead"
                drops.append(DropRecord(step, key, reason, node.id, kind, nbytes))
                return
        cost = model.tx_cost(nbytes)
        for node, drawn in charge_transmission(path, nbytes, model):
            rep = reports[node.id]
            if not node.battery > 0.0:
                book(rep, step, cost, drawn)
            rep.transmission_uj += drawn
            rep.bytes_transmitted += nbytes
        transmissions.append(TransmissionRecord(step, key, kind, nbytes, path_ids))

    for step in range(1, steps + 1):
        sensed = {}
        for (g, n, key, pr, left, left_rep, right, right_rep,
             hop, frame_bytes, hop_cost, cpu_cost, route, path) in plans:
            if step > n:
                continue
            if not (left.battery > 0.0 and right.battery > 0.0):
                dead = right.id if left.battery > 0.0 else left.id
                drops.append(DropRecord(step, key, "camera-dead", dead, None, 0))
                continue
            # the partner frame crosses the intra-pair link so the left node
            # can match; the right camera is alive, so it is never dropped.
            # A draw that falls short empties its node, so a charge books only
            # when it leaves its node dead.
            drawn = _draw(right, hop_cost)
            if not right.battery > 0.0:
                book(right_rep, step, hop_cost, drawn)
            right_rep.transmission_uj += drawn
            right_rep.bytes_transmitted += frame_bytes
            # tuple.__new__ skips the record class's Python-level __new__
            transmissions.append(tuple.__new__(TransmissionRecord, (step, key, "raw_frame", frame_bytes, hop)))

            drawn = _draw(left, cpu_cost)
            if not left.battery > 0.0:
                book(left_rep, step, cpu_cost, drawn)
            left_rep.processing_uj += drawn

            s = sensed.get(g)
            if s is None:
                s = sensed[g] = sense(g, step)
            new, ops, rle_nbytes, triggered, change, sent = s
            pr.elementary_ops += ops
            if new:  # a map keeps its RLE size, so only a new map moves the range
                pr.rle_bytes_min = rle_nbytes if pr.rle_bytes_min is None else min(pr.rle_bytes_min, rle_nbytes)
                pr.rle_bytes_max = rle_nbytes if pr.rle_bytes_max is None else max(pr.rle_bytes_max, rle_nbytes)
            if triggered:
                events.append(EventRecord(step, key, change))
            if sent:
                transmit(step, key, route, path, *sent)
        perceived, used = used, {}

    for nid, node in nodes.items():
        reports[nid].final_battery_uj = node.battery

    deaths = [r.died_at_step for r in reports.values() if r.died_at_step is not None]
    return SimReport(
        policy=scenario.policy,
        steps=steps,
        event_threshold=scenario.event_threshold,
        seed=scenario.seed,
        nodes=[reports[nid] for nid in sorted(reports)],
        pairs=pair_reports,
        events=events,
        transmissions=transmissions,
        drops=drops,
        total_elementary_ops=sum(pr.elementary_ops for pr in pair_reports),
        # first death: only a camera or relay is ever booked one, so the sink never counts
        lifetime=min(deaths, default=None),
    )


# ---------------------------------------------------------------------------
# scenario file format


def _type_name(value) -> str:
    return type(value).__name__


# JSON value kinds. true and false are Python ints, but a scenario never takes them as numbers
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value, kind) -> bool:
    """[a, b]: a two-item list whose items both pass the predicate kind."""
    return isinstance(value, list) and len(value) == 2 and all(map(kind, value))


def _finite_float(value: int | float) -> float | None:
    """The number as a float, or None when it is not finite.

    Python's json module accepts NaN and Infinity and integers beyond the
    float range; none of them may reach a report, which must be RFC 8259.
    """
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


class _Loader:
    """Builds a Scenario from a JSON-shaped dict, collecting every error."""

    def __init__(self, base_dir: Path | None):
        self.base_dir = base_dir
        self.errors: list[str] = []
        # equal synthetic frames and equal match specs are one object each,
        # so the simulator's memos match them by identity first
        self.sequences: dict[tuple, list[tuple[GrayImage, GrayImage]]] = {}
        self.match_specs: dict[MatchParams, MatchParams] = {}

    def fail(self, where: str, message: str):
        self.errors.append(f"{where}: {message}")

    def expect_object(self, where: str, obj, allowed: set[str]) -> bool:
        """Whether obj is a JSON object; its keys outside allowed are reported."""
        if not isinstance(obj, dict):
            self.fail(where, f"must be an object, got {_type_name(obj)}")
            return False
        for k in sorted(set(obj) - allowed):
            self.fail(f"{where}.{k}", "unknown key")
        return True

    def get_int(self, where: str, obj: dict, key: str, default=None, minimum=None):
        if key not in obj:
            if default is None:
                self.fail(f"{where}.{key}", "required")
            return default
        v = obj[key]
        if not _is_int(v):
            self.fail(f"{where}.{key}", f"must be an integer, got {_type_name(v)}")
            return None
        if minimum is not None and v < minimum:
            self.fail(f"{where}.{key}", f"must be >= {minimum}, got {v}")
            return None
        return v

    def get_number(self, where: str, obj: dict, key: str, default=None):
        if key not in obj:
            return default
        v = obj[key]
        if not _is_number(v):
            self.fail(f"{where}.{key}", f"must be a number, got {_type_name(v)}")
            return None
        number = _finite_float(v)
        if number is None:
            shown = v if isinstance(v, float) else "an integer beyond the float range"
            self.fail(f"{where}.{key}", f"must be a finite number, got {shown}")
        return number

    def load_node(self, where: str, obj) -> SensorNode | None:
        if not self.expect_object(where, obj, {"id", "role", "battery", "position"}):
            return None
        nid = self.get_int(where, obj, "id")
        role = obj.get("role")
        if not isinstance(role, str):
            self.fail(f"{where}.role", "required string")
            role = None
        battery = self.get_number(where, obj, "battery", default=SensorNode.battery)
        # position is checked but not stored: nothing in the simulation reads it
        if "position" in obj:
            p = obj["position"]
            if not (_is_pair(p, _is_number) and None not in map(_finite_float, p)):
                self.fail(f"{where}.position", "must be a [x, y] pair of finite numbers")
        if nid is None or role is None or battery is None:
            return None
        return SensorNode(id=nid, role=role, battery=battery)

    def load_fields(self, where: str, obj, cls, readers: dict):
        """A cls built from a JSON object's fields (null means {}), or None after a finding.

        Each field present is read by readers[key](where, obj, key). A field
        that fails its own check is left out, so its dataclass default stands
        in and cls still checks the others; a ValueError from cls is one
        finding at where.
        """
        if obj is None:
            obj = {}
        if not self.expect_object(where, obj, set(readers)):
            return None
        before = len(self.errors)
        fields = {}
        for key, read in readers.items():
            if key in obj:
                found = len(self.errors)
                value = read(where, obj, key)
                if len(self.errors) == found:
                    fields[key] = value
        try:
            built = cls(**fields)
        except ValueError as exc:
            self.fail(where, str(exc))
            return None
        return built if len(self.errors) == before else None

    def load_match(self, where: str, obj) -> MatchParams | None:
        count = partial(self.get_int, minimum=0)
        # method is passed as given: JSON null is a value, which MatchParams reports
        readers = {"window_radius": count, "max_disparity": count, "method": lambda w, o, k: o[k]}
        params = self.load_fields(where, obj, MatchParams, readers)
        return None if params is None else self.match_specs.setdefault(params, params)

    def load_frames(self, where: str, obj, scenario_seed: int):
        if not self.expect_object(where, obj, {"files", "synthetic"}):
            return None
        if ("files" in obj) == ("synthetic" in obj):
            self.fail(where, "exactly one of 'files' or 'synthetic' is required")
            return None
        if "files" in obj:
            return self.load_frame_files(f"{where}.files", obj["files"])
        return self.load_synthetic(f"{where}.synthetic", obj["synthetic"], scenario_seed)

    def load_frame_files(self, where: str, entries):
        if not isinstance(entries, list) or not entries:
            self.fail(where, "must be a non-empty list of [left, right] path pairs")
            return None
        frames = []
        for t, entry in enumerate(entries):
            if not _is_pair(entry, lambda side: isinstance(side, str)):
                self.fail(f"{where}[{t}]", "must be a [left, right] path pair")
                return None
            sides = []
            for s, rel in enumerate(entry):
                path = Path(rel)
                if self.base_dir is not None and not path.is_absolute():
                    path = self.base_dir / path
                try:
                    sides.append(parse_pgm(path.read_bytes()))
                except OSError as exc:
                    self.fail(f"{where}[{t}][{s}]", f"cannot read {path}: {exc}")
                except ValueError as exc:
                    self.fail(f"{where}[{t}][{s}]", f"{path}: {exc}")
            if len(sides) == 2:
                frames.append((sides[0], sides[1]))
            else:
                return None
        return frames

    def load_synthetic(self, where: str, obj, scenario_seed: int):
        allowed = {"width", "height", "steps", "shift_per_step", "seed"}
        if not self.expect_object(where, obj, allowed):
            return None
        width = self.get_int(where, obj, "width", minimum=1)
        height = self.get_int(where, obj, "height", minimum=1)
        seed = self.get_int(where, obj, "seed", default=scenario_seed, minimum=0)
        raw = obj.get("shift_per_step", 0)
        if isinstance(raw, list):
            # _is_int reads a value's type alone, so one value of each type stands for them all
            if not raw or not all(map(_is_int, dict(zip(map(type, raw), raw)).values())):
                self.fail(f"{where}.shift_per_step", "must be a non-empty list of integers")
                return None
            shifts = raw
            steps = self.get_int(where, obj, "steps", default=len(shifts), minimum=1)
            if steps is not None and steps != len(shifts):
                self.fail(
                    f"{where}.steps",
                    f"disagrees with shift_per_step length ({steps} vs {len(shifts)})",
                )
                return None
        elif _is_int(raw):
            steps = self.get_int(where, obj, "steps", minimum=1)
            try:
                shifts = None if steps is None else [raw] * steps
            except (OverflowError, MemoryError):
                self.fail(f"{where}.steps", f"too many steps to hold in memory, got {steps}")
                return None
        else:
            self.fail(f"{where}.shift_per_step", "must be an integer or a list of integers")
            return None
        if width is None or height is None or seed is None or shifts is None:
            return None
        spec = (width, height, tuple(shifts), seed)
        if spec not in self.sequences:
            try:
                self.sequences[spec] = shifted_sequence(width, height, shifts, seed)
            except ValueError as exc:
                self.fail(where, str(exc))
                return None
        return list(self.sequences[spec])

    def load_pair(self, where: str, obj, scenario_seed: int) -> StereoPair | None:
        allowed = {"left", "right", "baseline", "focal_length", "match", "frames"}
        if not self.expect_object(where, obj, allowed):
            return None
        left = self.get_int(where, obj, "left")
        right = self.get_int(where, obj, "right")
        baseline = self.get_number(where, obj, "baseline", default=StereoPair.baseline)
        focal = self.get_number(where, obj, "focal_length", default=StereoPair.focal_length)
        match = self.load_match(f"{where}.match", obj.get("match"))
        if "frames" not in obj:
            self.fail(f"{where}.frames", "required")
            return None
        frames = self.load_frames(f"{where}.frames", obj["frames"], scenario_seed)
        if None in (left, right, baseline, focal, match) or frames is None:
            return None
        return StereoPair(
            left_node=left,
            right_node=right,
            match_params=match,
            frames=frames,
            baseline=baseline,
            focal_length=focal,
        )

    def load_energy(self, where: str, obj) -> EnergyModel | None:
        readers = dict.fromkeys(("tx_energy_per_64kb", "cpu_energy_per_64kb_processed"), self.get_number)
        return self.load_fields(where, obj, EnergyModel, readers)


def scenario_from_dict(data: dict, base_dir: Path | str | None = None) -> Scenario:
    """Build a Scenario from the documented JSON structure.

    Frame file paths resolve relative to base_dir. Raises ScenarioError
    listing every structural problem with its JSON path.
    """
    loader = _Loader(Path(base_dir) if base_dir is not None else None)
    if not loader.expect_object(
        "$", data, {"nodes", "pairs", "links", "policy", "event_threshold", "seed", "energy"}
    ):
        raise ScenarioError(loader.errors)
    seed = loader.get_int("$", data, "seed", default=Scenario.seed, minimum=0)
    policy = data.get("policy", Scenario.policy)
    if not isinstance(policy, str) or policy not in POLICIES:
        loader.fail("$.policy", f"must be one of {POLICIES}, got {policy!r}")
    threshold = loader.get_number("$", data, "event_threshold", default=Scenario.event_threshold)
    energy = loader.load_energy("$.energy", data.get("energy"))

    nodes = []
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        loader.fail("$.nodes", "must be a non-empty list")
    else:
        for i, obj in enumerate(raw_nodes):
            node = loader.load_node(f"nodes[{i}]", obj)
            if node is not None:
                nodes.append(node)

    links = []
    raw_links = data.get("links", [])
    if not isinstance(raw_links, list):
        loader.fail("$.links", f"must be a list, got {_type_name(raw_links)}")
    else:
        for i, obj in enumerate(raw_links):
            if _is_pair(obj, _is_int):
                links.append((obj[0], obj[1]))
            else:
                loader.fail(f"links[{i}]", "must be an [a, b] node id pair")

    pairs = []
    raw_pairs = data.get("pairs")
    if not isinstance(raw_pairs, list):
        loader.fail("$.pairs", "must be a list")
    else:
        # a bad seed is reported already; frames still load so that their findings are listed
        frame_seed = Scenario.seed if seed is None else seed
        for i, obj in enumerate(raw_pairs):
            pair = loader.load_pair(f"pairs[{i}]", obj, frame_seed)
            if pair is not None:
                pairs.append(pair)

    if loader.errors:
        raise ScenarioError(loader.errors)
    return Scenario(
        nodes=nodes,
        pairs=pairs,
        links=links,
        policy=policy,
        event_threshold=threshold,
        seed=seed,
        energy=energy,
    )


def load_scenario(path: Path | str) -> Scenario:
    """Read and build a scenario file; frame paths resolve beside it."""
    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except RecursionError:
        raise ScenarioError(["$: nested too deeply to parse"]) from None
    except ValueError as exc:  # not JSON, or not in a Unicode encoding
        raise ScenarioError([f"$: not valid JSON: {exc}"]) from None
    return scenario_from_dict(data, base_dir=path.parent)


def report_summary(report: SimReport) -> dict:
    """The lifetime and totals entries of report_to_dict, which simulate also prints."""
    return {
        "lifetime": "survived" if report.lifetime is None else report.lifetime,
        "totals": {
            "processing_uj": sum(n.processing_uj for n in report.nodes),
            "transmission_uj": sum(n.transmission_uj for n in report.nodes),
            "bytes_transmitted": sum(n.bytes_transmitted for n in report.nodes),
            "elementary_ops": report.total_elementary_ops,
            "events": len(report.events),
            "transmissions": len(report.transmissions),
            "drops": len(report.drops),
        },
    }


def _report_doc(report: SimReport) -> dict:
    """The report document, its event, transmission and drop lists holding the records themselves."""
    return {
        "schema": "stereosim-report-v1",
        "policy": report.policy,
        "steps": report.steps,
        "event_threshold": report.event_threshold,
        "seed": report.seed,
        **report_summary(report),
        "nodes": [dict(vars(n)) for n in report.nodes],
        "pairs": [dict(vars(p)) for p in report.pairs],
        "events": report.events,
        "transmissions": report.transmissions,
        "drops": report.drops,
    }


def report_to_dict(report: SimReport) -> dict:
    """JSON-ready form of a report; key names are the stable interface.

    Every record becomes a dict of its fields, whose names are the JSON
    keys; tuples such as `pair` and `path` serialise as JSON arrays.
    """
    doc = _report_doc(report)
    for name in ("events", "transmissions", "drops"):
        doc[name] = [record._asdict() for record in doc[name]]
    return doc


def _float_token(value: float) -> str:
    """A float as json.dumps writes it with allow_nan=False."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# the token json.dumps writes for a value of each scalar type
_SCALAR_TOKENS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_token,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False) writes it at pad.

    It is the join of the parts that _json_parts gives and save_report writes.
    """
    return "".join(_json_parts(value, pad))


def _json_parts(value, pad: str = "") -> Iterable[str]:
    """value as _json_text writes it at pad, in the parts that save_report writes.

    value is JSON-ready, with string keys, except that a list of named
    tuples of one class, such as a report's record lists, renders as the
    list of their _asdict() would. Such a list, and a list of objects that
    share one key set, renders column by column.

    Every token is built, and every error raised, before this returns. The
    parts only join tokens: an object's members follow each other as parts,
    and each item of a list is one part, joined from its tokens as it is
    read, so no part holds a whole list.
    """
    token = _SCALAR_TOKENS.get(type(value))
    if token is not None:
        return (token(value),)
    if isinstance(value, dict):
        if not value:
            return ("{}",)
        inner = pad + "  "
        parts = []
        for n, k in enumerate(sorted(value)):
            parts.append((_member_lead(n, k, inner),))
            parts.append(_json_parts(value[k], inner))
        parts.append(("\n" + pad + "}",))
        return chain.from_iterable(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return ("[]",)
        inner = pad + "  "
        first = value[0]
        fields = getattr(type(first), "_fields", None)
        if fields and len(set(map(type, value))) == 1:
            columns = _json_objects({k: [r[i] for r in value] for i, k in enumerate(fields)}, inner)
        elif isinstance(first, dict) and first and all(
            isinstance(v, dict) and v.keys() == first.keys() for v in value
        ):
            columns = _json_objects({k: [obj[k] for obj in value] for k in first}, inner)
        else:
            columns = [_json_column(value, inner)]
        leads = chain(("[\n" + inner,), repeat(",\n" + inner))
        return chain(map("".join, zip(leads, *columns)), ("\n" + pad + "]",))
    for cls in (str, int, float):  # a subclass, such as numpy.float64, encodes as its base
        if isinstance(value, cls):
            return (_SCALAR_TOKENS[cls](value),)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _member_lead(n: int, key: str, pad: str) -> str:
    """The text before the value of an object's member n (from 0), whose key is key, at pad."""
    return ("{\n" if n == 0 else ",\n") + pad + encode_basestring_ascii(key) + ": "


def _json_objects(columns: dict[str, Sequence], pad: str) -> list[Iterable[str]]:
    """The columns of parts whose zip joins, row by row, to the objects whose
    values under each key are columns[key], each as _json_text writes it at pad.

    Every column is non-empty and equally long. The text between the tokens
    is the same for every object, so it is one repeated part.
    """
    inner = pad + "  "
    parts = []
    for n, k in enumerate(sorted(columns)):
        parts.append(repeat(_member_lead(n, k, inner)))
        parts.append(_json_column(columns[k], inner))
    parts.append(repeat("\n" + pad + "}"))
    return parts


def _json_column(values: Sequence, pad: str) -> Iterable[str]:
    """Each of values as _json_text writes it at pad, every token built before this returns.

    Values that all have one scalar type exactly (int, float, str, bool or
    NoneType; True is a bool here, not an int), such as a `step` or `change`
    column or the ints of a `pair`, render through that type's token. Such
    a column of int, str, bool or None renders each distinct value once,
    keyed by value; a float column renders value by value, since -0.0 and
    0.0 are equal keys with different tokens. Otherwise each value object
    renders once, keyed by id: values holds every value until the tokens
    are read, so an id stands for one value, and 1, True and 1.0 are
    distinct objects with distinct tokens.
    """
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind is float:
        return list(map(_float_token, values))
    token = _SCALAR_TOKENS.get(kind)
    if token is not None:
        memo = {value: token(value) for value in set(values)}
        return map(memo.__getitem__, values)
    distinct = dict(zip(map(id, values), values))
    memo = {i: _json_text(value, pad) for i, value in distinct.items()}
    return map(memo.__getitem__, map(id, values))


def save_report(report: SimReport, path: Path | str):
    """Write the report JSON byte-deterministically.

    The bytes equal json.dumps(report_to_dict(report), indent=2,
    sort_keys=True, allow_nan=False) plus a newline; a non-finite number
    raises ValueError and writes nothing. The record lists are rendered
    from the records themselves, without a dict per record, and each record
    is joined from its tokens as it is written.
    """
    parts = _json_parts(_report_doc(report))  # raises, if at all, before the file is opened
    with open(path, "w") as f:
        f.writelines(parts)
        f.write("\n")
