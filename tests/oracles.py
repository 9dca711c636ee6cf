"""Independent brute-force references the tests check the library against.

Everything here is deliberately naive: plain Python loops over lists, no
shared code with the implementation under test.
"""

import json
import math


def naive_window_cost(left_px, right_px, x, y, d, radius, method):
    """Double-loop window cost over plain nested lists."""
    total = 0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            diff = left_px[y + dy][x + dx] - right_px[y + dy][x - d + dx]
            total += abs(diff) if method == "sad" else diff * diff
    return total


def naive_disparity(left_px, right_px, radius, max_disparity, method):
    """Quadruple-loop winner-takes-all reference.

    A pixel is valid only if the window fits in the left image and in the
    right image at every candidate disparity; ties keep the smallest d.
    Returns (disparities, valid) as nested lists.
    """
    h = len(left_px)
    w = len(left_px[0])
    disp = [[0] * w for _ in range(h)]
    valid = [[False] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            best_cost = None
            best_d = 0
            in_bounds = True
            for d in range(max_disparity + 1):
                if (
                    y - radius < 0
                    or y + radius >= h
                    or x - radius < 0
                    or x + radius >= w
                    or x - d - radius < 0
                    or x - d + radius >= w
                ):
                    in_bounds = False
                    break
                cost = naive_window_cost(left_px, right_px, x, y, d, radius, method)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_d = d
            if in_bounds:
                disp[y][x] = best_d
                valid[y][x] = True
    return disp, valid


def naive_ssim(a_px, b_px, side, k1=0.01, k2=0.03, dynamic_range=255):
    """Mean ssim over every side x side window, from exact Python integer sums.

    Window sums come from integral images of plain ints; each score follows
    the documented formula in its documented operation order, and the
    scores are totaled with math.fsum.
    """
    h = len(a_px)
    w = len(a_px[0])

    def integral(f):
        table = [[0] * (w + 1) for _ in range(h + 1)]
        for y in range(h):
            for x in range(w):
                table[y + 1][x + 1] = (
                    f(a_px[y][x], b_px[y][x]) + table[y][x + 1] + table[y + 1][x] - table[y][x]
                )
        return table

    tables = [
        integral(lambda p, q: p),
        integral(lambda p, q: q),
        integral(lambda p, q: p * p),
        integral(lambda p, q: q * q),
        integral(lambda p, q: p * q),
    ]
    n = side * side
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    scores = []
    for y in range(h - side + 1):
        for x in range(w - side + 1):
            s_a, s_b, s_aa, s_bb, s_ab = (
                float(t[y + side][x + side] - t[y][x + side] - t[y + side][x] + t[y][x])
                for t in tables
            )
            mu_a = s_a / n
            mu_b = s_b / n
            var_a = (s_aa - s_a * s_a / n) / (n - 1)
            var_b = (s_bb - s_b * s_b / n) / (n - 1)
            cov = (s_ab - s_a * s_b / n) / (n - 1)
            num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
            den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
            scores.append(num / den)
    return math.fsum(scores) / len(scores)


def naive_window_sums(px, side):
    """Every side x side window sum, by a double loop per window."""
    return [
        [
            sum(px[y + dy][x + dx] for dy in range(side) for dx in range(side))
            for x in range(len(px[0]) - side + 1)
        ]
        for y in range(len(px) - side + 1)
    ]


def naive_mean_abs_change(prev_disp, prev_valid, curr_disp, curr_valid):
    """Mean absolute disparity difference over commonly valid pixels."""
    total = 0
    count = 0
    for y in range(len(prev_disp)):
        for x in range(len(prev_disp[0])):
            if prev_valid[y][x] and curr_valid[y][x]:
                total += abs(prev_disp[y][x] - curr_disp[y][x])
                count += 1
    return total / count if count else 0.0


def all_simple_paths(adjacency, src, dst):
    """Every simple path between two nodes, by exhaustive DFS."""
    paths = []

    def walk(node, seen, path):
        if node == dst:
            paths.append(list(path))
            return
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                walk(nxt, seen, path)
                path.pop()
                seen.remove(nxt)

    walk(src, {src}, [src])
    return paths


def count_rle_records(disp_rows, valid_rows, max_run=0xFFFF):
    """Number of run records a row-wise encoder must emit."""
    records = 0
    for drow, vrow in zip(disp_rows, valid_rows):
        x = 0
        while x < len(drow):
            key = (drow[x], vrow[x])
            run = 0
            while x < len(drow) and (drow[x], vrow[x]) == key:
                run += 1
                x += 1
            records += (run + max_run - 1) // max_run
    return records


def naive_depth_json(dmap, depth):
    """The depth document as one dict, a per-pixel list and one json.dumps."""
    flat = [
        float(depth.depths[y, x]) if depth.available[y, x] else None
        for y in range(dmap.height)
        for x in range(dmap.width)
    ]
    doc = {
        "width": dmap.width,
        "height": dmap.height,
        "focal_length": depth.focal_length,
        "baseline": depth.baseline,
        "depths_m": flat,
    }
    return json.dumps(doc)


def naive_run_simulation(scenario):
    """The README's step rules as plain loops, returning the report's bytes.

    No memo of any kind: every executed pair-step runs naive_disparity and
    compares against the pair's previous map, and every route is the
    minimum-hop path from all_simple_paths, smallest ids first among equal
    lengths. Each charge draws min(cost, battery), so a battery floors at
    zero. The report is written by json.dumps. The scenario must be valid.
    """
    tx_rate = scenario.energy.tx_energy_per_64kb / 65536.0
    cpu_rate = scenario.energy.cpu_energy_per_64kb_processed / 65536.0
    battery = {n.id: n.battery for n in scenario.nodes}
    ledger = {
        n.id: {
            "id": n.id,
            "role": n.role,
            "initial_battery_uj": n.battery,
            "final_battery_uj": n.battery,
            "processing_uj": 0.0,
            "transmission_uj": 0.0,
            "bytes_transmitted": 0,
            "deficit_uj": 0.0,
            # a camera or relay that starts empty is dead before step 1
            "died_at_step": 0 if n.role != "sink" and n.battery <= 0.0 else None,
        }
        for n in scenario.nodes
    }
    sink = [n.id for n in scenario.nodes if n.role == "sink"][0]
    adjacency = {}
    for a, b in scenario.links:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    def route(src):
        paths = all_simple_paths(adjacency, src, sink) if src != sink else [[sink]]
        shortest = min(len(p) for p in paths)
        return min(p for p in paths if len(p) == shortest)

    def charge(node_id, cost, step, column):
        drawn = cost if battery[node_id] >= cost else battery[node_id]
        battery[node_id] -= drawn
        entry = ledger[node_id]
        entry["deficit_uj"] += cost - drawn
        entry[column] += drawn
        if battery[node_id] <= 0.0 and entry["died_at_step"] is None:
            entry["died_at_step"] = step

    events, transmissions, drops = [], [], []

    def transmit(step, pair, path, nbytes, kind):
        for node_id in path[:-1]:
            if battery[node_id] <= 0.0:
                reason = "origin-dead" if node_id == path[0] else "relay-dead"
                drops.append({"step": step, "pair": pair, "reason": reason, "node": node_id,
                              "payload": kind, "bytes": nbytes})
                return
        for node_id in path[:-1]:
            charge(node_id, nbytes * tx_rate, step, "transmission_uj")
            ledger[node_id]["bytes_transmitted"] += nbytes
        transmissions.append({"step": step, "pair": pair, "payload": kind, "bytes": nbytes,
                              "path": list(path)})

    pairs = sorted(scenario.pairs, key=lambda p: (p.left_node, p.right_node))
    pair_docs = {}
    for pair in pairs:
        w, h = pair.frames[0][0].width, pair.frames[0][0].height
        pgm_bytes = len(b"P5\n%d %d\n255\n" % (w, h)) + w * h
        pair_docs[pair.left_node, pair.right_node] = {
            "left": pair.left_node,
            "right": pair.right_node,
            "width": w,
            "height": h,
            "max_disparity": pair.match_params.max_disparity,
            "elementary_ops": 0,
            "sidecar_bytes": 16 + 3 * w * h,
            "raw_pair_bytes": 2 * pgm_bytes,
            "rle_bytes_min": None,
            "rle_bytes_max": None,
        }

    previous = {}
    steps = max((len(p.frames) for p in pairs), default=0)
    for step in range(1, steps + 1):
        for pair in pairs:
            if step > len(pair.frames):
                continue
            key = [pair.left_node, pair.right_node]
            doc = pair_docs[pair.left_node, pair.right_node]
            if battery[pair.left_node] <= 0.0 or battery[pair.right_node] <= 0.0:
                dead = pair.left_node if battery[pair.left_node] <= 0.0 else pair.right_node
                drops.append({"step": step, "pair": key, "reason": "camera-dead", "node": dead,
                              "payload": None, "bytes": 0})
                continue
            transmit(step, key, [pair.right_node, pair.left_node], doc["raw_pair_bytes"] // 2,
                     "raw_frame")
            workload = doc["raw_pair_bytes"] + doc["sidecar_bytes"]
            charge(pair.left_node, workload * cpu_rate, step, "processing_uj")

            params = pair.match_params
            left, right = pair.frames[step - 1]
            disp, valid = naive_disparity(
                left.pixels.tolist(), right.pixels.tolist(),
                params.window_radius, params.max_disparity, params.method,
            )
            valid_count = sum(map(sum, valid))
            doc["elementary_ops"] += valid_count * (params.max_disparity + 1) * (
                2 * params.window_radius + 1
            ) ** 2
            rle_bytes = 16 + 5 * count_rle_records(disp, valid)
            for bound, pick in (("rle_bytes_min", min), ("rle_bytes_max", max)):
                doc[bound] = rle_bytes if doc[bound] is None else pick(doc[bound], rle_bytes)

            prev = previous.get((pair.left_node, pair.right_node))
            if prev is None:
                triggered, change = True, 0.0
            else:
                change = naive_mean_abs_change(prev[0], prev[1], disp, valid)
                triggered = change > scenario.event_threshold
            previous[pair.left_node, pair.right_node] = (disp, valid)
            if triggered:
                events.append({"step": step, "pair": key, "change": change})

            if scenario.policy == "raw_always":
                transmit(step, key, route(pair.left_node), doc["raw_pair_bytes"], "raw_pair")
            elif scenario.policy == "disparity_always" or triggered:
                transmit(step, key, route(pair.left_node), rle_bytes, "disparity_rle")

    nodes = [ledger[i] for i in sorted(ledger)]
    for entry in nodes:
        entry["final_battery_uj"] = battery[entry["id"]]
    deaths = [
        e["died_at_step"] for e in nodes
        if e["role"] in ("camera", "relay") and e["died_at_step"] is not None
    ]
    doc = {
        "schema": "stereosim-report-v1",
        "policy": scenario.policy,
        "steps": steps,
        "event_threshold": scenario.event_threshold,
        "seed": scenario.seed,
        "lifetime": min(deaths) if deaths else "survived",
        "totals": {
            "processing_uj": sum(e["processing_uj"] for e in nodes),
            "transmission_uj": sum(e["transmission_uj"] for e in nodes),
            "bytes_transmitted": sum(e["bytes_transmitted"] for e in nodes),
            "elementary_ops": sum(d["elementary_ops"] for d in pair_docs.values()),
            "events": len(events),
            "transmissions": len(transmissions),
            "drops": len(drops),
        },
        "nodes": nodes,
        "pairs": [pair_docs[p.left_node, p.right_node] for p in pairs],
        "events": events,
        "transmissions": transmissions,
        "drops": drops,
    }
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
