"""Correctness checks computed apart from the program.

Each check reads the files a run wrote (report CSV/JSON, the generated
inputs) with the standard library only and recomputes a result by its own
method: energy by a piecewise-constant sum and by its own evaluation of the
power polynomial, trace-VM completion times by an exact processor-sharing
replay, offered rates by a bisect into the generated series. A check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import json
import math
import os

#: Relative tolerance for energy re-integration (float summation order).
ENERGY_RTOL = 1e-9
#: Absolute tolerance, in seconds, for replayed completion times.
TIME_ATOL = 1e-6


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def poly(coefficients, u: float) -> float:
    """The program's power-polynomial layout, evaluated by Horner's rule:
    ``c0*u + c1*u^2 + ... + c_{d-1}*u^d + c_d`` (constant last)."""
    *powers, constant = coefficients
    acc = 0.0
    for c in reversed(powers):
        acc = (acc + c) * u
    return acc + constant


def _series(rows: list[dict], key: str, value: str) -> dict[str, list[tuple[float, float]]]:
    out: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        out.setdefault(row[key], []).append((float(row["time_s"]), float(row[value])))
    return out


def _integrate(points: list[tuple[float, float]], end: float) -> float:
    """Watt-hours of a series whose values hold until the next point."""
    watt_seconds = 0.0
    for i, (t0, value) in enumerate(points):
        t1 = points[i + 1][0] if i + 1 < len(points) else end
        watt_seconds += value * (t1 - t0)
    return watt_seconds / 3600.0


def _close(a: float, b: float, rtol: float = ENERGY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def power_off_intervals(actions: list[dict], server_ids, initially_off,
                        latency: float, end: float) -> dict[str, list[tuple[float, float]]]:
    """When each server was powered off, rebuilt from the action log.

    An enacted power-off (power-on) takes effect ``latency`` seconds later,
    unless the log shows it aborted at that instant because the server was
    no longer empty.
    """
    aborted = {
        (row["subject"], float(row["time_s"]))
        for row in actions
        if row["action"] == "power-off" and row["outcome"].startswith("aborted")
    }
    changes: dict[str, list[tuple[float, bool]]] = {sid: [] for sid in server_ids}
    for row in actions:
        if row["outcome"] != "enacted" or row["action"] not in ("power-on", "power-off"):
            continue
        when = float(row["time_s"]) + latency
        if when > end:
            continue
        off = row["action"] == "power-off"
        if off and (row["subject"], when) in aborted:
            continue
        changes[row["subject"]].append((when, off))
    out: dict[str, list[tuple[float, float]]] = {}
    for sid in server_ids:
        intervals, off_since = [], 0.0 if sid in initially_off else None
        for when, off in sorted(changes[sid]):
            if off and off_since is None:
                off_since = when
            elif not off and off_since is not None:
                intervals.append((off_since, when))
                off_since = None
        if off_since is not None:
            intervals.append((off_since, end))
        out[sid] = intervals
    return out


def check_energy(report_dir: str, model: dict, sim: dict) -> list[str]:
    """Energy in summary.csv against two independent re-integrations.

    1. power.csv summed as a piecewise-constant series.
    2. utilization.csv through this module's own evaluation of each
       server's power polynomial, with the idle-off draw while the action
       log says the server was off.
    Also: every utilization lies in [0, 1].
    """
    problems: list[str] = []
    end = float(sim["end_time"])
    summary = {row["server_id"]: float(row["energy_wh"])
               for row in _read_csv(os.path.join(report_dir, "summary.csv"))}
    power = _series(_read_csv(os.path.join(report_dir, "power.csv")), "server_id", "power_w")
    util = _series(_read_csv(os.path.join(report_dir, "utilization.csv")),
                   "server_id", "utilization")
    actions = _read_csv(os.path.join(report_dir, "actions.csv"))
    servers = {s["id"]: s for s in model["servers"]}
    initially_off = {sid for sid, state in model.get("initial_power_states", {}).items()
                     if state == "off"}
    off = power_off_intervals(actions, servers, initially_off,
                              float(sim.get("power_transition_latency", 0.0)), end)

    total = 0.0
    for sid, spec in servers.items():
        coefficients = model["power_models"][spec["power_model_id"]]["coefficients"]
        from_power = _integrate(power.get(sid, []), end)
        if not _close(from_power, summary.get(sid, math.nan)):
            problems.append(f"{sid}: power.csv integrates to {from_power!r} Wh, "
                            f"summary says {summary.get(sid)!r}")
        points = util.get(sid, [])
        for t, u in points:
            if not 0.0 <= u <= 1.0:
                problems.append(f"{sid}: utilization {u!r} at t={t} outside [0, 1]")
        cuts = sorted({t for t, _ in points}
                      | {t for interval in off[sid] for t in interval})
        watt_seconds = 0.0
        for i, t0 in enumerate(cuts):
            t1 = cuts[i + 1] if i + 1 < len(cuts) else end
            if any(a <= t0 < b for a, b in off[sid]):
                watts = float(spec.get("idle_off_power", 0.0))
            else:
                j = bisect.bisect_right(points, (t0, math.inf)) - 1
                watts = poly(coefficients, points[j][1] if j >= 0 else 0.0)
            watt_seconds += watts * (t1 - t0)
        from_util = watt_seconds / 3600.0
        if not _close(from_util, summary.get(sid, math.nan)):
            problems.append(f"{sid}: utilization.csv through the power model integrates "
                            f"to {from_util!r} Wh, summary says {summary.get(sid)!r}")
        total += from_power
    if not _close(total, summary.get("TOTAL", math.nan)):
        problems.append(f"TOTAL: {total!r} Wh re-integrated, summary says "
                        f"{summary.get('TOTAL')!r}")
    return problems


def _gps_rates(demands: list[float], capacity: float) -> list[float]:
    total = sum(demands)
    if total <= capacity:
        return list(demands)
    return [d * capacity / total for d in demands]


def gps_replay(vms: dict[str, dict], capacity: dict[str, float], end: float) -> dict[str, float]:
    """Completion time of every trace VM under processor sharing.

    ``vms`` maps a VM id to ``segments`` [(duration, demand)], ``start``
    (execution start), ``hosts`` [(time, host)] and ``stop`` (termination
    time or None). A host's capacity is shared in proportion to demand when
    oversubscribed; a demand-0 segment is idle wall-clock time. Hosts
    interact only through the given migration instants, so the replay
    advances one host at a time between events and is exact up to float
    rounding.
    """
    external: list[tuple[float, int, str, str, str | None]] = []
    for vm_id, vm in vms.items():
        if vm["start"] is None:
            continue
        hosts = vm["hosts"]
        first = [h for t, h in hosts if t <= vm["start"]][-1]
        external.append((vm["start"], 1, "start", vm_id, first))
        for t, h in hosts:
            if t > vm["start"]:
                external.append((t, 1, "move", vm_id, h))
        if vm["stop"] is not None:
            external.append((vm["stop"], 0, "stop", vm_id, None))
    external.sort()

    state = {vm_id: {"seg": 0, "left": 0.0, "rate": 0.0, "host": None} for vm_id in vms}
    members: dict[str, list[str]] = {h: [] for h in capacity}
    settled = {h: 0.0 for h in capacity}
    version = {h: 0 for h in capacity}
    timers: list[tuple[float, int, str]] = []
    done: dict[str, float] = {}

    def demand(vm_id):
        st = state[vm_id]
        return vms[vm_id]["segments"][st["seg"]][1]

    def settle(host, now):
        dt = now - settled[host]
        for vm_id in members[host]:
            st = state[vm_id]
            st["left"] -= st["rate"] * dt if demand(vm_id) > 0 else dt
        settled[host] = now

    def reschedule(host):
        ids = members[host]
        for vm_id, rate in zip(ids, _gps_rates([demand(v) for v in ids], capacity[host])):
            state[vm_id]["rate"] = rate
        version[host] += 1
        etas = [_eta(v) for v in ids]
        if etas:
            heapq.heappush(timers, (settled[host] + min(etas), version[host], host))

    def _eta(vm_id):
        st = state[vm_id]
        if demand(vm_id) > 0:
            return max(st["left"], 0.0) / st["rate"] if st["rate"] > 0 else math.inf
        return max(st["left"], 0.0)

    def init_segment(vm_id):
        st = state[vm_id]
        duration, d = vms[vm_id]["segments"][st["seg"]]
        st["left"] = duration * d if d > 0 else duration

    i = 0
    while True:
        while timers and timers[0][1] != version[timers[0][2]]:
            heapq.heappop(timers)
        t_int = timers[0][0] if timers else math.inf
        t_ext = external[i][0] if i < len(external) else math.inf
        now = min(t_int, t_ext)
        if now == math.inf or now > end:
            break
        if t_int <= t_ext:
            _, _, host = heapq.heappop(timers)
            settle(host, now)
            due = [v for v in members[host] if _eta(v) <= 1e-9]
            for vm_id in due:
                st = state[vm_id]
                st["seg"] += 1
                if st["seg"] == len(vms[vm_id]["segments"]):
                    done[vm_id] = now
                    members[host].remove(vm_id)
                    st["host"] = None
                else:
                    init_segment(vm_id)
            reschedule(host)
            continue
        _, _, kind, vm_id, host = external[i]
        i += 1
        st = state[vm_id]
        if vm_id in done:
            continue
        touched = []
        if st["host"] is not None:
            settle(st["host"], now)
            members[st["host"]].remove(vm_id)
            touched.append(st["host"])
            st["host"] = None
        if kind == "start" and not vms[vm_id]["segments"]:
            done[vm_id] = now
        elif kind in ("start", "move"):
            if kind == "start":
                init_segment(vm_id)
            settle(host, now)
            members[host].append(vm_id)
            st["host"] = host
            touched.append(host)
        for h in touched:
            reschedule(h)
    return done


def check_gps(report_dir: str, model: dict, scenario: dict, sim: dict) -> list[str]:
    """batch-fleet: every VM placed, no placement rejected, stop events at
    start + offset, and every trace VM's completion time as an exact
    processor-sharing replay of the report's host histories predicts."""
    problems: list[str] = []
    report = _read_json(os.path.join(report_dir, "report.json"))
    end = float(sim["end_time"])
    rejected = [a for a in report["actions"]
                if a["action"] in ("place", "start-request", "scale-out")
                and a["outcome"].startswith("rejected")]
    if rejected:
        problems.append(f"{len(rejected)} rejected placements, first {rejected[0]}")
    templates = scenario["templates"]
    start_of = {}
    stop_offset = {}
    for ev in scenario["events"]:
        req = ev["request"]
        if req["type"] == "start_application":
            start_of[ev["id"]] = req
        elif req["type"] == "stop_application":
            stop_offset[start_of[req["target"]]["vm_id"]] = ev["trigger"]["offset"]
    vms, capacity = {}, {s["id"]: s["cores"] * s["core_speed"] for s in model["servers"]}
    for req in start_of.values():
        vm_id = req["vm_id"]
        record = report["vms"].get(vm_id)
        if record is None or not record["hosts"] or record["start_time"] is None:
            problems.append(f"{vm_id}: never placed or started")
            continue
        segments = [tuple(seg) for seg in templates[req["template"]]["workload"]["segments"]]
        stop = record["end_time"] if record["end_kind"] == "terminated" else None
        if vm_id in stop_offset:
            due = record["start_time"] + stop_offset[vm_id]
            if stop is not None and not abs(stop - due) <= TIME_ATOL:
                problems.append(f"{vm_id}: stopped at {stop}, its stop event was due at {due}")
            if stop is None and record["end_kind"] != "completed" and due <= end:
                problems.append(f"{vm_id}: stop due at {due} never happened")
        elif stop is not None:
            problems.append(f"{vm_id}: terminated without a stop event")
        vms[vm_id] = {
            "segments": segments, "start": record["start_time"],
            "hosts": [tuple(h) for h in record["hosts"]], "stop": stop,
        }
    predicted = gps_replay(vms, capacity, end)
    for vm_id in vms:
        record = report["vms"][vm_id]
        got = predicted.get(vm_id)
        if record["end_kind"] == "completed":
            if got is None or not abs(got - record["end_time"]) <= TIME_ATOL:
                problems.append(f"{vm_id}: report completes it at {record['end_time']}, "
                                f"replay at {got}")
        elif got is not None:
            problems.append(f"{vm_id}: replay completes it at {got}, report says "
                            f"{record['end_kind']} at {record['end_time']}")
    return problems


def _scaling_actions(report_dir: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for row in _read_csv(os.path.join(report_dir, "actions.csv")):
        if row["action"] in ("scale-out", "scale-in") and row["outcome"] == "enacted":
            app = row["subject"].split("/", 1)[0]
            out[app] = out.get(app, 0) + 1
    return out


def check_autoscale(react_dir: str, reg_dir: str, scenario: dict) -> list[str]:
    """autoscale-tiers: every logged rate equals a bisect lookup into the
    generated series, no tier drops below one instance, and Reg takes more
    scaling actions than React on every tier (acceptance criterion 8)."""
    problems: list[str] = []
    series, created = {}, {}
    for ev in scenario["events"]:
        req = ev["request"]
        if req["type"] == "start_application":
            workload = scenario["templates"][req["template"]]["workload"]
            series[req["vm_id"]] = [tuple(p) for p in workload["series"]]
            created[req["vm_id"]] = ev["trigger"]["time"]
    for label, report_dir in (("react", react_dir), ("reg", reg_dir)):
        rows = _read_csv(os.path.join(report_dir, "autoscaler.csv"))
        seen = set()
        for row in rows:
            app, t = row["application_id"], float(row["time_s"])
            seen.add(app)
            points = series[app]
            j = bisect.bisect_right(points, (t - created[app], math.inf)) - 1
            want = points[j][1] if j >= 0 else 0.0
            if float(row["rate"]) != want:
                problems.append(f"{label} {app} t={t}: rate {row['rate']}, series says {want!r}")
            if int(row["instances"]) < 1:
                problems.append(f"{label} {app} t={t}: {row['instances']} instances")
        if seen != set(series):
            problems.append(f"{label}: autoscaler.csv covers {sorted(seen)}, "
                            f"tiers are {sorted(series)}")
        report = _read_json(os.path.join(report_dir, "report.json"))
        for app, points in report["app_instance_counts"].items():
            low = min(n for _, n in points)
            if low < 1:
                problems.append(f"{label} {app}: instance count fell to {low}")
    react, reg = _scaling_actions(react_dir), _scaling_actions(reg_dir)
    for app in series:
        if not reg.get(app, 0) > react.get(app, 0):
            problems.append(f"{app}: Reg took {reg.get(app, 0)} scaling actions, "
                            f"React {react.get(app, 0)}; Reg should take more")
    return problems


def _placements(report_dir: str) -> list[str]:
    return [row["subject"] for row in _read_csv(os.path.join(report_dir, "actions.csv"))
            if row["action"] == "place" and row["outcome"] == "enacted"]


def check_roundtrip(source_dir: str, replay_dir: str, sim: dict, skipped: list,
                    fits: list[dict], generator: list[float], bin_width: float) -> list[str]:
    """trace-roundtrip: nothing skipped, identical placements, lifetimes
    within one measurement interval, total energy within 1 % (acceptance
    criterion 6), poly3 fits close to the generating polynomial and
    poly-exp fits converged.

    A bin averages powers whose utilization lies within half a bin of the
    bin's centre, so a bin's power is off the generator by at most
    ``max|P'| * bin_width / 2``; the fitted cubic may deviate from the
    generator by at most twice that over the observed range.
    """
    problems: list[str] = []
    if skipped:
        problems.append(f"{len(skipped)} VMs skipped, first {skipped[0]}")
    if _placements(source_dir) != _placements(replay_dir):
        problems.append("replay placements differ from the source run's")
    end = float(sim["end_time"])
    source = _read_json(os.path.join(source_dir, "report.json"))["vms"]
    replay = _read_json(os.path.join(replay_dir, "report.json"))["vms"]

    def lifetime(record):
        stop = record["end_time"] if record["end_time"] is not None else end
        return stop - record["start_time"]

    for vm_id, record in source.items():
        other = replay.get(vm_id)
        if record["start_time"] is None:
            problems.append(f"{vm_id}: never started in the source run")
        elif other is None or other["start_time"] is None:
            problems.append(f"{vm_id}: missing from the replay")
            continue
        gap = abs(lifetime(record) - lifetime(other))
        if gap > float(sim["measurement_interval"]):
            problems.append(f"{vm_id}: lifetime differs by {gap} s")

    def total(report_dir):
        rows = _read_csv(os.path.join(report_dir, "summary.csv"))
        return float(next(r["energy_wh"] for r in rows if r["server_id"] == "TOTAL"))

    e0, e1 = total(source_dir), total(replay_dir)
    if abs(e1 - e0) > 0.01 * e0:
        problems.append(f"replay energy {e1} Wh vs source {e0} Wh, more than 1 % apart")

    slope_bound = sum(k * abs(c) for k, c in enumerate(generator[:-1], start=1))
    bound = slope_bound * bin_width
    for fit in fits:
        if fit["family"] == "polynomial":
            lo, hi = fit["u_range"]
            worst = max(abs(poly(fit["coefficients"], u) - poly(generator, u))
                        for u in (lo + (hi - lo) * i / 100 for i in range(101)))
            if worst > bound:
                problems.append(f"{fit['server']}: poly3 fit off by {worst:.4g} W, "
                                f"bound {bound:.4g} W")
        elif not fit["converged"]:
            problems.append(f"{fit['server']}: poly-exp fit did not converge")
    return problems


def check_same_bytes(digests: list[str]) -> list[str]:
    """Every round of one workload and seed wrote identical report bytes."""
    if len(set(digests)) > 1:
        return [f"report digests differ between rounds: {sorted(set(digests))}"]
    return []
