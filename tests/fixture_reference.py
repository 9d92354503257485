"""Reference implementation of ``multicell fixture``, kept for the tests.

This is the record-at-a-time form of ``cli.generate_fixture``: per day, the
session table turned into one event per session, one frozen ``PollRecord``
per poll from a ``while`` loop per stage, ``Counter`` bookkeeping, and a
Python sort key. The columnar fixture must write the same ``polls.csv`` and
``ground_truth.json`` bytes.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

import numpy as np

from multicell import sim, trace
from multicell.cli import _working_day_starts, ap_name


def _event_log(spec, cfg, replication):
    """(session id, route, arrival time, holding times) per session of one
    replication, in arrival order."""
    table = sim.session_table(spec, cfg.horizon, sim.rng_for_replication(cfg.seed, replication))
    order = np.argsort(table.arrival, kind="stable")
    rows = zip(*(col[order].tolist() for col in (table.route, table.arrival,
                                                   table.stages, table.holds)))
    return [(i, l, t, tuple(h[:k])) for i, (l, t, k, h) in enumerate(rows)]


def _stage_polls(user, ap, entry, exit_, cadence, packets):
    out = []
    i = math.ceil((entry - 1e-9) / cadence)
    while i * cadence < exit_ - 1e-9:
        out.append(trace.PollRecord(i * cadence, ap, user, packets))
        i += 1
    return out


def generate_fixture(spec, seed, days, cadence=300.0, closed_users=0, bursty_cell=None,
                     burst_size=10, bursts_per_day=6.0):
    pcfg = trace.PreprocessConfig(poll_cadence=cadence)
    window = pcfg.work_end - pcfg.work_start
    day_starts = _working_day_starts(days, pcfg)
    rng = np.random.default_rng(seed)

    records = []
    table = Counter()
    per_ap_entries = Counter()
    per_ap_new = Counter()
    per_ap_hold = Counter()
    users = set()
    burst_ap = ap_name(bursty_cell) if bursty_cell is not None else None
    sessions_total = 0

    run_cfg = sim.SimConfig(horizon=window, warmup=0.0, snapshot_interval=window, seed=seed)
    for d, day0 in enumerate(day_starts):
        for session_id, route, arrival, holds in _event_log(spec, run_cfg, d):
            if arrival + sum(holds) >= window:
                continue
            user = f"u{d:03d}_{session_id:06d}"
            users.add(user)
            sessions_total += 1
            table[len(holds)] += 1
            t = day0 + arrival
            cells = spec.routes[route - 1].route.cells
            for j, h in enumerate(holds, start=1):
                ap = ap_name(cells[j - 1])
                records.extend(_stage_polls(user, ap, t, t + h, cadence, 10))
                per_ap_entries[ap] += 1
                per_ap_hold[ap] += h
                if j == 1:
                    per_ap_new[ap] += 1
                t += h

        for i in range(closed_users):
            user = f"closed{i:02d}"
            users.add(user)
            n_epochs = int(window // cadence)
            for e in range(n_epochs):
                records.append(trace.PollRecord(day0 + e * cadence, ap_name(1), user, 10))

        if burst_ap is not None:
            n_bursts = rng.poisson(bursts_per_day)
            for b in range(n_bursts):
                t0 = day0 + float(rng.uniform(0, window - 3 * cadence))
                for u in range(burst_size):
                    user = f"burst{d:03d}_{b:02d}_{u:02d}"
                    users.add(user)
                    sessions_total += 1
                    table[1] += 1
                    per_ap_entries[burst_ap] += 1
                    per_ap_new[burst_ap] += 1
                    per_ap_hold[burst_ap] += 2 * cadence
                    records.extend(_stage_polls(user, burst_ap, t0, t0 + 2 * cadence,
                                                cadence, 10))

    for i in range(closed_users):
        users.add(f"closed{i:02d}")
    records.sort(key=lambda r: (r.timestamp, r.ap, r.user))

    observed = days * window
    truth = {
        "seed": seed,
        "days": days,
        "cadence": cadence,
        "stage_table": {str(k): v for k, v in sorted(table.items())},
        "sessions_total": sessions_total,
        "users_total": len(users),
        "closed_users": sorted(f"closed{i:02d}" for i in range(closed_users)),
        "closed_fraction": closed_users / len(users) if users else 0.0,
        "bursty_aps": [burst_ap] if burst_ap else [],
        "sessions_starting_at_bursty": int(per_ap_new[burst_ap]) if burst_ap else 0,
        "per_ap": {
            ap: {
                "entries": int(per_ap_entries[ap]),
                "new_arrivals": int(per_ap_new[ap]),
                "hold_mean": per_ap_hold[ap] / per_ap_entries[ap],
                "observed_time": observed,
                "arrival_rate": per_ap_entries[ap] / observed,
            }
            for ap in sorted(per_ap_entries)
        },
    }
    return records, truth


def write_polls_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "ap", "user", "packets"])
        for r in records:
            w.writerow([repr(r.timestamp), r.ap, r.user, r.packets])
