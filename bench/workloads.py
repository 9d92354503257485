"""The benchmark's workloads: their inputs and the command chain each runs.

A workload turns ``--seed`` into config files and generated inputs
(``setup``), then names the ``multicell`` subcommands one round runs, in
order. Every workload runs all five subcommands; each is sized so that a
different module carries most of the work:

* ``insensitivity`` -- generative laws on the 300 s lattice; session
  sampling in ``sim.run`` and ``model.discretize`` dominate.
* ``subset-study`` -- a 12-cell grid and a high-entropy snapshot file;
  ``stats`` (joint, projection, KL, entropy) and the snapshot reader
  dominate.
* ``campus-trace`` -- tens of APs, many multi-stage routes, many days of
  polls; ``fixture`` and every ``trace`` step dominate.

Holding times sit on the 300 s poll lattice everywhere, so the fixture ->
trace round trip is exact and its checks can demand equality.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LATTICE = 300.0


@dataclass
class Step:
    """One subcommand run: which subcommand, its argv after ``multicell``
    (``{name}`` placeholders are filled per round) and its output directory
    relative to the round directory. The subcommand's check judges it."""

    name: str            # analyze | simulate | compare | fixture | trace
    argv: list[str]
    out: str

    def command(self, wl_dir: Path, round_dir: Path) -> list[str]:
        """The argv of this step in one round, placeholders filled."""
        paths = {"config": wl_dir / "config.json", "draws": wl_dir / "draws.csv",
                 "snapshots": round_dir / "simulate" / "snapshots.csv",
                 "polls": round_dir / "fixture" / "polls.csv", "out": round_dir / self.out}
        return [a.format(**paths) if a.startswith("{") else a for a in self.argv]


@dataclass
class Workload:
    name: str
    config: dict
    steps: list[Step]
    facts: dict                   # what the checks need to know about the inputs
    ref: dict = field(default_factory=dict)   # exact values, from ``reference``


def _disc(values, weights) -> dict:
    return {"family": "discrete", "values": [float(v) for v in values],
            "weights": [float(w) for w in weights]}


def _det(value) -> dict:
    return {"family": "deterministic", "value": float(value)}


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _grid_meta(cols: int, rows: int, spacing: float) -> list[dict]:
    return [{"name": f"ap{i + 1}", "x": spacing * (i % cols), "y": spacing * (i // cols)}
            for i in range(cols * rows)]


# ---------------------------------------------------------------------------
# insensitivity
# ---------------------------------------------------------------------------

#: Monte-Carlo sessions per generative route in analyze and compare.
INS_DISCRETIZE = 3000
INS_HORIZON = 800_000.0
INS_WARMUP = 6000.0
INS_REPLICATIONS = 2


def insensitivity_config() -> dict:
    """Criterion 2's 4-cell, 3-route layout with lattice holding times.

    Route 1 draws its duration and every dwell independently from
    multi-point laws; routes 2 and 3 share one speed factor across all
    dwells and the duration, so their holds are strongly dependent.
    """
    lam = 0.004
    routes = [
        {"cells": [1, 2, 3], "arrival_rate": lam, "law": {
            "kind": "generative",
            "duration": _disc([600, 1200, 1800, 3000], [0.3, 0.3, 0.25, 0.15]),
            "dwells": [_disc([300, 600, 900], [0.3, 0.4, 0.3]),
                       _disc([300, 900], [0.5, 0.5]),
                       _disc([600, 1200], [0.6, 0.4])]}},
        {"cells": [2, 4], "arrival_rate": lam, "law": {
            "kind": "generative",
            "duration": _disc([600, 1200], [0.5, 0.5]),
            "dwells": [_det(600), _det(600)],
            "speed": _disc([0.5, 1.5], [0.5, 0.5]),
            "speed_scales_duration": True}},
        {"cells": [4, 3, 1], "arrival_rate": lam, "law": {
            "kind": "generative",
            "duration": _disc([1200, 2400, 3600], [0.4, 0.35, 0.25]),
            "dwells": [_disc([600, 1200], [0.5, 0.5]),
                       _disc([600, 1200, 1800], [0.2, 0.5, 0.3]),
                       _det(1200)],
            "speed": _disc([0.5, 1.0, 2.0], [0.25, 0.5, 0.25]),
            "speed_scales_duration": True}},
    ]
    return {"cells": 4, "routes": routes}


def _simulation(horizon: float, warmup: float, interval: float, replications: int,
                batches: int) -> tuple[list[str], dict]:
    """simulate's arguments and the facts its check needs. Batches for the
    batch-means standard error span several times the longest session."""
    args = ["--horizon", repr(horizon), "--warmup", repr(warmup), "--interval",
            repr(interval), "--replications", str(replications)]
    return args, {"horizon": horizon, "warmup": warmup, "interval": interval,
                  "replications": replications, "batches": batches}


def _model_steps(seed: int, sim_args: list[str], compare_runs: list[tuple[str, list[str]]],
                 discretize: list[str], snapshots: str = "{snapshots}") -> list[Step]:
    s = str(seed)
    steps = [
        Step("analyze", ["analyze", "--config", "{config}", "--out", "{out}", "--seed", s]
             + discretize, "analyze"),
        Step("simulate", ["simulate", "--config", "{config}", "--out", "{out}", "--seed", s]
             + sim_args, "simulate"),
    ]
    for out, extra in compare_runs:
        steps.append(Step("compare", ["compare", "--config", "{config}",
                                      "--snapshots", snapshots, "--out", "{out}",
                                      "--seed", s] + discretize + extra, out))
    return steps


def _trace_steps(seed: int, days: int, closed: int, bursty: int) -> list[Step]:
    return [
        Step("fixture", ["fixture", "--config", "{config}", "--out", "{out}",
                         "--seed", str(seed), "--days", str(days), "--cadence", "300",
                         "--closed-users", str(closed), "--bursty-cell", str(bursty),
                         "--burst-size", "10", "--bursts-per-day", "6"], "fixture"),
        Step("trace", ["trace", "--polls", "{polls}", "--out", "{out}", "--cadence", "300",
                       "--exclude-mode", "3", "--seed", str(seed)], "trace"),
    ]


def setup_insensitivity(seed: int, workdir: Path) -> Workload:
    config = insensitivity_config()
    _write_json(config, workdir / "config.json")
    sim_args, facts = _simulation(INS_HORIZON, INS_WARMUP, LATTICE, INS_REPLICATIONS, 100)
    steps = _model_steps(seed, sim_args, [("compare", ["--repeats", "8"])],
                         ["--discretize-samples", str(INS_DISCRETIZE)])
    # cell 3 starts no route, so its new arrivals are the bursts alone
    steps += _trace_steps(seed, days=2, closed=3, bursty=3)
    facts["discretize_samples"] = INS_DISCRETIZE
    return Workload("insensitivity", config, steps, facts)


# ---------------------------------------------------------------------------
# subset-study
# ---------------------------------------------------------------------------

GRID_MEAN = 3.0
GRID_ROWS = 15_000
GRID_REPEATS = 25
GRID_DISTANCE = 500.0


def grid_config() -> dict:
    """Criterion 8's 4x3 grid at 300 m spacing; one single-stage discrete
    route per cell. Every cell has Poisson mean GRID_MEAN, reached through
    different rates and hold laws."""
    hold_laws = [
        [(1.0, 300.0)],
        [(0.5, 300.0), (0.5, 900.0)],
        [(0.25, 600.0), (0.5, 900.0), (0.25, 1200.0)],
        [(1.0, 1200.0)],
    ]
    routes = []
    for c in range(12):
        law = hold_laws[c % len(hold_laws)]
        mean_hold = sum(w * h for w, h in law)
        routes.append({"cells": [c + 1], "arrival_rate": GRID_MEAN / mean_hold, "law": {
            "kind": "discrete", "stage_probs": [1.0],
            "realizations": [[{"weight": w, "holding": [h]} for w, h in law]]}})
    return {"cells": 12, "routes": routes, "cell_meta": _grid_meta(4, 3, 300.0)}


def write_snapshot_draws(path: Path, means, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Independent draws from the exact product form, in simulate's
    snapshot format (``time,y1..yC``)."""
    draws = rng.poisson(means, size=(rows, len(means)))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time"] + [f"y{n}" for n in range(1, len(means) + 1)])
        for i, row in enumerate(draws.tolist()):
            w.writerow([repr(float(i))] + row)
    return draws


def setup_subset(seed: int, workdir: Path) -> Workload:
    config = grid_config()
    _write_json(config, workdir / "config.json")
    rng = np.random.default_rng([seed, 8])
    draws = write_snapshot_draws(workdir / "draws.csv", [GRID_MEAN] * 12, GRID_ROWS, rng)
    sim_args, facts = _simulation(150000.0, 3000.0, LATTICE, 1, 40)
    cap = ["--subset-size", "3", "--repeats", str(GRID_REPEATS)]
    steps = _model_steps(seed, sim_args,
                         [("compare_free", cap),
                          ("compare_capped", cap + ["--distance-max", repr(GRID_DISTANCE)])],
                         [], snapshots="{draws}")
    # every cell starts a route; with two days' 16 hourly counts the bursty
    # AP fails the arrival tests every time
    steps += _trace_steps(seed, days=2, closed=3, bursty=4)
    facts.update(draws=draws, draw_mean=GRID_MEAN,
                 capped_pair=("compare_free", "compare_capped"))
    return Workload("subset-study", config, steps, facts)


# ---------------------------------------------------------------------------
# campus-trace
# ---------------------------------------------------------------------------

CAMPUS_COLS, CAMPUS_ROWS = 5, 4
CAMPUS_DAYS = 6
CAMPUS_BURSTY = 8
#: Every route's new sessions per working day. Each AP other than the
#: bursty one starts two routes and the bursty one lies on stage 2 of four
#: more, so every AP sees at least 60 stage entries a day: a day below a
#: third of its AP's average (which trace filters out) is then a 5-sigma
#: event, and the fixture -> trace round trip stays exact.
CAMPUS_SESSIONS_PER_ROUTE_DAY = 30.0
WINDOW = 8 * 3600.0


def _neighbours(c: int) -> list[int]:
    x, y = (c - 1) % CAMPUS_COLS, (c - 1) // CAMPUS_COLS
    return [(y + dy) * CAMPUS_COLS + x + dx + 1
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= x + dx < CAMPUS_COLS and 0 <= y + dy < CAMPUS_ROWS]


def _lattice_law(rng: np.random.Generator, length: int, min_stages: int) -> dict:
    """Random discrete law of 1..length stages (at least ``min_stages``),
    one to three weighted holding vectors per stage count, holds of 1-6
    poll periods."""
    raw = rng.random(length) + 0.2
    raw[: min_stages - 1] = 0.0
    probs = raw / raw.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    realizations = []
    for k in range(1, length + 1):
        m = int(rng.integers(1, 4))
        w = rng.random(m) + 0.2
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        realizations.append([
            {"weight": float(w[i]),
             "holding": [LATTICE * int(v) for v in rng.integers(1, 7, size=k)]}
            for i in range(m)])
    return {"kind": "discrete", "stage_probs": [float(p) for p in probs],
            "realizations": realizations}


def campus_config(rng: np.random.Generator) -> dict:
    """A grid of APs with random-walk routes of 2-5 stages between
    neighbouring APs, so consecutive stages never share an AP. No route
    starts at the bursty AP; four routes reach it at stage 2 for sure."""
    n = CAMPUS_COLS * CAMPUS_ROWS
    walks = []
    for start in range(1, n + 1):
        if start != CAMPUS_BURSTY:
            walks += [([start], 1), ([start], 1)]
    walks += [([c, CAMPUS_BURSTY], 2) for c in _neighbours(CAMPUS_BURSTY)]
    rate = CAMPUS_SESSIONS_PER_ROUTE_DAY / WINDOW
    routes = []
    for cells, min_stages in walks:
        length = int(rng.integers(max(2, len(cells)), 6))
        while len(cells) < length:
            cells.append(int(rng.choice(_neighbours(cells[-1]))))
        routes.append({"cells": cells, "arrival_rate": rate,
                       "law": _lattice_law(rng, length, min_stages)})
    return {"cells": n, "routes": routes,
            "cell_meta": _grid_meta(CAMPUS_COLS, CAMPUS_ROWS, 100.0)}


def setup_campus(seed: int, workdir: Path) -> Workload:
    config = campus_config(np.random.default_rng([seed, 30]))
    _write_json(config, workdir / "config.json")
    sim_args, facts = _simulation(400000.0, 20000.0, 1000.0, 1, 40)
    steps = _model_steps(seed, sim_args,
                         [("compare", ["--subset-size", "3", "--repeats", "10"])], [])
    steps += _trace_steps(seed, days=CAMPUS_DAYS, closed=5, bursty=CAMPUS_BURSTY)
    return Workload("campus-trace", config, steps, facts)


SETUPS = {
    "insensitivity": setup_insensitivity,
    "subset-study": setup_subset,
    "campus-trace": setup_campus,
}
