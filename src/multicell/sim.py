"""Session-table simulator for the multi-route network.

Users never interact in an infinite-server network, so one replication is a
table of independent sessions and cell occupancy is interval counting. Per
route, in config order, the table holds a Poisson(rate * horizon) number of
sessions with sorted uniform arrival times on [0, horizon], followed by
their stage counts and holding times from :func:`model.sample_sessions`.
Stage j of a session holds its cell on [entry, exit), where the first entry
is the arrival time and every exit is the entry plus the holding time; the
occupancy of a cell at time t counts the stage visits with
entry <= t < exit.

RNG: numpy's counter-based Philox generator. Replication r of a run with
seed s uses ``Philox(SeedSequence((s, r)))``; streams for different r are
independent and any (s, r) pair reproduces bit-identically across runs.
Within a replication the draws go route by route in config order: the
session count, the arrival times, then the sessions in the order
:func:`model.sample_sessions` documents.

:func:`emit_event_log` gives the same table in arrival order, so that each
row's index is the session's id; ``multicell fixture`` lays its polls out
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# STAGE_VISIT_CAP lives in model, whose config reader checks the cell count
# against it; the CLI, its rules and README name it sim.STAGE_VISIT_CAP
from .model import STAGE_VISIT_CAP, DiscreteSessionLaw, NetworkSpec, SessionLaw, sample_sessions

#: Rows joined per write by the CSV writers of snapshots and polls, so that
#: the text of only one block is held at a time.
CSV_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    warmup: float | None = None
    snapshot_interval: float | None = None
    seed: int = 0
    replications: int = 1

    def __post_init__(self):
        if self.warmup is not None and self.warmup >= self.horizon:
            raise ValueError(f"warmup {self.warmup} must be < horizon {self.horizon}")
        if self.snapshot_interval is not None and not self.snapshot_interval > 0:
            raise ValueError("snapshot_interval must be > 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True, eq=False)
class SessionTable:
    """The sessions of one replication, one row each. ``holds`` has one
    column per stage of the longest route and is zero past each session's
    stage count."""

    route: np.ndarray       # (n,) 1-based route index
    arrival: np.ndarray     # (n,) seconds
    stages: np.ndarray      # (n,) stage count
    holds: np.ndarray       # (n, K) seconds

    def __len__(self) -> int:
        return len(self.arrival)

    def visits(self, route_cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every stage visit, in session then stage order: the ``(n, K)``
        mask of visited stages, and per visit its cell, entry and exit
        time. ``route_cells[l - 1]`` is the cell sequence of route l."""
        K = self.holds.shape[1]
        visited = np.arange(K) < self.stages[:, None]
        bounds = np.cumsum(np.column_stack([self.arrival, self.holds]), axis=1)
        cell_of = np.array([tuple(c) + (0,) * (K - len(c)) for c in route_cells])
        return (visited, cell_of[self.route - 1][visited], bounds[:, :-1][visited],
                bounds[:, 1:][visited])


def interval_counts(group: np.ndarray, entry: np.ndarray, exit_: np.ndarray,
                    n_groups: int, times: np.ndarray) -> np.ndarray:
    """A ``(T, n_groups)`` int64 matrix: per time t of the sorted ``times``
    and group g (numbered from 0), the intervals of g with entry <= t < exit."""
    counts = np.zeros((len(times), n_groups), dtype=np.int64)
    for g in range(n_groups):
        here = group == g
        counts[:, g] = (np.searchsorted(np.sort(entry[here]), times, side="right")
                        - np.searchsorted(np.sort(exit_[here]), times, side="right"))
    return counts


def rng_for_replication(seed: int, replication: int) -> np.random.Generator:
    """The documented stream-derivation rule: Philox(SeedSequence((seed, r)))."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replication))))


def sample_session(law: SessionLaw, rng: np.random.Generator) -> tuple[int, tuple[float, ...]]:
    """Draw one session: (stage count, per-stage holding times)."""
    stages, holds = sample_sessions(law, 1, rng)
    k = int(stages[0])
    return k, tuple(holds[0, :k].tolist())


def expected_visits(spec: NetworkSpec, horizon: float) -> float:
    """The mean stage visits of one replication over ``horizon``: the sum of
    rate * horizon * E[stages] over the routes, with E[stages] the sum of a
    discrete law's reach probabilities and 1, a lower bound, for a generative one."""
    return sum(rs.arrival_rate * horizon * (sum(rs.law.stage_moments().reach)
                                            if isinstance(rs.law, DiscreteSessionLaw) else 1.0)
               for rs in spec.routes)


def _check_cap(visits: int) -> None:
    if visits > STAGE_VISIT_CAP:
        raise RuntimeError(f"event count exceeded safety cap: more than "
                           f"STAGE_VISIT_CAP={STAGE_VISIT_CAP} stage visits")


def session_table(spec: NetworkSpec, horizon: float, rng: np.random.Generator) -> SessionTable:
    """Every session arriving on [0, horizon], grouped by route in config
    order and sorted by arrival time within each route."""
    K = max(rs.route.n_stages for rs in spec.routes)
    blocks = []
    visits = 0
    for l, rs in enumerate(spec.routes, start=1):
        n = int(rng.poisson(rs.arrival_rate * horizon))
        _check_cap(visits + n)     # every session visits at least one stage
        arrival = np.sort(rng.uniform(0.0, horizon, n))
        stages, holds = sample_sessions(rs.law, n, rng)
        visits += int(stages.sum())
        _check_cap(visits)
        padded = np.zeros((n, K))
        padded[:, :holds.shape[1]] = holds
        blocks.append((np.full(n, l), arrival, stages, padded))
    return SessionTable(*(np.concatenate(column) for column in zip(*blocks)))


def mean_duration(law: SessionLaw) -> float:
    """A session's mean time in the network. A generative law's duration
    mean (times the speed mean when it scales the duration) stands in for
    it, an upper proxy."""
    if isinstance(law, DiscreteSessionLaw):
        b = law.branches
        return sum(p * w * sum(row) for p, w, row in
                   zip(b.pk.tolist(), b.weight.tolist(), b.holds.tolist()))
    dur = law.duration.mean()
    if law.speed is not None and law.speed_scales_duration:
        dur *= law.speed.mean()
    return dur


def suggested_timing(spec: NetworkSpec) -> tuple[float, float]:
    """(warmup, snapshot_interval) defaults: 10x the longest route
    :func:`mean_duration` and 5x the longest per-stage mean holding time."""
    max_dur = 0.0
    max_hold = 0.0
    for rs in spec.routes:
        law = rs.law
        dur = mean_duration(law)
        if isinstance(law, DiscreteSessionLaw):
            holds = [t for t in law.stage_moments().mean_hold if t is not None]
        else:
            holds = [min(dur, d.mean()) for d in law.dwells]
        max_dur = max(max_dur, dur)
        if holds:
            max_hold = max(max_hold, max(holds))
    return 10.0 * max_dur, 5.0 * max_hold


def resolve_timing(spec: NetworkSpec, cfg: SimConfig) -> SimConfig:
    """``cfg`` with an absent warmup and snapshot interval taken from
    :func:`suggested_timing`, the warmup capped at half the horizon."""
    if cfg.warmup is None or cfg.snapshot_interval is None:
        warmup, interval = suggested_timing(spec)
        cfg = replace(
            cfg,
            warmup=cfg.warmup if cfg.warmup is not None else min(warmup, 0.5 * cfg.horizon),
            snapshot_interval=cfg.snapshot_interval if cfg.snapshot_interval is not None else interval,
        )
    return cfg


def run(spec: NetworkSpec, cfg: SimConfig, *, replication: int = 0) -> np.recarray:
    """Simulate one replication: its occupancy snapshots as one record array
    of ``time`` (float64) and ``cell_counts`` (int64, one per cell) rows.

    Snapshots are taken at warmup + i * snapshot_interval for every i with
    that time <= horizon. Sessions arriving during warmup are in the table
    too, so the first snapshot already sees in-flight sessions.
    """
    cfg = resolve_timing(spec, cfg)
    table = session_table(spec, cfg.horizon, rng_for_replication(cfg.seed, replication))
    times = cfg.warmup + cfg.snapshot_interval * np.arange(
        int((cfg.horizon - cfg.warmup) // cfg.snapshot_interval) + 2)
    times = times[times <= cfg.horizon]

    _, cells, entries, exits = table.visits([rs.route.cells for rs in spec.routes])
    counts = interval_counts(cells - 1, entries, exits, spec.cell_count, times)
    return np.rec.fromarrays([times, counts], dtype=[
        ("time", np.float64), ("cell_counts", np.int64, (spec.cell_count,))])


def emit_event_log(spec: NetworkSpec, cfg: SimConfig, *, replication: int = 0
                   ) -> SessionTable:
    """The session table of one replication in arrival order (a stable
    sort); each row's index is its session id."""
    table = session_table(spec, cfg.horizon, rng_for_replication(cfg.seed, replication))
    order = np.argsort(table.arrival, kind="stable")
    return SessionTable(table.route[order], table.arrival[order], table.stages[order],
                        table.holds[order])


def write_snapshots_csv(snapshots, path) -> None:
    """``time,y1,...,yC`` rows, as ``csv.writer`` writes each time's ``repr``
    and each count, joined and written ``CSV_BLOCK_ROWS`` at a time.
    ``snapshots`` is :func:`run`'s record array or a sequence of its rows."""
    # given the row dtype, numpy converts a list of rows about 25x faster
    snapshots = np.asarray(snapshots, dtype=snapshots[0].dtype)
    times, counts = snapshots["time"], snapshots["cell_counts"]
    row = "{!r}" + ",{}" * counts.shape[1] + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["time"] + [f"y{n}" for n in range(1, counts.shape[1] + 1)]) + "\r\n")
        for i in range(0, len(times), CSV_BLOCK_ROWS):
            block = slice(i, i + CSV_BLOCK_ROWS)
            fh.write("".join(map(row.format, times[block].tolist(), *counts[block].T.tolist())))
