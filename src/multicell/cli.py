"""Command-line front end.

Subcommands:

* ``analyze``   -- closed-form per-stage and per-cell report for a config
* ``simulate``  -- replicated session-table simulation, snapshots + summary
* ``compare``   -- empirical-vs-analytical metrics over random cell subsets
* ``fixture``   -- deterministic synthetic polling trace with ground truth
* ``trace``     -- full polling-log pipeline: sessions, parameters, validity

Every run writes a manifest (subcommand, effective arguments, seed, input
digests, tool version) into the output directory before any result file.
Exit codes: 0 success, 1 validation failure, 2 runtime failure.

A process loads only the package modules its subcommand runs: ``model`` at
import, and the others inside the ``cmd_*`` functions and the fixture
helpers that call them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, model

if TYPE_CHECKING:
    from .polls import PollTable, PreprocessConfig


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=str)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_manifest(outdir: Path, subcommand: str, args: dict, inputs: list) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "multicell",
        "version": __version__,
        "subcommand": subcommand,
        "arguments": {k: v for k, v in sorted(args.items()) if k not in ("func",)},
        "input_digests": {str(p): _digest(p) for p in inputs},
    }
    _write_json(outdir / "manifest.json", manifest)


def _load_valid_spec(path) -> model.NetworkSpec:
    try:
        return model.load_spec(path)
    except OSError as exc:
        raise ValidationError(f"cannot load network config {path}: {exc}") from exc
    except model.ConfigError as exc:
        raise ValidationError(str(exc)) from exc


class ValidationError(Exception):
    pass


def _discrete_spec(spec: model.NetworkSpec, samples: int, bin_width: float,
                   seed: int) -> model.NetworkSpec:
    """Replace generative laws with Monte-Carlo discretizations."""
    routes = []
    for idx, rs in enumerate(spec.routes):
        if isinstance(rs.law, model.GenerativeSessionLaw):
            law = model.discretize(rs.law, samples, bin_width, seed + idx)
            rs = model.RouteSpec(rs.route, rs.arrival_rate, law)
        routes.append(rs)
    return model.NetworkSpec(spec.cell_count, tuple(routes), spec.cell_meta)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from . import analytic

    spec = _load_valid_spec(args.config)
    out = Path(args.out)
    write_manifest(out, "analyze", vars(args), [args.config])
    spec = _discrete_spec(spec, args.discretize_samples, args.bin_width, args.seed)

    warnings, rows = [], []
    for l, rs in enumerate(spec.routes, start=1):
        sm = analytic.stage_means(rs)
        warnings += [f"route {l} stage {j} is unreachable (zero survival probability)"
                     for j in range(1, rs.route.n_stages + 1) if j not in sm.stages]
        rows += [[l, j, rs.route.cells[j - 1], repr(wp), repr(tb), repr(wj)]
                 for j, wp, tb, wj in zip(sm.stages, sm.w_prime, sm.t_bar, sm.w)]
    _write_csv(out / "stage_means.csv", ["route", "stage", "cell", "invariant_measure",
                                         "hold_mean", "occupancy_mean"], rows)

    cm = analytic.cell_means(spec)
    analytic.write_cell_means_csv(cm, out / "cell_means.csv")

    _write_csv(out / "cell_pmf.csv", ["cell", "count", "probability"],
               ([n, y, repr(analytic.ProductForm((m,)).pmf((y,)))]
                for n, m in enumerate(cm.poisson_mean, start=1)
                for y in range(analytic.poisson_truncation(m) + 1)))

    for warning in warnings:
        print(f"warning: {warning}")
    print(f"analyze: wrote stage_means.csv, cell_means.csv, cell_pmf.csv to {out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from . import analytic, sim

    spec = _load_valid_spec(args.config)
    out = Path(args.out)
    write_manifest(out, "simulate", vars(args), [args.config])
    cfg = sim.SimConfig(horizon=args.horizon, warmup=args.warmup,
                        snapshot_interval=args.interval, seed=args.seed,
                        replications=args.replications)
    pooled = []
    for r in range(cfg.replications):
        snaps = sim.run(spec, cfg, replication=r)
        sim.write_snapshots_csv(snaps, out / f"snapshots_rep{r}.csv")
        pooled.extend(snaps)
    sim.write_snapshots_csv(pooled, out / "snapshots.csv")

    counts = np.array([s.cell_counts for s in pooled], dtype=float)
    emp_mean = counts.mean(axis=0)
    all_discrete = all(isinstance(rs.law, model.DiscreteSessionLaw) for rs in spec.routes)
    analytic_means = analytic.cell_means(spec).poisson_mean if all_discrete else None
    rows = []
    for n in range(spec.cell_count):
        m = analytic_means[n] if analytic_means is not None else 0.0
        rel = [repr(m), repr(float(abs(emp_mean[n] - m) / m))] if m > 0 else ["", ""]
        rows.append([n + 1, repr(float(emp_mean[n])), *rel])
    _write_csv(out / "summary.csv",
               ["cell", "empirical_mean", "analytic_mean", "relative_error"], rows)
    print(f"simulate: {len(pooled)} snapshots over {cfg.replications} "
          f"replication(s) written to {out}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def read_snapshots_csv(path) -> list[list[int]]:
    """The count columns of a snapshot CSV (header ``time,y1,...,yN``), one
    list per row. Counts must be non-negative integers; a malformed row
    raises ValidationError with its line."""
    try:
        with open(path) as fh:
            width = len(fh.readline().split(",")) - 1
            if width < 1:
                raise ValidationError(f"{path}: line 1: expected the header time,y1,...,yN")
            row = np.dtype([("time", float), ("y", np.int64, (width,))])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # header-only file
                counts = np.loadtxt(fh, dtype=row, delimiter=",", ndmin=1)["y"]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read snapshot file {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: {_bad_snapshot_line(path, width) or exc}") from exc
    if not len(counts):
        raise ValidationError(f"{path}: no snapshot rows after the header")
    if (counts < 0).any():
        raise ValidationError(f"{path}: {_bad_snapshot_line(path, width)}")
    return counts.tolist()


def _bad_snapshot_line(path, width: int) -> str | None:
    """Where and why the first malformed or negative snapshot row fails."""
    with open(path) as fh:
        next(fh)
        for n, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != width + 1:
                return f"line {n}: {len(fields)} fields, the header has {width + 1}"
            try:
                float(fields[0])
                counts = [int(v) for v in fields[1:]]
            except ValueError as exc:
                return f"line {n}: {exc}"
            bad = [v for v in counts if not 0 <= v < 2 ** 63]
            if bad:
                return f"line {n}: count {bad[0]} is not a non-negative 64-bit integer"
    return None


def cmd_compare(args) -> int:
    from . import analytic, stats

    spec = _load_valid_spec(args.config)
    if not Path(args.snapshots).is_file():
        raise ValidationError(f"snapshot file not found: {args.snapshots}")
    out = Path(args.out)
    write_manifest(out, "compare", vars(args), [args.config, args.snapshots])
    spec = _discrete_spec(spec, args.discretize_samples, args.bin_width, args.seed)
    vectors = read_snapshots_csv(args.snapshots)
    if vectors and len(vectors[0]) != spec.cell_count:
        raise ValidationError(
            f"snapshot dimension {len(vectors[0])} != cell count {spec.cell_count}")
    emp = stats.empirical_joint(vectors)
    form = analytic.cell_product_form(spec)
    coords = spec.coordinates() if args.distance_max is not None else None
    if args.distance_max is not None and coords is None:
        raise ValidationError("--distance-max requires cell coordinates in the config")

    rows = []
    if args.subset_size is not None:
        sizes = [args.subset_size]
    else:
        sizes = list(range(1, min(5, spec.cell_count) + 1))
    rng = np.random.default_rng(args.seed)
    for n in sizes:
        study = stats.random_subset_study(emp, form, n, args.repeats, rng,
                                          coordinates=coords,
                                          max_distance=args.distance_max)
        # the entropy gap needs two or more cells
        gap = (study.h_gap_mean, study.h_gap_std) if n > 1 else ("", "")
        rows.append((n, study.h_kl_mean, study.h_kl_std, *gap,
                     study.h_real_mean, study.h_real_std))
    _write_csv(out / "subset_metrics.csv", ["n", "h_kl_mean", "h_kl_std", "h_gap_mean",
                                            "h_gap_std", "h_real_mean", "h_real_std"],
               ([row[0]] + [repr(v) if v != "" else "" for v in row[1:]] for row in rows))
    print(f"compare: subset metrics for n={sizes} written to {out}")
    return 0


# ---------------------------------------------------------------------------
# fixture
# ---------------------------------------------------------------------------

def ap_name(cell: int) -> str:
    return f"AP{cell:03d}"


def _working_day_starts(n_days: int, cfg: PreprocessConfig) -> list[float]:
    """UTC timestamps of the working-window start for the first n weekdays
    from Monday 2004-01-05."""
    from datetime import datetime, timedelta, timezone

    day = datetime(2004, 1, 5, tzinfo=timezone.utc)
    out = []
    while len(out) < n_days:
        if day.weekday() in cfg.weekdays:
            out.append(day.timestamp() + cfg.work_start)
        day += timedelta(days=1)
    return out


def _poll_grid(entry: np.ndarray, exit_: np.ndarray, cadence: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """The polls of stages held on [entry, exit), in stage then time order:
    per poll, its stage and its epoch index i, for every
    i >= ceil(entry / cadence) with i * cadence < exit."""
    first = np.ceil(entry / cadence)
    # a stage has at most (exit - entry) / cadence + 1 polls, and the test
    # keeps a prefix of its candidates because i * cadence grows with i
    n = np.ceil((exit_ - entry) / cadence).astype(np.int64) + 2
    stage = np.repeat(np.arange(len(n)), n)
    epoch = first[stage] + np.arange(len(stage)) - np.repeat(np.cumsum(n) - n, n)
    keep = epoch * cadence < exit_[stage]
    return stage[keep], epoch[keep]


def generate_fixture(spec: model.NetworkSpec, seed: int, days: int, cadence: float = 300.0,
                     closed_users: int = 0, bursty_cell: int | None = None,
                     burst_size: int = 10, bursts_per_day: float = 6.0,
                     counts: dict | None = None) -> tuple[PollTable, dict]:
    """Synthetic polling trace with known ground truth.

    Per working day, one independent simulation replication fills the
    working window; sessions that would cross the window boundary are
    dropped (and not counted in the ground truth). A stage held on
    [entry, exit) is polled at every multiple of the cadence in that
    interval, so a stage shorter than the cadence may get no poll.
    Optionally adds always-present closed users and a bursty cell receiving
    batched one-stage arrivals, for exercising the classifier and the
    Poisson tests. If ``counts`` is a dict, it receives the sessions
    sampled, dropped, burst and in total, the stage and closed-user polls,
    and the stages and sessions that left no poll (the ground truth counts
    them all).
    """
    from . import sim
    from .polls import PollTable, PreprocessConfig

    pcfg = PreprocessConfig(poll_cadence=cadence)
    window = pcfg.work_end - pcfg.work_start
    day_starts = _working_day_starts(days, pcfg)
    rng = np.random.default_rng(seed)
    run_cfg = sim.SimConfig(horizon=window, warmup=0.0, snapshot_interval=window,
                            seed=seed)
    ap_index = {ap_name(c): c - 1 for c in range(1, spec.cell_count + 1)}
    burst_ap = ap_name(bursty_cell) if bursty_cell is not None else None
    burst_code = ap_index.setdefault(burst_ap, len(ap_index)) if burst_ap else None
    K = max(rs.route.n_stages for rs in spec.routes)
    route_cells = [rs.route.cells for rs in spec.routes]
    if burst_ap is not None:
        route_cells.append((burst_code + 1,))      # bursts ride a route of their own

    # the kept sessions, day by day (in arrival order, then the day's
    # bursts), at absolute times; truth sums add in this order
    rows = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64),
             np.zeros((0, K)))]
    users: list[str] = []
    sampled = bursts = 0
    for d, day0 in enumerate(day_starts):
        log = sim.emit_event_log(spec, run_cfg, replication=d)
        sampled += len(log)
        # a session that would cross the window boundary is dropped; truth stays exact
        kept = np.flatnonzero(log.arrival + np.cumsum(log.holds, axis=1)[:, -1] < window)
        rows.append((log.route[kept], day0 + log.arrival[kept], log.stages[kept],
                     log.holds[kept]))
        users += [f"u{d:03d}_{i:06d}" for i in kept.tolist()]
        if burst_ap is not None:
            t0 = day0 + rng.uniform(0, window - 3 * cadence, rng.poisson(bursts_per_day))
            n = len(t0) * burst_size
            bursts += n
            rows.append((np.full(n, len(route_cells)), np.repeat(t0, burst_size),
                         np.ones(n, dtype=np.int64),
                         np.full((n, K), [2 * cadence] + [0.0] * (K - 1))))
            users += [f"burst{d:03d}_{b:02d}_{u:02d}"
                      for b in range(len(t0)) for u in range(burst_size)]
    table = sim.SessionTable(*(np.concatenate(c) for c in zip(*rows)))
    closed = [f"closed{i:02d}" for i in range(closed_users)]
    users += closed

    visited, cells, entries, exits = table.visits(route_cells)
    aps, session = cells - 1, np.nonzero(visited)[0]
    visit, epoch = _poll_grid(entries, exits, cadence)
    n_epochs = int(window // cadence)
    closed_t = np.repeat(np.add.outer(day_starts, np.arange(n_epochs) * cadence),
                         closed_users, axis=0).ravel()
    closed_user = len(users) - closed_users + np.repeat(
        np.tile(np.arange(closed_users), len(day_starts)), n_epochs)
    user_index = {name: i for i, name in enumerate(users)}
    polls = PollTable.from_codes(
        np.concatenate([epoch * cadence, closed_t]),
        np.concatenate([aps[visit], np.full(len(closed_t), ap_index[ap_name(1)])]),
        ap_index, np.concatenate([session[visit], closed_user]), user_index,
        np.full(len(visit) + len(closed_t), 10))

    entered = np.bincount(aps, minlength=len(ap_index)).tolist()
    # every session has a first stage, and its visits start at these indices
    new_arrivals = np.bincount(aps[np.cumsum(table.stages) - table.stages],
                               minlength=len(ap_index)).tolist()
    held = np.bincount(aps, weights=table.holds[visited], minlength=len(ap_index)).tolist()
    if counts is not None:
        polled = np.bincount(visit, minlength=len(aps)) > 0
        counts.update(sessions_sampled=sampled,
                      sessions_dropped=sampled - len(table) + bursts,
                      burst_sessions=bursts, sessions_total=len(table),
                      stage_polls=len(visit), closed_user_polls=len(closed_t),
                      unpolled_stages=int(np.count_nonzero(~polled)),
                      unpolled_sessions=len(table) - len(np.unique(session[polled])))

    observed = days * window
    truth = {
        "seed": seed,
        "days": days,
        "cadence": cadence,
        "stage_table": {str(k): v for k, v in enumerate(np.bincount(table.stages).tolist())
                        if v},
        "sessions_total": len(table),
        "users_total": len(user_index),
        "closed_users": sorted(closed),
        "closed_fraction": closed_users / len(user_index) if user_index else 0.0,
        "bursty_aps": [burst_ap] if burst_ap else [],
        "sessions_starting_at_bursty": new_arrivals[burst_code] if burst_ap else 0,
        "per_ap": {
            name: {
                "entries": entered[code],
                "new_arrivals": new_arrivals[code],
                "hold_mean": held[code] / entered[code],
                "observed_time": observed,
                "arrival_rate": entered[code] / observed,
            }
            for name, code in sorted(ap_index.items()) if entered[code]
        },
    }
    return polls, truth


def write_polls_csv(polls: PollTable, path) -> None:
    """``timestamp,ap,user,packets`` rows in (timestamp, ap, user) order."""
    order = np.lexsort((polls.user, polls.ap, polls.t))
    _write_csv(path, ["timestamp", "ap", "user", "packets"],
               zip(map(repr, polls.t[order].tolist()),
                   [polls.aps[a] for a in polls.ap[order].tolist()],
                   [polls.users[u] for u in polls.user[order].tolist()],
                   polls.packets[order].tolist()))


def cmd_fixture(args) -> int:
    spec = _load_valid_spec(args.config)
    out = Path(args.out)
    write_manifest(out, "fixture", vars(args), [args.config])
    run: dict = {}
    start = time.perf_counter()
    polls, truth = generate_fixture(
        spec, seed=args.seed, days=args.days, cadence=args.cadence,
        closed_users=args.closed_users, bursty_cell=args.bursty_cell,
        burst_size=args.burst_size, bursts_per_day=args.bursts_per_day, counts=run)
    generated = time.perf_counter()
    write_polls_csv(polls, out / "polls.csv")
    _write_json(out / "ground_truth.json", truth)
    run.update(polls_written=len(polls), generate_s=generated - start,
               write_s=time.perf_counter() - generated)
    _write_json(out / "run.json", run)
    print(f"fixture: {len(polls)} poll records over {args.days} day(s) "
          f"written to {out}")
    return 0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace(args) -> int:
    from . import analytic, stats, trace

    if not Path(args.polls).is_file():
        raise ValidationError(f"poll file not found: {args.polls}")
    out = Path(args.out)
    write_manifest(out, "trace", vars(args), [args.polls])
    try:
        pcfg = trace.PreprocessConfig(
            departure_threshold=args.departure_threshold,
            pingpong_return=args.pingpong_return,
            closed_user_hours=args.closed_user_hours,
            poll_cadence=args.cadence,
        )
    except ValueError as exc:
        raise ValidationError(f"invalid trace settings: {exc}") from exc
    try:
        start = time.perf_counter()
        records, rejects = trace.parse_polls(args.polls)
        parsed_s = time.perf_counter() - start
        if not records:
            raise ValidationError(f"no usable poll records in {args.polls}")
        result = trace.run_pipeline(records, pcfg, rejects=rejects,
                                    interval=args.test_interval,
                                    eta_threshold=args.threshold_eta,
                                    theta_threshold=args.threshold_theta)
    except trace.TraceInputError as exc:
        raise ValidationError(f"{args.polls}: {exc}") from exc
    _write_json(out / "run.json", {"parse_polls": {"rows_in": len(records) + len(rejects),
                                                   "rows_out": len(records),
                                                   "rejected": len(rejects),
                                                   "wall_s": parsed_s},
                                   **result.counts})

    sessions, excluded = trace.exclusion_modes(
        result.sessions, result.invalid_aps, args.exclude_mode,
        exclude_one_stage=args.exclude_one_stage)

    trace.write_sessions_csv(sessions, out / "sessions.csv")
    trace.write_estimates_csv(result.estimates, out / "ap_params.csv")
    _write_csv(out / "stage_table.csv", ["stages", "observations"],
               trace.stage_table_rows(result.stage_table))
    _write_csv(out / "ap_validity.csv", ["ap", "eta", "eta_pass", "theta", "theta_pass",
                                         "valid"],
               ([ap, "" if v.independence.statistic is None else repr(v.independence.statistic),
                 v.independence.passed,
                 "" if v.poisson.statistic is None else repr(v.poisson.statistic),
                 v.poisson.passed, v.valid] for ap, v in sorted(result.validity.items())))

    # empirical occupancy at the observed poll epochs vs fitted product form
    aps = sorted(set(result.estimates) - excluded)
    occupancy = trace.occupancy_snapshots(sessions, aps, result.epochs)
    form = analytic.ProductForm(
        tuple(result.estimates[ap].poisson_mean for ap in aps), tuple(aps))
    rows = []
    for i, ap in enumerate(aps, start=1):
        emp = stats.empirical_joint(occupancy, [i])
        cmp = stats.compare_joint(emp, analytic.ProductForm((form.means[i - 1],)))
        rows.append([ap, repr(cmp.h_kl), repr(cmp.h_real), repr(cmp.kl_ratio)])
    _write_csv(out / "marginal_comparison.csv", ["ap", "h_kl", "h_real", "kl_ratio"], rows)

    report = {
        "records_in": result.records_in,
        "rejects": len(result.rejects),
        "cadence": result.cadence,
        "removed_days": result.removed_days,
        "open_users": len(result.open_users),
        "closed_users": len(result.closed_users),
        "closed_fraction": result.closed_fraction,
        "sessions": len(result.sessions),
        "sessions_after_exclusion": len(sessions),
        "stage_table": {str(k): v for k, v in sorted(result.stage_table.items())},
        "valid_aps": sorted(result.valid_aps),
        "invalid_aps": sorted(result.invalid_aps),
        "exclusion_mode": args.exclude_mode,
        "excluded_aps": sorted(excluded),
        "preprocessing_notes": list(result.notes),
    }
    _write_json(out / "report.json", report)
    print(f"trace: {len(result.sessions)} sessions, "
          f"{len(result.valid_aps)}/{len(result.validity)} valid APs; "
          f"outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multicell",
                                description="Multicell occupancy model toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=0)

    def discretization(sp):
        sp.add_argument("--discretize-samples", type=int, default=200_000,
                        help="Monte-Carlo samples when discretizing generative laws")
        sp.add_argument("--bin-width", type=float, default=1.0,
                        help="holding-time bin width in seconds for discretization")

    sp = sub.add_parser("analyze", help="closed-form per-stage/per-cell report")
    sp.add_argument("--config", required=True)
    common(sp)
    discretization(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("simulate", help="session-table simulation")
    sp.add_argument("--config", required=True)
    common(sp)
    sp.add_argument("--horizon", type=float, required=True, help="seconds")
    sp.add_argument("--warmup", type=float, default=None)
    sp.add_argument("--interval", type=float, default=None,
                    help="snapshot interval in seconds")
    sp.add_argument("--replications", type=int, default=1)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", help="empirical vs analytical joint metrics")
    sp.add_argument("--config", required=True)
    sp.add_argument("--snapshots", required=True, help="snapshot CSV from simulate")
    common(sp)
    discretization(sp)
    sp.add_argument("--subset-size", type=int, default=None)
    sp.add_argument("--repeats", type=int, default=100)
    sp.add_argument("--distance-max", type=float, default=None,
                    help="pairwise cell distance cap in meters")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("fixture", help="synthetic polling trace with ground truth")
    sp.add_argument("--config", required=True)
    common(sp)
    sp.add_argument("--days", type=int, default=5)
    sp.add_argument("--cadence", type=float, default=300.0)
    sp.add_argument("--closed-users", type=int, default=0)
    sp.add_argument("--bursty-cell", type=int, default=None)
    sp.add_argument("--burst-size", type=int, default=10)
    sp.add_argument("--bursts-per-day", type=float, default=6.0)
    sp.set_defaults(func=cmd_fixture)

    sp = sub.add_parser("trace", help="polling-log pipeline")
    sp.add_argument("--polls", required=True, help="poll CSV (optionally .gz)")
    common(sp)
    sp.add_argument("--cadence", type=float, default=None,
                    help="poll cadence in seconds (default: inferred)")
    sp.add_argument("--departure-threshold", type=float, default=600.0)
    sp.add_argument("--pingpong-return", type=float, default=300.0)
    sp.add_argument("--closed-user-hours", type=float, default=7.5)
    sp.add_argument("--test-interval", type=float, default=3600.0,
                    help="arrival-count bucket length for the Poisson tests")
    sp.add_argument("--threshold-eta", type=float, default=0.15)
    sp.add_argument("--threshold-theta", type=float, default=0.15)
    sp.add_argument("--exclude-mode", type=int, default=3, choices=(1, 2, 3),
                    help="1: drop sessions starting at invalid APs; "
                         "2: drop invalid APs from occupancy; 3: keep all")
    sp.add_argument("--exclude-one-stage", action="store_true")
    sp.set_defaults(func=cmd_trace)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
