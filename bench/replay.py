"""Traced in-process replay of a workload round, for the per-layer metrics.

Each subcommand is replayed by calling the same public functions that the
matching ``multicell.cli.cmd_*`` calls, in the same order, with arguments
parsed by the CLI's own parser. Spans (name, start, end, parent) are kept in
memory around each call and written out when the run ends. Calls made deep
inside the package are counted and timed by wrappers this module installs on
module attributes for the length of the traced replay; nothing in ``src/``
changes. Hot wrappers aggregate into per-subcommand totals instead of one
span per call.

The same replay also runs with tracing off, once before the traced replay
to warm the process up and once after it; the traced total minus the
second untraced total is the tracing overhead. Every replay's outputs must
equal the CLI round's outputs.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACE_STEPS = ("parse_polls", "filter_window", "filter_invalid_days",
               "resolve_multi_association", "pad_gaps", "classify_open_closed",
               "extract_sessions", "observed_days", "estimate_cell_params",
               "test_ap_validity", "occupancy_snapshots")
#: Files that the replay must reproduce byte for byte: they carry the cell
#: means, the snapshots, the subset metrics, the polls, the sessions and
#: the stage table of the round.
COMPARED = {"analyze": ("cell_means.csv", "cell_pmf.csv"),
            "simulate": ("snapshots.csv", "summary.csv"),
            "compare": ("subset_metrics.csv",),
            "fixture": ("polls.csv", "ground_truth.json"),
            "trace": ("sessions.csv", "ap_params.csv", "report.json")}


class Tracer:
    """Spans and counters of one replay. ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.stack: list[int] = []
        self.scope = ""                    # the subcommand being replayed
        self.totals: dict[tuple[str, str], float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def add(self, key: str, value: float) -> None:
        if self.enabled:
            self.totals[(self.scope, key)] += value

    def span_total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _parent in self.spans if n == name)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans],
                       "totals": [{"scope": sc, "name": k, "value": v}
                                  for (sc, k), v in sorted(self.totals.items())]}, fh)


@contextlib.contextmanager
def installed_wrappers(tracer: Tracer, mc):
    """Time and count deep calls through module attributes while tracing."""
    sim, stats, analytic = mc.sim, mc.stats, mc.analytic
    originals = [(sim, "sample_session", sim.sample_session),
                 (sim, "emit_event_log", sim.emit_event_log),
                 (stats.EmpiricalDistribution, "project", stats.EmpiricalDistribution.project),
                 (stats, "kl_divergence", stats.kl_divergence),
                 (stats, "entropy", stats.entropy),
                 (analytic, "decoupled_means", analytic.decoupled_means)]

    def timed(fn, key, count=None):
        def wrapper(*a, **kw):
            start = time.perf_counter()
            result = fn(*a, **kw)
            tracer.add(key + "_s", time.perf_counter() - start)
            tracer.add(key + "_calls", 1)
            if count is not None:
                tracer.add(key + "_n", count(a, result))
            return result
        return wrapper

    sim.sample_session = timed(originals[0][2], "sample_session")
    sim.emit_event_log = timed(originals[1][2], "emit_event_log", lambda a, r: len(r))
    stats.EmpiricalDistribution.project = timed(
        originals[2][2], "project", lambda a, r: len(a[0].counts))
    stats.kl_divergence = timed(originals[3][2], "kl_divergence")
    stats.entropy = timed(originals[4][2], "entropy")
    analytic.decoupled_means = timed(originals[5][2], "decoupled_means", lambda a, r: len(r))
    try:
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


class CountingRng:
    """Generator proxy that counts subset draws (``choice`` calls)."""

    def __init__(self, rng, tracer: Tracer):
        self._rng, self._tracer = rng, tracer

    def choice(self, *a, **kw):
        self._tracer.add("subset_draws", 1)
        return self._rng.choice(*a, **kw)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# ---------------------------------------------------------------------------
# the subcommands, call for call as in multicell.cli
# ---------------------------------------------------------------------------

def _load_valid_spec(mc, path):
    spec = mc.model.load_spec(path)
    problems = mc.model.validate(spec)
    if problems:
        raise mc.cli.ValidationError("invalid network config:\n  " + "\n  ".join(problems))
    return spec


def _discrete_spec(mc, t: Tracer, spec, samples, bin_width, seed):
    model = mc.model
    routes = []
    with t.span("model.discretize"):
        for idx, rs in enumerate(spec.routes):
            if isinstance(rs.law, model.GenerativeSessionLaw):
                law = model.discretize(rs.law, samples, bin_width, seed + idx)
                t.add("discretize_samples", samples)
                t.add("discretized_realizations", sum(len(r) for r in law.realizations))
                rs = model.RouteSpec(rs.route, rs.arrival_rate, law)
            routes.append(rs)
    return model.NetworkSpec(spec.cell_count, tuple(routes), spec.cell_meta)


def analyze(mc, t: Tracer, args) -> None:
    analytic = mc.analytic
    spec = _load_valid_spec(mc, args.config)
    out = Path(args.out)
    with t.span("cli.write_manifest"):
        mc.cli.write_manifest(out, "analyze", vars(args), [args.config])
    spec = _discrete_spec(mc, t, spec, args.discretize_samples, args.bin_width, args.seed)
    with t.span("analytic.cell_means"):
        with open(out / "stage_means.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["route", "stage", "cell", "invariant_measure", "hold_mean",
                        "occupancy_mean"])
            for l, rs in enumerate(spec.routes, start=1):
                sm = analytic.stage_means(rs)
                for j, wp, tb, wj in zip(sm.stages, sm.w_prime, sm.t_bar, sm.w):
                    w.writerow([l, j, rs.route.cells[j - 1], repr(wp), repr(tb), repr(wj)])
        cm = analytic.cell_means(spec)
        analytic.write_cell_means_csv(cm, out / "cell_means.csv")
    with t.span("analytic.cell_pmf"):
        with open(out / "cell_pmf.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cell", "count", "probability"])
            for n, m in enumerate(cm.poisson_mean, start=1):
                form = analytic.ProductForm((m,))
                for y in range(analytic.poisson_truncation(m) + 1):
                    w.writerow([n, y, repr(form.pmf((y,)))])
                    t.add("cell_pmf_rows", 1)


def simulate(mc, t: Tracer, args) -> None:
    sim, analytic, model = mc.sim, mc.analytic, mc.model
    spec = _load_valid_spec(mc, args.config)
    out = Path(args.out)
    with t.span("cli.write_manifest"):
        mc.cli.write_manifest(out, "simulate", vars(args), [args.config])
    cfg = sim.SimConfig(horizon=args.horizon, warmup=args.warmup,
                        snapshot_interval=args.interval, seed=args.seed,
                        replications=args.replications)
    pooled = []
    for r in range(cfg.replications):
        with t.span("sim.run"):
            snaps = sim.run(spec, cfg, replication=r)
        with t.span("sim.write_snapshots_csv"):
            sim.write_snapshots_csv(snaps, out / f"snapshots_rep{r}.csv")
        t.add("snapshot_rows_written", len(snaps))
        pooled.extend(snaps)
    with t.span("sim.write_snapshots_csv"):
        sim.write_snapshots_csv(pooled, out / "snapshots.csv")
    t.add("snapshot_rows_written", len(pooled))
    t.add("snapshots", len(pooled))

    counts = np.array([s.cell_counts for s in pooled], dtype=float)
    emp_mean = counts.mean(axis=0)
    all_discrete = all(isinstance(rs.law, model.DiscreteSessionLaw) for rs in spec.routes)
    with t.span("analytic.cell_means"):
        analytic_means = analytic.cell_means(spec).poisson_mean if all_discrete else None
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "empirical_mean", "analytic_mean", "relative_error"])
        for n in range(spec.cell_count):
            if analytic_means is not None and analytic_means[n] > 0:
                rel = abs(emp_mean[n] - analytic_means[n]) / analytic_means[n]
                w.writerow([n + 1, repr(float(emp_mean[n])),
                            repr(analytic_means[n]), repr(float(rel))])
            else:
                w.writerow([n + 1, repr(float(emp_mean[n])), "", ""])


def compare(mc, t: Tracer, args) -> None:
    cli, stats, analytic = mc.cli, mc.stats, mc.analytic
    spec = _load_valid_spec(mc, args.config)
    out = Path(args.out)
    with t.span("cli.write_manifest"):
        cli.write_manifest(out, "compare", vars(args), [args.config, args.snapshots])
    spec = _discrete_spec(mc, t, spec, args.discretize_samples, args.bin_width, args.seed)
    with t.span("cli.read_snapshots_csv"):
        vectors = cli.read_snapshots_csv(args.snapshots)
    t.add("snapshot_rows_read", len(vectors))
    if vectors and len(vectors[0]) != spec.cell_count:
        raise cli.ValidationError(
            f"snapshot dimension {len(vectors[0])} != cell count {spec.cell_count}")
    with t.span("stats.empirical_joint"):
        emp = stats.empirical_joint(vectors)
    t.add("distinct_vectors", len(emp.counts))
    with t.span("analytic.cell_means"):
        form = analytic.cell_product_form(spec)
    coords = spec.coordinates() if args.distance_max is not None else None
    if args.distance_max is not None and coords is None:
        raise cli.ValidationError("--distance-max requires cell coordinates in the config")

    sizes = ([args.subset_size] if args.subset_size is not None
             else list(range(1, min(5, spec.cell_count) + 1)))
    rng = np.random.default_rng(args.seed)
    if t.enabled:
        rng = CountingRng(rng, t)
    project = stats.EmpiricalDistribution.project

    def counting_project(self, subset):
        if self is emp:
            t.add("subsets_accepted", 1)
        return project(self, subset)

    rows = []
    with t.span("stats.random_subset_study"):
        if t.enabled:
            stats.EmpiricalDistribution.project = counting_project
        try:
            for n in sizes:
                study = stats.random_subset_study(emp, form, n, args.repeats, rng,
                                                  coordinates=coords,
                                                  max_distance=args.distance_max)
                if n == 1:
                    rows.append((1, study.h_kl_mean, study.h_kl_std, "", "",
                                 study.h_real_mean, study.h_real_std))
                else:
                    rows.append((n, study.h_kl_mean, study.h_kl_std,
                                 study.h_gap_mean, study.h_gap_std,
                                 study.h_real_mean, study.h_real_std))
        finally:
            stats.EmpiricalDistribution.project = project
    with open(out / "subset_metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "h_kl_mean", "h_kl_std", "h_gap_mean", "h_gap_std",
                    "h_real_mean", "h_real_std"])
        for row in rows:
            w.writerow([row[0]] + [repr(v) if v != "" else "" for v in row[1:]])


def fixture(mc, t: Tracer, args) -> None:
    cli = mc.cli
    spec = _load_valid_spec(mc, args.config)
    out = Path(args.out)
    with t.span("cli.write_manifest"):
        cli.write_manifest(out, "fixture", vars(args), [args.config])
    with t.span("cli.generate_fixture"):
        records, truth = cli.generate_fixture(
            spec, seed=args.seed, days=args.days, cadence=args.cadence,
            closed_users=args.closed_users, bursty_cell=args.bursty_cell,
            burst_size=args.burst_size, bursts_per_day=args.bursts_per_day)
    t.add("poll_records", len(records))
    with t.span("cli.write_polls_csv"):
        cli.write_polls_csv(records, out / "polls.csv")
    with open(out / "ground_truth.json", "w") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")


def trace(mc, t: Tracer, args) -> None:
    cli, tr, stats, analytic = mc.cli, mc.trace, mc.stats, mc.analytic
    out = Path(args.out)
    with t.span("cli.write_manifest"):
        cli.write_manifest(out, "trace", vars(args), [args.polls])

    def step(name, rows_in, fn, *a, rows_out=len, **kw):
        with t.span(f"trace.{name}"):
            result = fn(*a, **kw)
        t.add(f"{name}_rows_in", rows_in)
        t.add(f"{name}_rows_out", rows_out(result))
        return result

    records, rejects = step("parse_polls", 0, tr.parse_polls, args.polls,
                            rows_out=lambda r: len(r[0]))
    t.add("parse_polls_rows_in", len(records) + len(rejects))
    if not records:
        raise cli.ValidationError(f"no usable poll records in {args.polls}")
    cfg = tr.PreprocessConfig(
        departure_threshold=args.departure_threshold,
        pingpong_return=args.pingpong_return,
        closed_user_hours=args.closed_user_hours,
        poll_cadence=args.cadence,
    )
    # run_pipeline, step by step
    cadence = cfg.poll_cadence if cfg.poll_cadence is not None else tr.infer_cadence(records)
    n_in = len(records)
    recs = step("filter_window", len(records), tr.filter_window, records, cfg)
    recs, removed = step("filter_invalid_days", len(recs), tr.filter_invalid_days,
                         recs, cfg, cadence, rows_out=lambda r: len(r[0]))
    recs = step("resolve_multi_association", len(recs), tr.resolve_multi_association,
                recs, cfg, cadence)
    recs = step("pad_gaps", len(recs), tr.pad_gaps, recs, cfg, cadence)
    open_users, closed_users, frac = step(
        "classify_open_closed", len(recs), tr.classify_open_closed, recs, cfg, cadence,
        rows_out=lambda r: sum(1 for x in recs if x.user in r[0]))
    sessions, table = step("extract_sessions", len(recs), tr.extract_sessions,
                           recs, cfg, cadence, users=open_users,
                           rows_out=lambda r: len(r[0]))
    ap_days = step("observed_days", len(recs), tr.observed_days, recs,
                   rows_out=lambda r: sum(len(d) for d in r.values()))
    estimates, series = step("estimate_cell_params", len(sessions), tr.estimate_cell_params,
                             sessions, cfg, ap_days, args.test_interval,
                             rows_out=lambda r: len(r[0]))
    validity = step("test_ap_validity", len(series), tr.test_ap_validity, series,
                    args.test_interval, args.threshold_eta, args.threshold_theta,
                    rows_out=lambda r: sum(1 for v in r.values() if v.valid))
    result = tr.TraceResult(cadence, n_in, rejects or [], removed, open_users,
                            closed_users, frac, sessions, table, estimates, series,
                            validity, ap_days)

    sessions, excluded = tr.exclusion_modes(
        result.sessions, result.invalid_aps, args.exclude_mode,
        exclude_one_stage=args.exclude_one_stage)
    with t.span("trace.write_outputs"):
        tr.write_sessions_csv(sessions, out / "sessions.csv")
        tr.write_estimates_csv(result.estimates, out / "ap_params.csv")
        with open(out / "stage_table.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["stages", "observations"])
            for label, count in tr.stage_table_rows(result.stage_table):
                w.writerow([label, count])
        with open(out / "ap_validity.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ap", "eta", "eta_pass", "theta", "theta_pass", "valid"])
            for ap, v in sorted(result.validity.items()):
                w.writerow([
                    ap,
                    "" if v.independence.statistic is None else repr(v.independence.statistic),
                    v.independence.passed,
                    "" if v.poisson.statistic is None else repr(v.poisson.statistic),
                    v.poisson.passed, v.valid])

    aps = sorted(set(result.estimates) - excluded)
    epochs = sorted({r.timestamp for r in records})
    occupancy = step("occupancy_snapshots", len(sessions), tr.occupancy_snapshots,
                     sessions, aps, epochs)
    with t.span("trace.write_outputs"):
        form = analytic.ProductForm(
            tuple(result.estimates[ap].poisson_mean for ap in aps), tuple(aps))
        with open(out / "marginal_comparison.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ap", "h_kl", "h_real", "kl_ratio"])
            for i, ap in enumerate(aps, start=1):
                emp = stats.empirical_joint(occupancy, [i])
                cmp = stats.compare_joint(emp, analytic.ProductForm((form.means[i - 1],)))
                w.writerow([ap, repr(cmp.h_kl), repr(cmp.h_real), repr(cmp.kl_ratio)])
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
        with open(out / "report.json", "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


REPLAYS = {"analyze": analyze, "simulate": simulate, "compare": compare,
           "fixture": fixture, "trace": trace}


def replay_round(mc, t: Tracer, wl, wl_dir: Path, round_dir: Path) -> float:
    """Replay every step of the workload in this process; returns the total
    wall time of the replayed subcommands."""
    parser = mc.cli.build_parser()
    total = 0.0
    for st in wl.steps:
        args = parser.parse_args(st.command(wl_dir, round_dir))
        t.scope = st.name
        start = time.perf_counter()
        with t.span(st.name):
            REPLAYS[st.name](mc, t, args)
        total += time.perf_counter() - start
    return total


def import_seconds(env: dict, root: Path, repeats: int = 3) -> float:
    """Median wall time of a process that starts and imports multicell.cli."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import multicell.cli"], env=env, cwd=root,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def differing_outputs(wl, cli_dir: Path, replay_dir: Path) -> list[str]:
    problems = []
    for st in wl.steps:
        for name in COMPARED[st.name]:
            a, b = cli_dir / st.out / name, replay_dir / st.out / name
            if not (a.exists() and b.exists()) or a.read_bytes() != b.read_bytes():
                problems.append(f"replay {st.out}/{name} differs from the CLI run's")
    return problems


def layer_metrics(t: Tracer, import_s: float) -> dict:
    """The per-layer metrics, by name, from one traced replay."""
    def tot(scope, key):
        return t.totals.get((scope, key), 0.0)

    def all_scopes(key):
        return sum(v for (_sc, k), v in t.totals.items() if k == key)

    m = {
        "cli.import_s": import_s,
        "cli.write_manifest_s": t.span_total("cli.write_manifest"),
        "cli.read_snapshots_csv_s": t.span_total("cli.read_snapshots_csv"),
        "cli.snapshot_rows_read": tot("compare", "snapshot_rows_read"),
        "cli.generate_fixture_s": t.span_total("cli.generate_fixture"),
        "cli.poll_records": tot("fixture", "poll_records"),
        "cli.write_polls_csv_s": t.span_total("cli.write_polls_csv"),
        "model.discretize_s": t.span_total("model.discretize"),
        "model.discretize_samples": all_scopes("discretize_samples"),
        "model.discretized_realizations": all_scopes("discretized_realizations"),
        "analytic.cell_means_s": t.span_total("analytic.cell_means"),
        "analytic.decoupled_branches": all_scopes("decoupled_means_n"),
        "analytic.cell_pmf_s": t.span_total("analytic.cell_pmf"),
        "analytic.cell_pmf_rows": tot("analyze", "cell_pmf_rows"),
        "sim.run_s": t.span_total("sim.run"),
        "sim.sessions_sampled": tot("simulate", "sample_session_calls"),
        "sim.sample_session_s": tot("simulate", "sample_session_s"),
        "sim.snapshots": tot("simulate", "snapshots"),
        "sim.emit_event_log_s": tot("fixture", "emit_event_log_s"),
        "sim.sessions_logged": tot("fixture", "emit_event_log_n"),
        "sim.write_snapshots_csv_s": t.span_total("sim.write_snapshots_csv"),
        "sim.snapshot_rows_written": tot("simulate", "snapshot_rows_written"),
        "stats.empirical_joint_s": t.span_total("stats.empirical_joint"),
        "stats.distinct_vectors": tot("compare", "distinct_vectors"),
        "stats.project_s": tot("compare", "project_s"),
        "stats.project_calls": tot("compare", "project_calls"),
        "stats.project_rows": tot("compare", "project_n"),
        "stats.kl_divergence_s": tot("compare", "kl_divergence_s"),
        "stats.entropy_s": tot("compare", "entropy_s"),
        "stats.subset_draws": tot("compare", "subset_draws"),
        "stats.subsets_accepted": tot("compare", "subsets_accepted"),
    }
    for name in TRACE_STEPS:
        m[f"trace.{name}_s"] = t.span_total(f"trace.{name}")
        m[f"trace.{name}_rows_in"] = tot("trace", f"{name}_rows_in")
        m[f"trace.{name}_rows_out"] = tot("trace", f"{name}_rows_out")
    m["trace.write_outputs_s"] = t.span_total("trace.write_outputs")
    return m


def traced_run(wl, wl_dir: Path, env: dict, run_round, root: Path) -> dict:
    """One CLI round, three in-process replays of it (untraced, traced,
    untraced), and the per-layer metrics of the traced one."""
    cli_dir = wl_dir / "round"
    first = run_round(wl, wl_dir, cli_dir, env)
    replays = (("warmup", False), ("traced", True), ("untraced", False))
    # each replay, with its comparison against the CLI round, is one more operation
    attempted, failures = first["attempted"] + len(replays), list(first["failures"])

    sys.path.insert(0, str(root / "src"))
    import multicell as mc

    totals = {}
    tracers = {}
    for label, enabled in replays:
        out_dir = wl_dir / f"replay_{label}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        for st in wl.steps:
            (out_dir / st.out).mkdir(parents=True, exist_ok=True)
        t = Tracer(enabled)
        wrappers = installed_wrappers(t, mc) if enabled else contextlib.nullcontext()
        try:
            with wrappers:
                totals[label] = replay_round(mc, t, wl, wl_dir, out_dir)
        except Exception as exc:   # the program failed; report it as a failed operation
            failures.append(f"{label} replay raised {exc!r}")
            totals[label] = math.nan
        tracers[label] = t
        differing = differing_outputs(wl, cli_dir, out_dir)
        if differing:
            failures.append(f"{label} replay: " + "; ".join(differing))
    traced = tracers["traced"]
    traced.dump(wl_dir / "spans.json")
    metrics = layer_metrics(traced, import_seconds(env, root))
    unit = {True: "s", False: "count"}
    overhead = totals["traced"] - totals["untraced"]
    notes = [f"replay total untraced {totals['untraced']:.3f} s, traced {totals['traced']:.3f} s, "
             f"tracing overhead {overhead:.3f} s "
             f"({100 * overhead / totals['untraced']:.1f} %)",
             f"spans: {len(traced.spans)} written to {wl_dir / 'spans.json'}"]
    return {"attempted": attempted, "failures": failures, "notes": notes,
            "metrics": {k: {"value": float(v), "unit": unit[k.endswith("_s")]}
                        for k, v in metrics.items()}}
