"""Output checks, one per subcommand.

Each check reads one subcommand's output directory and returns a list of
problems; an empty list means the outputs are correct. Expected values come
from ``reference`` and from the benchmark's own reading of the inputs,
never from a stored copy of earlier outputs and never from ``multicell``.

Statistical checks are stated in standard errors (``Z_BOUND``), so a change
to the random stream that keeps the law still passes.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import reference

#: Standard errors a Monte-Carlo or simulated mean may sit from the exact
#: value. A 6-SE shift always fails; with 40-100 batches a correct run
#: fails a cell with probability of order 1e-6.
Z_BOUND = 5.5
REL_EXACT = 1e-9
PMF_MASS = 1.0 - 1e-8
#: Criterion 8: the distance cap may move mean h_kl by less than this.
CAP_NEUTRALITY_BITS = 0.02
LN2 = math.log(2.0)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_snapshot_counts(path: Path) -> np.ndarray:
    """Count columns of a ``time,y1..yC`` snapshot file as an (n, C) array."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns, header has {len(header)}")
    return data[:, 1:].astype(np.int64)


def batch_means(series: np.ndarray, batches: int) -> np.ndarray:
    """Per-column batch means (batches, C) over one replication's series."""
    size = len(series) // batches
    if size < 1:
        raise ValueError(f"{len(series)} snapshots cannot form {batches} batches")
    return series[: size * batches].reshape(batches, size, -1).mean(axis=1)


def _rel_close(a: float, b: float, rel: float = REL_EXACT) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


# ---------------------------------------------------------------------------
# model chain
# ---------------------------------------------------------------------------

def check_analyze(out: Path, ref: dict) -> list[str]:
    problems = []
    rows = read_csv(out / "cell_means.csv")
    exact, se = ref["cell_means"], ref["discretization_se"]
    if len(rows) != len(exact):
        return [f"cell_means.csv has {len(rows)} cells, expected {len(exact)}"]
    for row, m, s in zip(rows, exact, se):
        got = float(row["poisson_mean"])
        if s == 0.0:
            if not _rel_close(got, m):
                problems.append(f"cell {row['cell']}: mean {got!r} != exact {m!r}")
        elif abs(got - m) > Z_BOUND * s:
            problems.append(f"cell {row['cell']}: mean {got!r} is "
                            f"{abs(got - m) / s:.2f} SE from exact {m!r}")
    mass: dict[str, float] = defaultdict(float)
    for row in read_csv(out / "cell_pmf.csv"):
        mass[row["cell"]] += float(row["probability"])
    for c in range(1, len(exact) + 1):
        if mass.get(str(c), 0.0) < PMF_MASS:
            problems.append(f"cell_pmf.csv: cell {c} mass {mass.get(str(c), 0.0)!r} "
                            f"< {PMF_MASS!r}")
    return problems


def simulate_summary(out: Path, facts: dict) -> dict:
    """Pooled means, batch-means standard errors and effective sample size
    of one simulate output, read by the benchmark itself."""
    reps = [read_snapshot_counts(out / f"snapshots_rep{r}.csv")
            for r in range(facts["replications"])]
    batch = np.concatenate([batch_means(x, facts["batches"]) for x in reps])
    pooled = np.concatenate(reps)
    mean = pooled.mean(axis=0)
    se = batch.std(axis=0, ddof=1) / math.sqrt(len(batch))
    var = pooled.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ess = np.where(se > 0, var / (se * se), len(pooled))
    return {"reps": reps, "mean": mean, "se": se,
            "ess": float(np.min(np.minimum(ess, len(pooled))))}


def check_simulate(out: Path, ref: dict, facts: dict) -> list[str]:
    problems = []
    expected = math.floor((facts["horizon"] - facts["warmup"]) / facts["interval"]) + 1
    summary = simulate_summary(out, facts)
    for r, x in enumerate(summary["reps"]):
        if len(x) != expected:
            problems.append(f"replication {r}: {len(x)} snapshots, expected {expected}")
    pooled_rows = sum(1 for _ in open(out / "snapshots.csv")) - 1
    if pooled_rows != expected * facts["replications"]:
        problems.append(f"snapshots.csv: {pooled_rows} rows, expected "
                        f"{expected * facts['replications']}")
    for c, (m, got, s) in enumerate(zip(ref["cell_means"], summary["mean"], summary["se"]), 1):
        if s > 0 and abs(got - m) > Z_BOUND * s:
            problems.append(f"cell {c}: simulated mean {got:.5f} is "
                            f"{abs(got - m) / s:.2f} batch SE from closed form {m:.5f}")
        elif s == 0 and got != m:
            problems.append(f"cell {c}: constant simulated occupancy {got} != {m}")
    for row in read_csv(out / "summary.csv"):
        c = int(row["cell"])
        if not _rel_close(float(row["empirical_mean"]), float(summary["mean"][c - 1])):
            problems.append(f"summary.csv: cell {c} empirical_mean "
                            f"{row['empirical_mean']} != snapshot mean {summary['mean'][c - 1]!r}")
    return problems


def kl_bound(distinct: int, n_eff: float) -> float:
    """Upper bound, in bits, on the plug-in KL of an n_eff-sample empirical
    distribution over ``distinct`` support points against the true law:
    2 n ln2 KL is about chi-square with distinct-1 degrees of freedom; take
    twice its mean plus six standard deviations."""
    dof = max(distinct - 1, 1)
    return (2.0 * dof + 6.0 * math.sqrt(2.0 * dof)) / (2.0 * n_eff * LN2)


def check_compare(out: Path, ref: dict, facts: dict, bound: float,
                  round_dir: Path) -> list[str]:
    """h_kl of every subset size stays below the finite-sample bound of the
    full joint (projection never increases KL); on independent draws,
    h_real matches the exact entropy and the distance cap is neutral."""
    problems = []
    rows = read_csv(out / "subset_metrics.csv")
    if not rows:
        return ["subset_metrics.csv has no rows"]
    for row in rows:
        h_kl = float(row["h_kl_mean"])
        if not 0.0 <= h_kl <= bound:
            problems.append(f"n={row['n']}: h_kl_mean {h_kl!r} outside [0, {bound:.5f}]")
    if "h_real_window" in ref:
        h, lo, hi = ref["h_real_window"]
        for row in rows:
            h_real = float(row["h_real_mean"])
            if not lo <= h_real <= hi:
                problems.append(f"n={row['n']}: h_real_mean {h_real!r} outside "
                                f"[{lo:.5f}, {hi:.5f}] around exact {h:.5f}")
    pair = facts.get("capped_pair")
    if pair and out.name == pair[1]:
        free = read_csv(round_dir / pair[0] / "subset_metrics.csv")
        diff = abs(float(free[0]["h_kl_mean"]) - float(rows[0]["h_kl_mean"]))
        if not diff < CAP_NEUTRALITY_BITS:
            problems.append(f"distance cap moved mean h_kl by {diff:.4f} bits")
    return problems


# ---------------------------------------------------------------------------
# trace chain
# ---------------------------------------------------------------------------

WORK_HOURS = (9 * 3600.0, 17 * 3600.0)
CADENCE = 300.0


def poll_census(polls: Path) -> dict:
    """The benchmark's own reading of polls.csv: rows, users present at
    least 7.5 h on some working day (closed), and the rows of all others."""
    per_user_day: dict[tuple[str, str], int] = defaultdict(int)
    per_user: dict[str, int] = defaultdict(int)
    off_grid = outside = rows = 0
    with open(polls, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for ts, _ap, user, _packets in reader:
            t = float(ts)
            rows += 1
            dt = datetime.fromtimestamp(t, tz=timezone.utc)
            sec = t % 86400.0
            if t % CADENCE:
                off_grid += 1
            if dt.weekday() > 4 or not WORK_HOURS[0] <= sec < WORK_HOURS[1]:
                outside += 1
            per_user_day[(user, dt.date().isoformat())] += 1
            per_user[user] += 1
    closed = {u for (u, _d), n in per_user_day.items() if n * CADENCE >= 7.5 * 3600.0}
    open_rows = sum(n for u, n in per_user.items() if u not in closed)
    return {"rows": rows, "closed": closed, "open_rows": open_rows,
            "off_grid": off_grid, "outside": outside}


def check_fixture(out: Path) -> list[str]:
    """Ground truth is self-consistent and polls.csv holds exactly the
    polls it implies: one per 300 s of every stage, plus every closed
    user's full working day."""
    problems = []
    truth = json.loads((out / "ground_truth.json").read_text())
    census = poll_census(out / "polls.csv")
    table = {int(k): v for k, v in truth["stage_table"].items()}
    if sum(table.values()) != truth["sessions_total"]:
        problems.append("ground truth stage table does not sum to sessions_total")
    entries = sum(t["entries"] for t in truth["per_ap"].values())
    if entries != sum(k * v for k, v in table.items()):
        problems.append(f"ground truth: {entries} AP entries, stage table implies "
                        f"{sum(k * v for k, v in table.items())}")
    hold_polls = sum(t["entries"] * t["hold_mean"] for t in truth["per_ap"].values()) / CADENCE
    days, closed = truth["days"], len(truth["closed_users"])
    expected = round(hold_polls) + closed * days * int((WORK_HOURS[1] - WORK_HOURS[0]) // CADENCE)
    if abs(hold_polls - round(hold_polls)) > 1e-6 or census["rows"] != expected:
        problems.append(f"polls.csv has {census['rows']} rows, ground truth implies "
                        f"{hold_polls:.6f} stage polls + closed-user polls = {expected}")
    if census["off_grid"] or census["outside"]:
        problems.append(f"polls.csv: {census['off_grid']} polls off the 300 s grid, "
                        f"{census['outside']} outside the working window")
    if census["closed"] != set(truth["closed_users"]):
        problems.append(f"closed users in polls.csv {sorted(census['closed'])} != "
                        f"ground truth {truth['closed_users']}")
    return problems


def check_trace(out: Path, fixture_out: Path) -> list[str]:
    problems = []
    census = poll_census(fixture_out / "polls.csv")
    truth = json.loads((fixture_out / "ground_truth.json").read_text())
    report = json.loads((out / "report.json").read_text())
    if report["stage_table"] != truth["stage_table"]:
        problems.append(f"stage table {report['stage_table']} != truth {truth['stage_table']}")
    est = {r["ap"]: r for r in read_csv(out / "ap_params.csv")}
    if set(est) != set(truth["per_ap"]):
        problems.append(f"APs estimated {sorted(est)} != truth {sorted(truth['per_ap'])}")
    for ap, t in truth["per_ap"].items():
        if ap not in est:
            continue
        if not _rel_close(float(est[ap]["arrival_rate"]), t["arrival_rate"]):
            problems.append(f"{ap}: arrival rate {est[ap]['arrival_rate']} != {t['arrival_rate']!r}")
        if not _rel_close(float(est[ap]["hold_mean"]), t["hold_mean"]):
            problems.append(f"{ap}: mean hold {est[ap]['hold_mean']} != {t['hold_mean']!r}")
    if report["closed_users"] != len(truth["closed_users"]):
        problems.append(f"{report['closed_users']} closed users, truth "
                        f"{len(truth['closed_users'])}")
    missed = set(truth["bursty_aps"]) - set(report["invalid_aps"])
    if missed:
        problems.append(f"bursty AP(s) {sorted(missed)} not among invalid APs")
    user_time = math.fsum(float(r["exit"]) - float(r["entry"])
                          for r in read_csv(out / "sessions.csv"))
    expected = CADENCE * census["open_rows"]
    if abs(user_time - expected) > 1e-6 * expected:
        problems.append(f"sessions.csv holds {user_time!r} user-seconds, open-user polls "
                        f"imply {expected!r}")
    return problems


def compare_reference(draw_means, rows: int, distinct_triples: int) -> tuple[float, float, float]:
    """(exact entropy, lower, upper) window for h_real of 3-cell subsets of
    ``rows`` independent product-form draws: the plug-in estimate sits below
    the exact value by up to twice its first-order bias, give or take six
    standard errors."""
    h, var = 0.0, 0.0
    for m in draw_means:
        hm, vm = reference.poisson_entropy_moments(m)
        h += hm
        var += vm
    se = math.sqrt(var / rows)
    bias = (distinct_triples - 1) / (2.0 * rows * LN2)
    return h, h - 2.0 * bias - 6.0 * se, h + 6.0 * se


# ---------------------------------------------------------------------------
# per-run reference values and dispatch
# ---------------------------------------------------------------------------

def reference_values(wl) -> dict:
    """Exact numbers the checks compare against, computed once per run."""
    ref = {"cell_means": reference.cell_means(wl.config),
           "discretization_se": reference.discretization_se(
               wl.config, wl.facts.get("discretize_samples", 1))}
    if "draws" in wl.facts:
        draws = wl.facts["draws"]
        # the most distinct vectors any 3-cell projection of the draws has
        triples = [(a, b, c) for a in range(12) for b in range(a + 1, 12)
                   for c in range(b + 1, 12)]
        base = int(draws.max()) + 1
        distinct = max(len(np.unique((draws[:, a] * base + draws[:, b]) * base + draws[:, c]))
                       for a, b, c in triples)
        ref["h_real_window"] = compare_reference(
            [wl.facts["draw_mean"]] * 3, len(draws), distinct)
        ref["draws_kl_bound"] = kl_bound(distinct, len(draws))
    return ref


def compare_kl_bound(wl, round_dir: Path) -> float:
    """Finite-sample h_kl bound for this round's compare input."""
    ref = wl.ref
    if "draws_kl_bound" in ref:
        return ref["draws_kl_bound"]
    summary = simulate_summary(round_dir / "simulate", wl.facts)
    pooled = np.concatenate(summary["reps"])
    distinct = len(np.unique(pooled, axis=0))
    bound = kl_bound(distinct, summary["ess"])
    # compare's product form uses Monte-Carlo means and the snapshots have
    # their own sampling error; allow six SE of each in the model mismatch
    for m, s_mc, s_sim in zip(ref["cell_means"], ref["discretization_se"], summary["se"]):
        if m > 0:
            d_mc, d_sim = 6.0 * s_mc, 6.0 * s_sim
            bound += (d_mc * d_sim / m + (m + d_sim) * d_mc * d_mc / (2 * m * m)) / LN2
    return bound


def check_step(step, wl, round_dir: Path) -> list[str]:
    """Problems in one step's outputs in ``round_dir``."""
    out, ref = round_dir / step.out, wl.ref
    if step.name == "analyze":
        return check_analyze(out, ref)
    if step.name == "simulate":
        return check_simulate(out, ref, wl.facts)
    if step.name == "compare":
        return check_compare(out, ref, wl.facts, compare_kl_bound(wl, round_dir), round_dir)
    if step.name == "fixture":
        return check_fixture(out)
    if step.name == "trace":
        return check_trace(out, round_dir / "fixture")
    raise ValueError(f"no check for {step.name!r}")
