"""Self-test of the benchmark's reference calculator and checks.

    python3 bench/selftest.py

First the reference calculator is held against cases worked by hand. Then
one CLI round of every workload runs, every check must pass on its clean
outputs, and every check must report a failure on a copy of those outputs
with one corruption applied. Exits 0 only when every case behaves.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks
import reference
import replay
import run

FAILED: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[selftest] {'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# reference calculator against hand-worked cases
# ---------------------------------------------------------------------------

def discrete_route(cells, rate, stage_probs, realizations) -> dict:
    return {"cells": cells, "arrival_rate": rate, "law": {
        "kind": "discrete", "stage_probs": stage_probs,
        "realizations": [[{"weight": w, "holding": h} for w, h in per_k]
                         for per_k in realizations]}}


def test_reference() -> None:
    # M/D/inf: one cell, rate 2/s, hold 3 s -> Poisson mean 6
    mdinf = {"cells": 1, "routes": [discrete_route([1], 2.0, [1.0], [[(1.0, [3.0])]])]}
    expect(reference.cell_means(mdinf) == [6.0], "M/D/inf mean is rate x hold = 6")
    gen = {"cells": 1, "routes": [{"cells": [1], "arrival_rate": 2.0, "law": {
        "kind": "generative", "duration": {"family": "deterministic", "value": 3.0},
        "dwells": [{"family": "deterministic", "value": 5.0}]}}]}
    expect(reference.cell_means(gen) == [6.0], "generative M/D/inf: hold = min(T, dwell) = 3")

    # criterion 6's fixture spec: route (1,2) at 1/400 s with P(1 stage)=0.4,
    # holds 1200 | (900,600) or (1500,900); route (3) at 1/600 s holding 1800.
    # cell 1: (0.4*1200 + 0.6*1200)/400 = 3; cell 2: 0.6*750/400 = 1.125;
    # cell 3: 1800/600 = 3
    c6 = {"cells": 3, "routes": [
        discrete_route([1, 2], 1 / 400.0, [0.4, 0.6],
                       [[(1.0, [1200.0])], [(0.5, [900.0, 600.0]), (0.5, [1500.0, 900.0])]]),
        discrete_route([3], 1 / 600.0, [1.0], [[(1.0, [1800.0])]])]}
    got = reference.cell_means(c6)
    expect(all(close(g, w) for g, w in zip(got, [3.0, 1.125, 3.0])),
           f"criterion-6 spec cell means {got} == [3, 1.125, 3]")

    # shared speed on a lattice: T=1200, dwells (600, 600), speed 0.5 | 1.5.
    # scaling the duration: holds (300,300) | (900,900) -> both cells 0.01*600 = 6;
    # not scaling it: holds (300,300) | (900,300) -> cell 2 gets 0.01*300 = 3
    def speed_route(scale):
        return {"cells": 2, "routes": [{"cells": [1, 2], "arrival_rate": 0.01, "law": {
            "kind": "generative", "duration": {"family": "deterministic", "value": 1200.0},
            "dwells": [{"family": "deterministic", "value": 600.0}] * 2,
            "speed": {"family": "discrete", "values": [0.5, 1.5], "weights": [1.0, 1.0]},
            "speed_scales_duration": scale}}]}
    expect(reference.cell_means(speed_route(True)) == [6.0, 6.0],
           "shared speed scaling the duration gives (6, 6)")
    expect(reference.cell_means(speed_route(False)) == [6.0, 3.0],
           "shared speed on dwells alone gives (6, 3)")
    # a duration equal to the first dwell ends the session after stage 1
    tie = {"cells": 2, "routes": [{"cells": [1, 2], "arrival_rate": 1.0, "law": {
        "kind": "generative", "duration": {"family": "deterministic", "value": 600.0},
        "dwells": [{"family": "deterministic", "value": 600.0}] * 2}}]}
    expect(reference.cell_means(tie) == [600.0, 0.0], "T equal to the first dwell never reaches stage 2")
    se = reference.discretization_se(speed_route(True), 100)
    # X_1 is 300 or 900 with equal odds: sd 300, SE 0.01 * 300 / sqrt(100) = 0.3
    expect(all(close(s, 0.3) for s in se), f"discretization SE {se} == 0.3")

    # Poisson entropy against the closed series
    # H = m (1 - ln m) + exp(-m) sum_k m^k ln(k!) / k!  nats
    for m in (1.0, 3.0):
        series = m * (1 - math.log(m)) + math.exp(-m) * math.fsum(
            m ** k * math.lgamma(k + 1) / math.factorial(k) for k in range(2, 80))
        expect(close(reference.poisson_entropy(m), series / math.log(2), 1e-12),
               f"Poisson({m:g}) entropy {series:.7f} nats from the closed series")
    expect(reference.poisson_entropy(0.0) == 0.0, "Poisson(0) entropy is 0")
    # large mean: Gaussian limit 0.5 log2(2 pi e m) within 1e-3 bits
    expect(abs(reference.poisson_entropy(400.0)
               - 0.5 * math.log2(2 * math.pi * math.e * 400.0)) < 1e-3,
           "Poisson(400) entropy near its Gaussian limit")


# ---------------------------------------------------------------------------
# checks against corrupted outputs
# ---------------------------------------------------------------------------

def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, indent=2) + "\n")


def corrupted(wl, wl_dir: Path, clean: Path, step_out: str, what: str, corrupt,
              expect_text: str) -> None:
    """Copy the clean round, corrupt it, rerun that step's check, and
    require a problem that mentions ``expect_text``."""
    broken = wl_dir / "broken"
    if broken.exists():
        shutil.rmtree(broken)
    shutil.copytree(clean, broken)
    corrupt(broken)
    step = next(s for s in wl.steps if s.out == step_out)
    problems = checks.check_step(step, wl, broken)
    hit = any(expect_text in p for p in problems)
    expect(hit, f"{wl.name}: {what} -> {problems[:1] if problems else 'no problem reported'}")


def shift_analyze_mean(wl):
    def corrupt(d: Path):
        def edit(rows):
            c = 1
            exact, se = wl.ref["cell_means"][c - 1], wl.ref["discretization_se"][c - 1]
            got = float(rows[c][3])
            step = 6.0 * se if se > 0 else 1e-6 * exact
            rows[c][3] = repr(got + math.copysign(step, got - exact))
            return rows
        rewrite_csv(d / "analyze" / "cell_means.csv", edit)
    return corrupt


def shift_simulated_mean(wl):
    """Move cell 1's simulated occupancy by 6.5 batch SE: one count up (or
    down) on evenly spaced snapshots of every replication, so each batch
    moves alike and the batch SE stays put. The pooled file and summary
    are rewritten to match."""
    def corrupt(d: Path):
        out = d / "simulate"
        s = checks.simulate_summary(out, wl.facts)
        sign = 1 if s["mean"][0] >= wl.ref["cell_means"][0] else -1
        pooled = None
        for r in range(wl.facts["replications"]):
            with open(out / f"snapshots_rep{r}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            body = [row for row in rows[1:] if sign > 0 or int(row[1]) > 0]
            k = math.ceil(6.5 * float(s["se"][0]) * (len(rows) - 1))
            for i in range(k):
                row = body[i * len(body) // k]
                row[1] = str(int(row[1]) + sign)
            with open(out / f"snapshots_rep{r}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            pooled = rows if pooled is None else pooled + rows[1:]
        with open(out / "snapshots.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(pooled)
        new = checks.simulate_summary(out, wl.facts)

        def fix_summary(rows):
            rows[1][1] = repr(float(new["mean"][0]))
            return rows
        rewrite_csv(out / "summary.csv", fix_summary)
    return corrupt


def drop_last_row(rel: str):
    def corrupt(d: Path):
        rewrite_csv(d / rel, lambda rows: rows[:-1])
    return corrupt


def drop_middle_row(rel: str):
    def corrupt(d: Path):
        rewrite_csv(d / rel, lambda rows: rows[:len(rows) // 2] + rows[len(rows) // 2 + 1:])
    return corrupt


def edit_metric(out: str, column: str, fn):
    def corrupt(d: Path):
        def edit(rows):
            i = rows[0].index(column)
            rows[1][i] = repr(float(fn(float(rows[1][i]))))
            return rows
        rewrite_csv(d / out / "subset_metrics.csv", edit)
    return corrupt


def stage_table_off_by_one(d: Path):
    def edit(report):
        k = sorted(report["stage_table"])[0]
        report["stage_table"][k] += 1
    rewrite_json(d / "trace" / "report.json", edit)


def closed_count_off_by_one(d: Path):
    rewrite_json(d / "trace" / "report.json",
                 lambda r: r.__setitem__("closed_users", r["closed_users"] + 1))


def bursty_marked_valid(wl):
    def corrupt(d: Path):
        bursty = json.loads((d / "fixture" / "ground_truth.json").read_text())["bursty_aps"]
        rewrite_json(d / "trace" / "report.json",
                     lambda r: r.__setitem__("invalid_aps",
                                             [a for a in r["invalid_aps"] if a not in bursty]))
    return corrupt


def rate_nudged(d: Path):
    def edit(rows):
        i = rows[0].index("arrival_rate")
        rows[1][i] = repr(float(rows[1][i]) * (1 + 1e-6))
        return rows
    rewrite_csv(d / "trace" / "ap_params.csv", edit)


def test_checks() -> None:
    env = run.program_env()
    for name in run.SETUPS:
        wl, wl_dir = run.setup(name, seed=1)
        run.clear_previous(name)
        wl.ref = checks.reference_values(wl)
        clean = wl_dir / "round"
        result = run.run_round(wl, wl_dir, clean, env)
        expect(not result["failures"], f"{name}: every check passes on clean outputs "
               f"{result['failures']}")
        ref = wl.ref
        cases = [
            ("analyze", "a cell mean shifted by 6 SE (or 1e-6 relative when exact)",
             shift_analyze_mean(wl), "cell 1: mean"),
            ("analyze", "one cell_pmf.csv row removed", drop_middle_row("analyze/cell_pmf.csv"),
             "mass"),
            ("simulate", "a snapshot count short by one",
             drop_last_row("simulate/snapshots_rep0.csv"), "replication 0"),
            ("simulate", "a simulated cell mean shifted by 6.5 batch SE",
             shift_simulated_mean(wl), "batch SE"),
            ("fixture", "one poll row removed", drop_middle_row("fixture/polls.csv"),
             "polls.csv has"),
            ("trace", "one stage-table count off by one", stage_table_off_by_one,
             "stage table"),
            ("trace", "one session row removed", drop_middle_row("trace/sessions.csv"),
             "user-seconds"),
            ("trace", "an AP arrival rate off by 1e-6 relative", rate_nudged, "arrival rate"),
            ("trace", "closed-user count off by one", closed_count_off_by_one, "closed users"),
            ("trace", "the bursty AP reported valid", bursty_marked_valid(wl), "bursty"),
        ]
        compares = [s.out for s in wl.steps if s.name == "compare"]
        bound = checks.compare_kl_bound(wl, clean)
        cases.append((compares[0], "h_kl above its finite-sample bound",
                      edit_metric(compares[0], "h_kl_mean", lambda v: 1.5 * bound), "h_kl_mean"))
        if "h_real_window" in ref:
            cases.append((compares[0], "h_real 0.1 bit above the exact entropy",
                          edit_metric(compares[0], "h_real_mean", lambda v: ref["h_real_window"][0] + 0.1),
                          "h_real_mean"))
            cases.append((compares[1], "distance cap moving h_kl by 0.03 bits",
                          edit_metric(compares[0], "h_kl_mean", lambda v: v + 0.03),
                          "distance cap"))
        for step_out, what, corrupt, text in cases:
            corrupted(wl, wl_dir, clean, step_out, what, corrupt, text)

        # the replay comparison notices a single changed byte
        twin = wl_dir / "twin"
        if twin.exists():
            shutil.rmtree(twin)
        shutil.copytree(clean, twin)
        expect(not replay.differing_outputs(wl, clean, twin), f"{name}: identical replay accepted")
        report = twin / "trace" / "report.json"
        report.write_bytes(report.read_bytes().replace(b'"sessions": ', b'"sessions":  '))
        expect(bool(replay.differing_outputs(wl, clean, twin)),
               f"{name}: replay with a changed report.json rejected")
        shutil.rmtree(wl_dir)


def main() -> int:
    test_reference()
    test_checks()
    print(f"[selftest] {'FAILED: ' + '; '.join(FAILED) if FAILED else 'all cases behave'}")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
