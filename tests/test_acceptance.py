"""End-to-end acceptance checks.

Each test prints a single machine-greppable PASS/FAIL line of the form
``[acceptance] criterion N (<name>): PASS (<elapsed>s)`` and enforces both
the statistical tolerance and the runtime budget of its criterion.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from multicell import analytic, cli, model, sim, stats, trace
from conftest import random_discrete_law, single_cell_spec

README = Path(__file__).resolve().parent.parent / "README.md"


@contextmanager
def criterion(number: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")


def symmetric_kl(a: stats.EmpiricalDistribution, b: stats.EmpiricalDistribution) -> float:
    """Symmetric KL (bits) between two empiricals, renormalized to their
    common support; the mass outside it is negligible at these sample sizes."""
    pa, pb = ({vec: c / e.sample_count
               for vec, c in zip(map(tuple, e.support.tolist()), e.counts.tolist())}
              for e in (a, b))
    common = set(pa) & set(pb)
    wa = math.fsum(pa[v] for v in common)
    wb = math.fsum(pb[v] for v in common)
    assert wa > 0.99 and wb > 0.99
    return math.fsum((pa[v] / wa - pb[v] / wb) * math.log2((pa[v] / wa) / (pb[v] / wb))
                     for v in common)


def test_criterion_1_single_cell_closed_form():
    with criterion(1, "single-cell occupancy matches Poisson closed form", 30.0):
        spec = single_cell_spec(rate=2.0, hold=3.0)   # occupancy mean 6
        cfg = sim.SimConfig(horizon=200_000.0, warmup=100.0,
                            snapshot_interval=3.0, seed=42)
        snaps = sim.run(spec, cfg)
        xs = [s.cell_counts[0] for s in snaps]
        assert stats.effective_sample_size(xs) >= 5e4
        emp = stats.empirical_joint([(x,) for x in xs])
        kl = stats.kl_divergence(emp, analytic.ProductForm((6.0,)))
        assert kl < 0.01, f"KL {kl:.4f} bits >= 0.01"


def _insensitive_pair():
    """Two 4-cell 3-route networks with identical stage-count distributions
    and per-stage mean holding times but opposite dependence structure:
    independent exponential holds vs perfectly correlated deterministic
    (shared-speed) holds. Returns (spec_A, spec_B, shared discrete spec)."""
    layout = [  # (cells, arrival_rate, per-stage mean hold, continue prob)
        ((1, 2, 3), 0.7, 0.8, 0.6),
        ((2, 4), 0.6, 0.6, 0.5),
        ((4, 3, 1), 0.5, 0.9, 0.4),
    ]
    routes_a, routes_b, routes_ref = [], [], []
    for cells, lam, tbar, rho in layout:
        n = len(cells)
        # geometric stage count truncated at the route length
        probs = [(1 - rho) * rho ** (k - 1) for k in range(1, n)] + [rho ** (n - 1)]
        law_a = model.GenerativeSessionLaw(
            duration=model.Dist.make("exponential", mean=tbar / (1 - rho)),
            dwells=tuple(model.Dist.make("exponential", mean=tbar / rho)
                         for _ in range(n)),
        )
        law_b = model.GenerativeSessionLaw(
            duration=model.Dist.make("discrete",
                                     values=[tbar * k for k in range(1, n + 1)],
                                     weights=probs),
            dwells=tuple(model.Dist.make("deterministic", value=tbar)
                         for _ in range(n)),
            speed=model.Dist.make("discrete", values=[0.5, 1.5], weights=[0.5, 0.5]),
            speed_scales_duration=True,
        )
        law_ref = model.DiscreteSessionLaw(
            tuple(probs),
            tuple(((1.0, (tbar,) * k),) for k in range(1, n + 1)))
        route = model.Route(cells)
        routes_a.append(model.RouteSpec(route, lam, law_a))
        routes_b.append(model.RouteSpec(route, lam, law_b))
        routes_ref.append(model.RouteSpec(route, lam, law_ref))
    return (model.NetworkSpec(4, tuple(routes_a)),
            model.NetworkSpec(4, tuple(routes_b)),
            model.NetworkSpec(4, tuple(routes_ref)))


def test_criterion_2_insensitivity():
    with criterion(2, "holding-time law insensitivity of the joint distribution", 300.0):
        spec_a, spec_b, spec_ref = _insensitive_pair()
        form = analytic.cell_product_form(spec_ref)
        cfg = sim.SimConfig(horizon=630_000.0, warmup=100.0,
                            snapshot_interval=3.0, seed=2024)
        empiricals = []
        for spec in (spec_a, spec_b):
            snaps = sim.run(spec, cfg)
            assert len(snaps) >= 2e5
            emp = stats.empirical_joint([s.cell_counts for s in snaps])
            cmp = stats.compare_joint(emp, form)
            assert cmp.h_kl < 0.05, f"H_kl {cmp.h_kl:.4f} bits >= 0.05"
            assert cmp.h_kl / cmp.h_real < 0.05
            empiricals.append(emp)
        sym = symmetric_kl(*empiricals)
        assert sym < 0.05, f"symmetric KL {sym:.4f} bits >= 0.05"


def test_criterion_3_branch_mean_identity():
    with criterion(3, "per-stage mean decomposition identity", 5.0):
        for i in range(1000):
            rng = np.random.default_rng(i)
            law = random_discrete_law(rng)
            rs = model.RouteSpec(
                model.Route(tuple(range(1, law.n_stages + 1))),
                float(rng.uniform(0.1, 5.0)), law)
            sm = analytic.stage_means(rs)
            branch = analytic.decoupled_means(rs)
            for j, w_j in zip(sm.stages, sm.w):
                total = math.fsum(v for (k, _i, jj), v in branch.items() if jj == j)
                assert abs(total - w_j) < 1e-9


def test_criterion_4_grouped_poisson_composition():
    with criterion(4, "grouped-cell Poisson composition vs convolution", 1.0):
        means = [0.5, 1.5, 2.0]
        composed = analytic.compose_poisson(means, [[1, 2], [3]])
        assert composed.means == (2.0, 2.0)
        # brute-force oracle: convolve the coordinate pmfs, computed on a
        # much deeper support than the comparison grid so truncation error
        # does not leak into the total variation
        deep = 80
        pmfs = [np.array([analytic.ProductForm((m,)).pmf((y,))
                          for y in range(deep + 1)]) for m in means]
        group12 = np.convolve(pmfs[0], pmfs[1])
        # comparison grid: mass >= 1 - 1e-8 per composed coordinate
        caps = [analytic.poisson_truncation(m) for m in composed.means]
        tv = 0.0
        for y12 in range(caps[0] + 1):
            for y3 in range(caps[1] + 1):
                brute = group12[y12] * pmfs[2][y3]
                tv += abs(composed.pmf((y12, y3)) - brute)
        assert tv / 2 <= 1e-9


def test_criterion_5_arrival_test_discrimination():
    with criterion(5, "arrival-test discrimination", 30.0):
        n_seeds, n_intervals = 50, 400
        poisson_pass = burst_fail = 0
        for seed in range(n_seeds):
            rng = np.random.default_rng(10_000 + seed)
            homogeneous = rng.poisson(5.0, size=n_intervals)
            eta = stats.independence_test(homogeneous)
            theta = stats.poisson_dist_test(homogeneous)
            if eta.passed and theta.passed:
                poisson_pass += 1
            bursty = 10 * rng.poisson(0.5, size=n_intervals)
            if stats.poisson_dist_test(bursty).passed is False:
                burst_fail += 1
        assert poisson_pass >= 0.9 * n_seeds, f"only {poisson_pass}/{n_seeds} passed"
        assert burst_fail >= 0.9 * n_seeds, f"only {burst_fail}/{n_seeds} failed"


def _fixture_spec():
    # holding times are multiples of the 300 s poll cadence so the polling
    # round trip is exact
    law1 = model.DiscreteSessionLaw(
        (0.4, 0.6), (((1.0, (1200.0,)),),
                     ((0.5, (900.0, 600.0)), (0.5, (1500.0, 900.0)))))
    law2 = model.DiscreteSessionLaw((1.0,), (((1.0, (1800.0,)),),))
    return model.NetworkSpec(3, (
        model.RouteSpec(model.Route((1, 2)), 1 / 400.0, law1),
        model.RouteSpec(model.Route((3,)), 1 / 600.0, law2),
    ))


def test_criterion_6_trace_round_trip(tmp_path):
    with criterion(6, "synthetic polling-trace round trip", 60.0):
        cfg = tmp_path / "net.json"
        model.save_spec(_fixture_spec(), cfg)
        fix = tmp_path / "fixture"
        rc = cli.main(["fixture", "--config", str(cfg), "--out", str(fix),
                       "--seed", "6", "--days", "15", "--closed-users", "3",
                       "--bursty-cell", "3", "--burst-size", "10",
                       "--bursts-per-day", "4"])
        assert rc == 0
        truth = json.loads((fix / "ground_truth.json").read_text())

        out = tmp_path / "trace"
        rc = cli.main(["trace", "--polls", str(fix / "polls.csv"),
                       "--out", str(out), "--cadence", "300",
                       "--exclude-mode", "1"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())

        # stage-count table recovered exactly
        assert report["stage_table"] == truth["stage_table"]

        # per-AP arrival rate and mean holding time within 3 sigma (here the
        # polling round trip is exact, so the recovery is exact)
        with open(out / "ap_params.csv") as fh:
            est = {r["ap"]: r for r in csv.DictReader(fh)}
        for ap, t in truth["per_ap"].items():
            n = t["entries"]
            rate_sigma = math.sqrt(n) / t["observed_time"]
            hold_sigma = t["hold_mean"] / math.sqrt(n)
            assert abs(float(est[ap]["arrival_rate"]) - t["arrival_rate"]) <= 3 * rate_sigma
            assert abs(float(est[ap]["hold_mean"]) - t["hold_mean"]) <= 3 * hold_sigma
            assert float(est[ap]["arrival_rate"]) == pytest.approx(t["arrival_rate"], rel=1e-9)
            assert float(est[ap]["hold_mean"]) == pytest.approx(t["hold_mean"], rel=1e-9)
            assert int(est[ap]["entries"]) == n

        # engineered closed-user fraction recovered exactly
        assert report["closed_users"] == 3
        assert report["closed_fraction"] == pytest.approx(truth["closed_fraction"])

        # the bursty AP fails the fitted-Poisson test and exclusion mode 1
        # removes exactly the sessions that start at invalid APs
        burst_ap = truth["bursty_aps"][0]
        assert burst_ap in report["invalid_aps"]
        dropped = sum(int(est[ap]["new_arrivals"]) for ap in report["invalid_aps"])
        assert report["sessions_after_exclusion"] == report["sessions"] - dropped
        if report["invalid_aps"] == [burst_ap]:
            assert dropped == truth["sessions_starting_at_bursty"]


def test_criterion_7_published_scale_procedure(tmp_path):
    with criterion(7, "published-scale reproduction procedure documented", 60.0):
        text = README.read_text()
        # the repo documents the full-scale procedure and its expected outputs
        assert "Reproducing the published-scale results" in text
        for token in ("80448", "15767", "7410", "3553", "6107",
                      "9.91", "10.2998", "124", "144"):
            assert token in text, f"expected output {token} missing from README"
        # desk-scale fixtures cannot reproduce those counts: the external
        # campus dataset is not shipped
        repo = README.parent
        assert not list(repo.glob("**/*.tsv.gz"))
        cfg = tmp_path / "net.json"
        model.save_spec(_fixture_spec(), cfg)
        fix = tmp_path / "fixture"
        cli.main(["fixture", "--config", str(cfg), "--out", str(fix),
                  "--seed", "1", "--days", "2"])
        out = tmp_path / "trace"
        cli.main(["trace", "--polls", str(fix / "polls.csv"), "--out", str(out),
                  "--cadence", "300"])
        report = json.loads((out / "report.json").read_text())
        assert sum(report["stage_table"].values()) < 80448
        # preprocessing ambiguity decisions are reported by the tool itself
        assert report["preprocessing_notes"]
        for note in trace.PREPROCESSING_NOTES:
            assert note in report["preprocessing_notes"]


def test_criterion_8_distance_constraint_neutrality():
    with criterion(8, "distance-constrained subset neutrality", 120.0):
        means = (2.0,) * 12
        form = analytic.ProductForm(means)
        # 4 x 3 grid, 300 m spacing: plenty of 3-cell groups within 500 m
        coords = np.array([[300.0 * (i % 4), 300.0 * (i // 4)] for i in range(12)])
        rng = np.random.default_rng(77)
        vectors = [tuple(int(v) for v in row)
                   for row in rng.poisson(means, size=(200_000, 12))]
        emp = stats.empirical_joint(vectors)
        free = stats.random_subset_study(emp, form, 3, 200, np.random.default_rng(5))
        constrained = stats.random_subset_study(
            emp, form, 3, 200, np.random.default_rng(5),
            coordinates=coords, max_distance=500.0)
        diff = abs(free.h_kl_mean - constrained.h_kl_mean)
        assert diff < 0.02, f"mean H_kl moved {diff:.4f} bits with the distance cap"
