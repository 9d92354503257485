import math

import numpy as np
import pytest

from multicell import analytic, model, sim, stats
from conftest import single_cell_spec


def exp_exp_route(cells, rate, duration_mean, dwell_mean):
    """Exponential duration + exponential dwells => independent exponential
    holding times and geometric-ish stage counts."""
    law = model.GenerativeSessionLaw(
        duration=model.Dist.make("exponential", mean=duration_mean),
        dwells=tuple(model.Dist.make("exponential", mean=dwell_mean)
                     for _ in cells),
    )
    return model.RouteSpec(model.Route(tuple(cells)), rate, law)


class TestSampleSession:
    def test_discrete_single_realization(self, rng):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (4.0,)),),))
        for _ in range(20):
            assert sim.sample_session(law, rng) == (1, (4.0,))

    def test_generative_deterministic(self, rng):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=25.0),
            dwells=tuple(model.Dist.make("deterministic", value=10.0) for _ in range(3)),
        )
        assert sim.sample_session(law, rng) == (3, (10.0, 10.0, 5.0))

    def test_stage_count_frequencies_match_probs(self, rng):
        p = (0.2, 0.5, 0.3)
        law = model.DiscreteSessionLaw(
            p, (((1.0, (1.0,)),), ((1.0, (1.0, 1.0)),), ((1.0, (1.0, 1.0, 1.0)),)))
        n = 200_000
        stages, _holds = model.sample_sessions(law, n, rng)
        counts = np.bincount(stages - 1, minlength=3)
        for k in range(3):
            sigma = math.sqrt(p[k] * (1 - p[k]) / n)
            assert counts[k] / n == pytest.approx(p[k], abs=3.5 * sigma)

    def test_exact_duration_multiple_of_dwells_no_spurious_stage(self, rng):
        # duration built as speed * dwell * k must not leak a zero-length
        # extra stage through float cancellation
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("discrete", values=[600.0, 1200.0, 1800.0],
                                     weights=[0.3, 0.3, 0.4]),
            dwells=tuple(model.Dist.make("deterministic", value=600.0) for _ in range(3)),
            speed=model.Dist.make("discrete", values=[0.7, 1.3], weights=[0.5, 0.5]),
            speed_scales_duration=True,
        )
        for _ in range(500):
            k, holds = sim.sample_session(law, rng)
            assert k in (1, 2, 3)
            assert all(h > 1.0 for h in holds)
            assert holds[0] == pytest.approx(holds[-1])


class TestRun:
    def test_single_cell_mean_matches_poisson(self):
        spec = single_cell_spec(rate=2.0, hold=3.0)   # m = 6
        cfg = sim.SimConfig(horizon=200_000.0, warmup=100.0,
                            snapshot_interval=3.0, seed=42)
        snaps = sim.run(spec, cfg)
        xs = [s.cell_counts[0] for s in snaps]
        n_eff = stats.effective_sample_size(xs)
        assert n_eff >= 5e4
        assert np.mean(xs) == pytest.approx(6.0, abs=3 * math.sqrt(6.0 / n_eff))

    def test_tiny_rate_all_zero(self):
        spec = single_cell_spec(rate=1e-12, hold=3.0)
        cfg = sim.SimConfig(horizon=1e3, warmup=0.0, snapshot_interval=10.0, seed=1)
        snaps = sim.run(spec, cfg)
        assert snaps and all(s.cell_counts == (0,) for s in snaps)

    def test_same_seed_identical(self):
        spec = single_cell_spec(rate=1.0, hold=2.0)
        cfg = sim.SimConfig(horizon=500.0, warmup=10.0, snapshot_interval=5.0, seed=9)
        assert sim.run(spec, cfg) == sim.run(spec, cfg)

    def test_snapshot_bytes_identical(self, tmp_path):
        spec = single_cell_spec(rate=1.0, hold=2.0)
        cfg = sim.SimConfig(horizon=500.0, warmup=10.0, snapshot_interval=5.0, seed=9)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sim.write_snapshots_csv(sim.run(spec, cfg), a)
        sim.write_snapshots_csv(sim.run(spec, cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_event_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(sim, "STAGE_VISIT_CAP", 100)
        spec = single_cell_spec(rate=10.0, hold=2.0)
        cfg = sim.SimConfig(horizon=1e4, warmup=1.0, snapshot_interval=10.0, seed=0)
        with pytest.raises(RuntimeError, match="safety cap"):
            sim.run(spec, cfg)

    def test_counts_equal_brute_force_over_session_table(self):
        # oracle: a session occupies the cell of stage j on [entry, exit)
        spec = model.NetworkSpec(3, (
            exp_exp_route([1, 2, 3], rate=0.3, duration_mean=6.0, dwell_mean=4.0),
            model.RouteSpec(model.Route((3, 1)), 0.2, model.DiscreteSessionLaw(
                (0.5, 0.5), (((1.0, (2.5,)),), ((0.3, (1.0, 4.0)), (0.7, (3.0, 2.0)))))),
        ))
        cfg = sim.SimConfig(horizon=1500.0, warmup=20.0, snapshot_interval=2.5,
                            seed=8, replications=2)
        for r in range(cfg.replications):
            table = sim.session_table(spec, cfg.horizon, sim.rng_for_replication(cfg.seed, r))
            snaps = sim.run(spec, cfg, replication=r)
            assert len(table.arrival) > 500
            for s in snaps:
                brute = [0, 0, 0]
                for l, t, k, holds in zip(table.route, table.arrival, table.stages,
                                          table.holds):
                    for j in range(k):
                        exit_ = t + holds[j]
                        if t <= s.time < exit_:
                            brute[spec.routes[l - 1].route.cells[j] - 1] += 1
                        t = exit_
                assert s.cell_counts == tuple(brute), s.time

    def test_default_timing_from_spec(self):
        spec = single_cell_spec(rate=1.0, hold=3.0)
        cfg = sim.SimConfig(horizon=1000.0, seed=0)
        snaps = sim.run(spec, cfg)   # warmup=30, interval=15
        assert snaps[0].time == pytest.approx(30.0)
        assert snaps[1].time - snaps[0].time == pytest.approx(15.0)


def replicate(spec, cfg):
    """Per-replication snapshot lists and their pool, as ``simulate`` builds them."""
    reps = [sim.run(spec, cfg, replication=r) for r in range(cfg.replications)]
    return reps, [s for snaps in reps for s in snaps]


class TestReplications:
    def test_single_replication_equals_run(self):
        spec = single_cell_spec(rate=1.0, hold=2.0)
        cfg = sim.SimConfig(horizon=500.0, warmup=10.0, snapshot_interval=5.0,
                            seed=7, replications=1)
        reps, pooled = replicate(spec, cfg)
        assert pooled == sim.run(spec, cfg)
        assert len(reps) == 1

    def test_four_replications_pool(self):
        spec = single_cell_spec(rate=1.0, hold=2.0)
        cfg1 = sim.SimConfig(horizon=500.0, warmup=10.0, snapshot_interval=5.0,
                             seed=7, replications=1)
        cfg4 = sim.SimConfig(horizon=500.0, warmup=10.0, snapshot_interval=5.0,
                             seed=7, replications=4)
        _, pooled = replicate(spec, cfg4)
        _, single = replicate(spec, cfg1)
        assert len(pooled) == 4 * len(single)
        assert pooled[: len(single)] == single   # replication 0 shares its stream
        # streams must differ
        assert pooled[len(single): 2 * len(single)] != single

    def test_replication_means_agree(self):
        spec = single_cell_spec(rate=2.0, hold=3.0)   # m = 6
        cfg = sim.SimConfig(horizon=30_000.0, warmup=100.0, snapshot_interval=15.0,
                            seed=11, replications=4)
        reps, _ = replicate(spec, cfg)
        for snaps in reps:
            n_eff = len(snaps)  # interval 5x hold: snapshots near-independent
            mean = np.mean([s.cell_counts[0] for s in snaps])
            assert mean == pytest.approx(6.0, abs=4 * math.sqrt(6.0 / n_eff))


class TestEventLog:
    def test_single_deterministic_session(self):
        law = model.DiscreteSessionLaw((0.0, 1.0), ((), ((1.0, (5.0, 7.0)),)))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2)), 0.01, law),))
        cfg = sim.SimConfig(horizon=10_000.0, warmup=0.0, snapshot_interval=1e4, seed=5)
        log = sim.emit_event_log(spec, cfg)
        assert len(log)
        assert log.stages.tolist() == [2] * len(log)
        assert log.holds.tolist() == [[5.0, 7.0]] * len(log)

    def test_session_count_poisson(self):
        spec = single_cell_spec(rate=0.05, hold=1.0)
        cfg = sim.SimConfig(horizon=20_000.0, warmup=0.0, snapshot_interval=2e4, seed=2)
        log = sim.emit_event_log(spec, cfg)
        expect = 0.05 * 20_000
        assert len(log) == pytest.approx(expect, abs=3 * math.sqrt(expect))

    def test_arrivals_ordered_and_ids_unique(self):
        spec = model.NetworkSpec(1, (
            single_cell_spec(rate=0.1, hold=1.0).routes[0],
            single_cell_spec(rate=0.2, hold=2.0).routes[0],
        ))
        cfg = sim.SimConfig(horizon=5000.0, warmup=0.0, snapshot_interval=5e3, seed=4)
        log = sim.emit_event_log(spec, cfg)
        table = sim.session_table(spec, cfg.horizon, sim.rng_for_replication(4, 0))
        times = log.arrival.tolist()
        assert times == sorted(times)
        # a session's id is its row: every session of the table has exactly one
        assert sorted(times) == sorted(table.arrival.tolist())

    def test_log_is_the_session_table_in_arrival_order(self):
        spec = model.NetworkSpec(2, (
            exp_exp_route([1, 2], rate=0.05, duration_mean=30.0, dwell_mean=20.0),
            single_cell_spec(rate=0.08, hold=7.0).routes[0],
        ))
        cfg = sim.SimConfig(horizon=3000.0, warmup=0.0, snapshot_interval=3e3, seed=3)
        log = sim.emit_event_log(spec, cfg, replication=2)
        table = sim.session_table(spec, cfg.horizon, sim.rng_for_replication(3, 2))
        rows = sorted(zip(table.arrival.tolist(), table.route.tolist(),
                          table.stages.tolist(), table.holds.tolist()))
        assert list(zip(log.arrival.tolist(), log.route.tolist(), log.stages.tolist(),
                        log.holds.tolist())) == rows
        assert ((0.0 <= log.arrival) & (log.arrival <= cfg.horizon)).all()


class TestEmpiricalMatchesAnalytic:
    def test_multi_route_cell_means(self):
        spec = model.NetworkSpec(3, (
            exp_exp_route([1, 2, 3], rate=0.4, duration_mean=5.0, dwell_mean=4.0),
            exp_exp_route([3, 1], rate=0.25, duration_mean=4.0, dwell_mean=6.0),
        ))
        cfg = sim.SimConfig(horizon=60_000.0, warmup=300.0, snapshot_interval=20.0,
                            seed=21)
        snaps = sim.run(spec, cfg)
        counts = np.array([s.cell_counts for s in snaps], dtype=float)
        # analytic reference via a fine discretization of the same laws
        dspec = model.NetworkSpec(3, tuple(
            model.RouteSpec(rs.route, rs.arrival_rate,
                            model.discretize(rs.law, 150_000, 0.02, 99 + i))
            for i, rs in enumerate(spec.routes)))
        m = analytic.cell_means(dspec).poisson_mean
        for n in range(3):
            xs = counts[:, n]
            n_eff = stats.effective_sample_size(xs)
            tol = 4 * math.sqrt(m[n] / n_eff) + 0.01 * m[n]  # sim noise + discretization
            assert xs.mean() == pytest.approx(m[n], abs=tol)
