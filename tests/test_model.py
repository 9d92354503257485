import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multicell import model
from conftest import random_discrete_law, single_cell_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def two_route_spec():
    law1 = model.DiscreteSessionLaw((1.0,), (((1.0, (4.0,)),),))
    law2 = model.DiscreteSessionLaw(
        (0.5, 0.5),
        (((1.0, (2.0,)),), ((1.0, (6.0, 8.0)),)),
    )
    return model.NetworkSpec(3, (
        model.RouteSpec(model.Route((1,)), 2.0, law1),
        model.RouteSpec(model.Route((2, 3)), 3.0, law2),
    ))


class TestValidate:
    def test_wellformed_spec_is_valid(self):
        assert model.validate(two_route_spec()) == []

    def test_stage_prob_sum_violation_names_field(self):
        law = model.DiscreteSessionLaw((0.5, 0.4), (((1.0, (1.0,)),), ((1.0, (1.0, 1.0)),)))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2)), 1.0, law),))
        problems = model.validate(spec)
        assert len(problems) == 1
        assert "stage_probs" in problems[0]

    def test_out_of_range_cell_names_route(self):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (1.0,)),),))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((3,)), 1.0, law),))
        problems = model.validate(spec)
        assert len(problems) == 1
        assert "routes[1]" in problems[0] and "cell 3" in problems[0]

    def test_multiple_violations_all_reported(self):
        law = model.DiscreteSessionLaw((0.9,), (((1.0, (-1.0,)),),))
        spec = model.NetworkSpec(1, (model.RouteSpec(model.Route((1,)), -2.0, law),))
        problems = model.validate(spec)
        assert any("arrival_rate" in p for p in problems)
        assert any("stage_probs" in p for p in problems)
        assert any("holding time" in p for p in problems)

    def test_unknown_family_names_its_path(self):
        D = model.Dist.make
        law = model.GenerativeSessionLaw(D("gamma", shape=2.0),
                                         (D("exponential", mean=1.0), D("weibull", k=1.0)),
                                         speed=D("Uniform", low=0.5, high=1.5))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2)), 1.0, law),))
        assert model.validate(spec) == ["routes[1].law.duration: unknown family 'gamma'",
                                        "routes[1].law.speed: unknown family 'Uniform'",
                                        "routes[1].law.dwells[2]: unknown family 'weibull'"]


def _duration_problems(dist):
    law = model.GenerativeSessionLaw(dist, (model.Dist.make("deterministic", value=1.0),))
    return model.validate(model.NetworkSpec(1, (model.RouteSpec(model.Route((1,)), 1.0, law),)))


class TestDistRules:
    D = model.Dist.make

    @pytest.mark.parametrize("dist, problem", [
        (D("exponential", mean=0.0), "duration.mean: 0.0 is not a finite number > 0"),
        (D("exponential", mean=math.inf), "duration.mean: inf is not a finite number > 0"),
        (D("deterministic", value=-1.0), "duration.value: -1.0 is not a finite number > 0"),
        (D("lognormal", mu=math.nan, sigma=1.0), "duration.mu: nan is not a finite number"),
        (D("lognormal", mu=0.0, sigma=-0.5),
         "duration.sigma: -0.5 is not a finite number >= 0"),
        (D("uniform", low=0.0, high=1.0), "duration.low: 0.0 is not a finite number > 0"),
        (D("uniform", low=3.0, high=2.0), "duration: low 3.0 > high 2.0"),
        (D("hyperexponential", weights=[0.5, 0.5], means=[1.0]),
         "duration: 2 weights for 1 means"),
        (D("hyperexponential", weights=[-0.5, 1.5], means=[1.0, 2.0]),
         "duration.weights[1]: -0.5 is not a finite number >= 0"),
        (D("hyperexponential", weights=[1.0], means=[0.0]),
         "duration.means[1]: 0.0 is not a finite number > 0"),
        (D("discrete", values=[1.0, 2.0, 3.0], weights=[0.5, 0.5]),
         "duration: 2 weights for 3 values"),
        (D("discrete", values=[1.0, -2.0], weights=[0.5, 0.5]),
         "duration.values[2]: -2.0 is not a finite number > 0"),
        (D("discrete", values=[1.0], weights=[0.0]), "duration: weights sum to 0"),
        (D("discrete", values=[], weights=[]), "duration: weights sum to 0"),
        (D("lognormal", mu=1.0), "duration.sigma: missing"),
        (D("exponential", mean=1.0, scale=2.0),
         "duration.scale: not a parameter of 'exponential'"),
    ])
    def test_rule_names_its_path(self, dist, problem):
        assert _duration_problems(dist) == [f"routes[1].law.{problem}"]

    @pytest.mark.parametrize("dist", [
        D("exponential", mean=2.0), D("deterministic", value=2.0),
        D("lognormal", mu=-3.0, sigma=0.0), D("uniform", low=2.0, high=2.0),
        D("lognormal", mu=1.0, sigma=-0.0),
        D("hyperexponential", weights=[0.0, 2.0], means=[1.0, 3.0]),
        D("discrete", values=[1.0, 3.0], weights=[1.0, 0.0])])
    def test_valid_parameters_give_positive_draws(self, dist, rng):
        assert _duration_problems(dist) == []
        law = model.GenerativeSessionLaw(dist, (dist,))
        dist = model.spec_from_dict(model.spec_to_dict(model.NetworkSpec(
            1, (model.RouteSpec(model.Route((1,)), 1.0, law),)))).routes[0].law.duration
        draws = dist.sample(rng, 1000)
        assert np.isfinite(draws).all() and (draws > 0).all()


class TestStageHoldingTime:
    def test_middle_stage(self):
        assert model.stage_holding_time(7.0, [3.0, 3.0, 3.0], 2) == 3.0

    def test_last_stage_clipped_by_duration(self):
        assert model.stage_holding_time(7.0, [3.0, 3.0, 3.0], 3) == pytest.approx(1.0)

    def test_stage_not_reached(self):
        assert model.stage_holding_time(2.0, [3.0, 3.0], 2) is None

    def test_first_stage_is_min(self):
        assert model.stage_holding_time(5.0, [10.0], 1) == 5.0
        assert model.stage_holding_time(50.0, [10.0], 1) == 10.0

    def test_stage_index_beyond_dwells_raises(self):
        with pytest.raises(ValueError):
            model.stage_holding_time(7.0, [3.0, 3.0], 3)

    @given(
        T=st.floats(0.01, 1e4),
        taus=st.lists(st.floats(0.01, 1e3), min_size=1, max_size=8),
        k=st.integers(1, 8),
    )
    @settings(max_examples=300)
    def test_prefix_sum_identity(self, T, taus, k):
        # holding times are defined for a prefix of stages and their sum over
        # the first k stages equals min(T, tau_1 + ... + tau_k)
        k = min(k, len(taus))
        holds = [model.stage_holding_time(T, taus, j) for j in range(1, k + 1)]
        defined = [h for h in holds if h is not None]
        assert holds[: len(defined)] == defined  # defined prefix, then None
        prefix = min(len(defined), k)
        if prefix:
            assert math.fsum(defined[:prefix]) == pytest.approx(
                min(T, math.fsum(taus[:prefix])), rel=1e-9)


def assert_rows_equal_holding_vector(T, taus):
    stages, holds = model.holding_matrix(T, taus)
    for i in range(len(T)):
        vec = model.holding_vector(float(T[i]), list(taus[i]))
        assert stages[i] == len(vec)
        assert holds[i, :stages[i]].tolist() == vec    # bit for bit
        assert not holds[i, stages[i]:].any()


class TestHoldingMatrix:
    @given(rows=st.lists(st.tuples(st.floats(1e-3, 1e4),
                                   st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4)),
                         min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_rows_equal_holding_vector(self, rows):
        T = np.array([t for t, _ in rows])
        taus = np.array([tau for _, tau in rows])
        assert_rows_equal_holding_vector(T, taus)

    @given(dwell=st.floats(1e-2, 1e4), speed=st.floats(1e-2, 1e2),
           k=st.integers(1, 5), n=st.integers(1, 5))
    @settings(max_examples=300)
    @example(dwell=0.1, speed=0.7, k=3, n=5)   # float error leaves 3 dwells short of T
    def test_exact_multiple_durations(self, dwell, speed, k, n):
        # duration = k dwells, speed-scaled like the dwells
        T = np.array([dwell * k * speed])
        taus = np.array([[speed * dwell] * n])
        assert_rows_equal_holding_vector(T, taus)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_speed_scaled_law_samples(self, seed):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("discrete", values=[600.0, 1200.0, 1800.0],
                                     weights=[0.3, 0.3, 0.4]),
            dwells=tuple(model.Dist.make("deterministic", value=600.0) for _ in range(3)),
            speed=model.Dist.make("uniform", low=0.3, high=3.0),
            speed_scales_duration=True,
        )
        T, taus = law.sample(np.random.default_rng(seed), 50)
        assert_rows_equal_holding_vector(T, taus)


class TestSampleSessions:
    def test_discrete_law_shapes_and_support(self, rng):
        law = model.DiscreteSessionLaw(
            (0.25, 0.75), (((1.0, (3.0,)),), ((0.5, (1.0, 2.0)), (0.5, (4.0, 5.0)))))
        stages, holds = model.sample_sessions(law, 40_000, rng)
        assert stages.shape == (40_000,) and holds.shape == (40_000, 2)
        rows = {(int(k), tuple(h)) for k, h in zip(stages, holds.tolist())}
        assert rows == {(1, (3.0, 0.0)), (2, (1.0, 2.0)), (2, (4.0, 5.0))}
        sigma = math.sqrt(0.25 * 0.75 / 40_000)
        assert np.mean(stages == 1) == pytest.approx(0.25, abs=4 * sigma)

    def test_generative_law_matches_holding_vector(self, rng):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=25.0),
            dwells=tuple(model.Dist.make("deterministic", value=10.0) for _ in range(3)),
        )
        stages, holds = model.sample_sessions(law, 3, rng)
        assert stages.tolist() == [3, 3, 3]
        assert holds.tolist() == [[10.0, 10.0, 5.0]] * 3

    def test_empty_draw(self, rng):
        stages, holds = model.sample_sessions(random_discrete_law(rng), 0, rng)
        assert stages.shape == (0,) and holds.shape[0] == 0


class TestDiscretize:
    def test_deterministic_single_stage(self):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=5.0),
            dwells=(model.Dist.make("deterministic", value=10.0),),
        )
        d = model.discretize(law, samples=100, bin_width=1.0, rng_seed=0)
        assert d.stage_probs == (1.0,)
        assert d.realizations[0] == ((1.0, (5.0,)),)

    def test_deterministic_three_stage(self):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=25.0),
            dwells=tuple(model.Dist.make("deterministic", value=10.0) for _ in range(3)),
        )
        d = model.discretize(law, samples=10, bin_width=1.0, rng_seed=0)
        assert d.stage_probs == (0.0, 0.0, 1.0)
        assert d.realizations[2] == ((1.0, (10.0, 10.0, 5.0)),)

    def test_exponential_duration_stage1_prob(self):
        # oracle: p1 = P[T <= tau_1] = 1 - exp(-5/10) in closed form;
        # tolerance is ~4 binomial sigma at this sample count
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("exponential", mean=10.0),
            dwells=tuple(model.Dist.make("deterministic", value=5.0) for _ in range(3)),
        )
        n = 400_000
        d = model.discretize(law, samples=n, bin_width=0.05, rng_seed=7)
        p1_true = 1.0 - math.exp(-0.5)
        sigma = math.sqrt(p1_true * (1 - p1_true) / n)
        assert d.stage_probs[0] == pytest.approx(p1_true, abs=4 * sigma)

    def test_mass_conserved_exactly(self, rng):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("exponential", mean=3.0),
            dwells=tuple(model.Dist.make("uniform", low=0.5, high=4.0) for _ in range(4)),
        )
        d = model.discretize(law, samples=5000, bin_width=0.25, rng_seed=1)
        assert math.fsum(d.stage_probs) == 1.0
        route = model.RouteSpec(model.Route((1, 2, 3, 4)), 1.0, d)
        assert model.validate(model.NetworkSpec(4, (route,))) == []

    def test_equals_loop_binning_of_the_same_sessions(self):
        # reference: round each hold to bins one session at a time, clamp to
        # one bin, and count identical vectors per stage count
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("exponential", mean=3.0),
            dwells=tuple(model.Dist.make("uniform", low=0.5, high=4.0) for _ in range(3)),
            speed=model.Dist.make("uniform", low=0.5, high=1.5),
        )
        n, width = 3000, 0.5
        d = model.discretize(law, samples=n, bin_width=width, rng_seed=4)
        stages, holds = model.sample_sessions(law, n, np.random.default_rng(4))
        counts = [Counter() for _ in range(3)]
        for k, row in zip(stages.tolist(), holds.tolist()):
            counts[k - 1][tuple(max(1, round(t / width)) for t in row[:k])] += 1
        expected = model.DiscreteSessionLaw(
            tuple(sum(c.values()) / n for c in counts),
            tuple(tuple((m / sum(c.values()), tuple(b * width for b in vec))
                        for vec, m in sorted(c.items())) for c in counts))
        assert d == expected

    def test_binned_zero_clamped_to_one_bin(self):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=0.001),
            dwells=(model.Dist.make("deterministic", value=1.0),),
        )
        d = model.discretize(law, samples=10, bin_width=1.0, rng_seed=0)
        assert d.realizations[0] == ((1.0, (1.0,)),)

    def test_errors(self):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=1.0),
            dwells=(model.Dist.make("deterministic", value=1.0),),
        )
        with pytest.raises(ValueError):
            model.discretize(law, samples=0, bin_width=1.0, rng_seed=0)
        with pytest.raises(ValueError):
            model.discretize(law, samples=10, bin_width=0.0, rng_seed=0)

    def test_mean_converges_to_generative(self):
        # implied stage-1 mean holding approaches E[min(T, tau)] as bins shrink
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("exponential", mean=10.0),
            dwells=(model.Dist.make("deterministic", value=5.0),),
        )
        true_mean = 10.0 * (1 - math.exp(-0.5))   # E[min(Exp(10), 5)]
        d = model.discretize(law, samples=200_000, bin_width=0.02, rng_seed=3)
        got = math.fsum(w * v[0] for w, v in d.realizations[0])
        assert got == pytest.approx(true_mean, rel=0.01)


class TestDistFamilies:
    @pytest.mark.parametrize("dist,expected", [
        (model.Dist.make("exponential", mean=4.0), 4.0),
        (model.Dist.make("deterministic", value=2.5), 2.5),
        (model.Dist.make("uniform", low=1.0, high=3.0), 2.0),
        (model.Dist.make("lognormal", mu=0.0, sigma=0.5), math.exp(0.125)),
        (model.Dist.make("hyperexponential", weights=[0.3, 0.7], means=[1.0, 10.0]), 7.3),
        (model.Dist.make("discrete", values=[1.0, 3.0], weights=[0.5, 0.5]), 2.0),
    ])
    def test_sample_mean_matches_analytic_mean(self, dist, expected, rng):
        assert dist.mean() == pytest.approx(expected)
        xs = [dist.sample(rng) for _ in range(20_000)]
        assert np.mean(xs) == pytest.approx(expected, rel=0.05)
        assert dist.sample(rng, 20_000).mean() == pytest.approx(expected, rel=0.05)

    def test_shared_speed_couples_dwells(self, rng):
        law = model.GenerativeSessionLaw(
            duration=model.Dist.make("deterministic", value=100.0),
            dwells=tuple(model.Dist.make("deterministic", value=2.0) for _ in range(2)),
            speed=model.Dist.make("uniform", low=0.5, high=1.5),
        )
        for _ in range(100):
            T, taus = law.sample(rng)
            assert taus[0] == pytest.approx(taus[1])
            assert T == 100.0


class TestConfigRoundTrip:
    def test_discrete_law_lossless(self, tmp_path):
        spec = two_route_spec()
        path = tmp_path / "net.json"
        model.save_spec(spec, path)
        back = model.load_spec(path)
        assert back == spec

    def test_generative_law_round_trip(self, tmp_path):
        spec = model.NetworkSpec(2, (
            model.RouteSpec(
                model.Route((1, 2)), 0.5,
                model.GenerativeSessionLaw(
                    duration=model.Dist.make("exponential", mean=10.0),
                    dwells=(model.Dist.make("uniform", low=1.0, high=2.0),
                            model.Dist.make("deterministic", value=3.0)),
                    speed=model.Dist.make("lognormal", mu=0.0, sigma=0.3),
                    speed_scales_duration=True,
                )),
        ), cell_meta=(model.CellInfo("a", 0.0, 0.0), model.CellInfo("b", 100.0, 50.0)))
        path = tmp_path / "net.json"
        model.save_spec(spec, path)
        assert model.load_spec(path) == spec

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_random_discrete_laws_round_trip(self, seed):
        law = random_discrete_law(np.random.default_rng(seed))
        spec = model.NetworkSpec(
            law.n_stages,
            (model.RouteSpec(model.Route(tuple(range(1, law.n_stages + 1))), 1.0, law),))
        d = model.spec_from_dict(model.spec_to_dict(spec))
        assert d == spec

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_reader_rebuilds_readme_example_with_random_routes(self, seed):
        section = README.read_text().split("### Network config schema (JSON)")[1]
        example = model.spec_from_dict(
            json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1)))
        law = random_discrete_law(np.random.default_rng(seed))
        cells = tuple(range(1, law.n_stages + 1))
        spec = model.NetworkSpec(
            max(example.cell_count, law.n_stages),
            example.routes + (model.RouteSpec(model.Route(cells), 0.25, law),))
        assert model.validate(spec) == []
        assert model.spec_from_dict(model.spec_to_dict(spec)) == spec
