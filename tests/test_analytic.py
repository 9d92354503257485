import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from multicell import analytic, model
from conftest import random_discrete_law
import law_reference


def law_two_stage():
    # p=[0.5,0.5]; one-stage sessions hold 2s, two-stage sessions hold 6s then 8s
    return model.DiscreteSessionLaw(
        (0.5, 0.5), (((1.0, (2.0,)),), ((1.0, (6.0, 8.0)),)))


def reach(stage_probs):
    return model.DiscreteSessionLaw(
        stage_probs, tuple(((1.0, (1.0,) * k),) for k in range(1, len(stage_probs) + 1))
    ).stage_moments().reach


class TestSurvival:
    """The reach probabilities of ``DiscreteSessionLaw.stage_moments``."""

    def test_first_stage_is_one(self):
        assert reach([0.5, 0.3, 0.2])[0] == 1.0

    def test_third_stage(self):
        assert reach([0.5, 0.3, 0.2])[2] == pytest.approx(0.2)

    def test_single_stage(self):
        assert reach([1.0]) == (1.0,)

    def test_out_of_range(self):
        # one entry per stage of the law, none past it
        assert len(reach([1.0])) == 1
        assert len(reach([0.5, 0.3, 0.2])) == 3


class TestMeanHoldingTimes:
    """The conditional mean holds of ``DiscreteSessionLaw.stage_moments``."""

    def test_single_realization(self):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (4.0,)),),))
        assert law.stage_moments().mean_hold == (4.0,)

    def test_two_stage_example(self):
        t = law_two_stage().stage_moments().mean_hold
        assert t[0] == pytest.approx(4.0)   # (0.5*2 + 0.5*6) / 1
        assert t[1] == pytest.approx(8.0)   # (0.5*8) / 0.5

    def test_equal_weight_realizations(self):
        law = model.DiscreteSessionLaw(
            (0.0, 1.0),
            ((), ((0.5, (1.0, 10.0)), (0.5, (3.0, 2.0)))))
        assert law.stage_moments().mean_hold == pytest.approx((2.0, 6.0))

    def test_unreachable_stage_is_none(self):
        law = model.DiscreteSessionLaw(
            (1.0, 0.0), (((1.0, (4.0,)),), ()))
        assert law.stage_moments().mean_hold == (4.0, None)


class TestStageMeans:
    def test_survival_weighted_occupancy(self):
        # lambda=2, p=[.5,.3,.2], all t_bar=1 => w = [2, 1.0, 0.4]
        law = model.DiscreteSessionLaw(
            (0.5, 0.3, 0.2),
            (((1.0, (1.0,)),), ((1.0, (1.0, 1.0)),), ((1.0, (1.0, 1.0, 1.0)),)))
        sm = analytic.stage_means(model.RouteSpec(model.Route((1, 2, 3)), 2.0, law))
        assert sm.w == pytest.approx((2.0, 1.0, 0.4))
        assert sm.w_prime == pytest.approx((2.0, 1.0, 0.4))

    def test_single_stage_mg_infty(self):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (4.0,)),),))
        sm = analytic.stage_means(model.RouteSpec(model.Route((1,)), 1.0, law))
        assert sm.w == (4.0,)

    def test_two_stage_example(self):
        sm = analytic.stage_means(model.RouteSpec(model.Route((1, 2)), 3.0, law_two_stage()))
        assert sm.w == pytest.approx((12.0, 12.0))

    def test_invariant_measure_non_increasing(self, rng):
        for _ in range(50):
            law = random_discrete_law(rng)
            sm = analytic.stage_means(
                model.RouteSpec(model.Route(tuple([1] * law.n_stages)), 2.0, law))
            assert all(a >= b - 1e-12 for a, b in zip(sm.w_prime, sm.w_prime[1:]))
            assert sm.w_prime[0] == 2.0

    def test_unreachable_stages_excluded(self):
        law = model.DiscreteSessionLaw((1.0, 0.0), (((1.0, (4.0,)),), ()))
        sm = analytic.stage_means(model.RouteSpec(model.Route((1, 2)), 1.0, law))
        assert sm.stages == (1,)


class TestDecoupledMeans:
    def test_single_branch(self):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (4.0,)),),))
        w = analytic.decoupled_means(model.RouteSpec(model.Route((1,)), 1.0, law))
        assert w == {(1, 1, 1): 4.0}

    def test_branch_value(self):
        # lambda=2, P_ki = 0.5*0.5 = 0.25, t=3 => 1.5
        law = model.DiscreteSessionLaw(
            (0.5, 0.5),
            (((0.5, (3.0,)), (0.5, (1.0,))), ((1.0, (1.0, 1.0)),)))
        w = analytic.decoupled_means(model.RouteSpec(model.Route((1, 1)), 2.0, law))
        assert w[(1, 1, 1)] == pytest.approx(1.5)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_branch_sums_equal_stage_occupancy(self, seed):
        law = random_discrete_law(np.random.default_rng(seed))
        rs = model.RouteSpec(model.Route(tuple([1] * law.n_stages)), 1.7, law)
        branch = analytic.decoupled_means(rs)
        sm = analytic.stage_means(rs)
        for j, wj in zip(sm.stages, sm.w):
            got = math.fsum(v for (k, i, jj), v in branch.items() if jj == j)
            assert got == pytest.approx(wj, abs=1e-9)


class TestCellMeans:
    def test_single_cell(self):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (3.0,)),),))
        spec = model.NetworkSpec(1, (model.RouteSpec(model.Route((1,)), 2.0, law),))
        cm = analytic.cell_means(spec)
        assert cm.arrival_rate == (2.0,)
        assert cm.hold_mean == (3.0,)
        assert cm.poisson_mean == (6.0,)

    def test_additivity_over_routes(self):
        lawA = model.DiscreteSessionLaw((1.0,), (((1.0, (1.2,)),),))
        lawB = model.DiscreteSessionLaw((1.0,), (((1.0, (0.8,)),),))
        spec = model.NetworkSpec(5, (
            model.RouteSpec(model.Route((5,)), 1.0, lawA),
            model.RouteSpec(model.Route((5,)), 1.0, lawB),
        ))
        assert analytic.cell_means(spec).poisson_mean[4] == pytest.approx(2.0)

    def test_route_revisiting_cell(self):
        # survival [1, .8, .6], t_bar all 2 => m_1 = 1*1*2 + 1*0.6*2 = 3.2
        law = model.DiscreteSessionLaw(
            (0.2, 0.2, 0.6),
            (((1.0, (2.0,)),), ((1.0, (2.0, 2.0)),), ((1.0, (2.0, 2.0, 2.0)),)))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2, 1)), 1.0, law),))
        cm = analytic.cell_means(spec)
        assert cm.poisson_mean[0] == pytest.approx(3.2)

    def test_unvisited_cell(self):
        law = model.DiscreteSessionLaw((1.0,), (((1.0, (3.0,)),),))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1,)), 2.0, law),))
        cm = analytic.cell_means(spec)
        assert cm.poisson_mean[1] == 0.0
        assert cm.hold_mean[1] is None


class TestProductFormPmf:
    def test_poisson_pmf_oracle(self):
        form = analytic.ProductForm((6.0,))
        assert form.pmf((6,)) == pytest.approx(
            sps.poisson.pmf(6, 6.0), rel=1e-12)

    def test_product_of_pmfs_at_zero(self):
        form = analytic.ProductForm((2.0, 3.0))
        assert form.pmf((0, 0)) == pytest.approx(math.exp(-5.0))

    def test_zero_mean_cell(self):
        form = analytic.ProductForm((0.0, 4.0))
        assert form.pmf((1, 4)) == 0.0
        assert form.pmf((0, 4)) == pytest.approx(
            sps.poisson.pmf(4, 4.0), rel=1e-12)

    def test_large_counts_no_overflow(self):
        form = analytic.ProductForm((200.0,))
        assert form.pmf((500,)) == pytest.approx(
            sps.poisson.pmf(500, 200.0), rel=1e-9)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            analytic.ProductForm((1.0,)).pmf((-1,))

    def test_mass_sums_to_one_over_truncated_support(self):
        # per coordinate, over the counts cell_pmf.csv writes
        for m in (2.5, 0.7):
            total = math.fsum(analytic.ProductForm((m,)).pmf((y,))
                              for y in range(analytic.poisson_truncation(m) + 1))
            assert total == pytest.approx(1.0, abs=1e-6)


class TestPoissonTruncation:
    @pytest.mark.parametrize("mean", [1e-4, 0.3, 1.0, 6.0, 47.5, 400.0, 5000.0])
    def test_smallest_cap_covering_the_mass(self, mean):
        cap = analytic.poisson_truncation(mean)
        assert sps.poisson.cdf(cap, mean) >= 1.0 - 1e-8
        assert cap == 0 or sps.poisson.cdf(cap - 1, mean) < 1.0 - 1e-8

    def test_agrees_with_scipy_ppf_on_a_grid(self):
        for mean in np.logspace(-4, math.log10(5000.0), 300):
            assert analytic.poisson_truncation(mean) == int(
                sps.poisson.ppf(1.0 - 1e-8, mean)), mean
        for mean in (0.5, 3.0, 80.0):
            assert analytic.poisson_truncation(mean, tail=1e-3) == int(
                sps.poisson.ppf(1.0 - 1e-3, mean))

    def test_zero_mean(self):
        assert analytic.poisson_truncation(0.0) == 0


class TestComposePoisson:
    def test_hand_sum(self):
        out = analytic.compose_poisson([1.0, 2.0, 3.0], [{1, 3}, {2}])
        assert out.means == (4.0, 2.0)

    def test_identity_partition(self):
        out = analytic.compose_poisson([1.0, 2.0, 3.0], [{1}, {2}, {3}])
        assert out.means == (1.0, 2.0, 3.0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            analytic.compose_poisson([1.0, 2.0], [{1, 2}, {2}])

    def test_total_matches_convolution_oracle(self):
        means = [1.0, 2.0, 3.0]
        out = analytic.compose_poisson(means, [{1, 2, 3}])
        assert out.means == (6.0,)
        # brute-force convolution of the three coordinate Poissons
        cap = 40
        pmfs = [sps.poisson.pmf(np.arange(cap + 1), m) for m in means]
        conv = np.convolve(np.convolve(pmfs[0], pmfs[1]), pmfs[2])
        for k in range(25):
            assert out.pmf((k,)) == pytest.approx(conv[k], abs=1e-12)


class TestStageProductForm:
    def test_single_route_matches_stage_means(self):
        rs = model.RouteSpec(model.Route((1, 2)), 3.0, law_two_stage())
        spec = model.NetworkSpec(2, (rs,))
        form = analytic.stage_product_form(spec)
        assert form.means == analytic.stage_means(rs).w

    def test_two_routes_concatenate(self):
        lawA = model.DiscreteSessionLaw((1.0,), (((1.0, (1.0,)),),))
        spec = model.NetworkSpec(2, (
            model.RouteSpec(model.Route((1,)), 2.0, lawA),
            model.RouteSpec(model.Route((2, 1)), 3.0, law_two_stage()),
        ))
        form = analytic.stage_product_form(spec)
        assert form.means == pytest.approx((2.0, 12.0, 12.0))
        assert form.labels == ("route1.stage1", "route2.stage1", "route2.stage2")

    def test_cell_aggregation_consistency(self, rng):
        # composing stage coordinates by cell equals the per-cell product form
        for _ in range(20):
            law1 = random_discrete_law(rng, max_stages=3)
            law2 = random_discrete_law(rng, max_stages=3)
            C = 3
            r1 = tuple(int(rng.integers(1, C + 1)) for _ in range(law1.n_stages))
            r2 = tuple(int(rng.integers(1, C + 1)) for _ in range(law2.n_stages))
            spec = model.NetworkSpec(C, (
                model.RouteSpec(model.Route(r1), 1.5, law1),
                model.RouteSpec(model.Route(r2), 0.7, law2),
            ))
            sp = analytic.stage_product_form(spec)
            # build the cell partition over stage coordinates
            coords_by_cell = {n: set() for n in range(1, C + 1)}
            idx = 0
            for rs in spec.routes:
                sm = analytic.stage_means(rs)
                for j in sm.stages:
                    idx += 1
                    coords_by_cell[rs.route.cells[j - 1]].add(idx)
            composed = analytic.compose_poisson(
                sp.means, [coords_by_cell[n] for n in range(1, C + 1)])
            cm = analytic.cell_means(spec)
            assert composed.means == pytest.approx(cm.poisson_mean, abs=1e-9)


class TestFormulaLevelInsensitivity:
    def test_equal_marginals_give_equal_means(self, rng):
        # same p_k, same per-stage conditional means, same rate => same
        # StageMeans no matter how the realizations correlate the stages
        p = (0.4, 0.6)
        lawA = model.DiscreteSessionLaw(
            p, (((1.0, (3.0,)),), ((0.5, (1.0, 9.0)), (0.5, (5.0, 1.0)))))
        lawB = model.DiscreteSessionLaw(
            p, (((0.5, (2.0,)), (0.5, (4.0,))), ((1.0, (3.0, 5.0)),)))
        tA = lawA.stage_moments().mean_hold
        tB = lawB.stage_moments().mean_hold
        assert tA == pytest.approx(tB)
        smA = analytic.stage_means(model.RouteSpec(model.Route((1, 2)), 2.0, lawA))
        smB = analytic.stage_means(model.RouteSpec(model.Route((1, 2)), 2.0, lawB))
        assert smA.w == pytest.approx(smB.w, abs=1e-12)
        assert smA.w_prime == pytest.approx(smB.w_prime, abs=1e-12)


PINNED_LAWS = [
    # stage count 1 has probability 0 and no realizations
    model.DiscreteSessionLaw((0.0, 1.0), ((), ((0.5, (1.0, 10.0)), (0.5, (3.0, 2.0))))),
    # the middle stage count has none either; the last is reached with 0.4
    model.DiscreteSessionLaw((0.6, 0.0, 0.4),
                             (((0.25, (2.0,)), (0.75, (5.0,))), (), ((1.0, (1.0, 4.0, 9.0)),))),
    # zero probability but realizations present, and a zero-weight realization
    model.DiscreteSessionLaw((1.0, 0.0), (((1.0, (4.0,)), (0.0, (7.0,))), ((1.0, (3.0, 3.0)),))),
    # relative stage probabilities and weights, as a law built in code may have
    model.DiscreteSessionLaw((0.3, 0.3), (((1.0, (2.0,)), (3.0, (6.0,))), ((2.0, (1.0, 5.0)),))),
]


def assert_same_bits(got: np.ndarray, expected: np.ndarray):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestAgainstReference:
    """The branch table and stage moments against the nested-loop readers of
    ``law_reference``, bit for bit."""

    def check(self, law, seed):
        got = model.sample_sessions(law, 300, np.random.default_rng(seed))
        expected = law_reference.sample_sessions(law, 300, np.random.default_rng(seed))
        for g, e in zip(got, expected):
            assert_same_bits(g, e)
        moments = law.stage_moments()
        assert moments.reach == tuple(law_reference.survival(law.stage_probs, j)
                                      for j in range(1, law.n_stages + 1))
        assert list(moments.mean_hold) == law_reference.mean_holding_times(law)
        rs = model.RouteSpec(model.Route(tuple(range(1, law.n_stages + 1))), 1.7, law)
        assert (list(analytic.decoupled_means(rs).items())
                == list(law_reference.decoupled_means(rs).items()))
        assert analytic.stage_means(rs) == law_reference.stage_means(rs)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_laws_equal_reference(self, seed):
        self.check(random_discrete_law(np.random.default_rng(seed)), seed)

    @pytest.mark.parametrize("law", PINNED_LAWS)
    def test_pinned_laws_equal_reference(self, law):
        self.check(law, 7)
