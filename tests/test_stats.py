import math
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stats_reference as ref
from multicell import analytic, stats


def poisson_samples(rng, mean, n, dim=1):
    return [tuple(int(x) for x in rng.poisson(mean, size=dim)) for _ in range(n)]


def as_pairs(dist):
    """The distribution as sorted (vector, count) pairs."""
    return list(zip(map(tuple, dist.support.tolist()), dist.counts.tolist()))


class TestEmpiricalJoint:
    def test_relative_frequency(self):
        emp = stats.empirical_joint([[0], [0], [1], [1]])
        assert emp.support.tolist() == [[0], [1]]
        assert (emp.counts / emp.sample_count).tolist() == [0.5, 0.5]
        assert emp.sample_count == 4

    def test_projection_commutes_with_counting(self, rng):
        snaps = [tuple(rng.integers(0, 4, size=2)) for _ in range(500)]
        direct = stats.empirical_joint(snaps, cell_subset=[2])
        projected = stats.empirical_joint(snaps).project([2])
        assert direct.support.tolist() == projected.support.tolist()
        assert direct.counts.tolist() == projected.counts.tolist()

    @pytest.mark.parametrize("subset", [[3, 1], [2, 3, 1], [1, 2, 3]])
    def test_projection_matches_counting_oracle(self, rng, subset):
        snaps = [tuple(int(v) for v in rng.integers(-2, 5, size=3)) for _ in range(2000)]
        # with cells 1 and 2 both spanning 2**40 values, integer keys would
        # overflow and the projection falls back to sorting rows
        snaps.append((2**40, 2**40, 1))
        oracle = {}
        for v in snaps:
            key = tuple(v[i - 1] for i in subset)
            oracle[key] = oracle.get(key, 0) + 1
        projected = stats.empirical_joint(snaps).project(subset)
        assert as_pairs(projected) == sorted(oracle.items())
        assert projected.dimension == len(subset)

    def test_sampled_poisson_close_to_model(self, rng):
        emp = stats.empirical_joint(poisson_samples(rng, 3.0, 100_000))
        kl = stats.kl_divergence(emp, analytic.ProductForm((3.0,)))
        assert 0 <= kl < 0.005

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            stats.empirical_joint([])


class TestEntropy:
    def test_uniform_four_points(self):
        emp = stats.empirical_joint([[0], [1], [2], [3]])
        assert stats.entropy(emp) == pytest.approx(2.0)

    def test_point_mass(self):
        emp = stats.empirical_joint([[5]] * 10)
        assert stats.entropy(emp) == 0.0

    def test_non_negative(self, rng):
        emp = stats.empirical_joint(poisson_samples(rng, 2.0, 1000, dim=2))
        assert stats.entropy(emp) >= 0.0

    def test_permutation_invariance(self):
        a = stats.empirical_joint([[0], [0], [1], [2]])
        b = stats.empirical_joint([[7], [7], [3], [9]])
        assert stats.entropy(a) == pytest.approx(stats.entropy(b))


class TestKLDivergence:
    def test_zero_on_identical_support(self):
        # two-point empirical vs the product form restricted to that support
        emp = stats.empirical_joint([[0], [1]])
        form = analytic.ProductForm((1.0,))
        # hand evaluation: 0.5*log2(0.5/e^-1) twice = log2(0.5 e)
        assert stats.kl_divergence(emp, form) == pytest.approx(math.log2(0.5 * math.e))

    def test_self_divergence_zero(self):
        form = analytic.ProductForm((2.0,))
        counts = {(k,): form.pmf((k,)) for k in range(30)}
        # build an empirical whose frequencies equal the model pmf exactly
        n = 10_000_000
        counter = {vec: round(p * n) for vec, p in counts.items() if round(p * n)}
        emp = stats.EmpiricalDistribution.from_rows(
            list(counter), weights=list(counter.values()))
        assert stats.kl_divergence(emp, form) == pytest.approx(0.0, abs=1e-6)

    def test_infinite_on_zero_mean_support_mismatch(self):
        emp = stats.empirical_joint([[1]])
        form = analytic.ProductForm((0.0,))
        assert stats.kl_divergence(emp, form) == stats.INFINITE_DIVERGENCE

    def test_decreases_with_sample_count(self):
        form = analytic.ProductForm((2.0, 1.0))
        kls = []
        for n in (1000, 10_000, 100_000):
            r = np.random.default_rng(5)
            emp = stats.empirical_joint(
                [tuple(r.poisson(form.means)) for _ in range(n)])
            kls.append(stats.kl_divergence(emp, form))
        assert kls[0] > kls[1] > kls[2]


class TestEntropyGap:
    def test_independent_product_near_zero(self, rng):
        emp = stats.empirical_joint(poisson_samples(rng, 2.0, 50_000, dim=2))
        assert abs(stats.entropy_gap(emp)) < 0.01

    def test_perfectly_coupled_pair(self):
        emp = stats.empirical_joint([[0, 0], [1, 1]] * 10)
        assert stats.entropy_gap(emp) == pytest.approx(1.0)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            stats.entropy_gap(stats.empirical_joint([[0]]))

    def test_never_below_slack(self, rng):
        for _ in range(20):
            emp = stats.empirical_joint(
                [tuple(rng.integers(0, 3, size=3)) for _ in range(200)])
            assert stats.entropy_gap(emp) >= -1e-9


class TestIndependenceTest:
    def test_iid_poisson_passes(self, rng):
        counts = rng.poisson(5.0, size=4000)
        report = stats.independence_test(counts)
        assert report.passed and report.statistic < 0.15

    def test_alternating_counts_fail(self):
        counts = [0, 10] * 50
        report = stats.independence_test(counts)
        # H1 = 1 bit, pair entropy H2 = 1 bit, eta = 1 (up to the odd pair
        # count making the two pair outcomes 50/49 instead of exactly even)
        assert report.statistic == pytest.approx(1.0, abs=1e-3)
        assert not report.passed

    def test_constant_counts_degenerate(self):
        report = stats.independence_test([4] * 100)
        assert report.degenerate and report.passed is None

    def test_too_few_intervals(self):
        # fewer than 2 intervals give no pair, so no verdict
        for counts in ([], [3]):
            report = stats.independence_test(counts)
            assert report.degenerate and report.passed is None and report.statistic is None


class TestPoissonDistTest:
    def test_exact_poisson_frequencies_near_zero(self):
        # counts whose frequencies match a Poisson pmf on truncated support
        mean = 4.0
        counts = []
        for k in range(15):
            counts.extend([k] * round(10_000 * math.exp(-mean) * mean**k / math.factorial(k)))
        report = stats.poisson_dist_test(counts)
        assert report.statistic == pytest.approx(0.0, abs=0.01)
        assert report.passed

    def test_sampled_poisson_passes(self, rng):
        report = stats.poisson_dist_test(rng.poisson(6.0, size=2000))
        assert report.passed

    def test_bursty_counts_fail(self, rng):
        # bursts of 10 at Poisson epochs: counts are 10 * Poisson
        report = stats.poisson_dist_test(10 * rng.poisson(0.6, size=2000))
        assert not report.passed

    def test_zero_arrivals_degenerate(self):
        report = stats.poisson_dist_test([0] * 50)
        assert report.degenerate


class TestCompareJoint:
    def test_sampling_from_model_small_ratio(self, rng):
        form = analytic.ProductForm((6.0, 3.0))
        emp = stats.empirical_joint(
            [tuple(rng.poisson(form.means)) for _ in range(100_000)])
        cmp = stats.compare_joint(emp, form)
        assert cmp.h_kl / cmp.h_real < 0.05
        assert abs(cmp.h_gap) < 0.05

    def test_coupled_cells_positive_gap(self):
        # single route visiting both cells with long deterministic dwell:
        # occupancies move together, independence gap shows it
        vectors = [[0, 0]] * 50 + [[1, 1]] * 30 + [[2, 2]] * 20
        emp = stats.empirical_joint(vectors)
        cmp = stats.compare_joint(emp, analytic.ProductForm((0.7, 0.7)))
        assert cmp.h_gap > 0.5

    def test_dimension_mismatch(self):
        emp = stats.empirical_joint([[0, 0]])
        with pytest.raises(ValueError):
            stats.compare_joint(emp, analytic.ProductForm((1.0,)))


class TestRandomSubsetStudy:
    def _empirical(self, rng, means, n):
        return stats.empirical_joint([tuple(rng.poisson(means)) for _ in range(n)])

    def test_single_repeat_equals_compare_joint(self, rng):
        form = analytic.ProductForm((2.0, 3.0, 1.0))
        emp = self._empirical(rng, form.means, 20_000)
        study = stats.random_subset_study(emp, form, 3, 1, np.random.default_rng(0))
        cmp = stats.compare_joint(emp, form)
        assert study.h_kl_mean == pytest.approx(cmp.h_kl)
        assert study.h_real_mean == pytest.approx(cmp.h_real)
        assert study.h_kl_std == 0.0

    def test_model_samples_small_kl_ratio(self, rng):
        means = tuple([2.0] * 10)
        form = analytic.ProductForm(means)
        emp = self._empirical(rng, means, 50_000)
        study = stats.random_subset_study(emp, form, 3, 100, np.random.default_rng(1))
        assert study.h_kl_mean < 0.1 * study.h_real_mean

    def test_distance_constraint_filters_subsets(self, rng):
        means = (1.0, 1.0, 1.0)
        form = analytic.ProductForm(means)
        emp = self._empirical(rng, np.array(means), 5000)
        coords = np.array([[0.0, 0.0], [100.0, 0.0], [10_000.0, 0.0]])
        # only cells 1 and 2 are within 500 m of each other
        study = stats.random_subset_study(
            emp, form, 2, 20, np.random.default_rng(2),
            coordinates=coords, max_distance=500.0)
        assert study.repeats == 20
        with pytest.raises(ValueError, match="distance"):
            stats.random_subset_study(
                emp, form, 3, 1, np.random.default_rng(2),
                coordinates=coords, max_distance=500.0)

    def test_deterministic_given_seed(self, rng):
        form = analytic.ProductForm((2.0, 2.0, 2.0, 2.0))
        emp = self._empirical(rng, np.array(form.means), 10_000)
        a = stats.random_subset_study(emp, form, 2, 10, np.random.default_rng(3))
        b = stats.random_subset_study(emp, form, 2, 10, np.random.default_rng(3))
        assert a == b


@st.composite
def row_sets(draw):
    """Count vectors with Poisson means: small counts, and per example one
    of counts far above the means (a key range too wide to count densely),
    counts whose key range reaches 2**62 (the row-sort fallback), negative
    counts, or many rows over a narrow range (counted densely); some means
    are zero."""
    d = draw(st.integers(1, 4))
    cell = st.integers(0, 6)
    size = 80
    extra = draw(st.sampled_from([None, "far", "huge", "negative", "narrow"]))
    if extra == "far":
        cell = st.one_of(cell, st.integers(40, 400))
    elif extra == "huge":
        cell = st.one_of(cell, st.sampled_from([2**40, 2**61, 2**62]))
    elif extra == "negative":
        cell = st.one_of(cell, st.integers(-3, -1))
    elif extra == "narrow":
        cell, size = st.integers(-1, 1), 400
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=size))
    means = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 8.0)),
                          min_size=d, max_size=d))
    return rows, tuple(means)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


class TestAgainstReference:
    """The array metrics equal the tuple-and-Counter reference exactly."""

    @settings(max_examples=300, deadline=None)
    @given(row_sets(), st.randoms(use_true_random=False))
    # one example per counting path of from_rows: a dense key range, a sparse
    # one, and a key range of 2**62 or more
    @example(([[0, 1, 2], [1, 0, 2], [0, 1, 2], [2, 2, 0]] * 5, (1.0, 0.0, 2.5)),
             Random(1))
    @example(([[0, 300, 2], [7, 0, 2], [0, 300, 2], [2, 40, 0]], (1.0, 0.0, 2.5)),
             Random(2))
    @example(([[0, 2**61, 2], [2**61, 0, 2], [0, 2**61, 2], [2, 5, 0]], (1.0, 0.0, 2.5)),
             Random(3))
    def test_metrics_equal_reference(self, case, random):
        rows, means = case
        emp = stats.empirical_joint(rows)
        expected = ref.empirical_joint(rows)
        assert as_pairs(emp) == list(expected)
        assert emp.sample_count == len(rows) and emp.dimension == len(means)
        assert stats.entropy(emp) == ref.entropy(expected)
        form = analytic.ProductForm(means)
        assert outcome(stats.kl_divergence, emp, form) == outcome(ref.kl_divergence, expected, form)

        subset = random.sample(range(1, len(means) + 1), random.randint(1, len(means)))
        projected = emp.project(subset)
        expected = ref.project(expected, subset)
        assert as_pairs(projected) == list(expected)
        assert stats.entropy(projected) == ref.entropy(expected)
        sub_form = analytic.ProductForm(tuple(means[i - 1] for i in subset))
        assert (outcome(stats.kl_divergence, projected, sub_form)
                == outcome(ref.kl_divergence, expected, sub_form))

    @pytest.mark.parametrize("rows, means, expected", [
        ([[0, 0], [2, 1]], (1.0, 0.0), math.inf),
        ([[0, 0], [-1, 0]], (1.0, 0.0), ValueError),
        # rows in lexicographic order, coordinates left to right: the first
        # zero-mean mismatch or negative count decides, as in logpmf
        ([[0, 1], [5, -1]], (1.0, 0.0), math.inf),
        ([[0, 1], [0, -1]], (1.0, 0.0), ValueError),
        ([[-1, 1]], (0.0, 0.0), ValueError),
    ])
    def test_zero_mean_cells_and_negative_counts(self, rows, means, expected):
        form = analytic.ProductForm(means)
        assert outcome(stats.kl_divergence, stats.empirical_joint(rows), form) == expected
        assert outcome(ref.kl_divergence, ref.empirical_joint(rows), form) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 12), st.sampled_from([0, 10, 20, 30])),
                    min_size=2, max_size=120))
    def test_arrival_statistics_equal_reference(self, counts):
        assert stats.independence_test(counts).statistic == ref.independence_statistic(counts)
        assert stats.poisson_dist_test(counts).statistic == ref.poisson_dist_statistic(counts)


class TestEffectiveSampleSize:
    def test_iid_series_near_full(self, rng):
        x = rng.normal(size=10_000)
        ess = stats.effective_sample_size(x)
        assert ess > 5000

    def test_autocorrelated_series_shrinks(self, rng):
        x = np.zeros(20_000)
        for i in range(1, len(x)):
            x[i] = 0.95 * x[i - 1] + rng.normal()
        ess = stats.effective_sample_size(x)
        assert ess < 5000

    def test_short_or_constant_series(self):
        assert stats.effective_sample_size([1.0] * 100) == 100.0
        assert stats.effective_sample_size([1.0, 2.0]) == 2.0
