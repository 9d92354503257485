"""Empirical distributions, entropy/KL metrics and arrival-process tests.

All entropies and divergences are in bits (base-2 logs). An empirical
distribution is one table: its distinct occupancy vectors as a ``(U, d)``
int64 ``support``, rows in lexicographic order, and how often each occurred
as ``(U,)`` int64 ``counts``. Counts stay exact integers; probabilities are
formed only inside the metrics. Entropy and KL take one ``math`` log per
distinct count and one Poisson log-pmf per distinct value of each
coordinate, so they equal the row-by-row sums bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analytic import ProductForm, poisson_logpmf

#: Value reported when an empirical support point has zero model probability.
INFINITE_DIVERGENCE = math.inf

#: ``from_rows`` counts keys in a table of the whole key range, not by sorting
#: them, when the range is at most this many times the row count.
DENSE_KEY_FACTOR = 4


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sparse probability mass over integer occupancy vectors."""

    support: np.ndarray     # (U, d) int64, distinct rows in lexicographic order
    counts: np.ndarray      # (U,) int64, occurrences of each row

    @classmethod
    def from_rows(cls, rows, weights=None) -> "EmpiricalDistribution":
        """Count the distinct rows of an ``(N, d)`` integer array, each row
        adding its weight (default 1)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or len(rows) == 0:
            raise ValueError("need a non-empty (N, d) array of count vectors")
        low = rows.min(axis=0)
        dims = (rows.max(axis=0) - low + 1).tolist()
        size = math.prod(dims)
        if size < 2 ** 62:
            # one integer key per row, in the rows' lexicographic order
            row_keys = np.ravel_multi_index((rows - low).T, dims)
            if size <= DENSE_KEY_FACTOR * len(rows):
                # a key range this small is cheaper to count than to sort
                seen = np.zeros(size, dtype=bool)
                seen[row_keys] = True
                keys = np.flatnonzero(seen)
                counts = np.bincount(row_keys, weights=weights, minlength=size)[keys]
            else:
                keys, inverse = np.unique(row_keys, return_inverse=True)
                counts = np.bincount(inverse, weights=weights)
            support = np.column_stack(np.unravel_index(keys, dims)) + low
        else:
            support, inverse = np.unique(rows, axis=0, return_inverse=True)
            counts = np.bincount(inverse.ravel(), weights=weights)
        return cls(support, counts.astype(np.int64))

    @property
    def sample_count(self) -> int:
        return int(self.counts.sum())

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    def project(self, coord_subset) -> "EmpiricalDistribution":
        """Marginal over the given 1-based coordinate indices, in order."""
        idx = [i - 1 for i in coord_subset]
        for i in idx:
            if not 0 <= i < self.dimension:
                raise ValueError(f"coordinate {i + 1} outside 1..{self.dimension}")
        return EmpiricalDistribution.from_rows(self.support[:, idx], self.counts)


def empirical_joint(snapshots, cell_subset=None) -> EmpiricalDistribution:
    """Relative-frequency joint of count vectors, optionally projected.

    ``snapshots`` is an ``(N, d)`` array or a sequence of equal-length count
    vectors; ``cell_subset`` holds 1-based cell indices.
    """
    rows = np.asarray(snapshots, dtype=np.int64)
    if cell_subset is not None:
        rows = rows[:, [i - 1 for i in cell_subset]]
    return EmpiricalDistribution.from_rows(rows)


def _entropy_of_counts(counts: list[int]) -> float:
    """Plug-in entropy -sum p log2 p in bits, p = counts / sum(counts), with
    one log per distinct count and an exactly rounded sum."""
    n = sum(counts)
    terms = {c: (c / n) * math.log2(c / n) for c in set(counts)}
    return -math.fsum(map(terms.__getitem__, counts))


def entropy(dist: EmpiricalDistribution) -> float:
    """Shannon entropy of the empirical mass, in bits."""
    return _entropy_of_counts(dist.counts.tolist())


def _kl_bits(support: np.ndarray, counts: np.ndarray, means) -> float:
    """KL in bits of the mass counts / sum(counts) on the rows of ``support``
    against independent Poissons with ``means``, summed left to right over
    the rows in the order given. Follows ``ProductForm.logpmf``: a negative
    count raises ValueError, and a non-zero count in a zero-mean coordinate
    makes the divergence infinite, whichever comes first row by row."""
    if support.shape[1] != len(means):
        raise ValueError(f"counts length {support.shape[1]} != dimension {len(means)}")
    bad = (support < 0) | ((np.asarray(means) == 0.0) & (support != 0))
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        y = int(support[r, np.argmax(bad[r])])
        if y < 0:
            raise ValueError(f"invalid count {y!r}")
        return INFINITE_DIVERGENCE
    logq = np.zeros(len(support))
    for j, m in enumerate(means):
        if m == 0.0:
            continue
        values, inverse = np.unique(support[:, j], return_inverse=True)
        logq += np.array([poisson_logpmf(m, y) for y in values.tolist()])[inverse]
    n = int(counts.sum())
    values, inverse = np.unique(counts, return_inverse=True)
    p = np.array([c / n for c in values.tolist()])[inverse]
    log2p = np.array([math.log2(c / n) for c in values.tolist()])[inverse]
    # cumsum adds strictly left to right, as a scalar += loop does
    return float(np.cumsum(p * (log2p - logq / math.log(2)))[-1])


def kl_divergence(P: EmpiricalDistribution, Q: ProductForm) -> float:
    """KL(P || Q) in bits; infinite when Q has zero mass on P's support."""
    return _kl_bits(P.support, P.counts, Q.means)


def entropy_gap(joint: EmpiricalDistribution) -> float:
    """Sum of marginal entropies minus joint entropy, in bits (>= 0 up to
    estimation slack); zero iff the coordinates look independent."""
    if joint.dimension < 2:
        raise ValueError("entropy gap needs dimension >= 2")
    marg_sum = math.fsum(entropy(joint.project([i])) for i in range(1, joint.dimension + 1))
    return marg_sum - entropy(joint)


@dataclass(frozen=True)
class TestReport:
    name: str
    statistic: float | None
    threshold: float
    passed: bool | None          # None = degenerate input, no verdict
    n_intervals: int
    interval: float
    degenerate: bool = False

    def __post_init__(self):
        if not self.degenerate and self.passed != (self.statistic < self.threshold):
            raise ValueError("pass flag inconsistent with statistic/threshold")


def independence_test(arrival_counts, interval: float = 3600.0,
                      threshold: float = 0.15) -> TestReport:
    """Normalized entropy gap between one-interval counts and consecutive
    pairs: eta = (2*H1 - H2) / H2, pass iff eta < threshold."""
    counts = [int(c) for c in arrival_counts]
    h1 = _entropy_of_counts(list(Counter(counts).values()))
    h2 = _entropy_of_counts(list(Counter(zip(counts[:-1], counts[1:])).values()))
    if h2 == 0.0:     # also when there are fewer than 2 intervals
        return TestReport("independence", None, threshold, None,
                          len(counts), interval, degenerate=True)
    eta = (2.0 * h1 - h2) / h2
    return TestReport("independence", eta, threshold, eta < threshold,
                      len(counts), interval)


def poisson_dist_test(arrival_counts, interval: float = 3600.0,
                      threshold: float = 0.15) -> TestReport:
    """KL of the empirical count distribution against a Poisson fitted by
    the sample mean, normalized by the empirical entropy: theta = H0 / H1,
    pass iff theta < threshold."""
    counts = [int(c) for c in arrival_counts]
    if not counts:
        raise ValueError("need at least 1 interval")
    total = sum(counts)
    freq = Counter(counts)    # first-occurrence order, which fixes the KL sum's last digit
    h1 = _entropy_of_counts(list(freq.values()))
    if total == 0 or h1 == 0.0:
        return TestReport("poisson_dist", None, threshold, None,
                          len(counts), interval, degenerate=True)
    theta = _kl_bits(np.array(list(freq), dtype=np.int64)[:, None],
                     np.array(list(freq.values())), (total / len(counts),)) / h1
    return TestReport("poisson_dist", theta, threshold, theta < threshold,
                      len(counts), interval)


@dataclass(frozen=True)
class JointComparison:
    h_kl: float
    h_gap: float | None          # None when dimension < 2
    h_real: float
    sample_count: int

    @property
    def kl_ratio(self) -> float:
        return self.h_kl / self.h_real if self.h_real > 0 else math.inf


def compare_joint(empirical: EmpiricalDistribution, form: ProductForm) -> JointComparison:
    """The three headline metrics: model KL, independence gap, real entropy."""
    if empirical.dimension != form.dimension:
        raise ValueError(f"dimension mismatch: empirical {empirical.dimension} "
                         f"vs model {form.dimension}")
    h_real = entropy(empirical)
    h_kl = kl_divergence(empirical, form)
    h_gap = entropy_gap(empirical) if empirical.dimension >= 2 else None
    return JointComparison(h_kl, h_gap, h_real, empirical.sample_count)


@dataclass(frozen=True)
class SubsetStudy:
    n_cells: int
    repeats: int
    h_kl_mean: float
    h_kl_std: float
    h_gap_mean: float
    h_gap_std: float
    h_real_mean: float
    h_real_std: float


class NoAdmissibleSubset(ValueError):
    """No drawn cell subset meets the distance constraint."""


def random_subset_study(full: EmpiricalDistribution, form: ProductForm,
                        n_cells: int, repeats: int, rng: np.random.Generator,
                        coordinates: np.ndarray | None = None,
                        max_distance: float | None = None) -> SubsetStudy:
    """Repeatedly draw random n-cell subsets, compare each empirical
    marginal against the matching product-form marginal, and report sample
    mean and standard deviation of the three metrics.

    When coordinates and ``max_distance`` are given, only subsets whose
    cells lie pairwise within that distance are drawn.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    dim = full.dimension
    if n_cells > dim:
        raise ValueError(f"subset size {n_cells} exceeds {dim} cells")
    pool = list(range(1, dim + 1))

    def admissible(subset) -> bool:
        if coordinates is None or max_distance is None:
            return True
        pts = coordinates[[i - 1 for i in subset]]
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        return bool((d < max_distance).all())

    kls, gaps, reals = [], [], []
    for _ in range(repeats):
        for _attempt in range(10_000):
            subset = sorted(rng.choice(pool, size=n_cells, replace=False).tolist())
            if admissible(subset):
                break
        else:
            raise NoAdmissibleSubset(f"no {n_cells}-cell subset has every pairwise distance "
                                     f"below {max_distance} in 10000 draws")
        emp = full.project(subset)
        sub_form = ProductForm(tuple(form.means[i - 1] for i in subset))
        cmp = compare_joint(emp, sub_form)
        kls.append(cmp.h_kl)
        gaps.append(cmp.h_gap if cmp.h_gap is not None else math.nan)
        reals.append(cmp.h_real)

    def ms(xs):
        a = np.asarray(xs, dtype=float)
        return float(a.mean()), float(a.std(ddof=1)) if len(a) > 1 else 0.0

    km, ks = ms(kls)
    gm, gs = ms(gaps)
    rm, rs = ms(reals)
    return SubsetStudy(n_cells, repeats, km, ks, gm, gs, rm, rs)


def effective_sample_size(series, batch_size: int = 20) -> float:
    """Batch-means effective sample size of an autocorrelated series.

    Splits the series into batches of ``batch_size``, compares the variance
    of batch means against the raw variance, and scales the nominal count
    accordingly. Falls back to the raw count when the series is too short
    or has no variance.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    n_batches = n // batch_size
    if n_batches < 2:
        return float(n)
    trimmed = x[: n_batches * batch_size]
    var = trimmed.var(ddof=1)
    if var == 0:
        return float(n)
    bm = trimmed.reshape(n_batches, batch_size).mean(axis=1)
    var_bm = bm.var(ddof=1)
    if var_bm == 0:
        return float(n)
    ess = n * var / (batch_size * var_bm)
    return float(min(ess, n))
