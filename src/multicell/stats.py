"""Empirical distributions, entropy/KL metrics and arrival-process tests.

All entropies and divergences are in bits (base-2 logs). Empirical
distributions keep exact integer counts internally; probabilities are
materialized on demand, so mass sums stay exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import ProductForm

#: Value reported when an empirical support point has zero model probability.
INFINITE_DIVERGENCE = math.inf


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sparse probability mass over integer occupancy vectors."""

    counts: tuple[tuple[tuple[int, ...], int], ...]
    sample_count: int
    dimension: int

    @classmethod
    def from_counter(cls, counter: Counter, dimension: int) -> "EmpiricalDistribution":
        total = sum(counter.values())
        if total == 0:
            raise ValueError("empty sample")
        return cls(tuple(sorted(counter.items())), total, dimension)

    @classmethod
    def from_vectors(cls, vectors) -> "EmpiricalDistribution":
        counter: Counter = Counter()
        dim = None
        for v in vectors:
            v = tuple(int(x) for x in v)
            if dim is None:
                dim = len(v)
            elif len(v) != dim:
                raise ValueError("inconsistent vector dimensions")
            counter[v] += 1
        if dim is None:
            raise ValueError("empty sample")
        return cls.from_counter(counter, dim)

    def items(self):
        for vec, c in self.counts:
            yield vec, c / self.sample_count

    def project(self, coord_subset) -> "EmpiricalDistribution":
        """Marginal over the given 1-based coordinate indices, in order."""
        idx = [i - 1 for i in coord_subset]
        for i in idx:
            if not 0 <= i < self.dimension:
                raise ValueError(f"coordinate {i + 1} outside 1..{self.dimension}")
        rows, weights = self._columns
        cols = rows[:, idx]
        low = cols.min(axis=0)
        dims = tuple((cols.max(axis=0) - low + 1).tolist())
        if math.prod(dims) < 2 ** 62:
            # one integer key per row, in the rows' lexicographic order
            keys, inverse = np.unique(np.ravel_multi_index((cols - low).T, dims),
                                      return_inverse=True)
            vecs = np.column_stack(np.unravel_index(keys, dims)) + low
        else:
            vecs, inverse = np.unique(cols, axis=0, return_inverse=True)
        mass = np.bincount(inverse.ravel(), weights=weights).astype(np.int64)
        return EmpiricalDistribution(tuple(zip(map(tuple, vecs.tolist()), mass.tolist())),
                                     self.sample_count, len(idx))

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as an (U, d) int array and the counts as (U,) floats."""
        vecs, counts = zip(*self.counts)
        return np.array(vecs, dtype=np.int64).reshape(-1, self.dimension), np.array(counts, float)


def empirical_joint(snapshots, cell_subset=None) -> EmpiricalDistribution:
    """Relative-frequency joint over the (optionally projected) snapshots.

    ``snapshots`` may be OccupancySnapshot objects or plain count vectors;
    ``cell_subset`` holds 1-based cell indices.
    """
    vectors = []
    for s in snapshots:
        vec = s.cell_counts if hasattr(s, "cell_counts") else tuple(s)
        if cell_subset is not None:
            vec = tuple(vec[i - 1] for i in cell_subset)
        vectors.append(vec)
    if not vectors:
        raise ValueError("empty snapshot list")
    return EmpiricalDistribution.from_vectors(vectors)


def entropy(dist: EmpiricalDistribution) -> float:
    """Shannon entropy of the empirical mass, in bits."""
    n = dist.sample_count
    return -math.fsum((c / n) * math.log2(c / n) for _, c in dist.counts)


def kl_divergence(P: EmpiricalDistribution, Q: ProductForm) -> float:
    """KL(P || Q) in bits; infinite when Q has zero mass on P's support."""
    n = P.sample_count
    total = 0.0
    for vec, c in P.counts:
        p = c / n
        logq = Q.logpmf(vec)
        if logq == -math.inf:
            return INFINITE_DIVERGENCE
        total += p * (math.log2(p) - logq / math.log(2))
    return total


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


def _entropy_of_counts(values) -> float:
    c = Counter(values)
    n = len(values)
    return -math.fsum((v / n) * math.log2(v / n) for v in c.values())


def independence_test(arrival_counts, interval: float = 3600.0,
                      threshold: float = 0.15) -> TestReport:
    """Normalized entropy gap between one-interval counts and consecutive
    pairs: eta = (2*H1 - H2) / H2, pass iff eta < threshold."""
    counts = [int(c) for c in arrival_counts]
    if len(counts) < 2:
        raise ValueError("need at least 2 intervals")
    h1 = _entropy_of_counts(counts)
    pairs = list(zip(counts[:-1], counts[1:]))
    h2 = _entropy_of_counts(pairs)
    if h2 == 0.0:
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
    h1 = _entropy_of_counts(counts)
    if total == 0 or h1 == 0.0:
        return TestReport("poisson_dist", None, threshold, None,
                          len(counts), interval, degenerate=True)
    mean = total / len(counts)
    freq = Counter(counts)
    n = len(counts)
    h0 = 0.0
    for value, c in freq.items():
        p = c / n
        logq = -mean + value * math.log(mean) - math.lgamma(value + 1)
        h0 += p * (math.log2(p) - logq / math.log(2))
    theta = h0 / h1
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


def random_subset_study(full: EmpiricalDistribution, form: ProductForm,
                        n_cells: int, repeats: int, rng: np.random.Generator,
                        coordinates: np.ndarray | None = None,
                        max_distance: float | None = None,
                        allowed_cells=None) -> SubsetStudy:
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
    pool = sorted(allowed_cells) if allowed_cells is not None else list(range(1, dim + 1))
    if n_cells > len(pool):
        raise ValueError(f"subset size {n_cells} exceeds {len(pool)} allowed cells")

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
            raise ValueError("no cell subset satisfies the distance constraint")
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
