"""Closed-form engine for the stationary user distribution.

Per route, the invariant measure of stage j is the arrival rate times the
probability the session survives to stage j; multiplying by the conditional
mean holding time gives the expected stage occupancy w_lj. Summing w_lj over
all (route, stage) pairs mapped to one cell gives that cell's Poisson mean,
and the joint stationary distribution over cells is a product of independent
Poissons with those means.

All probability mass computation happens in log space (log-gamma for
factorials) so counts beyond ~170 do not overflow.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import DiscreteSessionLaw, NetworkSpec, RouteSpec

_IDENTITY_TOL = 1e-9


def poisson_logpmf(mean: float, y: int) -> float:
    """log P(Y = y) for Y ~ Poisson(mean), mean > 0."""
    return -mean + y * math.log(mean) - math.lgamma(y + 1)


@dataclass(frozen=True)
class StageMeans:
    """Per-stage quantities for one route; unreachable stages are excluded.

    ``stages`` holds the 1-based stage indices with positive survival
    probability; the remaining arrays are aligned with it.
    """

    stages: tuple[int, ...]
    w_prime: tuple[float, ...]   # invariant measure, sessions/second
    t_bar: tuple[float, ...]     # conditional mean holding time, seconds
    w: tuple[float, ...]         # expected occupancy (dimensionless)


def stage_means(route_spec: RouteSpec) -> StageMeans:
    """Invariant measures and expected occupancies for one route.

    Also cross-checks the decoupled-network identity: the occupancies of the
    per-(stage count, realization) branches must re-sum to w_j.
    """
    law = route_spec.law
    if not isinstance(law, DiscreteSessionLaw):
        raise TypeError("stage_means requires a DiscreteSessionLaw")
    lam0 = route_spec.arrival_rate
    moments = law.stage_moments()
    branch_values = [[] for _ in range(law.n_stages)]
    for (_, _, j), v in decoupled_means(route_spec).items():
        branch_values[j - 1].append(v)

    stages, w_prime, t_bar, w = [], [], [], []
    for j, (reach, tb, values) in enumerate(
            zip(moments.reach, moments.mean_hold, branch_values), start=1):
        if tb is None:
            continue
        wp = lam0 * reach
        wj = wp * tb
        branch_sum = math.fsum(values)
        if abs(branch_sum - wj) > _IDENTITY_TOL * max(1.0, abs(wj)):
            raise AssertionError(
                f"decoupled-branch occupancies {branch_sum!r} disagree with "
                f"stage occupancy {wj!r} at stage {j}")
        stages.append(j)
        w_prime.append(wp)
        t_bar.append(tb)
        w.append(wj)
    return StageMeans(tuple(stages), tuple(w_prime), tuple(t_bar), tuple(w))


def decoupled_means(route_spec: RouteSpec) -> dict[tuple[int, int, int], float]:
    """Expected occupancy of each decoupled branch queue.

    Keys are (stage count k, realization index i, stage j) with j <= k; the
    value is arrival_rate * P_ki * t_kij.
    """
    law = route_spec.law
    if not isinstance(law, DiscreteSessionLaw):
        raise TypeError("decoupled_means requires a DiscreteSessionLaw")
    b = law.branches
    values = (route_spec.arrival_rate * b.pk * b.weight)[:, None] * b.holds
    # rows run in k order, so a row's realization index counts from the first row of its k
    index = np.arange(len(b.stages)) - np.searchsorted(b.stages, b.stages) + 1
    return {(k, i, j): v
            for k, i, row in zip(b.stages.tolist(), index.tolist(), values.tolist())
            for j, v in enumerate(row[:k], start=1)}


@dataclass(frozen=True)
class CellMeans:
    """Per-cell aggregates: arrival rate, mean holding time, Poisson mean.

    ``hold_mean[n-1]`` is None for cells no route visits (rate and mean are
    then zero).
    """

    arrival_rate: tuple[float, ...]
    hold_mean: tuple[float | None, ...]
    poisson_mean: tuple[float, ...]


def cell_means(spec: NetworkSpec) -> CellMeans:
    """Aggregate per-route stage occupancies into per-cell Poisson means."""
    C = spec.cell_count
    lam = [0.0] * C
    mass = [0.0] * C    # arrival_rate * survival * t_bar contributions
    for rs in spec.routes:
        sm = stage_means(rs)
        for j, wp, wj in zip(sm.stages, sm.w_prime, sm.w):
            n = rs.route.cells[j - 1]
            lam[n - 1] += wp
            mass[n - 1] += wj
    hold = tuple(m / r if r > 0 else None for r, m in zip(lam, mass))
    means = tuple(m if r > 0 else 0.0 for r, m in zip(lam, mass))
    return CellMeans(tuple(lam), hold, means)


@dataclass(frozen=True)
class ProductForm:
    """Product of independent Poissons; one mean per coordinate."""

    means: tuple[float, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if any(m < 0 for m in self.means):
            raise ValueError("Poisson means must be non-negative")
        if self.labels and len(self.labels) != len(self.means):
            raise ValueError("labels length must match means")

    @property
    def dimension(self) -> int:
        return len(self.means)

    def logpmf(self, counts) -> float:
        counts = list(counts)
        if len(counts) != len(self.means):
            raise ValueError(f"counts length {len(counts)} != dimension {len(self.means)}")
        total = 0.0
        for m, y in zip(self.means, counts):
            if y < 0 or y != int(y):
                raise ValueError(f"invalid count {y!r}")
            y = int(y)
            if m == 0.0:
                if y != 0:
                    return -math.inf
                continue
            total += poisson_logpmf(m, y)
        return total

    def pmf(self, counts) -> float:
        return math.exp(self.logpmf(counts))


def compose_poisson(means, partition) -> ProductForm:
    """Group coordinates of a product form; sums of disjoint groups stay
    independent Poisson with summed means.

    ``partition`` is a list of disjoint sets of 1-based coordinate indices.
    """
    means = list(means)
    seen: set[int] = set()
    out = []
    for group in partition:
        group = set(group)
        if group & seen:
            raise ValueError(f"overlapping partition sets at indices {sorted(group & seen)}")
        for idx in group:
            if not 1 <= idx <= len(means):
                raise ValueError(f"index {idx} outside 1..{len(means)}")
        seen |= group
        out.append(math.fsum(means[i - 1] for i in sorted(group)))
    return ProductForm(tuple(out))


def stage_product_form(spec: NetworkSpec) -> ProductForm:
    """Joint stationary distribution over all (route, stage) coordinates."""
    means, labels = [], []
    for l, rs in enumerate(spec.routes, start=1):
        sm = stage_means(rs)
        for j, wj in zip(sm.stages, sm.w):
            means.append(wj)
            labels.append(f"route{l}.stage{j}")
    return ProductForm(tuple(means), tuple(labels))


def cell_product_form(spec: NetworkSpec) -> ProductForm:
    """Joint stationary distribution over cells (the model's main output)."""
    cm = cell_means(spec)
    labels = tuple(f"cell{n}" for n in range(1, spec.cell_count + 1))
    return ProductForm(cm.poisson_mean, labels)


def poisson_truncation(mean: float, tail: float = 1e-8) -> int:
    """Smallest K with Poisson(mean) CDF(K) >= 1 - tail.

    The CDF sums exp(:func:`poisson_logpmf`) upward from y = 0, over a
    range that reaches far past the 1 - tail quantile.
    """
    if mean <= 0:
        return 0
    ys = range(int(mean + 12.0 * math.sqrt(mean) + 40.0))
    logpmf = np.array([poisson_logpmf(mean, y) for y in ys])
    return int(np.searchsorted(np.cumsum(np.exp(logpmf)), 1.0 - tail))


def write_cell_means_csv(cm: CellMeans, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "arrival_rate", "hold_mean", "poisson_mean"])
        for n, (lam, tb, m) in enumerate(
                zip(cm.arrival_rate, cm.hold_mean, cm.poisson_mean), start=1):
            w.writerow([n, repr(lam), "" if tb is None else repr(tb), repr(m)])
