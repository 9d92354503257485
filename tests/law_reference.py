"""Reference implementation of the discrete-law readers, for oracle tests.

These are the nested-loop forms that walk ``DiscreteSessionLaw.realizations``
directly: the survival probability, the conditional mean holding times, the
per-(stage count, realization) flattening of ``model.sample_sessions``, the
decoupled branch occupancies and the per-stage means built from them.
``multicell`` reads the law's flat branch table and stage moments instead;
``test_analytic.py::TestAgainstReference`` requires equal results, bit for
bit. Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import math

import numpy as np

from multicell.analytic import StageMeans
from multicell.model import DiscreteSessionLaw, RouteSpec

_IDENTITY_TOL = 1e-9


def survival(stage_probs, j: int) -> float:
    """Probability the session lasts at least j stages: 1 - sum(p_1..p_{j-1})."""
    if not 1 <= j <= len(stage_probs):
        raise ValueError(f"stage index {j} outside 1..{len(stage_probs)}")
    return 1.0 - math.fsum(stage_probs[: j - 1])


def mean_holding_times(law: DiscreteSessionLaw) -> list[float | None]:
    """Conditional mean holding time per stage, None for unreachable stages."""
    n = law.n_stages
    out: list[float | None] = []
    for j in range(1, n + 1):
        surv = survival(law.stage_probs, j)
        if surv <= 0:
            out.append(None)
            continue
        num = math.fsum(
            law.stage_probs[k - 1] * w * vec[j - 1]
            for k in range(j, n + 1)
            for w, vec in law.realizations[k - 1]
        )
        out.append(num / surv)
    return out


def sample_sessions(law: DiscreteSessionLaw, n: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One categorical draw per session over all (stage count, realization)
    pairs with positive stage-count probability."""
    K = law.n_stages
    total = math.fsum(law.stage_probs)
    probs, stages, rows = [], [], []
    for k, (pk, per_k) in enumerate(zip(law.stage_probs, law.realizations), start=1):
        if pk <= 0:
            continue
        wsum = math.fsum(w for w, _ in per_k)
        for w, vec in per_k:
            probs.append(pk / total * w / wsum)
            stages.append(k)
            rows.append(vec + (0.0,) * (K - k))
    probs = np.asarray(probs)
    i = rng.choice(len(probs), size=n, p=probs / probs.sum())
    return np.asarray(stages)[i], np.asarray(rows, dtype=float).reshape(-1, K)[i]


def decoupled_means(route_spec: RouteSpec) -> dict[tuple[int, int, int], float]:
    """arrival_rate * P_ki * t_kij for every (k, i, j) with j <= k."""
    law = route_spec.law
    lam0 = route_spec.arrival_rate
    out = {}
    for k in range(1, law.n_stages + 1):
        pk = law.stage_probs[k - 1]
        for i, (q, vec) in enumerate(law.realizations[k - 1], start=1):
            for j in range(1, k + 1):
                out[(k, i, j)] = lam0 * pk * q * vec[j - 1]
    return out


def stage_means(route_spec: RouteSpec) -> StageMeans:
    """Per-stage invariant measures and occupancies, with the decoupled-branch
    cross-check scanning every branch once per stage."""
    law = route_spec.law
    lam0 = route_spec.arrival_rate
    t_bars = mean_holding_times(law)
    branch = decoupled_means(route_spec)

    stages, w_prime, t_bar, w = [], [], [], []
    for j in range(1, law.n_stages + 1):
        tb = t_bars[j - 1]
        if tb is None:
            continue
        wp = lam0 * survival(law.stage_probs, j)
        wj = wp * tb
        branch_sum = math.fsum(v for (k, i, jj), v in branch.items() if jj == j)
        if abs(branch_sum - wj) > _IDENTITY_TOL * max(1.0, abs(wj)):
            raise AssertionError(
                f"decoupled-branch occupancies {branch_sum!r} disagree with "
                f"stage occupancy {wj!r} at stage {j}")
        stages.append(j)
        w_prime.append(wp)
        t_bar.append(tb)
        w.append(wj)
    return StageMeans(tuple(stages), tuple(w_prime), tuple(t_bar), tuple(w))
