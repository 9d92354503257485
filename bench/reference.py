"""Reference calculator, written apart from ``multicell``.

Everything here works from a config dict (the JSON the program reads) and
plain arithmetic: session laws are enumerated over their exact finite
supports, with holding times kept as exact fractions, and Poisson sums run
in log space. The checks compare the program's outputs against these
numbers, so nothing in this module imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def dist_support(d: dict) -> list[tuple[Fraction, Fraction]]:
    """Exact (probability, value) support of a finite distribution dict."""
    family = d["family"]
    if family == "deterministic":
        return [(Fraction(1), Fraction(d["value"]))]
    if family == "discrete":
        weights = [Fraction(w) for w in d["weights"]]
        total = sum(weights)
        return [(w / total, Fraction(v)) for w, v in zip(weights, d["values"])
                if w > 0]
    raise ValueError(f"family {family!r} has no finite support to enumerate")


def holds_from(T: Fraction, taus) -> tuple[Fraction, ...]:
    """Holding vector of one session: stage j is reached when the duration
    outlives the first j-1 dwells, and holds the rest of the duration or its
    own dwell, whichever is shorter."""
    out = []
    spent = Fraction(0)
    for tau in taus:
        if out and T <= spent:
            break
        out.append(min(T - spent, tau))
        spent += tau
    return tuple(out)


def session_support(law: dict) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Exact (probability, holding vector) support of a session law."""
    if law["kind"] == "discrete":
        out = []
        for p, per_k in zip(law["stage_probs"], law["realizations"]):
            for r in per_k:
                out.append((Fraction(p) * Fraction(r["weight"]),
                            tuple(Fraction(h) for h in r["holding"])))
        return out
    speeds = dist_support(law["speed"]) if "speed" in law else [(Fraction(1), Fraction(1))]
    scale_T = bool(law.get("speed_scales_duration", False)) and "speed" in law
    dwells = [dist_support(d) for d in law["dwells"]]
    merged: dict[tuple[Fraction, ...], Fraction] = {}
    for (ps, s), (pT, T0) in product(speeds, dist_support(law["duration"])):
        T = T0 * s if scale_T else T0
        for combo in product(*dwells):
            p = ps * pT
            for pd, _ in combo:
                p *= pd
            holds = holds_from(T, [s * tau for _, tau in combo])
            merged[holds] = merged.get(holds, Fraction(0)) + p
    return [(p, h) for h, p in merged.items()]


def route_cell_moments(route: dict, cell_count: int):
    """Per cell, the exact mean and variance of X_c, the total time one
    session of this route spends in cell c."""
    mean = [Fraction(0)] * cell_count
    second = [Fraction(0)] * cell_count
    for p, holds in session_support(route["law"]):
        x = [Fraction(0)] * cell_count
        for cell, h in zip(route["cells"], holds):
            x[cell - 1] += h
        for c in range(cell_count):
            mean[c] += p * x[c]
            second[c] += p * x[c] * x[c]
    return mean, [s - m * m for s, m in zip(second, mean)]


def cell_means(config: dict) -> list[float]:
    """Per-cell Poisson means: sum over routes of rate times E[X_c].
    Only mean holding times enter, which is the insensitivity result."""
    C = config["cells"]
    total = [Fraction(0)] * C
    for route in config["routes"]:
        mean, _ = route_cell_moments(route, C)
        rate = Fraction(route["arrival_rate"])
        for c in range(C):
            total[c] += rate * mean[c]
    return [float(t) for t in total]


def discretization_se(config: dict, samples: int) -> list[float]:
    """Standard error of a cell mean estimated from ``samples`` Monte-Carlo
    sessions per generative route (discrete routes are exact)."""
    C = config["cells"]
    var = [Fraction(0)] * C
    for route in config["routes"]:
        if route["law"]["kind"] != "generative":
            continue
        _, v = route_cell_moments(route, C)
        rate = Fraction(route["arrival_rate"])
        for c in range(C):
            var[c] += rate * rate * v[c] / samples
    return [math.sqrt(float(v)) for v in var]


def poisson_logpmf(k: int, m: float) -> float:
    if m == 0.0:
        return 0.0 if k == 0 else -math.inf
    return -m + k * math.log(m) - math.lgamma(k + 1)


def poisson_entropy_moments(m: float) -> tuple[float, float]:
    """Entropy of Poisson(m) in bits and the variance of -log2 p(X)."""
    if m == 0.0:
        return 0.0, 0.0
    top = int(m + 40.0 * math.sqrt(m) + 60)
    terms = []
    for k in range(top + 1):
        lp = poisson_logpmf(k, m)
        terms.append((math.exp(lp), -lp / math.log(2)))
    h = math.fsum(p * s for p, s in terms)
    var = math.fsum(p * (s - h) ** 2 for p, s in terms)
    return h, var


def poisson_entropy(m: float) -> float:
    """Exact entropy of Poisson(m) in bits."""
    return poisson_entropy_moments(m)[0]
