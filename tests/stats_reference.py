"""Reference implementation of the empirical-distribution metrics, for tests.

This is the tuple-and-Counter form that ``multicell.stats`` used before its
support became one int64 array: a distribution is a sorted tuple of
``(vector, count)`` pairs, projection re-counts the vectors with a Counter,
entropy sums ``p log2 p`` row by row with ``math.fsum``, and KL calls
``ProductForm.logpmf`` once per row and adds the terms left to right. The
array code must equal it exactly. Pytest does not collect this module.
"""

from __future__ import annotations

import math
from collections import Counter

from multicell.analytic import ProductForm


def empirical_joint(vectors) -> tuple[tuple[tuple[int, ...], int], ...]:
    counter: Counter = Counter(tuple(int(x) for x in v) for v in vectors)
    if not counter:
        raise ValueError("empty snapshot list")
    return tuple(sorted(counter.items()))


def project(counts, coord_subset):
    counter: Counter = Counter()
    for vec, c in counts:
        counter[tuple(vec[i - 1] for i in coord_subset)] += c
    return tuple(sorted(counter.items()))


def entropy(counts) -> float:
    n = sum(c for _, c in counts)
    return -math.fsum((c / n) * math.log2(c / n) for _, c in counts)


def kl_divergence(counts, Q: ProductForm) -> float:
    n = sum(c for _, c in counts)
    total = 0.0
    for vec, c in counts:
        p = c / n
        logq = Q.logpmf(vec)
        if logq == -math.inf:
            return math.inf
        total += p * (math.log2(p) - logq / math.log(2))
    return total


def entropy_of_values(values) -> float:
    """Plug-in entropy of a sequence of hashable values (counts or pairs)."""
    c = Counter(values)
    n = len(values)
    return -math.fsum((v / n) * math.log2(v / n) for v in c.values())


def independence_statistic(counts) -> float | None:
    counts = [int(c) for c in counts]
    h1 = entropy_of_values(counts)
    h2 = entropy_of_values(list(zip(counts[:-1], counts[1:])))
    return None if h2 == 0.0 else (2.0 * h1 - h2) / h2


def poisson_dist_statistic(counts) -> float | None:
    counts = [int(c) for c in counts]
    total = sum(counts)
    h1 = entropy_of_values(counts)
    if total == 0 or h1 == 0.0:
        return None
    mean = total / len(counts)
    n = len(counts)
    h0 = 0.0
    for value, c in Counter(counts).items():
        p = c / n
        logq = -mean + value * math.log(mean) - math.lgamma(value + 1)
        h0 += p * (math.log2(p) - logq / math.log(2))
    return h0 / h1
