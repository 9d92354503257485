"""Domain types for cells, routes and session laws.

A network is a set of cells (numbered 1..C) and a set of routes. A route is
an ordered sequence of cells a user traverses during one session. Each route
carries a Poisson new-session arrival rate and a session law describing how
long sessions last and how long each stage (cell visit) holds the channel.

Two session-law forms exist:

* ``DiscreteSessionLaw`` -- the session lasts k stages with probability
  ``stage_probs[k-1]``; given k, the vector of per-stage holding times is one
  of finitely many weighted realizations. Its flat branch table
  (:attr:`DiscreteSessionLaw.branches`) and exact stage moments
  (:meth:`DiscreteSessionLaw.stage_moments`) are what the sampler, the
  closed-form engine and the simulator's default timing read; only this
  module walks the nested realizations.
* ``GenerativeSessionLaw`` -- a sampler producing a session duration T and
  per-stage dwell times tau_1..tau_N (possibly dependent through a shared
  speed multiplier). Holding times follow by clipping T against the dwells;
  see :func:`holding_matrix`.

All types are immutable after construction; operations are pure functions.
Time is in seconds throughout, rates per second.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

_PROB_TOL = 1e-9

#: Safety cap on the stage visits of one replication, and on every size a
#: config asks for: its cells, and the cell counts, polls and
#: ``cell_pmf.csv`` rows made from it. Each costs a few array entries or an
#: output line, so the cap bounds memory and time.
STAGE_VISIT_CAP = 25_000_000

#: Relative slack when deciding whether a session's remaining duration
#: reaches the next stage. Guards against float cancellation when T is
#: constructed as an exact multiple of the dwell times.
_REACH_EPS = 1e-12


@dataclass(frozen=True)
class Route:
    """Ordered cell sequence; cells may repeat (a route may revisit a cell)."""

    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))

    @property
    def n_stages(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class DiscreteSessionLaw:
    """Finite-support session law.

    ``stage_probs[k-1]`` is the probability the session lasts exactly k
    stages (k = 1..N). ``realizations[k-1]`` is a tuple of
    ``(weight, holding_vector)`` pairs; each holding vector has length k and
    strictly positive entries; weights sum to 1 for every k with positive
    stage probability.
    """

    stage_probs: tuple[float, ...]
    realizations: tuple[tuple[tuple[float, tuple[float, ...]], ...], ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.stage_probs)
        reals = tuple(
            tuple((float(w), tuple(float(t) for t in vec)) for w, vec in per_k)
            for per_k in self.realizations
        )
        object.__setattr__(self, "stage_probs", probs)
        object.__setattr__(self, "realizations", reals)

    @property
    def n_stages(self) -> int:
        return len(self.stage_probs)

    @cached_property
    def branches(self) -> BranchTable:
        """One read-only row per (stage count k, realization) pair, in k
        then realization order."""
        N = self.n_stages
        rows = []
        for k, (pk, per_k) in enumerate(zip(self.stage_probs, self.realizations), start=1):
            wsum = math.fsum(w for w, _ in per_k)
            rows += [(k, pk, w, wsum, vec + (0.0,) * (N - k)) for w, vec in per_k]
        stages, pk, weight, wsum, holds = zip(*rows) if rows else ((),) * 5
        table = BranchTable(np.array(stages, dtype=np.int64), np.array(pk, dtype=float),
                            np.array(weight, dtype=float), np.array(wsum, dtype=float),
                            np.array(holds, dtype=float).reshape(-1, N))
        for column in table:
            column.setflags(write=False)
        return table

    def stage_moments(self) -> StageMoments:
        """Exact moments of stages j = 1..N: the reach probability
        1 - fsum(P_1..P_{j-1}) and the conditional mean holding time
        fsum(P_k w t_kj over the branches) / reach, None where the reach
        is not positive."""
        b = self.branches
        terms = ((b.pk * b.weight)[:, None] * b.holds).T.tolist()
        reach = tuple(1.0 - math.fsum(self.stage_probs[:j]) for j in range(self.n_stages))
        return StageMoments(reach, tuple(math.fsum(t) / r if r > 0 else None
                                         for r, t in zip(reach, terms)))


class BranchTable(NamedTuple):
    """The branches of a :class:`DiscreteSessionLaw`, one row each."""

    stages: np.ndarray   # (B,) stage count k
    pk: np.ndarray       # (B,) probability of k stages
    weight: np.ndarray   # (B,) weight of the realization
    wsum: np.ndarray     # (B,) fsum of the weights of all realizations of k
    holds: np.ndarray    # (B, N) holding vector, zero past k


class StageMoments(NamedTuple):
    """Per stage j = 1..N of a discrete law, at index j - 1."""

    reach: tuple[float, ...]                # probability a session reaches j
    mean_hold: tuple[float | None, ...]     # mean hold given j is reached


def _pick(p: dict, rng: np.random.Generator, size: int):
    return rng.choice(len(p["weights"]), size,
                      p=np.asarray(p["weights"]) / math.fsum(p["weights"]))


def _choice_rule(key: str) -> Callable[[dict], str | None]:
    return lambda p: (f"{len(p['weights'])} weights for {len(p[key])} {key}"
                      if len(p["weights"]) != len(p[key]) else
                      "weights sum to 0" if not math.fsum(p["weights"]) > 0 else None)


class _Family(NamedTuple):
    """One ``Dist`` family. Parameters that pass its checks and rule make
    every draw finite and > 0, as far as a lognormal's exp stays within the
    float range."""

    params: dict[str, str]   # name -> check of _KINDS it must pass; [kind]: a list of them
    mean: Callable[[dict], float]
    draw: Callable[[dict, np.random.Generator, int], object]
    rule: Callable[[dict], str | None] = lambda p: None   # over checked parameters


_FAMILIES = {
    "exponential": _Family({"mean": "positive"}, lambda p: p["mean"],
                           lambda p, rng, size: rng.exponential(p["mean"], size)),
    "deterministic": _Family(
        {"value": "positive"}, lambda p: p["value"],
        lambda p, rng, size: np.full(size, p["value"])),
    "lognormal": _Family({"mu": "number", "sigma": "nonnegative"},
                         lambda p: math.exp(p["mu"] + 0.5 * p["sigma"] ** 2),
                         lambda p, rng, size: rng.lognormal(p["mu"], p["sigma"], size)),
    "uniform": _Family({"low": "positive", "high": "positive"},
                       lambda p: 0.5 * (p["low"] + p["high"]),
                       lambda p, rng, size: rng.uniform(p["low"], p["high"], size),
                       lambda p: (f"low {p['low']!r} > high {p['high']!r}"
                                  if p["low"] > p["high"] else None)),
    "hyperexponential": _Family(
        {"weights": "[nonnegative]", "means": "[positive]"},
        lambda p: float(np.dot(p["weights"], p["means"])) / math.fsum(p["weights"]),
        lambda p, rng, size: rng.exponential(np.asarray(p["means"])[_pick(p, rng, size)]),
        _choice_rule("means")),
    "discrete": _Family(
        {"values": "[positive]", "weights": "[nonnegative]"},
        lambda p: float(np.dot(p["weights"], p["values"])) / math.fsum(p["weights"]),
        lambda p, rng, size: np.asarray(p["values"])[_pick(p, rng, size)],
        _choice_rule("values")),
}


@dataclass(frozen=True)
class Dist:
    """One scalar distribution family with keyword parameters.

    Families: ``exponential`` (mean), ``deterministic`` (value),
    ``lognormal`` (mu, sigma of the underlying normal), ``uniform``
    (low, high), ``hyperexponential`` (weights, means), ``discrete``
    (values, weights). ``make`` does not check the parameters; the config
    reader and :func:`validate` do.
    """

    family: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, family: str, **params) -> "Dist":
        norm = []
        for key in sorted(params):
            val = params[key]
            if isinstance(val, (list, tuple, np.ndarray)):
                val = tuple(float(v) for v in val)
            else:
                val = float(val)
            norm.append((key, val))
        return cls(family, tuple(norm))

    def as_dict(self) -> dict:
        return dict(self.params)

    def _family(self) -> _Family:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown distribution family {self.family!r}")
        return _FAMILIES[self.family]

    def mean(self) -> float:
        return self._family().mean(self.as_dict())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws as a float array."""
        return np.asarray(self._family().draw(self.as_dict(), rng, size), dtype=float)


@dataclass(frozen=True)
class GenerativeSessionLaw:
    """Sampler for (T, tau_1..tau_N), possibly dependent.

    ``speed``, when present, is a latent per-session multiplier applied to
    every dwell time (and to the duration too if ``speed_scales_duration``),
    giving perfectly correlated dwells without any copula machinery.
    """

    duration: Dist
    dwells: tuple[Dist, ...]
    speed: Dist | None = None
    speed_scales_duration: bool = False

    @property
    def n_stages(self) -> int:
        return len(self.dwells)

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` (T, taus) pairs, all values strictly positive: a
        ``(size,)`` duration array and a ``(size, N)`` dwell matrix. Draw
        order: every speed, then every duration, then the dwells stage by
        stage.
        """
        s = self.speed.sample(rng, size) if self.speed is not None else np.ones(size)
        if not np.all(s > 0):
            raise ValueError(f"sampled non-positive speed multiplier {float(s.min())!r}")
        T = self.duration.sample(rng, size) * (s if self.speed_scales_duration else 1.0)
        taus = np.column_stack([s * d.sample(rng, size) for d in self.dwells])
        if not (np.all(T > 0) and np.all(taus > 0)):
            raise ValueError("sampled non-positive duration or dwell time")
        return T, taus


SessionLaw = DiscreteSessionLaw | GenerativeSessionLaw


@dataclass(frozen=True)
class RouteSpec:
    route: Route
    arrival_rate: float
    law: SessionLaw


@dataclass(frozen=True)
class CellInfo:
    name: str = ""
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class NetworkSpec:
    """Complete model input: cell count, routes, optional cell metadata."""

    cell_count: int
    routes: tuple[RouteSpec, ...]
    cell_meta: tuple[CellInfo, ...] = field(default=())

    def coordinates(self) -> np.ndarray | None:
        """(C, 2) array of cell coordinates in meters, or None if absent."""
        if len(self.cell_meta) != self.cell_count:
            return None
        return np.array([[c.x, c.y] for c in self.cell_meta])


def holding_vector(T: float, taus) -> list[float]:
    """All realized holding times of one session, in stage order.

    Stage 1 holds min(T, tau_1); stage j >= 2 is reached when the session
    outlives the first j-1 dwells, and then holds min(T - sum(tau_1..tau_{j-1}),
    tau_j). A tiny relative tolerance applies when testing whether the
    remaining duration reaches the next stage, so a duration constructed as
    an exact multiple of the dwells does not leak a spurious zero-length
    stage through float error.
    """
    out = []
    spent = 0.0
    for j, tau in enumerate(taus):
        remaining = T - spent
        if j > 0 and remaining <= _REACH_EPS * T:
            break
        out.append(min(remaining, tau))
        spent += tau
        if spent >= T:
            break
    return out


def holding_matrix(T, taus) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`holding_vector`: stage counts ``(n,)`` and holding
    times ``(n, N)``, zero past each row's stage count.

    Rows equal :func:`holding_vector` bit for bit: both accumulate the spent
    dwell time with sequential adds and apply the same reach tolerance.
    """
    spent = np.cumsum(taus, axis=1)
    remaining = T[:, None] - np.column_stack([np.zeros(len(T)), spent[:, :-1]])
    # remaining only shrinks along a row, so the reached stages are a prefix
    reached = remaining > _REACH_EPS * T[:, None]
    reached[:, 0] = True
    return reached.sum(axis=1), np.where(reached, np.minimum(remaining, taus), 0.0)


def sample_sessions(law: SessionLaw, n: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` independent sessions: stage counts ``(n,)`` and holding
    times ``(n, K)`` for a K-stage law, zero past each session's stage count.

    A discrete law takes one categorical draw per session over the rows of
    its branch table with P_k > 0, row (k, i) having probability
    P_k / sum(P) * w_ki / sum_i(w_ki). A generative law draws ``n`` (T, taus)
    pairs with :meth:`GenerativeSessionLaw.sample` and clips them with
    :func:`holding_matrix`.
    """
    if isinstance(law, DiscreteSessionLaw):
        b = law.branches
        live = b.pk > 0
        probs = b.pk[live] / math.fsum(law.stage_probs) * b.weight[live] / b.wsum[live]
        i = rng.choice(len(probs), size=n, p=probs / probs.sum())
        return b.stages[live][i], b.holds[live][i]
    if isinstance(law, GenerativeSessionLaw):
        return holding_matrix(*law.sample(rng, n))
    raise TypeError(f"unsupported session law {type(law).__name__}")


def discretize(law: GenerativeSessionLaw, samples: int, bin_width: float,
               rng_seed: int) -> DiscreteSessionLaw:
    """Monte-Carlo discretization of a generative law.

    Draws ``samples`` sessions with :func:`sample_sessions`, rounds every
    holding time to the nearest multiple of ``bin_width`` (clamped to at
    least one bin so times stay positive), and aggregates identical binned
    vectors by relative frequency.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not bin_width > 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width!r}")
    stages, holds = sample_sessions(law, samples, np.random.default_rng(rng_seed))
    binned = np.maximum(1.0, np.rint(holds / bin_width))

    stage_probs = []
    realizations = []
    for k in range(1, law.n_stages + 1):
        vecs, counts = np.unique(binned[stages == k, :k], axis=0, return_counts=True)
        k_total = int(counts.sum())
        stage_probs.append(k_total / samples)
        realizations.append(tuple(
            (cnt / k_total, tuple((vec * bin_width).tolist()))
            for vec, cnt in zip(vecs, counts.tolist())))
    return DiscreteSessionLaw(tuple(stage_probs), tuple(realizations))


# ---------------------------------------------------------------------------
# Config serialization (JSON). Schema documented in README.
# ---------------------------------------------------------------------------

def _law_to_dict(law: SessionLaw) -> dict:
    if isinstance(law, DiscreteSessionLaw):
        return {
            "kind": "discrete",
            "stage_probs": list(law.stage_probs),
            "realizations": [
                [{"weight": w, "holding": list(vec)} for w, vec in per_k]
                for per_k in law.realizations
            ],
        }
    d: dict = {
        "kind": "generative",
        "duration": {"family": law.duration.family, **law.duration.as_dict()},
        "dwells": [{"family": dw.family, **dw.as_dict()} for dw in law.dwells],
    }
    if law.speed is not None:
        d["speed"] = {"family": law.speed.family, **law.speed.as_dict()}
        d["speed_scales_duration"] = law.speed_scales_duration
    return d


def spec_to_dict(spec: NetworkSpec) -> dict:
    d = {
        "cells": spec.cell_count,
        "routes": [
            {
                "cells": list(rs.route.cells),
                "arrival_rate": rs.arrival_rate,
                "law": _law_to_dict(rs.law),
            }
            for rs in spec.routes
        ],
    }
    if spec.cell_meta:
        d["cell_meta"] = [{"name": c.name, "x": c.x, "y": c.y} for c in spec.cell_meta]
    return d


class ConfigError(ValueError):
    """A network config that breaks the schema. ``problems`` lists every
    fault found, each as ``path: problem`` with 1-based list indices."""

    def __init__(self, problems: list[str], source: str = "network config"):
        self.problems = problems
        super().__init__(f"invalid {source}:\n  " + "\n  ".join(problems))


def _is_number(v) -> bool:
    # the comparison is exact, so it also rules out NaN and ints beyond a float
    return (isinstance(v, (float, int, np.integer)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


#: The checks of config values: a test, what a value failing it is not, and
#: the type a passing value is cast to.
_KINDS = {
    "object": (lambda v: isinstance(v, dict), "an object", None),
    "list": (lambda v: isinstance(v, (list, tuple)), "a list", None),
    "string": (lambda v: isinstance(v, str), "a string", None),
    "bool": (lambda v: isinstance(v, bool), "true or false", None),
    "integer": (lambda v: _is_number(v) and float(v).is_integer(), "an integer", int),
    "number": (_is_number, "a finite number", float),
    "positive": (lambda v: _is_number(v) and v > 0, "a finite number > 0", float),
    # abs turns -0.0 into 0.0, which numpy's samplers require
    "nonnegative": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0",
                    lambda v: abs(float(v))),
    "holding": (lambda v: _is_number(v) and v > 0, "a positive holding time", float),
}

_REQUIRED = object()


def _read_spec(d) -> tuple[NetworkSpec | None, list[str]]:
    """Walk a config dict once: the spec it describes (None if there is a
    problem) and every problem found. A part with a problem reads as None,
    or is left out, and the walk goes on."""
    problems: list[str] = []

    def bad(path: str, problem: str) -> None:
        problems.append(f"{path}: {problem}")

    def check(v, path: str, kind: str):
        test, what, cast = _KINDS[kind]
        return (cast(v) if cast else v) if test(v) else bad(path, f"{v!r} is not {what}")

    def get(obj: dict, at: str, key: str, kind: str = "object", default=_REQUIRED):
        """``obj[key]`` checked as ``kind``; ``[kind]`` is a list of such
        values, read as a tuple."""
        path = f"{at}.{key}" if at else key
        if key not in obj:
            return bad(path, "missing") if default is _REQUIRED else default
        if kind[0] != "[":
            return check(obj[key], path, kind)
        items = check(obj[key], path, "list")
        test, _, cast = _KINDS[kind[1:-1]]
        if items is not None and all(map(test, items)):   # the common case, kept cheap
            return tuple(map(cast, items))
        got = [check(x, f"{path}[{i}]", kind[1:-1]) for i, x in enumerate(items or (), start=1)]
        return None if items is None or None in got else tuple(got)

    def objects(items, at: str) -> list[tuple[str, dict]]:
        """The path and value of each item of a list that is an object."""
        items = [(f"{at}[{i}]", x) for i, x in enumerate(items or (), start=1)]
        return [(path, x) for path, x in items if check(x, path, "object") is not None]

    def route(at: str, r: dict, count: int | None) -> RouteSpec:
        cells = get(r, at, "cells", "[integer]")
        if cells == ():
            bad(f"{at}.cells", "empty cell sequence")
        for j, c in enumerate(cells or (), start=1):
            if count is not None and not 1 <= c <= count:
                bad(f"{at}.cells[{j}]", f"cell {c} outside 1..{count}")
        rate = get(r, at, "arrival_rate", "positive")
        law = get(r, at, "law")
        if law is not None:
            law = read_law(f"{at}.law", law, None if cells is None else len(cells))
        return RouteSpec(Route(cells or ()), rate, law)

    def read_law(at: str, d: dict, n_stages: int | None) -> SessionLaw | None:
        kind = get(d, at, "kind", "string")
        if kind == "generative":
            dwells = get(d, at, "dwells", "list")
            if dwells is not None and n_stages is not None and len(dwells) != n_stages:
                bad(f"{at}.dwells", f"dwell count {len(dwells)} != route length {n_stages}")
            return GenerativeSessionLaw(
                duration=dist(f"{at}.duration", get(d, at, "duration")),
                speed=dist(f"{at}.speed", get(d, at, "speed", default=None)),
                dwells=tuple(dist(*x) for x in objects(dwells, f"{at}.dwells")),
                speed_scales_duration=get(d, at, "speed_scales_duration", "bool", False))
        if kind == "discrete":
            probs = get(d, at, "stage_probs", "[nonnegative]")
            reals = get(d, at, "realizations", "list")
            if probs is not None and n_stages is not None and len(probs) != n_stages:
                bad(f"{at}.stage_probs", f"stage count {len(probs)} != route length {n_stages}")
            if probs is not None and abs(math.fsum(probs) - 1.0) > _PROB_TOL:
                bad(f"{at}.stage_probs", f"sum {math.fsum(probs)!r} != 1")
            if None not in (probs, reals) and len(reals) != len(probs):
                return bad(f"{at}.realizations",
                           f"length {len(reals)} != stage count {len(probs)}")
            per_k = [weighted(f"{at}.realizations[{k}]", x, k, probs[k - 1] if probs else 0.0)
                     for k, x in enumerate(reals or (), start=1)]
            return None if probs is None or None in per_k else DiscreteSessionLaw(
                probs, tuple(per_k))
        if kind is not None:
            bad(f"{at}.kind", f"unknown session law kind {kind!r}")
        return None

    def weighted(at: str, per_k, k: int, p: float) -> tuple | None:
        """The weighted holding vectors of stage count k, of probability p."""
        if check(per_k, at, "list") is None:
            return None
        if p > _PROB_TOL and not per_k:
            bad(at, f"no realizations for stage count {k} with probability {p!r}")
        before = len(problems)
        got = []
        for path, x in objects(per_k, at):
            w, hold = get(x, path, "weight", "nonnegative"), get(x, path, "holding", "[holding]")
            if hold is not None and len(hold) != k:
                bad(f"{path}.holding", f"holding vector length {len(hold)} != {k}")
            got.append((w, hold))
        if len(problems) > before:
            return None
        wsum = math.fsum(w for w, _ in got)
        if got and abs(wsum - 1.0) > _PROB_TOL:
            bad(at, f"weights sum {wsum!r} != 1")
        return tuple(got)

    def dist(at: str, d: dict | None) -> Dist | None:
        family = None if d is None else get(d, at, "family", "string")
        if family is not None and family not in _FAMILIES:
            bad(at, f"unknown family {family!r}")
        if family not in _FAMILIES:
            return None
        kinds, rule = _FAMILIES[family].params, _FAMILIES[family].rule
        for key in d:
            if key != "family" and key not in kinds:
                bad(f"{at}.{key}", f"not a parameter of {family!r}")
        params = {key: get(d, at, key, kind) for key, kind in kinds.items()}
        if None in params.values():
            return None
        problem = rule(params)
        return bad(at, problem) if problem else Dist.make(family, **params)

    d = check(d, "(top level)", "object")
    if d is None:
        return None, problems
    count = get(d, "", "cells", "integer")
    if count is not None and count < 1:
        bad("cells", f"{count} < 1")
    elif count is not None and count > STAGE_VISIT_CAP:
        bad("cells", f"{count} > STAGE_VISIT_CAP ({STAGE_VISIT_CAP})")
    meta = get(d, "", "cell_meta", "list", default=())
    if meta and count is not None and len(meta) != count:
        bad("cell_meta", f"{len(meta)} entries for {count} cells")
    meta = tuple(CellInfo(get(c, at, "name", "string", ""), get(c, at, "x", "number", 0.0),
                          get(c, at, "y", "number", 0.0)) for at, c in objects(meta, "cell_meta"))
    routes = get(d, "", "routes", "list")
    if routes is not None and not routes:
        bad("routes", "empty; at least one route required")
    routes = tuple(route(at, r, count) for at, r in objects(routes, "routes"))
    return (None if problems else NetworkSpec(count, routes, meta)), problems


def validate(spec: NetworkSpec) -> list[str]:
    """Every rule the config reader applies, run on ``spec``; an empty list
    means valid."""
    return _read_spec(spec_to_dict(spec))[1]


def spec_from_dict(d, source: str = "network config") -> NetworkSpec:
    """Build a spec from its config dict; raises ConfigError listing every
    problem."""
    spec, problems = _read_spec(d)
    if problems:
        raise ConfigError(problems, source)
    return spec


def save_spec(spec: NetworkSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path) -> NetworkSpec:
    """Read and check a JSON config. Raises OSError when the file cannot be
    read, and ConfigError, naming the file, when it is not JSON or breaks
    the schema."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        d = json.loads(raw)
    except ValueError as exc:      # JSONDecodeError, UnicodeDecodeError
        raise ConfigError([f"not JSON: {exc}"], f"network config {path}") from exc
    return spec_from_dict(d, f"network config {path}")
