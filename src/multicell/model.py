"""Domain types for cells, routes and session laws.

A network is a set of cells (numbered 1..C) and a set of routes. A route is
an ordered sequence of cells a user traverses during one session. Each route
carries a Poisson new-session arrival rate and a session law describing how
long sessions last and how long each stage (cell visit) holds the channel.

Two session-law forms exist:

* ``DiscreteSessionLaw`` -- the session lasts k stages with probability
  ``stage_probs[k-1]``; given k, the vector of per-stage holding times is one
  of finitely many weighted realizations. This is the form the closed-form
  engine consumes.
* ``GenerativeSessionLaw`` -- a sampler producing a session duration T and
  per-stage dwell times tau_1..tau_N (possibly dependent through a shared
  speed multiplier). Holding times follow by clipping T against the dwells;
  see :func:`stage_holding_time`.

All types are immutable after construction; operations are pure functions.
Time is in seconds throughout, rates per second.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

_PROB_TOL = 1e-9

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

    def violations(self, where: str = "law") -> list[str]:
        out = []
        if len(self.realizations) != len(self.stage_probs):
            out.append(f"{where}: realizations length {len(self.realizations)} "
                       f"!= stage count {len(self.stage_probs)}")
            return out
        total = math.fsum(self.stage_probs)
        if abs(total - 1.0) > _PROB_TOL:
            out.append(f"{where}.stage_probs: sum {total!r} != 1")
        for k, (p, per_k) in enumerate(zip(self.stage_probs, self.realizations), start=1):
            if p < 0:
                out.append(f"{where}.stage_probs[{k}]: negative probability {p!r}")
            if p > _PROB_TOL and not per_k:
                out.append(f"{where}.realizations[{k}]: no realizations for "
                           f"stage count {k} with probability {p!r}")
            if per_k:
                wsum = math.fsum(w for w, _ in per_k)
                if abs(wsum - 1.0) > _PROB_TOL:
                    out.append(f"{where}.realizations[{k}]: weights sum {wsum!r} != 1")
            for i, (w, vec) in enumerate(per_k, start=1):
                if w < 0:
                    out.append(f"{where}.realizations[{k}][{i}]: negative weight {w!r}")
                if len(vec) != k:
                    out.append(f"{where}.realizations[{k}][{i}]: holding vector "
                               f"length {len(vec)} != {k}")
                for j, t in enumerate(vec, start=1):
                    if not t > 0:
                        out.append(f"{where}.realizations[{k}][{i}][{j}]: "
                                   f"non-positive holding time {t!r}")
        return out


@dataclass(frozen=True)
class Dist:
    """One scalar distribution family with keyword parameters.

    Families: ``exponential`` (mean), ``deterministic`` (value),
    ``lognormal`` (mu, sigma of the underlying normal), ``uniform``
    (low, high), ``hyperexponential`` (weights, means), ``discrete``
    (values, weights).
    """

    FAMILIES = ("exponential", "deterministic", "lognormal", "uniform",
                "hyperexponential", "discrete")

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

    def mean(self) -> float:
        p = self.as_dict()
        if self.family == "exponential":
            return p["mean"]
        if self.family == "deterministic":
            return p["value"]
        if self.family == "lognormal":
            return math.exp(p["mu"] + 0.5 * p["sigma"] ** 2)
        if self.family == "uniform":
            return 0.5 * (p["low"] + p["high"])
        if self.family == "hyperexponential":
            return float(np.dot(p["weights"], p["means"]))
        if self.family == "discrete":
            return float(np.dot(p["weights"], p["values"]))
        raise ValueError(f"unknown distribution family {self.family!r}")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One draw as a float, or ``size`` draws as a float array."""
        p = self.as_dict()
        if self.family == "exponential":
            x = rng.exponential(p["mean"], size)
        elif self.family == "deterministic":
            x = np.full(() if size is None else size, p["value"])
        elif self.family == "lognormal":
            x = rng.lognormal(p["mu"], p["sigma"], size)
        elif self.family == "uniform":
            x = rng.uniform(p["low"], p["high"], size)
        elif self.family in ("hyperexponential", "discrete"):
            i = rng.choice(len(p["weights"]), size,
                           p=np.asarray(p["weights"]) / math.fsum(p["weights"]))
            if self.family == "discrete":
                x = np.asarray(p["values"])[i]
            else:
                x = rng.exponential(np.asarray(p["means"])[i])
        else:
            raise ValueError(f"unknown distribution family {self.family!r}")
        return float(x) if size is None else np.asarray(x, dtype=float)


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

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw (T, taus), all values strictly positive.

        One pair comes back as ``(float, tuple)``; ``size`` pairs as a
        ``(size,)`` duration array and a ``(size, N)`` dwell matrix. Draw
        order: every speed, then every duration, then the dwells stage by
        stage.
        """
        n = 1 if size is None else size
        s = self.speed.sample(rng, n) if self.speed is not None else np.ones(n)
        if not np.all(s > 0):
            raise ValueError(f"sampled non-positive speed multiplier {float(s.min())!r}")
        T = self.duration.sample(rng, n) * (s if self.speed_scales_duration else 1.0)
        taus = np.column_stack([s * d.sample(rng, n) for d in self.dwells])
        if not (np.all(T > 0) and np.all(taus > 0)):
            raise ValueError("sampled non-positive duration or dwell time")
        if size is None:
            return float(T[0]), tuple(taus[0].tolist())
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


def validate(spec: NetworkSpec) -> list[str]:
    """Collect every invariant violation; an empty list means valid."""
    out = []
    if spec.cell_count < 1:
        out.append(f"cell_count: {spec.cell_count} < 1")
    if not spec.routes:
        out.append("routes: empty; at least one route required")
    if spec.cell_meta and len(spec.cell_meta) != spec.cell_count:
        out.append(f"cell_meta: length {len(spec.cell_meta)} != cell_count {spec.cell_count}")
    for r, rs in enumerate(spec.routes, start=1):
        where = f"routes[{r}]"
        if not rs.route.cells:
            out.append(f"{where}.route: empty cell sequence")
        for j, c in enumerate(rs.route.cells, start=1):
            if not 1 <= c <= spec.cell_count:
                out.append(f"{where}.route.cells[{j}]: cell {c} outside 1..{spec.cell_count}")
        if not rs.arrival_rate > 0:
            out.append(f"{where}.arrival_rate: {rs.arrival_rate!r} not > 0")
        if isinstance(rs.law, DiscreteSessionLaw):
            if rs.law.n_stages != rs.route.n_stages:
                out.append(f"{where}.law: stage count {rs.law.n_stages} != "
                           f"route length {rs.route.n_stages}")
            out.extend(rs.law.violations(where=f"{where}.law"))
        elif isinstance(rs.law, GenerativeSessionLaw):
            if rs.law.n_stages != rs.route.n_stages:
                out.append(f"{where}.law: dwell count {rs.law.n_stages} != "
                           f"route length {rs.route.n_stages}")
            dists = [("duration", rs.law.duration), ("speed", rs.law.speed),
                     *((f"dwells[{j}]", d) for j, d in enumerate(rs.law.dwells, start=1))]
            out.extend(f"{where}.law.{name}: unknown family {d.family!r}" for name, d in dists
                       if d is not None and d.family not in Dist.FAMILIES)
    return out


def stage_holding_time(T: float, taus, j: int) -> float | None:
    """Channel holding time at stage j, or None if the stage is not reached.

    Stage 1 always exists and holds min(T, tau_1). Stage j >= 2 exists only
    when the session outlives the first j-1 dwells, and then holds
    min(T - sum(tau_1..tau_{j-1}), tau_j).
    """
    taus = list(taus)
    if j < 1:
        raise ValueError(f"stage index {j} < 1")
    if j > len(taus):
        raise ValueError(f"stage index {j} exceeds {len(taus)} available dwell times")
    if j == 1:
        return min(T, taus[0])
    spent = math.fsum(taus[: j - 1])
    if T > spent:
        return min(T - spent, taus[j - 1])
    return None


def holding_vector(T: float, taus) -> list[float]:
    """All realized holding times of one session, in stage order.

    Unlike repeated :func:`stage_holding_time` calls, this applies a tiny
    relative tolerance when testing whether the remaining duration reaches
    the next stage, so a duration constructed as an exact multiple of the
    dwells does not leak a spurious zero-length stage through float error.
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

    A discrete law takes one categorical draw per session over all
    (stage count, realization) pairs. A generative law draws ``n``
    (T, taus) pairs with :meth:`GenerativeSessionLaw.sample` and clips them
    with :func:`holding_matrix`.
    """
    if isinstance(law, DiscreteSessionLaw):
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


def _dist_from_dict(d: dict) -> Dist:
    params = {k: v for k, v in d.items() if k != "family"}
    return Dist.make(d["family"], **params)


def _law_from_dict(d: dict) -> SessionLaw:
    kind = d.get("kind")
    if kind == "discrete":
        return DiscreteSessionLaw(
            tuple(d["stage_probs"]),
            tuple(
                tuple((r["weight"], tuple(r["holding"])) for r in per_k)
                for per_k in d["realizations"]
            ),
        )
    if kind == "generative":
        return GenerativeSessionLaw(
            duration=_dist_from_dict(d["duration"]),
            dwells=tuple(_dist_from_dict(x) for x in d["dwells"]),
            speed=_dist_from_dict(d["speed"]) if "speed" in d else None,
            speed_scales_duration=bool(d.get("speed_scales_duration", False)),
        )
    raise ValueError(f"unknown session law kind {kind!r}")


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


def spec_from_dict(d: dict) -> NetworkSpec:
    meta = tuple(
        CellInfo(name=c.get("name", ""), x=float(c.get("x", 0.0)), y=float(c.get("y", 0.0)))
        for c in d.get("cell_meta", [])
    )
    return NetworkSpec(
        cell_count=int(d["cells"]),
        routes=tuple(
            RouteSpec(
                route=Route(tuple(r["cells"])),
                arrival_rate=float(r["arrival_rate"]),
                law=_law_from_dict(r["law"]),
            )
            for r in d["routes"]
        ),
        cell_meta=meta,
    )


def save_spec(spec: NetworkSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path) -> NetworkSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
