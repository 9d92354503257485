import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multicell
from multicell import model

SRC = Path(multicell.__file__).resolve().parents[1]


def random_discrete_law(rng: np.random.Generator, max_stages: int = 6,
                        max_realizations: int = 8) -> model.DiscreteSessionLaw:
    """A random valid DiscreteSessionLaw for property tests."""
    n = int(rng.integers(1, max_stages + 1))
    raw = rng.random(n) + 1e-3
    probs = raw / raw.sum()
    realizations = []
    for k in range(1, n + 1):
        m = int(rng.integers(1, max_realizations + 1))
        w = rng.random(m) + 1e-3
        w = w / w.sum()
        per_k = tuple(
            (float(w[i]), tuple(float(t) for t in rng.uniform(0.1, 50.0, size=k)))
            for i in range(m)
        )
        realizations.append(per_k)
    return model.DiscreteSessionLaw(tuple(float(p) for p in probs), tuple(realizations))


def single_cell_spec(rate: float, hold: float) -> model.NetworkSpec:
    """One cell, one single-stage route with deterministic holding time."""
    law = model.DiscreteSessionLaw((1.0,), (((1.0, (hold,)),),))
    return model.NetworkSpec(1, (model.RouteSpec(model.Route((1,)), rate, law),))


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that finds this source tree, with
    ``args`` as ``sys.argv[1:]``; return the JSON on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
