"""The package surface that ``bench/replay.py`` relies on.

The benchmark's traced replay calls the package's functions in-process and
wraps some of them by assigning to module attributes. A rename or removal
there breaks only a ``--trace 1`` benchmark run; these checks catch it in
the ordinary test run.
"""

import pytest

from multicell import analytic, cli, model, sim, stats, trace
from conftest import run_fresh, single_cell_spec

#: Attributes the replay replaces with timing wrappers, then restores.
WRAPPED = [
    (sim, "sample_session"), (sim, "emit_event_log"),
    (stats.EmpiricalDistribution, "project"), (stats, "kl_divergence"), (stats, "entropy"),
    (analytic, "decoupled_means"),
]

#: Attributes the replay calls or reads.
CALLED = [
    (model, "load_spec"), (model, "validate"), (model, "discretize"), (model, "RouteSpec"),
    (model, "NetworkSpec"), (model, "GenerativeSessionLaw"), (model, "DiscreteSessionLaw"),
    (analytic, "stage_means"), (analytic, "cell_means"), (analytic, "write_cell_means_csv"),
    (analytic, "ProductForm"), (analytic, "poisson_truncation"),
    (analytic, "cell_product_form"),
    (sim, "SimConfig"), (sim, "run"), (sim, "write_snapshots_csv"),
    (stats, "empirical_joint"), (stats, "random_subset_study"), (stats, "compare_joint"),
    (cli, "build_parser"), (cli, "write_manifest"), (cli, "read_snapshots_csv"),
    (cli, "generate_fixture"), (cli, "write_polls_csv"), (cli, "ValidationError"),
    (trace, "parse_polls"), (trace, "PreprocessConfig"), (trace, "infer_cadence"),
    (trace, "filter_window"), (trace, "filter_invalid_days"),
    (trace, "resolve_multi_association"), (trace, "pad_gaps"),
    (trace, "classify_open_closed"), (trace, "extract_sessions"), (trace, "observed_days"),
    (trace, "estimate_cell_params"), (trace, "test_ap_validity"), (trace, "TraceResult"),
    (trace, "exclusion_modes"), (trace, "write_sessions_csv"),
    (trace, "write_estimates_csv"), (trace, "stage_table_rows"),
    (trace, "occupancy_snapshots"),
]


@pytest.mark.parametrize("owner,name", WRAPPED + CALLED,
                         ids=[f"{o.__name__}.{n}" for o, n in WRAPPED + CALLED])
def test_attribute_exists(owner, name):
    assert callable(getattr(owner, name, None))


def _replay_path(owner, name) -> str:
    """``owner.name`` as the replay reaches it from the package, for example
    ``stats.EmpiricalDistribution.project``."""
    module = getattr(owner, "__module__", owner.__name__)
    inner = [owner.__qualname__] if isinstance(owner, type) else []
    return ".".join([module.removeprefix("multicell."), *inner, name])


def test_attributes_resolve_from_a_fresh_package_import():
    # this module imports every submodule itself, which would hide a
    # submodule that the package no longer loads on first access
    paths = [_replay_path(o, n) for o, n in WRAPPED + CALLED]
    assert len(set(paths)) == len(paths)
    missing = run_fresh("""
import functools, json, sys
import multicell as mc
print(json.dumps([p for p in sys.argv[1:]
                  if not callable(functools.reduce(lambda o, n: getattr(o, n, None),
                                                   p.split("."), mc))]))
""", *paths)
    assert missing == []


@pytest.mark.parametrize("subcommand", ["analyze", "compare"])
def test_discretization_options_parse(subcommand, tmp_path):
    argv = [subcommand, "--config", "net.json", "--out", str(tmp_path),
            "--bin-width", "2.5", "--discretize-samples", "123"]
    if subcommand == "compare":
        argv += ["--snapshots", "snapshots.csv"]
    args = cli.build_parser().parse_args(argv)
    assert (args.bin_width, args.discretize_samples) == (2.5, 123)


def test_stage_means_calls_the_module_decoupled_means(monkeypatch):
    # the replay counts decoupled branches by wrapping the module attribute,
    # so the closed form must look it up there on every call
    calls = []
    original = analytic.decoupled_means
    monkeypatch.setattr(analytic, "decoupled_means",
                        lambda rs: calls.append(rs) or original(rs))
    spec = single_cell_spec(2.0, 3.0)
    analytic.cell_means(spec)
    assert calls == [spec.routes[0]]
