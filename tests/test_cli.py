import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixture_reference
from multicell import cli, model
from conftest import single_cell_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, spec, name="net.json"):
    path = tmp_path / name
    model.save_spec(spec, path)
    return str(path)


def two_cell_spec():
    law = model.DiscreteSessionLaw(
        (0.5, 0.5), (((1.0, (2.0,)),), ((1.0, (3.0, 4.0)),)))
    return model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2)), 1.5, law),))


def _generative_config(rate=0.01, duration=None, dwell=None) -> str:
    """A one-cell generative config, with the given arrival rate, duration
    and dwell in place of valid ones."""
    return json.dumps({"cells": 1, "routes": [{"cells": [1], "arrival_rate": rate, "law": {
        "kind": "generative",
        "duration": duration or {"family": "exponential", "mean": 600.0},
        "dwells": [dwell or {"family": "deterministic", "value": 300.0}]}}]})


class TestReadmeConfig:
    def test_documented_example_loads_and_validates(self, tmp_path):
        section = README.read_text().split("### Network config schema (JSON)")[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        spec = model.spec_from_dict(json.loads(block))
        assert model.validate(spec) == []
        assert spec.cell_count == 3 and spec.coordinates() is not None
        path = tmp_path / "net.json"
        path.write_text(block)
        rc = cli.main(["analyze", "--config", str(path), "--out", str(tmp_path / "o"),
                       "--discretize-samples", "2000"])
        assert rc == 0


class TestAnalyze:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_cell_spec())
        out = tmp_path / "out"
        rc = cli.main(["analyze", "--config", cfg, "--out", str(out), "--seed", "3"])
        assert rc == 0
        for name in ("manifest.json", "stage_means.csv", "cell_means.csv", "cell_pmf.csv"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "analyze"
        assert cfg in manifest["input_digests"]

    def test_cell_pmf_sums_to_one(self, tmp_path):
        cfg = write_config(tmp_path, two_cell_spec())
        out = tmp_path / "out"
        cli.main(["analyze", "--config", cfg, "--out", str(out)])
        mass = {}
        with open(out / "cell_pmf.csv") as fh:
            for row in csv.DictReader(fh):
                mass[row["cell"]] = mass.get(row["cell"], 0.0) + float(row["probability"])
        assert set(mass) == {"1", "2"}
        for total in mass.values():
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_unreachable_stage_warning(self, tmp_path, capsys):
        law = model.DiscreteSessionLaw((1.0, 0.0), (((1.0, (2.0,)),), ()))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2)), 1.0, law),))
        cfg = write_config(tmp_path, spec)
        rc = cli.main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "unreachable" in capsys.readouterr().out

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        law = model.DiscreteSessionLaw((0.7,), (((1.0, (2.0,)),),))
        spec = model.NetworkSpec(1, (model.RouteSpec(model.Route((1,)), 1.0, law),))
        cfg = write_config(tmp_path, spec)
        rc = cli.main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "stage_probs" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        rc = cli.main(["analyze", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot load network config {missing}" in err and "No such file" in err

    @pytest.mark.parametrize("text, message", [
        ("not json\n", "Expecting value: line 1 column 1"),
        ('{"cells": 1}\n', "routes: missing"),
        ('{"cells": 1, "routes": [{"cells": [1], "arrival_rate": 1.0, "law": {"kind": '
         '"discrete", "stage_probs": [1.0], "realizations": [[[1.0, [2.0]]]]}}]}\n',
         "routes[1].law.realizations[1][1]: [1.0, [2.0]] is not an object"),
        (json.dumps(model.spec_to_dict(model.NetworkSpec(1, (model.RouteSpec(
            model.Route((1,)), 1.0, model.GenerativeSessionLaw(
                model.Dist.make("gamma", shape=2.0, scale=3.0),
                (model.Dist.make("exponential", mean=5.0),))),)))),
         "routes[1].law.duration: unknown family 'gamma'"),
        (_generative_config(dwell={"family": "exponential", "mean": -5.0}),
         "routes[1].law.dwells[1].mean: -5.0 is not a finite number > 0"),
        (_generative_config(duration={"family": "lognormal", "mu": 7.0}),
         "routes[1].law.duration.sigma: missing"),
        (_generative_config(rate="fast"),
         "routes[1].arrival_rate: 'fast' is not a finite number > 0"),
        (_generative_config(dwell={"family": "deterministic", "value": 0.0}),
         "routes[1].law.dwells[1].value: 0.0 is not a finite number > 0"),
        (_generative_config(dwell={"family": "uniform", "low": 5.0, "high": 2.0}),
         "routes[1].law.dwells[1]: low 5.0 > high 2.0"),
        (_generative_config(duration={"family": "discrete", "values": [60.0, 120.0],
                                      "weights": [1.0]}),
         "routes[1].law.duration: 1 weights for 2 values"),
    ], ids=["not-json", "no-routes", "pair-realizations", "unknown-family",
            "negative-mean", "lognormal-no-sigma", "non-numeric-rate", "zero-deterministic",
            "uniform-low-above-high", "discrete-unequal-lists"])
    def test_bad_config_exit_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "net.json"
        cfg.write_text(text)
        rc = cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and message in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_every_config_fault_reported(self, tmp_path, capsys):
        config = json.loads(_generative_config(rate=-1.0, dwell={"family": "exponential"}))
        config["cells"] = 0
        config["routes"].append({"cells": [2], "law": {"kind": "discrete", "stage_probs": [0.5],
                                                       "realizations": [[]]}})
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(config))
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--horizon", "100"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: invalid network config {cfg}:",
            "  cells: 0 < 1",
            "  routes[1].cells[1]: cell 1 outside 1..0",
            "  routes[1].arrival_rate: -1.0 is not a finite number > 0",
            "  routes[1].law.dwells[1].mean: missing",
            "  routes[2].cells[1]: cell 2 outside 1..0",
            "  routes[2].arrival_rate: missing",
            "  routes[2].law.stage_probs: sum 0.5 != 1",
            "  routes[2].law.realizations[1]: no realizations for stage count 1 with "
            "probability 0.5"]
        assert not (tmp_path / "o").exists()


class TestSimulate:
    def _run(self, tmp_path, out_name, seed="5", reps="2"):
        cfg = write_config(tmp_path, single_cell_spec(rate=1.0, hold=2.0))
        out = tmp_path / out_name
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out),
                       "--seed", seed, "--horizon", "2000", "--warmup", "50",
                       "--interval", "5", "--replications", reps])
        assert rc == 0
        return out

    def test_outputs(self, tmp_path):
        out = self._run(tmp_path, "a")
        for name in ("manifest.json", "snapshots.csv", "snapshots_rep0.csv",
                     "snapshots_rep1.csv", "summary.csv"):
            assert (out / name).exists()
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["analytic_mean"]) == pytest.approx(2.0)
        assert float(rows[0]["relative_error"]) < 0.2

    def test_deterministic_given_seed(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = self._run(tmp_path, "a", seed="5")
        c = self._run(tmp_path, "c", seed="6")
        assert (a / "snapshots.csv").read_bytes() != (c / "snapshots.csv").read_bytes()

    def test_pooled_is_concatenation(self, tmp_path):
        out = self._run(tmp_path, "a")
        pooled = cli.read_snapshots_csv(out / "snapshots.csv")
        parts = (cli.read_snapshots_csv(out / "snapshots_rep0.csv")
                 + cli.read_snapshots_csv(out / "snapshots_rep1.csv"))
        assert pooled == parts


class TestCompare:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, two_cell_spec())
        sim_out = tmp_path / "sim"
        cli.main(["simulate", "--config", cfg, "--out", str(sim_out),
                  "--seed", "1", "--horizon", "20000", "--warmup", "100",
                  "--interval", "10"])
        cmp_out = tmp_path / "cmp"
        rc = cli.main(["compare", "--config", cfg,
                       "--snapshots", str(sim_out / "snapshots.csv"),
                       "--out", str(cmp_out), "--seed", "2", "--repeats", "10"])
        assert rc == 0
        with open(cmp_out / "subset_metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["1", "2"]
        for r in rows:
            assert float(r["h_kl_mean"]) < 0.2
            assert float(r["h_real_mean"]) > 0.0

    def test_subset_size_flag(self, tmp_path):
        cfg = write_config(tmp_path, two_cell_spec())
        sim_out = tmp_path / "sim"
        cli.main(["simulate", "--config", cfg, "--out", str(sim_out),
                  "--seed", "1", "--horizon", "5000", "--warmup", "100",
                  "--interval", "10"])
        cmp_out = tmp_path / "cmp"
        rc = cli.main(["compare", "--config", cfg,
                       "--snapshots", str(sim_out / "snapshots.csv"),
                       "--out", str(cmp_out), "--subset-size", "2",
                       "--repeats", "5"])
        assert rc == 0
        with open(cmp_out / "subset_metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["2"]

    def test_distance_max_without_coordinates_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_cell_spec())
        sim_out = tmp_path / "sim"
        cli.main(["simulate", "--config", cfg, "--out", str(sim_out),
                  "--seed", "1", "--horizon", "2000", "--warmup", "50",
                  "--interval", "10"])
        rc = cli.main(["compare", "--config", cfg,
                       "--snapshots", str(sim_out / "snapshots.csv"),
                       "--out", str(tmp_path / "cmp"), "--distance-max", "100"])
        assert rc == 1

    def test_dimension_mismatch_exit_1(self, tmp_path):
        cfg2 = write_config(tmp_path, two_cell_spec(), "two.json")
        cfg1 = write_config(tmp_path, single_cell_spec(1.0, 2.0), "one.json")
        sim_out = tmp_path / "sim"
        cli.main(["simulate", "--config", cfg2, "--out", str(sim_out),
                  "--seed", "1", "--horizon", "2000", "--warmup", "50",
                  "--interval", "10"])
        rc = cli.main(["compare", "--config", cfg1,
                       "--snapshots", str(sim_out / "snapshots.csv"),
                       "--out", str(tmp_path / "cmp")])
        assert rc == 1


class TestCompareBadSnapshots:
    @pytest.mark.parametrize("text, message", [
        ("time,y1,y2\n0.0,1,2\n10.0,x,2\n", "line 3: invalid literal for int() with base 10: 'x'"),
        ("time,y1,y2\n", "no snapshot rows after the header"),
        ("time,y1,y2\n0.0,1,2\n10.0,1,2\n20.0,1,-1\n",
         "line 4: count -1 is not a non-negative 64-bit integer"),
        ("time,y1,y2\n0.0,1,2\n10.0,1\n", "line 3: 2 fields, the header has 3"),
        ("time,y1,y2\n0.0,1,2,3\n", "line 2: 4 fields, the header has 3"),
    ], ids=["non-integer", "header-only", "negative", "short-row", "long-row"])
    def test_bad_rows_exit_1_with_line(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, two_cell_spec())
        snaps = tmp_path / "snapshots.csv"
        snaps.write_text(text)
        rc = cli.main(["compare", "--config", cfg, "--snapshots", str(snaps),
                       "--out", str(tmp_path / "cmp"), "--repeats", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(snaps) in err and message in err

    def test_missing_snapshots_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_cell_spec())
        missing = tmp_path / "absent.csv"
        rc = cli.main(["compare", "--config", cfg, "--snapshots", str(missing),
                       "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert f"snapshot file not found: {missing}" in capsys.readouterr().err


class TestFixtureAndTrace:
    def _fixture_spec(self):
        # cadence-multiple holds so the pipeline recovers stages exactly
        law = model.DiscreteSessionLaw(
            (0.5, 0.5), (((1.0, (1200.0,)),), ((1.0, (900.0, 600.0)),)))
        return model.NetworkSpec(2, (
            model.RouteSpec(model.Route((1, 2)), 1 / 500.0, law),))

    def test_fixture_then_trace_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self._fixture_spec())
        fix_out = tmp_path / "fix"
        rc = cli.main(["fixture", "--config", cfg, "--out", str(fix_out),
                       "--seed", "9", "--days", "2", "--closed-users", "1"])
        assert rc == 0
        truth = json.loads((fix_out / "ground_truth.json").read_text())

        trc_out = tmp_path / "trc"
        rc = cli.main(["trace", "--polls", str(fix_out / "polls.csv"),
                       "--out", str(trc_out), "--cadence", "300"])
        assert rc == 0
        report = json.loads((trc_out / "report.json").read_text())
        assert report["stage_table"] == truth["stage_table"]
        assert report["closed_users"] == 1
        assert report["closed_fraction"] == pytest.approx(truth["closed_fraction"])
        assert report["preprocessing_notes"]
        for name in ("sessions.csv", "ap_params.csv", "stage_table.csv",
                     "ap_validity.csv", "marginal_comparison.csv", "manifest.json"):
            assert (trc_out / name).exists()

    def test_fixture_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, self._fixture_spec())
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["fixture", "--config", cfg, "--out", str(out),
                      "--seed", "4", "--days", "2"])
        assert (a / "polls.csv").read_bytes() == (b / "polls.csv").read_bytes()
        assert (a / "ground_truth.json").read_bytes() == (b / "ground_truth.json").read_bytes()

    def test_fixture_writes_run_counts(self, tmp_path):
        cfg = write_config(tmp_path, self._fixture_spec())
        out = tmp_path / "fix"
        assert cli.main(["fixture", "--config", cfg, "--out", str(out), "--seed", "3",
                         "--days", "3", "--closed-users", "2", "--bursty-cell", "2",
                         "--burst-size", "4", "--bursts-per-day", "3"]) == 0
        run = json.loads((out / "run.json").read_text())
        truth = json.loads((out / "ground_truth.json").read_text())
        with open(out / "polls.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        assert run["polls_written"] == rows == run["stage_polls"] + run["closed_user_polls"]
        assert run["closed_user_polls"] == 3 * 2 * 96
        assert (run["sessions_total"] == truth["sessions_total"]
                == run["sessions_sampled"] - run["sessions_dropped"] + run["burst_sessions"])
        assert run["sessions_dropped"] > 0 and run["burst_sessions"] > 0
        assert run["generate_s"] >= 0.0 and run["write_s"] >= 0.0

    def test_unpolled_sessions_explain_missing_users(self, tmp_path):
        # off the 60 s lattice, with dwells mostly shorter than a cadence,
        # some stages and whole sessions fall between two poll epochs
        D = model.Dist.make
        law = model.GenerativeSessionLaw(D("lognormal", mu=6.0, sigma=0.8),
                                         (D("exponential", mean=25.0),
                                          D("exponential", mean=45.0)))
        cfg = write_config(tmp_path, model.NetworkSpec(2, (
            model.RouteSpec(model.Route((1, 2)), 1 / 120.0, law),)))
        out = tmp_path / "fix"
        assert cli.main(["fixture", "--config", cfg, "--out", str(out), "--seed", "5",
                         "--days", "2", "--cadence", "60", "--closed-users", "2"]) == 0
        run = json.loads((out / "run.json").read_text())
        truth = json.loads((out / "ground_truth.json").read_text())
        with open(out / "polls.csv") as fh:
            users = {row["user"] for row in csv.DictReader(fh)}
        assert run["unpolled_sessions"] > 0
        assert run["unpolled_stages"] >= run["unpolled_sessions"]
        assert truth["users_total"] - run["unpolled_sessions"] == len(users)

    def test_trace_exclude_mode_and_one_stage(self, tmp_path):
        cfg = write_config(tmp_path, self._fixture_spec())
        fix_out = tmp_path / "fix"
        cli.main(["fixture", "--config", cfg, "--out", str(fix_out),
                  "--seed", "2", "--days", "2"])
        out = tmp_path / "trc"
        rc = cli.main(["trace", "--polls", str(fix_out / "polls.csv"),
                       "--out", str(out), "--cadence", "300",
                       "--exclude-mode", "1", "--exclude-one-stage"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["exclusion_mode"] == 1
        assert report["sessions_after_exclusion"] <= report["sessions"]
        with open(out / "sessions.csv") as fh:
            rows = list(csv.DictReader(fh))
        users = {r["user"] for r in rows}
        for u in users:
            assert sum(1 for r in rows if r["user"] == u) >= 2

    def test_trace_empty_polls_exit_1(self, tmp_path):
        polls = tmp_path / "polls.csv"
        polls.write_text("timestamp,ap,user,packets\n")
        rc = cli.main(["trace", "--polls", str(polls),
                       "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_trace_missing_polls_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = cli.main(["trace", "--polls", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not found" in err and str(missing) in err

    def test_trace_non_gzip_gz_exit_1(self, tmp_path, capsys):
        polls = tmp_path / "polls.csv.gz"
        polls.write_text("timestamp,ap,user,packets\n100.0,AP1,u1,5\n")
        rc = cli.main(["trace", "--polls", str(polls), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "gzip" in err and str(polls) in err

    def test_trace_single_timestamp_without_cadence_exit_1(self, tmp_path, capsys):
        polls = tmp_path / "polls.csv"
        polls.write_text("timestamp,ap,user,packets\n"
                         "1073293200.0,AP1,u1,5\n1073293200.0,AP2,u2,5\n")
        rc = cli.main(["trace", "--polls", str(polls), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot infer poll cadence" in err and str(polls) in err

    def test_trace_all_records_outside_window_exit_1(self, tmp_path, capsys):
        polls = tmp_path / "polls.csv"
        # Monday 2004-01-05, 18:00-18:10 UTC: after the working window
        polls.write_text("timestamp,ap,user,packets\n" + "".join(
            f"{1073325600.0 + 300 * i},AP1,u1,5\n" for i in range(3)))
        rc = cli.main(["trace", "--polls", str(polls), "--out", str(tmp_path / "o"),
                       "--cadence", "300"])
        assert rc == 1
        assert "filter_window dropped all 3 records" in capsys.readouterr().err

    def test_trace_non_positive_cadence_exit_1(self, tmp_path, capsys):
        polls = tmp_path / "polls.csv"
        polls.write_text("timestamp,ap,user,packets\n1073293200.0,AP1,u1,5\n")
        rc = cli.main(["trace", "--polls", str(polls), "--out", str(tmp_path / "o"),
                       "--cadence", "0"])
        assert rc == 1
        assert "cadence" in capsys.readouterr().err

    def test_trace_writes_step_counts(self, tmp_path):
        cfg = write_config(tmp_path, self._fixture_spec())
        fix_out = tmp_path / "fix"
        cli.main(["fixture", "--config", cfg, "--out", str(fix_out),
                  "--seed", "3", "--days", "2", "--closed-users", "1"])
        out = tmp_path / "trc"
        assert cli.main(["trace", "--polls", str(fix_out / "polls.csv"),
                         "--out", str(out), "--cadence", "300"]) == 0
        run = json.loads((out / "run.json").read_text())
        report = json.loads((out / "report.json").read_text())
        steps = ["parse_polls", "filter_window", "filter_invalid_days",
                 "resolve_multi_association", "pad_gaps", "classify_open_closed",
                 "extract_sessions"]
        assert list(run) == steps
        for before, after in zip(steps, steps[1:]):
            assert run[after]["rows_in"] == run[before]["rows_out"]
        assert run["parse_polls"]["rows_out"] == report["records_in"]
        assert run["extract_sessions"]["rows_out"] == report["sessions"]
        assert run["classify_open_closed"]["closed_users"] == report["closed_users"] == 1
        assert run["resolve_multi_association"]["multi_association_merged"] == 0
        assert "run.json" not in report


# ---------------------------------------------------------------------------
# the columnar fixture against the record-at-a-time reference
# ---------------------------------------------------------------------------

#: On and off the 60, 137.5 and 300 s lattices, and shorter than a cadence.
HOLDS = (10.0, 59.9, 60.0, 137.5, 299.999999, 300.0, 450.25, 600.0, 1234.5)


def _weights(draw, n):
    raw = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return [w / sum(raw) for w in raw]


@st.composite
def fixture_specs(draw):
    cells = draw(st.integers(1, 4))
    routes = []
    for _ in range(draw(st.integers(1, 3))):
        route = model.Route(tuple(draw(st.lists(st.integers(1, cells), min_size=1,
                                                 max_size=3))))
        k = route.n_stages
        if draw(st.booleans()):
            realizations = []
            for m in range(1, k + 1):
                vectors = draw(st.lists(st.tuples(*[st.sampled_from(HOLDS)] * m),
                                        min_size=1, max_size=2))
                realizations.append(tuple(zip(_weights(draw, len(vectors)), vectors)))
            law = model.DiscreteSessionLaw(tuple(_weights(draw, k)), tuple(realizations))
        else:
            D = model.Dist.make
            dists = st.one_of(
                st.builds(lambda m: D("exponential", mean=m), st.sampled_from([40.0, 700.0])),
                st.builds(lambda v: D("deterministic", value=v), st.sampled_from(HOLDS)),
                st.builds(lambda lo: D("uniform", low=lo, high=lo + 900.0),
                          st.sampled_from([5.0, 250.0])))
            law = model.GenerativeSessionLaw(
                duration=draw(st.one_of(dists, st.just(D("lognormal", mu=7.0, sigma=0.8)))),
                dwells=tuple(draw(dists) for _ in range(k)),
                speed=draw(st.sampled_from([None, D("uniform", low=0.5, high=1.5)])),
                speed_scales_duration=draw(st.booleans()))
        rate = draw(st.sampled_from([1 / 300.0, 1 / 900.0, 1 / 2400.0]))
        routes.append(model.RouteSpec(route, rate, law))
    spec = model.NetworkSpec(cells, tuple(routes))
    assert model.validate(spec) == []
    return spec


class TestFixtureAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(spec=fixture_specs(), seed=st.integers(0, 10 ** 6), days=st.sampled_from([1, 2]),
           cadence=st.sampled_from([60.0, 137.5, 300.0]), closed=st.integers(0, 2),
           bursty=st.data())
    def test_outputs_equal_reference(self, tmp_path_factory, spec, seed, days, cadence,
                                     closed, bursty):
        kw = dict(seed=seed, days=days, cadence=cadence, closed_users=closed,
                  bursty_cell=bursty.draw(st.one_of(st.none(),
                                                    st.integers(1, spec.cell_count))),
                  burst_size=bursty.draw(st.integers(1, 3)),
                  bursts_per_day=bursty.draw(st.sampled_from([1.0, 4.0])))
        polls, truth = cli.generate_fixture(spec, **kw)
        ref_records, ref_truth = fixture_reference.generate_fixture(spec, **kw)
        out = tmp_path_factory.mktemp("fixture")
        cli.write_polls_csv(polls, out / "polls.csv")
        fixture_reference.write_polls_csv(ref_records, out / "ref.csv")
        assert (out / "polls.csv").read_bytes() == (out / "ref.csv").read_bytes()
        assert json.dumps(truth, indent=2) == json.dumps(ref_truth, indent=2)

    @pytest.mark.parametrize("cadence", [60.0, 137.5, 300.0, 0.7, 47.1])
    @pytest.mark.parametrize("near_time", [1.1e9, 1.7e9])
    def test_poll_grid_at_lattice_points(self, cadence, near_time):
        # stage bounds on and one ulp off the float products k * cadence,
        # where ceil(bound / cadence) can be one above or below the least k
        # whose product reaches the bound (0.7 and 47.1 give both)
        k = np.arange(1000) + int(near_time / cadence)
        near = np.concatenate([k * cadence, np.nextafter(k * cadence, np.inf),
                               np.nextafter(k * cadence, -np.inf)])
        entry = np.concatenate([near, near - 0.5 * cadence, near - 2 * cadence])
        exit_ = np.concatenate([near + 2 * cadence, near, near])
        stage, epoch = cli._poll_grid(entry, exit_, cadence)
        expected = [(j, r.timestamp)
                    for j, (a, b) in enumerate(zip(entry.tolist(), exit_.tolist()))
                    for r in fixture_reference._stage_polls("u", "AP001", a, b, cadence, 10)]
        assert list(zip(stage.tolist(), (epoch * cadence).tolist())) == expected
