import csv
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixture_reference
from multicell import cli, model
from multicell.polls import PollRecord, PollTable
from conftest import run_fresh, single_cell_spec

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
        assert (f"invalid compare settings: --snapshots must be an existing file, got {missing}"
                in capsys.readouterr().err)
        assert not (tmp_path / "cmp").exists()


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
        assert (f"invalid trace settings: --polls must be an existing file, got {missing}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("flag, value", [
        ("--test-interval", "0"), ("--test-interval", "-5"), ("--test-interval", "nan"),
        ("--test-interval", "28801"), ("--threshold-eta", "nan"),
        ("--threshold-theta", "inf")])
    def test_trace_bad_test_settings_exit_1(self, tmp_path, capsys, flag, value):
        polls = tmp_path / "polls.csv"
        polls.write_text("timestamp,ap,user,packets\n1073293200.0,AP1,u1,5\n")
        rc = cli.main(["trace", "--polls", str(polls), "--out", str(tmp_path / "o"),
                       "--cadence", "300", flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid trace settings" in err and flag in err

    @pytest.mark.parametrize("flag, value", [
        ("--days", "0"), ("--days", "-1"), ("--cadence", "0"), ("--cadence", "-5"),
        ("--cadence", "nan"), ("--cadence", "inf"), ("--closed-users", "-2"),
        ("--burst-size", "-1"), ("--burst-size", "0"), ("--bursts-per-day", "-1"),
        ("--bursts-per-day", "nan"), ("--bursts-per-day", "inf"), ("--bursty-cell", "0"),
        ("--bursty-cell", "3"), ("--bursty-cell", "99")])
    def test_fixture_bad_arguments_exit_1(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, self._fixture_spec())
        out = tmp_path / "fix"
        assert cli.main(["fixture", "--config", cfg, "--out", str(out), flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

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
        assert all(entry["wall_s"] >= 0.0 for entry in run.values())

    def test_trace_occupancy_ignores_polls_outside_the_window(self, tmp_path):
        # one device polled overnight: filter_window drops every row, and
        # occupancy is sampled at the observed epochs only
        cfg = write_config(tmp_path, self._fixture_spec())
        fix_out = tmp_path / "fix"
        cli.main(["fixture", "--config", cfg, "--out", str(fix_out),
                  "--seed", "3", "--days", "2"])
        polls = (fix_out / "polls.csv").read_text()
        day0 = float(polls.splitlines()[1].split(",")[0]) // 86400 * 86400
        night = tmp_path / "night.csv"
        night.write_text(polls + "".join(
            f"{day0 + 18 * 3600 + 300 * i!r},AP001,night,3\n" for i in range(180)))
        outs = []
        for name, path in (("day", fix_out / "polls.csv"), ("night", night)):
            outs.append(tmp_path / name)
            assert cli.main(["trace", "--polls", str(path), "--out", str(outs[-1]),
                             "--cadence", "300"]) == 0
        run = json.loads((outs[1] / "run.json").read_text())
        assert run["filter_window"]["rows_in"] - run["filter_window"]["rows_out"] == 180
        for name in ("marginal_comparison.csv", "sessions.csv", "ap_params.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_trace_undecodable_byte_exit_1(self, tmp_path, capsys):
        polls = tmp_path / "polls.csv"
        polls.write_bytes(b"timestamp,ap,user,packets\n"
                          + b"".join(b"%d,AP1,u1,5\n" % (1073293200 + 300 * i) for i in range(3))
                          + b"1073294100,AP\xff,u1,5\n")
        rc = cli.main(["trace", "--polls", str(polls), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "line 5 holds byte 0xff, which is not UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the front door: every flag checked against cli.FLAGS before anything is written
# ---------------------------------------------------------------------------

def _one_route_config(rate: float, cells: int = 1, meta=None) -> dict:
    config = {"cells": cells, "routes": [{"cells": [1], "arrival_rate": rate, "law": {
        "kind": "discrete", "stage_probs": [1.0],
        "realizations": [[{"weight": 1.0, "holding": [300.0]}]]}}]}
    if meta is not None:
        config["cell_meta"] = meta
    return config


class TestFrontDoor:
    def _paths(self, tmp_path):
        one = write_config(tmp_path, single_cell_spec(rate=0.01, hold=300.0), "one.json")
        two = write_config(tmp_path, two_cell_spec(), "two.json")
        snapshots = tmp_path / "snapshots.csv"
        snapshots.write_text("time,y1,y2\n0.0,1,2\n10.0,0,1\n")
        return one, two, str(snapshots)

    @pytest.mark.parametrize("subcommand, extra, flag", [
        ("simulate", ["--warmup", "20", "--horizon", "10"], "--warmup"),
        ("simulate", ["--warmup", "-1", "--horizon", "10"], "--warmup"),
        ("simulate", ["--horizon", "100", "--replications", "0"], "--replications"),
        ("simulate", ["--horizon", "100", "--interval", "0"], "--interval"),
        ("simulate", ["--horizon", "-5"], "--horizon"),
        ("simulate", ["--horizon", "nan"], "--horizon"),
        ("simulate", ["--horizon", "inf"], "--horizon"),
        ("simulate", ["--horizon", "100", "--seed", "-1"], "--seed"),
        ("analyze", ["--discretize-samples", "0"], "--discretize-samples"),
        ("analyze", ["--bin-width", "0"], "--bin-width"),
        ("analyze", ["--bin-width", "nan"], "--bin-width"),
        ("compare", ["--repeats", "0"], "--repeats"),
        ("compare", ["--subset-size", "0"], "--subset-size"),
        ("compare", ["--subset-size", "-1"], "--subset-size"),
        ("compare", ["--subset-size", "5"], "--subset-size"),
        ("fixture", ["--seed", "-1"], "--seed"),
        ("fixture", ["--days", "abc"], "--days"),
        ("analyze", None, "--config"),
        ("simulate", ["--horizon", "10", "--interval", "5e-324"], "--horizon"),
        ("simulate", ["--horizon", "1e6", "--interval", "1e-4"], "--horizon"),
        ("fixture", ["--cadence", "1e-300", "--days", "1"], "--cadence"),
        ("fixture", ["--cadence", "1e-3", "--days", "1"], "--cadence"),
    ])
    def test_bad_flag_exit_1_before_writing(self, tmp_path, capsys, subcommand, extra, flag):
        one, two, snapshots = self._paths(tmp_path)
        out = tmp_path / "out"
        if extra is None:         # the flag itself is missing
            argv = [subcommand, "--out", str(out)]
        elif subcommand == "compare":
            argv = [subcommand, "--config", two, "--snapshots", snapshots, "--out", str(out),
                    *extra]
        else:
            argv = [subcommand, "--config", one, "--out", str(out), *extra]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, extra", [
        ("analyze", ["--seed", "0", "--discretize-samples", "1", "--bin-width", "5e-324"]),
        # the snapshot budget needs a short horizon for the shortest interval
        ("simulate", ["--horizon", "1e-317", "--warmup", "0", "--interval", "5e-324",
                      "--replications", "1"]),
        ("simulate", ["--horizon", "5e-324"]),
        ("compare", ["--subset-size", "1", "--repeats", "1", "--distance-max", "5e-324"]),
        ("compare", ["--subset-size", "2"]),
        # the poll budget bounds --cadence from below
        ("fixture", ["--days", "1", "--cadence", "0.01", "--closed-users", "0",
                     "--bursty-cell", "1", "--burst-size", "1", "--bursts-per-day", "0"]),
        ("fixture", ["--bursty-cell", "2"]),
        ("trace", ["--test-interval", "28800", "--cadence", "5e-324",
                   "--departure-threshold", "5e-324", "--pingpong-return", "5e-324",
                   "--closed-user-hours", "5e-324", "--threshold-eta=-1e308",
                   "--threshold-theta", "1e308"]),
    ])
    def test_values_on_the_bounds_accepted(self, tmp_path, subcommand, extra):
        _, _, snapshots = self._paths(tmp_path)
        two = tmp_path / "two_with_coordinates.json"
        two.write_text(json.dumps(_one_route_config(0.01, cells=2, meta=[
            {"name": "a", "x": 0.0, "y": 0.0}, {"name": "b", "x": 1.0, "y": 0.0}])))
        argv = {"compare": ["--config", str(two), "--snapshots", snapshots],
                "trace": ["--polls", snapshots]}.get(subcommand, ["--config", str(two)])
        args = cli.build_parser().parse_args([subcommand, "--out", str(tmp_path / "o"),
                                              *argv, *extra])
        cli.check_arguments(args, model.load_spec(two) if "config" in vars(args) else None)

    def test_every_bad_flag_in_one_message(self, tmp_path, capsys):
        # the example README.md gives
        two = write_config(tmp_path, two_cell_spec())
        assert cli.main(["fixture", "--config", two, "--out", str(tmp_path / "o"),
                         "--days", "0", "--bursty-cell", "9"]) == 1
        example = re.search(r"\n(error: invalid fixture settings: .*)\n", README.read_text())
        assert capsys.readouterr().err == example.group(1) + "\n"

    def test_readme_table_equals_flags(self):
        rows = re.findall(r"^\| (all|`[a-z`, ]+`) \| `(--[a-z-]+)` \| (.+?) \|$",
                          README.read_text(), re.M)
        documented = {}
        for subcommands, flag, words in rows:
            for name in cli.FLAGS if subcommands == "all" else re.findall(r"`(\w+)`", subcommands):
                assert (name, flag) not in documented
                documented[name, flag] = words
        flags = {(name, flag): rule for name, (_, _, table) in cli.FLAGS.items()
                 for flag, (rule, _) in table.items()}
        assert set(documented) == set(flags)
        for key, rule in flags.items():
            if rule is not None:
                assert documented[key] == rule[0], key

    def test_workday_is_the_default_working_window(self):
        from multicell.polls import PreprocessConfig
        cfg = PreprocessConfig()
        assert cli.WORKDAY_S == cfg.work_end - cfg.work_start

    @pytest.mark.parametrize("subcommand, rate, extra", [
        ("simulate", 1e300, ["--horizon", "100"]),       # a Poisson lam too large for numpy
        ("simulate", 100.0, ["--horizon", "1e6"]),       # 1e8 expected visits
        ("fixture", 1e300, ["--days", "1"]),
    ])
    def test_sampling_budget_exit_1(self, tmp_path, capsys, subcommand, rate, extra):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(_one_route_config(rate)))
        out = tmp_path / "o"
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert "--config must be" in err and "sim.STAGE_VISIT_CAP" in err
        assert not out.exists()

    def test_expected_visits(self):
        from multicell import sim
        D = model.Dist.make
        generative = model.GenerativeSessionLaw(D("exponential", mean=5.0),
                                                (D("exponential", mean=5.0),) * 2)
        spec = model.NetworkSpec(2, (
            model.RouteSpec(model.Route((1, 2)), 1.0, two_cell_spec().routes[0].law),
            model.RouteSpec(model.Route((2, 1)), 2.0, generative)))
        # E[stages] is 0.5 * 1 + 0.5 * 2 for the discrete law, and 1 for the generative one
        assert sim.expected_visits(spec, 200.0) == 1.5 * 200.0 + 2.0 * 200.0

    def test_sampling_budget_bound_is_inclusive(self, tmp_path, monkeypatch):
        from multicell import sim
        monkeypatch.setattr(sim, "STAGE_VISIT_CAP", 100)
        spec = single_cell_spec(rate=1.0, hold=2.0)
        parse = cli.build_parser().parse_args
        argv = ["simulate", "--config", "net.json", "--out", str(tmp_path / "o"), "--horizon"]
        cli.check_arguments(parse([*argv, "100"]), spec)      # 100 expected stage visits
        with pytest.raises(cli.ValidationError, match="--config must be"):
            cli.check_arguments(parse([*argv, "100.5"]), spec)

    @pytest.mark.parametrize("horizon, extra, snapshots", [
        ("99", ["--warmup", "0", "--interval", "1"], 100),
        ("49", ["--warmup", "0", "--interval", "1", "--replications", "2"], 100),
        # default warmup min(10 * 2, horizon / 2) and interval 5 * 2
        ("1010", [], 100),
        ("100", ["--warmup", "0", "--interval", "1"], 101),
        ("1020", [], 101),
    ])
    def test_snapshot_budget_bound_is_inclusive(self, tmp_path, monkeypatch, horizon, extra,
                                                snapshots):
        from multicell import sim
        monkeypatch.setattr(sim, "STAGE_VISIT_CAP", 100)
        args = cli.build_parser().parse_args(["simulate", "--config", "net.json", "--out",
                                              str(tmp_path / "o"), "--horizon", horizon, *extra])
        spec = single_cell_spec(rate=0.01, hold=2.0)
        if snapshots <= 100:
            cli.check_arguments(args, spec)
        else:
            with pytest.raises(cli.ValidationError, match="--horizon must be") as got:
                cli.check_arguments(args, spec)
            assert "--config" not in str(got.value)

    def test_poll_budget_bound_is_inclusive(self, tmp_path, monkeypatch):
        from multicell import sim
        # per day: stage time 0.125 * 28800 * 256 over cadence 32, 3600 visits,
        # 2 closed users * 900 epochs and 3 polls for each of 4 * 2.5 burst sessions
        expected = 3 * (28800 + 3600 + 1800 + 30)
        args = cli.build_parser().parse_args([
            "fixture", "--config", "net.json", "--out", str(tmp_path / "o"), "--days", "3",
            "--cadence", "32", "--closed-users", "2", "--bursty-cell", "1", "--burst-size", "4",
            "--bursts-per-day", "2.5"])
        spec = single_cell_spec(rate=0.125, hold=256.0)
        monkeypatch.setattr(sim, "STAGE_VISIT_CAP", expected)
        cli.check_arguments(args, spec)
        monkeypatch.setattr(sim, "STAGE_VISIT_CAP", expected - 1)
        with pytest.raises(cli.ValidationError, match="--cadence must be") as got:
            cli.check_arguments(args, spec)
        assert "--config" not in str(got.value)

    def test_unreachable_distance_max_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(_one_route_config(0.01, cells=2, meta=[
            {"name": "a", "x": 0.0, "y": 0.0}, {"name": "b", "x": 1000.0, "y": 0.0}])))
        snapshots = tmp_path / "snapshots.csv"
        snapshots.write_text("time,y1,y2\n0.0,1,2\n10.0,0,1\n")
        assert cli.main(["compare", "--config", str(cfg), "--snapshots", str(snapshots),
                         "--out", str(tmp_path / "o"), "--subset-size", "2",
                         "--distance-max", "10", "--repeats", "1"]) == 1
        err = capsys.readouterr().err
        assert "--distance-max 10.0" in err and "no 2-cell subset" in err

    def test_runtime_error_without_message_names_its_type(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_memory(path):
            raise MemoryError()
        monkeypatch.setattr(model, "load_spec", no_memory)
        assert cli.main(["analyze", "--config", "net.json", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "runtime error: MemoryError\n"

    def test_trace_one_test_interval_per_ap_gives_no_eta(self, tmp_path):
        law = model.DiscreteSessionLaw(
            (0.5, 0.5), (((1.0, (1200.0,)),), ((1.0, (900.0, 600.0)),)))
        spec = model.NetworkSpec(2, (model.RouteSpec(model.Route((1, 2)), 1 / 500.0, law),))
        fix_out, out = tmp_path / "fix", tmp_path / "trc"
        assert cli.main(["fixture", "--config", write_config(tmp_path, spec),
                         "--out", str(fix_out), "--seed", "3", "--days", "1"]) == 0
        assert cli.main(["trace", "--polls", str(fix_out / "polls.csv"), "--out", str(out),
                         "--cadence", "300", "--test-interval", "28800"]) == 0
        with open(out / "ap_validity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["eta"] == "" and r["valid"] == "False" for r in rows)


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


#: Names with every character ``csv.writer`` quotes or keeps as it is.
POLL_NAMES = st.text(st.sampled_from(list('aZ7 ,"\n\r\t;é€\u2028😀')), max_size=5)
POLL_TIMES = st.one_of(st.sampled_from([0.0, -0.0, 1073293200.0, 1073293500.0, 1e16]),
                       st.floats(allow_nan=False, allow_infinity=False))
POLL_PACKETS = st.one_of(st.sampled_from([0, 10, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1]),
                         st.integers(0, 2 ** 63 - 1))


def _reference_polls_csv(polls, path):
    """``fixture_reference.write_polls_csv`` on the table's rows, stably
    sorted as the writer sorts them."""
    fixture_reference.write_polls_csv(
        sorted(polls, key=lambda r: (r.timestamp, r.ap, r.user)), path)


class TestPollWriterAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(st.builds(PollRecord, POLL_TIMES, POLL_NAMES, POLL_NAMES,
                                      POLL_PACKETS), max_size=30),
           block=st.sampled_from([1, 7, cli.POLL_BLOCK_ROWS]), repeat=st.integers(1, 3))
    def test_equals_csv_writer(self, tmp_path_factory, records, block, repeat):
        polls = PollTable.from_records(records * repeat)   # repeated rows tie in the sort
        out = tmp_path_factory.mktemp("polls")
        with mock.patch.object(cli, "POLL_BLOCK_ROWS", block):
            cli.write_polls_csv(polls, out / "polls.csv")
        _reference_polls_csv(polls, out / "ref.csv")
        assert (out / "polls.csv").read_bytes() == (out / "ref.csv").read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, cli.POLL_BLOCK_ROWS, 2 * cli.POLL_BLOCK_ROWS + 5])
    def test_equals_csv_writer_across_blocks(self, tmp_path, rows):
        names = ["AP 1", "ap,2", 'a"p', "é\n€"]
        polls = PollTable.from_records([
            PollRecord(1073293200.0 + 137.5 * (i % 97), names[i % 4], f" u{i % 331},",
                       (i * 7919) % 2 ** 60) for i in range(rows)])
        cli.write_polls_csv(polls, tmp_path / "polls.csv")
        _reference_polls_csv(polls, tmp_path / "ref.csv")
        assert (tmp_path / "polls.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


#: Runs ``cli.main`` on the JSON argv given (``import multicell`` alone for
#: null) and prints the loaded ``multicell`` and ``numpy`` modules.
_LOADED_MODULES = """
import json, sys
argv = json.loads(sys.argv[1])
import multicell
if argv is not None:
    from multicell import cli
    assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("multicell", "numpy"))))
"""


class TestImportGraph:
    """A process loads only the package modules its subcommand runs."""

    def test_package_import_loads_no_submodule(self):
        assert run_fresh(_LOADED_MODULES, "null") == ["multicell"]

    @pytest.mark.parametrize("subcommand, loaded", [
        ("analyze", {"analytic"}),
        ("simulate", {"analytic", "sim"}),
        ("compare", {"analytic", "stats"}),
        ("fixture", {"polls", "sim"}),
    ])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, subcommand, loaded):
        cfg = write_config(tmp_path, single_cell_spec(rate=0.01, hold=300.0))
        snapshots = tmp_path / "snapshots.csv"
        snapshots.write_text("time,y1\n0.0,3\n300.0,2\n600.0,4\n")
        argv = {"analyze": [], "simulate": ["--horizon", "20000"],
                "compare": ["--snapshots", str(snapshots), "--repeats", "2"],
                "fixture": ["--days", "1"]}[subcommand]
        argv = [subcommand, "--config", cfg, "--out", str(tmp_path / "out"), *argv]
        modules = run_fresh(_LOADED_MODULES, json.dumps(argv))
        assert {m for m in modules if m.startswith("multicell")} == {
            "multicell", "multicell.cli", "multicell.model",
            *(f"multicell.{m}" for m in loaded)}
        # a bare np.unique loads numpy.ma, about 20 ms of a fresh process
        assert "numpy.ma" not in modules
