import gzip
import io
import math
import re
import time
import tracemalloc
import weakref
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trace_reference as ref
from multicell import cli, model, trace

CAD = 300.0
MON9 = datetime(2004, 1, 5, 9, 0, tzinfo=timezone.utc).timestamp()   # Monday 09:00
CFG = trace.PreprocessConfig(poll_cadence=CAD)


poll_table = trace.PollTable.from_records


def polls(entries):
    """entries: (epoch_index_from_MON9, ap, user[, packets])."""
    out = []
    for e in entries:
        i, ap, user = e[:3]
        packets = e[3] if len(e) > 3 else 10
        out.append(trace.PollRecord(MON9 + i * CAD, ap, user, packets))
    return sorted(out, key=lambda r: (r.timestamp, r.ap, r.user))


class TestParsePolls:
    def test_wellformed(self):
        text = "timestamp,ap,user,packets\n100.0,AP1,u1,5\n200.0,AP2,u2,0\n300.0,AP1,u1,7\n"
        records, rejects = trace.parse_polls(io.StringIO(text))
        assert len(records) == 3 and rejects == []
        first = next(iter(records))
        assert first.ap == "AP1" and first.packets == 5

    def test_negative_packets_rejected_with_line(self):
        text = "100.0,AP1,u1,5\n200.0,AP2,u2,-3\n300.0,AP1,u1,7\n"
        records, rejects = trace.parse_polls(io.StringIO(text))
        assert len(records) == 2
        assert len(rejects) == 1 and rejects[0][0] == 2 and "negative" in rejects[0][2]

    def test_malformed_line_reported(self):
        records, rejects = trace.parse_polls(io.StringIO("nonsense\n100.0,AP1,u1,1\n"))
        assert len(records) == 1 and len(rejects) == 1

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "polls.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("timestamp,ap,user,packets\n100.0,AP1,u1,5\n")
        records, rejects = trace.parse_polls(path)
        assert len(records) == 1 and not rejects

    def test_cadence_inference(self):
        records = polls([(0, "AP1", "u1"), (1, "AP1", "u1"), (2, "AP1", "u1"),
                         (4, "AP1", "u1")])
        assert trace.infer_cadence(poll_table(records)) == CAD

    def test_sub_microsecond_cadence_rejected(self):
        records = [trace.PollRecord(MON9 + i * 1e-7, "AP1", "u1", 1) for i in range(3)]
        with pytest.raises(trace.TraceInputError, match="rounds to 0"):
            trace.infer_cadence(poll_table(records))

    def test_out_of_range_rows_rejected_with_line(self):
        text = "1e12,AP1,u1,5\n100.0,AP1,u1,%d\n200.0,AP1,u1,1\n" % 2 ** 63
        records, rejects = trace.parse_polls(io.StringIO(text))
        assert len(records) == 1
        assert [(line, "outside" in why or "above" in why) for line, _, why in rejects] == [
            (1, True), (2, True)]

    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    def test_byte_order_mark_header_is_skipped(self, tmp_path, suffix):
        path = tmp_path / f"polls{suffix}"
        data = "\ufefftimestamp,ap,user,packets\n100.0,AP1,u1,5\n".encode("utf-8")
        path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        records, rejects = trace.parse_polls(path)
        assert rejects == [] and [r.ap for r in records] == ["AP1"]

    @pytest.mark.parametrize("lines", [5, 9000])   # 9,000 lines span many decode chunks
    def test_undecodable_byte_names_its_line(self, tmp_path, lines):
        path = tmp_path / "polls.csv"
        rows = [b"timestamp,ap,user,packets"] + [b"%d,AP1,u1,5" % (100 + i)
                                                 for i in range(lines - 1)]
        rows[-1] = b"100,AP\xff1,u1,5"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(trace.TraceInputError, match=f"line {lines} holds byte 0xff"):
            trace.parse_polls(path)

    @pytest.mark.parametrize("suffix,end,bom,line", [
        (".csv", "\n", False, 5000),        # past the first decode chunk
        (".csv.gz", "\n", False, 5000),
        (".csv", "\r\n", False, 5000),
        (".csv", "\r", False, 5000),       # lines end at a lone CR too
        (".csv", "\n", True, 1),           # right after the byte-order mark
        (".csv.gz", "\r\n", True, 1)])
    def test_undecodable_byte_in_any_source(self, tmp_path, suffix, end, bom, line):
        rows = [b"%d,AP1,u1,5" % (100 + i) for i in range(5100)]
        rows[line - 1] = b"\x80" + rows[line - 1] if bom else rows[line - 1] + b"\xc3"
        data = ("\ufeff" if bom else "").encode() + end.encode().join(rows) + end.encode()
        path = tmp_path / f"polls{suffix}"
        path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
        byte = "0x80" if bom else "0xc3"
        with pytest.raises(trace.TraceInputError, match=f": line {line} holds byte {byte},"):
            trace.parse_polls(path)

    def test_truncated_gzip_names_the_lines_read(self, tmp_path):
        path = tmp_path / "polls.csv.gz"
        data = gzip.compress(b"".join(b"%d,AP1,u1,5\n" % (100 + i) for i in range(20000)))
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(trace.TraceInputError, match="Compressed file ended") as got:
            trace.parse_polls(path)
        lines = re.search(r"polls\.csv\.gz after line (\d+): ", str(got.value))
        assert lines and 0 < int(lines.group(1)) < 20000

    def test_truncated_gzip_with_a_bad_byte_in_its_cut_line(self, tmp_path):
        # the second pass cannot reach the end of that line, so the
        # decoder's own message is given
        path = tmp_path / "polls.csv.gz"
        data = gzip.compress(b"".join(b"%d,AP1,u1,5\n" % (100 + i) for i in range(3000))
                             + b"999,AP\xff" + b"x" * 100000)
        path.write_bytes(data[:-20])
        with pytest.raises(trace.TraceInputError,
                           match=r"after line \d+: 'utf-8' codec can't decode byte 0xff"):
            trace.parse_polls(path)

    def test_records_are_numbered_as_csv_rows(self):
        # a quoted field spanning two lines is one record, so the record
        # number of a later reject runs one behind its line number
        text = 'timestamp,ap,user,packets\n100,"AP\n1",u1,5\nbad\n200,AP2,u2,1\n'
        records, rejects = trace.parse_polls(io.StringIO(text))
        assert [r.ap for r in records] == ["AP\n1", "AP2"]
        assert rejects == [(3, "bad", "expected 4 fields, got 1")]


#: Field texts of generated poll files: each one parses, fails a
#: conversion, or fails a range check.
TIMES = ["1073293200", "1073293500.25", " 1073293800 ", "1_073_294_100", "1.0737e9",
         "\u0661\u0660\u0667\u0663\u0662\u0669\u0663\u0662\u0660\u0660", "-62135596800",
         "nan", "inf", "-inf", "1e12", "-62135596801", "abc", "", "1073293200 x"]
PACKETS = ["0", "5", " 7 ", "1_0", str(2 ** 63 - 1), str(2 ** 63), "-3", str(-2 ** 63 - 1),
           "1.5", "x", ""]
NAMES = ["AP1", " AP2 ", "u1", "u 2", "\u00fc", "AP,3", 'q"x', "a\nb", "", "\u03a9"]


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


@st.composite
def poll_texts(draw):
    """Poll files as text: an optional header, rows with good and bad
    fields, names that need quotes (one spans two lines), blank lines,
    wrong field counts and, rarely, a carriage return inside a field;
    LF, CRLF or CR line ends, or a mix."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["timestamp,ap,user,packets", " Timestamp ,x",
                                           "timestamp"])))
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long", "quoted", "cr"]))
        row = [draw(st.sampled_from(TIMES)), _csv_field(draw(st.sampled_from(NAMES))),
               _csv_field(draw(st.sampled_from(NAMES))), draw(st.sampled_from(PACKETS))]
        if kind == "blank":
            row = []
        elif kind == "short":
            row = row[:3]
        elif kind == "long":
            row.append("9")
        elif kind == "quoted":
            row[0] = f'"{row[0]}"'
        elif kind == "cr" and draw(st.integers(0, 4)) == 0:
            row[1] += "\rX"
        lines.append(",".join(row))
    style = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed" else style
            for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def assert_parses_as_reference(source, reference_source):
    try:
        expected, expected_rejects = ref.parse_polls(reference_source)
    except trace.TraceInputError as exc:
        with pytest.raises(trace.TraceInputError) as got:
            trace.parse_polls(source)
        assert str(got.value) == str(exc)
        return
    table, rejects = trace.parse_polls(source)
    assert rejects == expected_rejects
    assert (table.aps, table.users) == (expected.aps, expected.users)
    assert table.t.tobytes() == expected.t.tobytes()
    for got, want in ((table.ap, expected.ap), (table.user, expected.user),
                      (table.packets, expected.packets)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestParserAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(poll_texts(), st.sampled_from(["stream", "raw stream", "file", "gzip"]))
    def test_equals_row_reader(self, tmp_path_factory, text, source):
        if source == "stream":
            sources = io.StringIO(text), io.StringIO(text)
        elif source == "raw stream":   # as the csv docs advise: lines also end at a lone CR
            sources = io.StringIO(text, newline=""), io.StringIO(text, newline="")
        else:
            path = tmp_path_factory.mktemp("polls") / ("polls.csv.gz" if source == "gzip"
                                                       else "polls.csv")
            data = text.encode("utf-8")
            path.write_bytes(gzip.compress(data) if source == "gzip" else data)
            sources = path, (gzip.open if source == "gzip" else open)(path, "rt",
                                                                      encoding="utf-8")
        assert_parses_as_reference(*sources)
        if "stream" not in source:
            sources[1].close()

    def test_long_file_equals_row_reader(self):
        # 15,000 records: quoted records spanning two lines, short rows,
        # and packets beyond int64
        lines = ["timestamp,ap,user,packets\n"]
        for i in range(15000):
            t = 1073293200 + i
            if i % 4 == 1:
                lines += [f'{t},"AP\n', f'{i % 5}",u{i % 13},1\n']
            elif i % 11 == 4:
                lines.append(f"{t},AP{i % 5}\n")
            else:
                lines.append(f"{t},AP{i % 5},u{i % 13},{2 ** 63 if i == 5000 else i % 9}\n")
        text = "".join(lines)
        assert_parses_as_reference(io.StringIO(text), io.StringIO(text))


class TestFilterWindow:
    def test_weekend_removed(self):
        sat = datetime(2004, 1, 10, 10, 0, tzinfo=timezone.utc).timestamp()
        records = [trace.PollRecord(sat, "AP1", "u1", 1)] + polls([(0, "AP1", "u1")])
        table = poll_table(records)
        kept = trace.filter_window(table, CFG)
        assert len(kept) == 1
        # a step that drops rows makes a new table and leaves its input alone
        assert kept is not table and len(table) == 2

    def test_keeping_every_row_returns_the_input(self):
        table = poll_table(polls([(0, "AP1", "u1"), (1, "AP2", "u1"), (95, "AP1", "u2")]))
        assert trace.filter_window(table, CFG) is table

    def test_nine_sharp_kept_five_pm_dropped(self):
        at9 = trace.PollRecord(MON9, "AP1", "u1", 1)
        at17 = trace.PollRecord(MON9 + 8 * 3600, "AP1", "u1", 1)
        kept = trace.filter_window(poll_table([at9, at17]), CFG)
        assert list(kept) == [at9]

    def test_excluded_holiday_range(self):
        cfg = trace.PreprocessConfig(poll_cadence=CAD,
                                     excluded_date_ranges=(("2004-01-05", "2004-01-06"),))
        records = polls([(0, "AP1", "u1")])
        assert len(trace.filter_window(poll_table(records), cfg)) == 0


class TestFilterInvalidDays:
    def _day(self, day_offset, n_records, ap="AP1"):
        base = MON9 + day_offset * 86400.0
        return [trace.PollRecord(base + i * CAD, ap, f"u{i}", 1) for i in range(n_records)]

    def test_equal_days_untouched(self):
        records = self._day(0, 10) + self._day(1, 10) + self._day(2, 10)
        table = poll_table(records)
        out, removed = trace.filter_invalid_days(table, CFG, CAD)
        assert out is table
        assert sorted(out) == sorted(records)
        assert removed == {}

    def test_low_day_removed(self):
        records = self._day(0, 30) + self._day(1, 30) + self._day(2, 3)   # 3 < avg 21 / 3
        table = poll_table(records)
        out, removed = trace.filter_invalid_days(table, CFG, CAD)
        assert removed == {"AP1": ["2004-01-07"]}
        assert len(out) == 60
        assert out is not table and len(table) == 63

    def test_single_pass_semantics(self):
        # second application of the filter to its own output may remove more
        # days only because the average is recomputed; on this data it is a
        # fixed point
        records = self._day(0, 30) + self._day(1, 30) + self._day(2, 3)
        out, _ = trace.filter_invalid_days(poll_table(records), CFG, CAD)
        out2, removed2 = trace.filter_invalid_days(out, CFG, CAD)
        assert list(out2) == list(out) and removed2 == {}

    def test_per_ap_independent(self):
        records = self._day(0, 30, "AP1") + self._day(1, 30, "AP1") \
            + self._day(0, 2, "AP2") + self._day(1, 2, "AP2")
        _, removed = trace.filter_invalid_days(poll_table(records), CFG, CAD)
        assert removed == {}


class TestResolveMultiAssociation:
    def test_packet_majority_wins(self):
        records = polls([(i, "APA", "u1", 60) for i in range(3)]
                        + [(i, "APB", "u1", 20) for i in range(3)])
        out = trace.resolve_multi_association(poll_table(records), CFG, CAD)
        assert [r.ap for r in out] == ["APA"] * 3
        # packets merged, user-time conserved
        assert [r.packets for r in out] == [80] * 3

    def test_tie_breaks_to_earliest_attachment(self):
        # APA and APC tie on packets over the period; APA attached first
        records = polls([(0, "APA", "u1", 5), (0, "APB", "u1", 3),
                         (1, "APA", "u1", 5), (1, "APB", "u1", 2),
                         (1, "APC", "u1", 10)])
        out = trace.resolve_multi_association(poll_table(records), CFG, CAD)
        assert [r.ap for r in out] == ["APA", "APA"]

    def test_equal_packets_equal_start_lexicographic(self):
        records = polls([(0, "APB", "u1", 30), (0, "APA", "u1", 30)])
        out = trace.resolve_multi_association(poll_table(records), CFG, CAD)
        assert [r.ap for r in out] == ["APA"]

    def test_short_absence_bridged(self):
        # leave for 4 minutes (absence 240 s < 300 s) with 60 s cadence
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        t0 = MON9
        records = [trace.PollRecord(t0 + i * cad, "APA", "u1", 1) for i in range(3)]
        records += [trace.PollRecord(t0 + 2 * cad + 240.0 + i * cad, "APA", "u1", 1)
                    for i in range(3)]
        out = trace.resolve_multi_association(poll_table(records), cfg, cad)
        times = [r.timestamp for r in out]
        assert len(out) == 6 + 3   # three padded epochs
        assert all(b - a == cad for a, b in zip(times, times[1:]))

    def test_pingpong_excursion_reassigned(self):
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        entries = [(i, "APA", "u1") for i in range(3)] \
            + [(3, "APB", "u1"), (4, "APB", "u1")] \
            + [(i, "APA", "u1") for i in range(5, 8)]
        records = [trace.PollRecord(MON9 + i * cad, ap, u, 10) for i, ap, u in entries]
        out = trace.resolve_multi_association(poll_table(records), cfg, cad)
        assert all(r.ap == "APA" for r in out)

    def test_distinct_users_untouched(self):
        records = polls([(0, "APA", "u1"), (0, "APB", "u2")])
        assert sorted(trace.resolve_multi_association(poll_table(records), CFG, CAD)) == records


class TestPadGaps:
    def test_eight_minute_absence_padded_same_ap(self):
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        records = [trace.PollRecord(MON9, "APA", "u1", 1),
                   trace.PollRecord(MON9 + 480.0, "APA", "u1", 1)]
        out = trace.pad_gaps(poll_table(records), cfg, cad)
        assert len(out) == 2 + 7
        assert all(r.ap == "APA" for r in out)

    def test_twelve_minute_absence_not_padded(self):
        records = [trace.PollRecord(MON9, "APA", "u1", 1),
                   trace.PollRecord(MON9 + 720.0, "APA", "u1", 1)]
        assert list(trace.pad_gaps(poll_table(records), CFG, CAD)) == records

    def test_reappearing_ap_gets_the_gap(self):
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        records = [trace.PollRecord(MON9, "APA", "u1", 1),
                   trace.PollRecord(MON9 + 480.0, "APB", "u1", 1)]
        out = trace.pad_gaps(poll_table(records), cfg, cad)
        padded = [r for r in out if MON9 < r.timestamp < MON9 + 480.0]
        assert padded and all(r.ap == "APB" for r in padded)


class TestClassifyOpenClosed:
    def test_eight_hours_is_closed(self):
        records = polls([(i, "AP1", "heavy") for i in range(96)])   # 96*300 s = 8 h
        open_u, closed_u, frac = trace.classify_open_closed(poll_table(records), CFG, CAD)
        assert closed_u == {"heavy"} and frac == 1.0

    def test_two_hours_daily_is_open(self):
        records = []
        for d in range(3):
            records += [trace.PollRecord(MON9 + d * 86400 + i * CAD, "AP1", "u1", 1)
                        for i in range(24)]   # 2 h per day
        open_u, closed_u, frac = trace.classify_open_closed(poll_table(records), CFG, CAD)
        assert open_u == {"u1"} and not closed_u and frac == 0.0

    def test_fraction(self):
        records = polls([(i, "AP1", "heavy") for i in range(96)]
                        + [(0, "AP1", "a"), (0, "AP2", "b"), (1, "AP1", "c")])
        _, closed_u, frac = trace.classify_open_closed(poll_table(records), CFG, CAD)
        assert closed_u == {"heavy"} and frac == 0.25


class TestExtractSessions:
    def test_single_stage_session(self):
        records = polls([(i, "AP1", "u1") for i in range(1, 5)])   # 20 min presence
        sessions, table = trace.extract_sessions(poll_table(records), CFG, CAD)
        assert table == Counter({1: 1})
        (s,) = sessions
        ap, entry, exit_ = s.stages[0]
        assert ap == "AP1"
        assert exit_ - entry == pytest.approx(4 * CAD)   # half-cadence each side

    def test_two_stage_session(self):
        records = polls([(i, "APA", "u1") for i in range(2)]
                        + [(i, "APB", "u1") for i in range(2, 4)])
        sessions, table = trace.extract_sessions(poll_table(records), CFG, CAD)
        assert table == Counter({2: 1})
        (s,) = sessions
        assert [st[0] for st in s.stages] == ["APA", "APB"]
        # stages contiguous: exit of first == entry of second
        assert s.stages[0][2] == pytest.approx(s.stages[1][1])

    def test_long_gap_splits_sessions(self):
        records = polls([(0, "AP1", "u1"), (1, "AP1", "u1"),
                         (10, "AP1", "u1"), (11, "AP1", "u1")])   # 45 min apart
        sessions, table = trace.extract_sessions(poll_table(records), CFG, CAD)
        assert table == Counter({1: 2})
        assert len(sessions) == 2

    def test_stages_never_overlap(self):
        records = polls([(i, "APA", "u1") for i in range(3)]
                        + [(i, "APB", "u1") for i in range(3, 5)]
                        + [(i, "APA", "u1") for i in range(5, 8)])
        sessions, _ = trace.extract_sessions(poll_table(records), CFG, CAD)
        for s in sessions:
            for (_, _, x1), (_, e2, _) in zip(s.stages, s.stages[1:]):
                assert e2 >= x1 - 1e-9

    def test_clamped_at_window_boundaries(self):
        records = polls([(0, "AP1", "u1"), (95, "AP1", "u1")])   # first and last epoch
        sessions, _ = trace.extract_sessions(poll_table(records), CFG, CAD)
        first, last = sessions   # 475 min apart: two sessions
        assert first.stages[0][1] == MON9          # entry clamped to window start
        assert last.stages[0][2] <= MON9 + 8 * 3600 + 1e-9


class TestEstimateCellParams:
    def test_arithmetic_example(self):
        # 96 stage entries over 6 observed days (48 h), mean hold 0.5 h:
        # arrival rate 2 per hour, occupancy mean 1.0
        sessions = []
        for i in range(96):
            e = MON9 + (i % 12) * 600.0
            sessions.append(trace.SessionRecord(f"u{i}", (("AP1", e, e + 1800.0),)))
        sessions = trace.StageTable.from_sessions(sessions)
        ap_days = {"AP1": {"2004-01-05", "2004-01-06", "2004-01-07",
                           "2004-01-08", "2004-01-09", "2004-01-12"}}
        est, _series = trace.estimate_cell_params(sessions, CFG, ap_days)
        e = est["AP1"]
        assert e.arrival_rate * 3600 == pytest.approx(2.0)
        assert e.hold_mean == pytest.approx(1800.0)
        assert e.poisson_mean == pytest.approx(1.0)
        assert e.entries == 96 and e.new_arrivals == 96
        assert e.observed_time == pytest.approx(48 * 3600.0)

    def test_no_sessions_error(self):
        with pytest.raises(ValueError):
            trace.estimate_cell_params(trace.StageTable.from_sessions([]), CFG, {})

    def test_arrival_series_counts_first_stages(self):
        sessions = trace.StageTable.from_sessions([
            trace.SessionRecord("u1", (("AP1", MON9 + 10, MON9 + 700),
                                       ("AP2", MON9 + 700, MON9 + 1400))),
            trace.SessionRecord("u2", (("AP1", MON9 + 4000, MON9 + 5000),)),
        ])
        ap_days = {"AP1": {"2004-01-05"}, "AP2": {"2004-01-05"}}
        series = trace.arrival_series(sessions, CFG, ap_days)
        assert series["AP1"] == [1, 1, 0, 0, 0, 0, 0, 0]
        assert series["AP2"] == [0] * 8


class TestExclusionModes:
    def _sessions(self):
        return trace.StageTable.from_sessions([
            trace.SessionRecord("u1", (("BAD", MON9, MON9 + 600), ("AP1", MON9 + 600, MON9 + 1200))),
            trace.SessionRecord("u2", (("AP1", MON9, MON9 + 600), ("BAD", MON9 + 600, MON9 + 1200))),
            trace.SessionRecord("u3", (("AP1", MON9, MON9 + 600),)),
        ])

    def test_mode3_identity(self):
        sessions = self._sessions()
        out, excluded = trace.exclusion_modes(sessions, {"BAD"}, 3)
        assert list(out) == list(sessions) and excluded == set()

    def test_mode1_drops_sessions_starting_at_invalid(self):
        out, excluded = trace.exclusion_modes(self._sessions(), {"BAD"}, 1)
        assert [s.user for s in out] == ["u2", "u3"] and excluded == set()

    def test_mode2_marks_aps_keeps_sessions(self):
        sessions = self._sessions()
        out, excluded = trace.exclusion_modes(sessions, {"BAD"}, 2)
        assert list(out) == list(sessions) and excluded == {"BAD"}

    def test_one_stage_toggle(self):
        out, _ = trace.exclusion_modes(self._sessions(), set(), 3, exclude_one_stage=True)
        assert [s.user for s in out] == ["u1", "u2"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            trace.exclusion_modes(trace.StageTable.from_sessions([]), set(), 0)


class TestOccupancySnapshots:
    def test_counts_at_epochs(self):
        sessions = trace.StageTable.from_sessions([
            trace.SessionRecord("u1", (("AP1", 0.0, 600.0),)),
            trace.SessionRecord("u2", (("AP1", 300.0, 900.0), ("AP2", 900.0, 1200.0))),
        ])
        snaps = trace.occupancy_snapshots(sessions, ["AP1", "AP2"], [0.0, 300.0, 600.0, 900.0])
        assert snaps.dtype == np.int64
        assert snaps.tolist() == [[1, 0], [2, 0], [1, 0], [0, 1]]


@st.composite
def session_lists(draw):
    """Sessions of one to three stages whose user and AP names may need
    quotes in a CSV file."""
    names = st.sampled_from(NAMES + ["AP\r1", "x y,z", '""'])
    times = st.floats(-1e10, 1e10, allow_subnormal=False)
    return [trace.SessionRecord(draw(names), tuple(
        (draw(names), draw(times), draw(times)) for _ in range(draw(st.integers(1, 3)))))
        for _ in range(draw(st.integers(0, 6)))]


class TestStageTable:
    @settings(max_examples=100, deadline=None)
    @given(session_lists())
    def test_rows_and_sessions_csv_equal_reference(self, tmp_path_factory, records):
        table = trace.StageTable.from_sessions(records)
        assert list(table) == records and len(table) == len(records)
        out = tmp_path_factory.mktemp("sessions")
        trace.write_sessions_csv(table, out / "got.csv")
        ref.write_sessions_csv(records, out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_take_numbers_sessions_again(self):
        records = [trace.SessionRecord(f"u{i}", (("AP1", i, i + 1.0),) * (i % 2 + 1))
                   for i in range(4)]
        kept = trace.StageTable.from_sessions(records).take(np.array([False, True, False, True]))
        assert kept.session.tolist() == [0, 0, 1, 1] and list(kept) == records[1::2]


def demo_spec():
    # holding times are multiples of the 300 s cadence and comfortably above
    # the ping-pong threshold, so the pipeline recovers stages exactly
    law1 = model.DiscreteSessionLaw(
        (0.4, 0.6), (((1.0, (1200.0,)),), ((0.5, (900.0, 600.0)), (0.5, (1500.0, 900.0)),)))
    law2 = model.DiscreteSessionLaw((1.0,), (((1.0, (1800.0,)),),))
    return model.NetworkSpec(3, (
        model.RouteSpec(model.Route((1, 2)), 1 / 400.0, law1),
        model.RouteSpec(model.Route((3,)), 1 / 600.0, law2),
    ))


class TestFixtureRoundTrip:
    def test_stage_counts_and_params_recovered(self):
        records, truth = cli.generate_fixture(demo_spec(), seed=5, days=3,
                                              closed_users=2)
        result = trace.run_pipeline(records, CFG)
        got = {str(k): v for k, v in sorted(result.stage_table.items())}
        assert got == truth["stage_table"]
        assert result.closed_fraction == pytest.approx(truth["closed_fraction"])
        assert sorted(result.closed_users) == truth["closed_users"]
        for ap, t in truth["per_ap"].items():
            e = result.estimates[ap]
            assert e.entries == t["entries"]
            assert e.new_arrivals == t["new_arrivals"]
            assert e.hold_mean == pytest.approx(t["hold_mean"], rel=1e-9)
            assert e.arrival_rate == pytest.approx(t["arrival_rate"], rel=1e-9)

    def test_bursty_ap_fails_poisson_test(self):
        records, truth = cli.generate_fixture(demo_spec(), seed=6, days=15,
                                              bursty_cell=3, burst_size=10,
                                              bursts_per_day=4.0)
        result = trace.run_pipeline(records, CFG)
        burst_ap = truth["bursty_aps"][0]
        assert result.validity[burst_ap].poisson.passed is False
        assert burst_ap in result.invalid_aps

    def test_user_time_conserved_through_resolution(self):
        records, _ = cli.generate_fixture(demo_spec(), seed=7, days=2)
        resolved = trace.resolve_multi_association(records, CFG, CAD)
        # unique users never multi-associate in the fixture: count preserved
        assert len(resolved) == len(records)


# ---------------------------------------------------------------------------
# the columnar pipeline against the row-at-a-time reference
# ---------------------------------------------------------------------------

MON0 = MON9 - 9 * 3600.0   # Monday 2004-01-05 00:00 UTC


class TestUtcDays:
    def test_window_edges(self):
        cfg = trace.PreprocessConfig(poll_cadence=CAD)
        times = [MON9 - 1e-3, MON9, MON9 + 8 * 3600 - 1e-3, MON9 + 8 * 3600]
        records = [trace.PollRecord(t, "AP1", "u1", 1) for t in times]
        kept = [r.timestamp for r in trace.filter_window(poll_table(records), cfg)]
        assert kept == [MON9, MON9 + 8 * 3600 - 1e-3]

    def test_microsecond_rounding(self):
        # one float step below 09:00 is 0.24 us early: it rounds to 09:00:00
        # and is kept; 1.2 us early rounds to 08:59:59.999999 and is dropped
        just_below = float(np.nextafter(MON9, 0.0))
        early = MON9 - 1.2e-6
        records = [trace.PollRecord(t, "AP1", "u1", 1) for t in (just_below, early)]
        kept = [r.timestamp for r in trace.filter_window(poll_table(records), CFG)]
        assert kept == [just_below]
        assert [r.timestamp for r in ref.filter_window(records, CFG)] == kept

    def test_rounding_carries_into_the_next_day(self):
        saturday = MON0 + 5 * 86400.0
        friday_late = float(np.nextafter(saturday, 0.0))
        days = trace.observed_days(poll_table([trace.PollRecord(friday_late, "AP1", "u1", 1)]))
        assert days == {"AP1": {"2004-01-10"}}

    @given(st.one_of(
        st.floats(min_value=-6.2e10, max_value=2.5e11, allow_nan=False),
        st.builds(lambda day, tenth_micros: day * 86400.0 + tenth_micros * 1e-7,
                  st.integers(-10_000, 100_000), st.integers(-12, 12))))
    def test_day_and_second_match_datetime(self, t):
        day, second = trace._utc_days([t])
        dt = datetime.fromtimestamp(t, tz=timezone.utc)
        assert trace._iso(int(day[0])) == dt.date().isoformat()
        assert (int(day[0]) + 3) % 7 == dt.weekday()
        assert second[0] == dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6


@st.composite
def poll_lists(draw, cadence):
    """Random polls over one Monday-to-Saturday week: up to four users at up
    to four APs, with multi-association epochs (sometimes a repeated row),
    missed polls, off-grid timestamps, rows before and after the working
    window, weekend rows and, sometimes, a closed user."""
    records = []
    lo, hi = int(8.5 * 3600 // cadence), int(17.5 * 3600 // cadence)
    for u in range(draw(st.integers(1, 4))):
        day = draw(st.sampled_from([0, 1, 4, 5]))
        k = draw(st.integers(lo, hi))
        for _ in range(draw(st.integers(1, 25))):
            k += draw(st.sampled_from([1, 1, 1, 1, 2, 3, 4, 5, 12]))
            t = MON0 + day * 86400.0 + k * cadence + draw(st.sampled_from([0.0, 0.0, 0.0, 7.5]))
            for ap in draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3)):
                records.append(trace.PollRecord(t, "AP" + ap, f"u{u}", draw(st.integers(0, 9))))
    if draw(st.booleans()):
        n = int(8 * 3600 // cadence)
        records += [trace.PollRecord(MON9 + i * cadence, "APA", "closed", 1) for i in range(n)]
    return records


def assert_same_rows(got, expected):
    assert isinstance(got, trace.PollTable)
    assert sorted(got) == sorted(expected)


def assert_steps_match(records, cfg, cadence):
    """Every step, fed the reference's input, equals the reference step."""
    window = ref.filter_window(records, cfg)
    assert_same_rows(trace.filter_window(poll_table(records), cfg), window)
    valid, removed = ref.filter_invalid_days(window, cfg, cadence)
    got, got_removed = trace.filter_invalid_days(poll_table(window), cfg, cadence)
    assert_same_rows(got, valid)
    assert got_removed == removed
    resolved = ref.resolve_multi_association(valid, cfg, cadence)
    assert_same_rows(trace.resolve_multi_association(poll_table(valid), cfg, cadence), resolved)
    padded = ref.pad_gaps(resolved, cfg, cadence)
    assert_same_rows(trace.pad_gaps(poll_table(resolved), cfg, cadence), padded)
    classes = ref.classify_open_closed(padded, cfg, cadence)
    assert trace.classify_open_closed(poll_table(padded), cfg, cadence) == classes
    sessions, stage_table = trace.extract_sessions(poll_table(padded), cfg, cadence,
                                                   users=classes[0])
    assert ((list(sessions), stage_table)
            == ref.extract_sessions(padded, cfg, cadence, users=classes[0]))
    assert trace.observed_days(poll_table(padded)) == ref.observed_days(padded)


def assert_pipelines_match(records, cfg):
    try:
        expected = ref.run_pipeline(records, cfg)
    except ValueError:
        with pytest.raises(ValueError):
            trace.run_pipeline(poll_table(records), cfg)
        return
    got = trace.run_pipeline(poll_table(records), cfg)
    assert got.cadence == expected.cadence
    assert got.removed_days == expected.removed_days
    assert (got.open_users, got.closed_users, got.closed_fraction) == \
        (expected.open_users, expected.closed_users, expected.closed_fraction)
    assert list(got.sessions) == expected.sessions
    assert got.stage_table == expected.stage_table
    assert got.estimates == expected.estimates
    assert got.arrival_series == expected.arrival_series
    assert got.ap_days == expected.ap_days


class TestAgainstReference:
    @pytest.mark.parametrize("cadence", [60.0, 300.0])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pipeline_equals_reference(self, cadence, data):
        records = data.draw(poll_lists(cadence))
        cfg = trace.PreprocessConfig(poll_cadence=cadence)
        assert_steps_match(records, cfg, cadence)
        assert_pipelines_match(records, cfg)

    @settings(max_examples=40, deadline=None)
    @given(poll_lists(60.0))
    def test_inferred_cadence_equals_reference(self, records):
        try:
            expected = ref.infer_cadence(records)
        except ValueError:
            with pytest.raises(trace.TraceInputError, match="cannot infer poll cadence"):
                trace.infer_cadence(poll_table(records))
        else:
            assert trace.infer_cadence(poll_table(records)) == expected
        assert_pipelines_match(records, trace.PreprocessConfig())

    def test_fixture_pipeline_equals_reference(self):
        records, _ = cli.generate_fixture(demo_spec(), seed=6, days=4, closed_users=2,
                                          bursty_cell=3, burst_size=10, bursts_per_day=4.0)
        assert_pipelines_match(list(records), CFG)

    def test_occupancy_equals_reference(self):
        records, _ = cli.generate_fixture(demo_spec(), seed=2, days=2)
        sessions = trace.run_pipeline(records, CFG).sessions
        epochs = sorted({r.timestamp for r in records})
        aps = ["AP001", "AP003"]
        assert ([tuple(row) for row in trace.occupancy_snapshots(sessions, aps, epochs).tolist()]
                == ref.occupancy_snapshots(list(sessions), aps, epochs))


def _busy_spec():
    """``demo_spec`` at 20 times its arrival rates: about 13,000 polls a day."""
    return model.NetworkSpec(3, tuple(model.RouteSpec(rs.route, rs.arrival_rate * 20, rs.law)
                                      for rs in demo_spec().routes))


class TestOneTableAtATime:
    """``run_pipeline`` keeps one poll table alive at a time."""

    @pytest.mark.parametrize("held", [False, True])
    def test_parsed_table_freed_before_extract_sessions(self, tmp_path, monkeypatch, held):
        polls_, _ = cli.generate_fixture(demo_spec(), seed=5, days=2, closed_users=2)
        cli.write_polls_csv(polls_, tmp_path / "polls.csv")
        table, _ = trace.parse_polls(tmp_path / "polls.csv")
        parsed = weakref.ref(table)
        alive = []
        extract = trace.extract_sessions
        monkeypatch.setattr(trace, "extract_sessions", lambda *a, **kw: (
            alive.append(parsed() is not None), extract(*a, **kw))[1])
        handed = [table]
        if not held:
            del table
        trace.run_pipeline(handed.pop(), CFG)
        # the closed users' rows go before extraction, so a new table replaces
        # the parsed one, which only a caller that holds it keeps alive
        assert alive == [held]

    def test_peak_bytes_per_poll(self, tmp_path):
        polls_, _ = cli.generate_fixture(_busy_spec(), seed=3, days=1, closed_users=3,
                                         bursty_cell=3)
        cli.write_polls_csv(polls_, tmp_path / "polls.csv")
        n = len(polls_)
        del polls_
        tracemalloc.start()
        try:
            table, _ = trace.parse_polls(tmp_path / "polls.csv")
            handed = [table]
            del table
            trace.run_pipeline(handed.pop(), CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 117 B per poll over 12,878 polls (Python 3.11, numpy 2.4),
        # bounded with a 20 % margin; keeping every step's table took 222
        assert peak / n <= 140


@st.composite
def histories(draw):
    """Per-user poll histories at a 60 s cadence over three APs, where
    excursions, absences and multi-association epochs are common."""
    records, k = [], 0
    for _ in range(draw(st.integers(1, 40))):
        k += draw(st.sampled_from([0, 1, 1, 1, 2, 3, 4, 5, 6]))
        records.append(trace.PollRecord(MON9 + k * 60.0, draw(st.sampled_from("ABC")),
                                        draw(st.sampled_from(["u1", "u2"])),
                                        draw(st.integers(0, 5))))
    return records


class TestPingPongFold:
    @settings(max_examples=300, deadline=None)
    @given(histories(), st.sampled_from([60.0, 120.0, 300.0, 600.0]))
    def test_equals_restarting_oracle(self, records, limit):
        cfg = trace.PreprocessConfig(poll_cadence=60.0, pingpong_return=limit)
        assert_same_rows(trace.resolve_multi_association(poll_table(records), cfg, 60.0),
                         ref.resolve_multi_association(records, cfg, 60.0))

    def test_adversarial_history_is_linear(self):
        # 8,000 polls at distinct APs, then 8,000 alternating between two
        # APs: every excursion folds, and a scan that restarts after each
        # fold walks the 8,000 distinct runs again each time
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        records = [trace.PollRecord(MON9 + i * cad, f"AP{i:05d}", "u1", 1) for i in range(8000)]
        records += [trace.PollRecord(MON9 + (8000 + i) * cad, "APA" if i % 2 == 0 else "APB",
                                     "u1", 1) for i in range(8000)]
        counts = {}
        start = time.perf_counter()
        out = trace.resolve_multi_association(poll_table(records), cfg, cad, counts=counts)
        assert time.perf_counter() - start < 2.0
        assert len(out) == 16000
        assert counts == {"multi_association_merged": 0, "pingpong_filled": 0,
                          "pingpong_reassigned": 3999}
        assert [r.ap for r in out][8000:] == ["APA"] * 7999 + ["APB"]

    def test_counts(self):
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        entries = [(0, "APA"), (0, "APB"), (1, "APA"), (2, "APC"), (3, "APA"), (6, "APA")]
        records = [trace.PollRecord(MON9 + i * cad, ap, "u1", 1) for i, ap in entries]
        counts = {}
        out = trace.resolve_multi_association(poll_table(records), cfg, cad, counts=counts)
        assert counts == {"multi_association_merged": 1, "pingpong_filled": 2,
                          "pingpong_reassigned": 1}
        assert [(r.timestamp - MON9, r.ap) for r in out] == [
            (i * cad, "APA") for i in range(7)]


class TestIdempotence:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([60.0, 300.0]).flatmap(
        lambda cad: st.tuples(st.just(cad), poll_lists(cad))))
    def test_table_steps(self, case):
        cadence, records = case
        cfg = trace.PreprocessConfig(poll_cadence=cadence)
        table = poll_table(records)
        window = trace.filter_window(table, cfg)
        assert list(trace.filter_window(window, cfg)) == list(window)
        padded = trace.pad_gaps(table, cfg, cadence)
        assert list(trace.pad_gaps(padded, cfg, cadence)) == list(padded)
        classes = trace.classify_open_closed(padded, cfg, cadence)
        assert trace.classify_open_closed(padded, cfg, cadence) == classes

    def test_fold_keeps_the_absences_around_an_excursion(self):
        # APA, one poll at APB two cadences later, APA two cadences after
        # that: the excursion is reassigned but the absences stay, so a second
        # pass fills them as same-AP absences (the reference does the same)
        cad = 60.0
        cfg = trace.PreprocessConfig(poll_cadence=cad)
        records = [trace.PollRecord(MON9 + i * cad, ap, "u1", 1)
                   for i, ap in ((0, "APA"), (2, "APB"), (4, "APA"))]
        once = trace.resolve_multi_association(poll_table(records), cfg, cad)
        twice = trace.resolve_multi_association(once, cfg, cad)
        assert [r.timestamp - MON9 for r in once] == [0.0, 120.0, 240.0]
        assert [r.timestamp - MON9 for r in twice] == [0.0, 60.0, 120.0, 180.0, 240.0]
        assert_same_rows(twice, ref.resolve_multi_association(
            ref.resolve_multi_association(records, cfg, cad), cfg, cad))
