"""Polling-log ingestion and the preprocessing/session-extraction pipeline.

Input is a CSV of poll records (timestamp, ap, user, packets): every poll
cadence (5 minutes in the classic WLAN logs) each AP reports the users
attached to it. The pipeline turns these point samples into per-user
sessions and per-AP model parameters:

    parse -> filter_window -> filter_invalid_days -> resolve_multi_association
          -> pad_gaps -> classify_open_closed -> extract_sessions

Records travel between the steps as one columnar ``PollTable`` (defined in
``multicell.polls``), and sessions leave as one ``StageTable``. Each step
is deterministic. ``filter_window`` and ``pad_gaps`` are idempotent on
their own output. ``filter_invalid_days`` is deliberately single-pass (the
per-AP average is computed once, before any removal).
``resolve_multi_association`` is not idempotent: a folded ping-pong
excursion keeps the absences around it, and a second pass fills them.

Days are UTC days. A timestamp is first rounded to the microsecond, half to
even (as ``datetime.fromtimestamp`` does); its day index is then
floor(t / 86400), its weekday (day + 3) mod 7 with Monday = 0, and its
second of day t - 86400 day.

Decisions the source material leaves open are recorded in
``PREPROCESSING_NOTES`` and echoed into every pipeline report.
"""

from __future__ import annotations

import csv
import gzip
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import date

import numpy as np

# PollRecord is here for callers: the rows a PollTable yields
from .polls import PollRecord, PollTable, PreprocessConfig, csv_fields, distinct
from .sim import interval_counts
from .stats import TestReport, independence_test, poisson_dist_test

PREPROCESSING_NOTES = (
    "gap padding assigns the missing interval to the AP of reappearance",
    "per-AP invalid-day filtering is single-pass: the across-days average is "
    "computed once before any day is removed",
    "an AP's daily service time is the summed user-attachment time (poll "
    "count times cadence), not AP uptime",
    "multiple-association ties break by packet count, then earliest "
    "attachment, then lexicographic AP id",
    "attachment intervals extend half a poll cadence on each side of the "
    "observed polls, so durations that are whole multiples of the cadence "
    "are recovered exactly",
    "sessions are truncated at the working-window boundary",
)

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
#: Timestamps of 0001-01-01 and 10000-01-01 UTC: the dates an ISO day can name.
_TS_MIN, _TS_MAX = -62135596800.0, 253402300800.0
_INT64_MAX = 2 ** 63 - 1


class TraceInputError(ValueError):
    """The poll records cannot yield a result; the message says why."""


@dataclass(frozen=True)
class SessionRecord:
    user: str
    stages: tuple[tuple[str, float, float], ...]   # (ap, entry, exit)


@dataclass(frozen=True, eq=False)
class StageTable:
    """Sessions as stage rows, in session then stage order.

    ``session`` numbers each stage's session from 0, ``ap`` codes its AP
    into ``aps``, and ``entry`` and ``exit`` are float64 times; ``user``
    holds one code into ``users`` per session. The name tuples are sorted,
    so code order is name order. Iteration yields ``SessionRecord`` rows.
    """
    session: np.ndarray
    ap: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    user: np.ndarray
    aps: tuple[str, ...]
    users: tuple[str, ...]

    @classmethod
    def from_sessions(cls, records) -> StageTable:
        """A table from ``SessionRecord`` rows, each with at least one stage."""
        records = list(records)
        stages = [stage for r in records for stage in r.stages]
        aps = tuple(sorted({ap for ap, _, _ in stages}))
        users = tuple(sorted({r.user for r in records}))
        ap_code = {name: i for i, name in enumerate(aps)}
        user_code = {name: i for i, name in enumerate(users)}
        return cls(np.repeat(np.arange(len(records)), [len(r.stages) for r in records]),
                   np.array([ap_code[ap] for ap, _, _ in stages], dtype=np.intp),
                   np.array([e for _, e, _ in stages], dtype=float),
                   np.array([x for _, _, x in stages], dtype=float),
                   np.array([user_code[r.user] for r in records], dtype=np.intp), aps, users)

    def first_stages(self) -> np.ndarray:
        """Row of each session's first stage."""
        return np.flatnonzero(np.diff(self.session, prepend=-1))

    def take(self, keep: np.ndarray) -> StageTable:
        """The sessions selected by a boolean mask, numbered again from 0."""
        rows = keep[self.session]
        return StageTable((np.cumsum(keep) - 1)[self.session[rows]], self.ap[rows],
                          self.entry[rows], self.exit[rows], self.user[keep],
                          self.aps, self.users)

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self):
        stages = list(zip([self.aps[a] for a in self.ap.tolist()],
                          self.entry.tolist(), self.exit.tolist()))
        bounds = np.r_[self.first_stages(), len(stages)].tolist()
        for u, lo, hi in zip(self.user.tolist(), bounds, bounds[1:]):
            yield SessionRecord(self.users[u], tuple(stages[lo:hi]))


def _utc_days(t) -> tuple[np.ndarray, np.ndarray]:
    """UTC day index and second of day of timestamps rounded to the
    microsecond, half to even, as ``datetime.fromtimestamp`` rounds them."""
    t = np.asarray(t, dtype=float)
    whole = np.trunc(t)
    micros = np.rint((t - whole) * 1e6)
    carry = (micros >= 1e6).astype(np.int64) - (micros < 0)
    day, second = np.divmod(whole.astype(np.int64) + carry, 86400)
    return day, second + (micros - carry * 1e6) / 1e6


def _iso(day: int) -> str:
    return date.fromordinal(_EPOCH_ORDINAL + day).isoformat()


def _day_pairs(codes: np.ndarray, day: np.ndarray):
    """Distinct (code, day) pairs sorted by code then day, the pair of each
    row and the rows per pair."""
    d0 = int(day.min()) if len(day) else 0
    span = (int(day.max()) - d0 + 1) if len(day) else 1
    keys, inverse, counts = np.unique(codes.astype(np.int64) * span + (day - d0),
                                      return_inverse=True, return_counts=True)
    pair_code, pair_day = np.divmod(keys, span)
    return pair_code, pair_day + d0, inverse, counts


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """First index of each run of equal values in a sorted array."""
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _undecodable_line(opener, path) -> str | None:
    """Where the first byte of the file at ``path`` that is not UTF-8 sits;
    None if a read fails before that line ends. Read as Latin-1, each byte
    is one character, so the lines end where text mode ends them."""
    with opener(path, "rt", encoding="latin-1") as fh:
        try:
            for line, text in enumerate(fh, start=1):
                try:
                    text.encode("latin-1").decode()
                except UnicodeDecodeError as exc:
                    return (f": line {line} holds byte {exc.object[exc.start]:#04x}, "
                            "which is not UTF-8")
        except (OSError, EOFError):
            return None


def parse_polls(source) -> tuple[PollTable, list[tuple[int, str, str]]]:
    """Read poll records from a path or file object.

    Returns (a ``PollTable``, rejects). Each reject is (record number, raw
    line, reason); malformed lines are reported, never silently dropped. A
    record is one CSV row, so after a quoted field that spans lines the
    record numbers run behind the line numbers. Files are UTF-8 with an
    optional byte-order mark, gzip-compressed by suffix. A file that cannot
    be read as text raises ``TraceInputError`` naming the file and line. A
    file object is read as its caller decoded it.
    """
    opener = None
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        path = str(source)
        opener = gzip.open if path.endswith(".gz") else open
        fh = opener(path, "rt", encoding="utf-8-sig")
    else:
        path, fh = getattr(source, "name", "<stream>"), source
    times, aps, users, packet_counts, rejects = [], [], [], [], []
    ap_index: dict[str, int] = {}
    user_index: dict[str, int] = {}
    reader = csv.reader(fh)
    try:
        for record, row in enumerate(reader, start=1):
            if not row or (record == 1 and row[0].strip().lower() == "timestamp"):
                continue
            if len(row) != 4:
                rejects.append((record, ",".join(row), f"expected 4 fields, got {len(row)}"))
                continue
            try:
                ts = float(row[0])
                packets = int(row[3])
            except ValueError as exc:
                rejects.append((record, ",".join(row), str(exc)))
                continue
            if not math.isfinite(ts):
                why = "non-finite timestamp"
            elif not _TS_MIN <= ts < _TS_MAX:
                why = "timestamp outside the years 1-9999"
            elif packets < 0:
                why = f"negative packets {packets}"
            elif packets > _INT64_MAX:
                why = f"packets {packets} above 2**63 - 1"
            else:
                times.append(ts)
                aps.append(ap_index.setdefault(row[1].strip(), len(ap_index)))
                users.append(user_index.setdefault(row[2].strip(), len(user_index)))
                packet_counts.append(packets)
                continue
            rejects.append((record, ",".join(row), why))
    except (OSError, EOFError, UnicodeDecodeError, csv.Error) as exc:
        where = f" after line {reader.line_num}: {exc}"
        if opener and isinstance(exc, UnicodeDecodeError):
            # decoding reads ahead of the rows, so a second pass finds the line
            where = _undecodable_line(opener, path) or where
        raise TraceInputError(f"cannot read poll records from {path}{where}") from exc
    finally:
        if opener:
            fh.close()
    return PollTable.from_codes(times, aps, ap_index, users, user_index, packet_counts), rejects


def infer_cadence(table: PollTable) -> float:
    """Modal positive gap between consecutive distinct poll timestamps."""
    gaps, counts = np.unique(np.diff(distinct(table.t)), return_counts=True)
    if not len(gaps):
        raise TraceInputError("cannot infer poll cadence from fewer than 2 distinct "
                              "timestamps; give the cadence explicitly")
    modal: Counter = Counter()
    for gap, count in zip(gaps.tolist(), counts.tolist()):
        modal[round(gap, 6)] += count
    cadence = max(modal.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    if cadence <= 0:
        raise TraceInputError("the modal gap between distinct timestamps rounds to 0 s; "
                              "give the cadence explicitly")
    return cadence


def _excluded(cfg: PreprocessConfig, day: str) -> bool:
    return any(lo <= day <= hi for lo, hi in cfg.excluded_date_ranges)


def filter_window(table: PollTable, cfg: PreprocessConfig) -> PollTable:
    """Keep records inside the working window (start inclusive, end
    exclusive), on configured weekdays, outside excluded date ranges."""
    day, second = _utc_days(table.t)
    keep = (np.isin((day + 3) % 7, cfg.weekdays)
            & (cfg.work_start <= second) & (second < cfg.work_end))
    if cfg.excluded_date_ranges:
        excluded = [d for d in distinct(day[keep]).tolist() if _excluded(cfg, _iso(d))]
        keep &= ~np.isin(day, excluded)
    return table.take(keep)


def filter_invalid_days(table: PollTable, cfg: PreprocessConfig, cadence: float
                        ) -> tuple[PollTable, dict[str, list[str]]]:
    """Drop, per AP, the days whose total service time falls below the
    configured fraction of that AP's across-days average.

    Service time of an AP on a day is its poll count times the cadence
    (each poll is one user-attachment sample). The average is over days
    with nonzero service, computed before any removal (single pass).
    ``removed`` lists each AP's dropped ISO days, APs in the order of their
    first poll.
    """
    day, _ = _utc_days(table.t)
    pair_ap, pair_day, inverse, polls = _day_pairs(table.ap, day)
    starts = _group_starts(pair_ap)
    total = np.add.reduceat(polls, starts) if len(starts) else polls
    days = np.diff(np.r_[starts, len(pair_ap)])
    average = np.repeat(total / days * cadence, days)
    bad = polls * cadence < cfg.valid_day_fraction * average
    removed: dict[str, list[str]] = {}
    if bad.any():
        first_poll = np.full(len(table.aps), np.inf)
        np.minimum.at(first_poll, table.ap, table.t)
        for ap in sorted(set(pair_ap[bad].tolist()), key=lambda a: (first_poll[a], a)):
            removed[table.aps[ap]] = [_iso(d) for d in pair_day[bad & (pair_ap == ap)].tolist()]
    return table.take(~bad[inverse]), removed


def _fill_times(after: np.ndarray, before: np.ndarray, cadence: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Missing poll epochs inside gaps: for each gap, after + cadence,
    + cadence, ... (by repeated addition) while below before - 1e-9.
    Returns (gap index, epoch) pairs."""
    gap = np.arange(len(after))
    t = after + cadence
    end = before - 1e-9
    gaps, epochs = [gap[:0]], [t[:0]]
    while len(t):
        live = t < end
        gap, t, end = gap[live], t[live], end[live]
        gaps.append(gap)
        epochs.append(t)
        t = t + cadence
    return np.concatenate(gaps), np.concatenate(epochs)


def _with_fills(table: PollTable, t, ap, user) -> PollTable:
    """The table plus zero-packet rows, back in (user, timestamp, ap) order."""
    return PollTable(np.concatenate([table.t, t]), np.concatenate([table.ap, ap]),
                     np.concatenate([table.user, user]),
                     np.concatenate([table.packets, np.zeros(len(t), dtype=np.int64)]),
                     table.aps, table.users).ordered()


def _merge_multi_association(table: PollTable, cadence: float) -> tuple[PollTable, int]:
    """One row per (user, epoch): a multi-association period goes to its
    packet winner, each epoch keeping the packets of all its rows. Returns
    the table and the number of rows merged away."""
    t, ap, user, packets = table.t, table.ap, table.user, table.packets
    n = len(t)
    if not n:
        return table, 0
    new_epoch = np.r_[True, (user[1:] != user[:-1]) | (t[1:] != t[:-1])]
    epoch_start = np.flatnonzero(new_epoch)
    multi = np.diff(np.r_[epoch_start, n]) > 1
    if not multi.any():
        return table, 0
    # periods: runs of multi-AP epochs of one user at most one cadence apart
    mt, mu = t[epoch_start[multi]], user[epoch_start[multi]]
    period = np.cumsum(np.r_[True, (mu[1:] != mu[:-1]) | (mt[1:] - mt[:-1] > cadence + 1e-9)]) - 1
    epoch_period = np.full(len(epoch_start), -1)
    epoch_period[multi] = period
    row_period = epoch_period[np.cumsum(new_epoch) - 1]
    rows = np.flatnonzero(row_period >= 0)
    # per (period, ap): packets and first attachment; rows are in time order
    key = row_period[rows] * len(table.aps) + ap[rows]
    order = np.argsort(key, kind="stable")
    key, rows = key[order], rows[order]
    first = _group_starts(key)
    group_period, group_ap = np.divmod(key[first], len(table.aps))
    group_packets = np.add.reduceat(packets[rows], first)
    best = np.lexsort((group_ap, t[rows[first]], -group_packets, group_period))
    winners = group_ap[best][_group_starts(group_period[best])]

    out_ap = ap[epoch_start]
    out_ap[multi] = winners[period]
    return PollTable(t[epoch_start], out_ap, user[epoch_start],
                     np.add.reduceat(packets, epoch_start), table.aps, table.users
                     ), n - len(epoch_start)


def _pingpong_fold(aps: list, users: list, firsts: list, lasts: list,
                   cadence: float, limit: float) -> tuple[list, list]:
    """Fold ping-pong runs of one-row-per-epoch, single-AP runs.

    At each pair of neighbouring runs of a user (prev, cur), left to right:
    a same-AP absence with cadence < gap <= limit joins the two runs and its
    missing epochs are filled; otherwise an excursion cur between two runs
    at prev's AP whose ends are at most limit apart is reassigned to that
    AP and the three runs join. After a join the scan steps back one pair,
    the only earlier pair whose inputs changed, so the result equals
    restarting the scan from the first pair after every join, in linear
    time. Returns the joined runs as [first run, end run, ap, user, first
    epoch, last epoch] and the filled gaps as (first run after the gap,
    epoch before, epoch after).
    """
    rest = [[i, i + 1, aps[i], users[i], firsts[i], lasts[i]] for i in range(len(aps) - 1, -1, -1)]
    done = [rest.pop()] if rest else []
    fills = []
    while rest:
        prev, cur = done[-1], rest[-1]
        gap = cur[4] - prev[5]
        if prev[3] == cur[3] and prev[2] == cur[2] and cadence < gap <= limit:
            fills.append((cur[0], prev[5], cur[4]))
            rest.pop()
        elif (len(rest) > 1 and prev[3] == cur[3] == rest[-2][3]
              and prev[2] == rest[-2][2] != cur[2] and rest[-2][4] - prev[5] <= limit):
            rest.pop()
            cur = rest.pop()
        else:
            done.append(rest.pop())
            continue
        prev[1], prev[5] = cur[1], cur[5]
        if len(done) > 1:
            rest.append(done.pop())
    return done, fills


def _fold_pingpong(table: PollTable, cfg: PreprocessConfig, cadence: float
                   ) -> tuple[PollTable, int, int]:
    """Fold short excursions and absences back into the surrounding AP.
    Needs one row per (user, epoch). Returns the table, the rows filled in
    and the rows reassigned to another AP."""
    t, ap, user = table.t, table.ap, table.user
    n = len(t)
    if not n:
        return table, 0, 0
    start = np.flatnonzero(np.r_[True, (user[1:] != user[:-1]) | (ap[1:] != ap[:-1])
                                 | (t[1:] - t[:-1] > cadence + 1e-9)])
    end = np.r_[start[1:], n]
    run_ap, run_user, first, last = ap[start], user[start], t[start], t[end - 1]
    same = run_user[1:] == run_user[:-1]
    gap = first[1:] - last[:-1]
    absence = same & (run_ap[1:] == run_ap[:-1]) & (cadence < gap) & (gap <= cfg.pingpong_return)
    excursion = (same[1:] & same[:-1] & (run_ap[2:] == run_ap[:-2]) & (run_ap[1:-1] != run_ap[:-2])
                 & (first[2:] - last[:-2] <= cfg.pingpong_return))
    folding = np.isin(run_user, np.r_[run_user[1:][absence], run_user[1:-1][excursion]])
    if not folding.any():
        return table, 0, 0
    runs = np.flatnonzero(folding)   # all runs of the users with something to fold
    joined, fills = _pingpong_fold(run_ap[runs].tolist(), run_user[runs].tolist(),
                                   first[runs].tolist(), last[runs].tolist(),
                                   cadence, cfg.pingpong_return)
    group_of_run = np.repeat(np.arange(len(joined)), [j[1] - j[0] for j in joined])
    group_ap = np.array([j[2] for j in joined], dtype=ap.dtype)
    new_run_ap = run_ap.copy()
    new_run_ap[runs] = group_ap[group_of_run]
    new_ap = np.repeat(new_run_ap, end - start)
    reassigned = int(np.count_nonzero(new_ap != ap))
    folded = PollTable(t, new_ap, user, table.packets, table.aps, table.users)
    if not fills:
        return folded, 0, reassigned
    next_run, before, after = (np.array(c) for c in zip(*fills))
    which, epochs = _fill_times(before, after, cadence)
    owner = group_of_run[next_run[which]]
    return (_with_fills(folded, epochs, group_ap[owner], run_user[runs][next_run[which]]),
            len(epochs), reassigned)


def resolve_multi_association(table: PollTable, cfg: PreprocessConfig, cadence: float,
                              counts: dict | None = None) -> PollTable:
    """Resolve simultaneous multi-AP attachments and ping-pong excursions.

    A multiple-association period is a maximal span of poll epochs (gaps at
    most one cadence) during which the user appears at two or more APs. The
    whole period is assigned to the AP that exchanged the most packets with
    the user during it; ties break by earliest attachment, then
    lexicographic AP id. Afterwards, an excursion or absence from an AP
    shorter than the ping-pong threshold is folded back into that AP.

    When ``counts`` is given it receives ``multi_association_merged`` (rows
    merged away), ``pingpong_filled`` (epochs filled in) and
    ``pingpong_reassigned`` (rows moved to the surrounding AP).
    """
    table, merged = _merge_multi_association(table, cadence)
    table, filled, reassigned = _fold_pingpong(table, cfg, cadence)
    if counts is not None:
        counts.update(multi_association_merged=merged, pingpong_filled=filled,
                      pingpong_reassigned=reassigned)
    return table


def pad_gaps(table: PollTable, cfg: PreprocessConfig, cadence: float) -> PollTable:
    """Bridge absences shorter than the departure threshold.

    A user absent from all APs for less than the threshold and then
    reappearing is padded as present at the AP of reappearance for the
    missing epochs. Longer absences are left alone and split sessions
    later.
    """
    t, user = table.t, table.user
    gap = t[1:] - t[:-1]
    after = np.flatnonzero((user[1:] == user[:-1]) & (cadence + 1e-9 < gap)
                           & (gap < cfg.departure_threshold))
    if not len(after):
        return table
    which, epochs = _fill_times(t[after], t[after + 1], cadence)
    return _with_fills(table, epochs, table.ap[after + 1][which], user[after][which])


def classify_open_closed(table: PollTable, cfg: PreprocessConfig, cadence: float
                         ) -> tuple[set[str], set[str], float]:
    """Split users into open and closed; a user attached at least the
    configured number of hours on any single day is closed."""
    present = distinct(table.user)
    if not len(present):
        return set(), set(), 0.0
    day, _ = _utc_days(table.t)
    pair_user, _, _, polls = _day_pairs(table.user, day)
    # attachment time as the running sum of one cadence per poll
    attached = np.cumsum(np.full(polls.max(), cadence))[polls - 1]
    closed_codes = distinct(pair_user[attached >= cfg.closed_user_hours * 3600.0 - 1e-9])
    closed = {table.users[u] for u in closed_codes.tolist()}
    open_users = {table.users[u] for u in present.tolist()} - closed
    return open_users, closed, len(closed) / len(present)


def _select_users(table: PollTable, users) -> PollTable:
    keep = np.array([u in users for u in table.users], dtype=bool)
    return table.take(keep[table.user])


def extract_sessions(table: PollTable, cfg: PreprocessConfig, cadence: float,
                     users=None) -> tuple[StageTable, Counter]:
    """Turn preprocessed records into sessions and the stage-count table.

    Contiguous same-AP attachment runs become stages; a stage interval
    extends half a cadence beyond the first and last poll and is clamped to
    the working window of the run's first poll. Consecutive stages chain
    into one session; an absence of at least the departure threshold starts
    a new session.
    """
    if users is not None:
        table = _select_users(table, users)
    t, ap, user = table.t, table.ap, table.user
    n = len(t)
    if not n:
        empty = np.zeros(0, dtype=np.intp)
        return StageTable(empty, empty, t, t, empty, table.aps, table.users), Counter()
    gap = t[1:] - t[:-1]
    session_break = np.r_[True, (user[1:] != user[:-1]) | (gap >= cfg.departure_threshold)]
    start = np.flatnonzero(session_break | np.r_[False, (ap[1:] != ap[:-1])
                                                 | (gap > cadence + 1e-9)])
    last = np.r_[start[1:], n] - 1
    half = cadence / 2.0
    day0 = _utc_days(t[start])[0] * 86400.0
    entry = np.maximum(t[start] - half, day0 + cfg.work_start)
    exit_ = np.minimum(t[last] + half, day0 + cfg.work_end)
    run_ap = ap[start]
    # a run continues the previous stage of its session when it has the same
    # AP and overlaps it, otherwise it starts a stage no earlier than that
    # stage's exit (which is always the previous run's exit)
    chained = ~session_break[start]
    joins = np.zeros(len(start), dtype=bool)
    joins[1:] = chained[1:] & (run_ap[1:] == run_ap[:-1]) & (entry[1:] <= exit_[:-1] + 1e-9)
    shift = chained & ~joins
    entry[1:][shift[1:]] = np.maximum(entry[1:], exit_[:-1])[shift[1:]]
    stage_first = np.flatnonzero(~joins)
    stage_last = np.r_[stage_first[1:], len(start)] - 1
    stage_entry, stage_exit = entry[stage_first], exit_[stage_last]
    kept = stage_exit > stage_entry
    stage_first = stage_first[kept]
    # numbered again, skipping the sessions whose stages all vanished
    _, first, session, sizes = np.unique(np.cumsum(session_break[start])[stage_first],
                                         return_index=True, return_inverse=True,
                                         return_counts=True)
    return (StageTable(session, run_ap[stage_first], stage_entry[kept], stage_exit[kept],
                       user[start[stage_first[first]]], table.aps, table.users),
            Counter(sizes.tolist()))


def stage_table_rows(table: Counter, cap: int = 5) -> list[tuple[str, int]]:
    """Display form of the stage-count table: 1, 2, ..., >=cap buckets."""
    rows = [(str(k), table.get(k, 0)) for k in range(1, cap)]
    rows.append((f">={cap}", sum(c for k, c in table.items() if k >= cap)))
    return rows


@dataclass(frozen=True)
class CellEstimate:
    ap: str
    arrival_rate: float          # per second of observed working time
    hold_mean: float             # seconds
    poisson_mean: float
    entries: int
    new_arrivals: int
    observed_time: float


@dataclass
class APValidity:
    ap: str
    independence: TestReport
    poisson: TestReport

    @property
    def valid(self) -> bool:
        return bool(self.independence.passed) and bool(self.poisson.passed)


def observed_days(table: PollTable) -> dict[str, set[str]]:
    """Per AP, the set of ISO days with at least one (surviving) record."""
    pair_ap, pair_day, _, _ = _day_pairs(table.ap, _utc_days(table.t)[0])
    iso = {d: _iso(d) for d in distinct(pair_day).tolist()}
    days: dict[str, set[str]] = {}
    for ap, day in zip(pair_ap.tolist(), pair_day.tolist()):
        days.setdefault(table.aps[ap], set()).add(iso[day])
    return days


def arrival_series(sessions: StageTable, cfg: PreprocessConfig,
                   ap_days: dict[str, set[str]], interval: float = 3600.0
                   ) -> dict[str, list[int]]:
    """Per AP, new-session (first stage) arrival counts per interval bucket
    over that AP's observed working time, in day-then-bucket order."""
    buckets_per_day = int((cfg.work_end - cfg.work_start) // interval)
    counts = {ap: {d: [0] * buckets_per_day for d in days} for ap, days in ap_days.items()}
    first = sessions.first_stages()
    entry = sessions.entry[first]
    day, _ = _utc_days(entry)
    bucket = (entry - (day * 86400.0 + cfg.work_start)) // interval
    inside = (0 <= bucket) & (bucket < buckets_per_day)
    keys, arrivals = np.unique(np.stack([sessions.ap[first][inside], day[inside],
                                         bucket[inside].astype(np.int64)], axis=1),
                               axis=0, return_counts=True)
    for (ap, d, b), n in zip(keys.tolist(), arrivals.tolist()):
        per_day = counts.get(sessions.aps[ap], {}).get(_iso(d))
        if per_day is not None:
            per_day[b] = n
    return {ap: [c for d in sorted(days) for c in days[d]] for ap, days in counts.items()}


def estimate_cell_params(sessions: StageTable, cfg: PreprocessConfig,
                         ap_days: dict[str, set[str]],
                         interval: float = 3600.0
                         ) -> tuple[dict[str, CellEstimate], dict[str, list[int]]]:
    """Per-AP arrival rate, mean holding time and Poisson mean, plus the
    new-arrival series feeding the Poisson tests. Holds are summed in stage
    order, as a loop over the sessions would sum them."""
    if not len(sessions):
        raise ValueError("need at least one session")
    window = cfg.work_end - cfg.work_start
    n_aps = len(sessions.aps)
    entries = np.bincount(sessions.ap, minlength=n_aps).tolist()
    hold_sum = np.bincount(sessions.ap, weights=sessions.exit - sessions.entry,
                           minlength=n_aps).tolist()
    new = np.bincount(sessions.ap[sessions.first_stages()], minlength=n_aps).tolist()
    series = arrival_series(sessions, cfg, ap_days, interval)
    out = {}
    for code, ap in enumerate(sessions.aps):
        if not entries[code]:
            continue
        observed = len(ap_days.get(ap, ())) * window
        if observed <= 0:
            raise ValueError(f"AP {ap!r} has stage entries but zero observed time")
        rate = entries[code] / observed
        hold = hold_sum[code] / entries[code]
        out[ap] = CellEstimate(ap, rate, hold, rate * hold, entries[code],
                               new[code], observed)
    return out, series


def test_ap_validity(series: dict[str, list[int]], interval: float = 3600.0,
                     eta_threshold: float = 0.15, theta_threshold: float = 0.15
                     ) -> dict[str, APValidity]:
    return {
        ap: APValidity(ap,
                       independence_test(counts, interval, eta_threshold),
                       poisson_dist_test(counts, interval, theta_threshold))
        for ap, counts in sorted(series.items())
    }


def exclusion_modes(sessions: StageTable, invalid_aps: set[str], mode: int,
                    exclude_one_stage: bool = False) -> tuple[StageTable, set[str]]:
    """Apply one of the non-Poisson exclusion policies.

    Mode 1 removes whole sessions that start at an invalid AP; mode 2 keeps
    all sessions but marks the invalid APs for removal from occupancy
    dimensions (handoff traffic through valid APs stays counted); mode 3
    excludes nothing. Optionally one-stage sessions are dropped as well.
    Returns (sessions, excluded AP set).
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"unknown exclusion mode {mode}")
    keep = np.ones(len(sessions), dtype=bool)
    excluded: set[str] = set()
    if mode == 1:
        invalid = np.array([ap in invalid_aps for ap in sessions.aps], dtype=bool)
        keep &= ~invalid[sessions.ap[sessions.first_stages()]]
    elif mode == 2:
        excluded = set(invalid_aps)
    if exclude_one_stage:
        keep &= np.bincount(sessions.session, minlength=len(sessions)) > 1
    return (sessions if keep.all() else sessions.take(keep)), excluded


def occupancy_snapshots(sessions: StageTable, aps: list[str], epochs) -> np.ndarray:
    """Re-sample attachment state: per epoch, users attached per AP.

    A user counts toward an AP at time t when some stage has
    entry <= t < exit. Returns a ``(T, A)`` int64 matrix: one row per epoch
    in time order, one column per AP in the order given.
    """
    code = {ap: i for i, ap in enumerate(sessions.aps)}
    column = np.full(len(sessions.aps), -1)
    for j, ap in enumerate(aps):
        if ap in code:
            column[code[ap]] = j
    col = column[sessions.ap]
    kept = col >= 0
    return interval_counts(col[kept], sessions.entry[kept], sessions.exit[kept], len(aps),
                           np.sort(np.asarray(epochs, dtype=float)))


@dataclass
class TraceResult:
    cadence: float
    records_in: int
    rejects: list
    removed_days: dict[str, list[str]]
    open_users: set[str]
    closed_users: set[str]
    closed_fraction: float
    sessions: StageTable
    stage_table: Counter
    estimates: dict[str, CellEstimate]
    arrival_series: dict[str, list[int]]
    validity: dict[str, APValidity]
    ap_days: dict[str, set[str]]
    notes: tuple[str, ...] = PREPROCESSING_NOTES
    #: rows in and out of each step, plus what multi-association and the
    #: padding added, merged or moved
    counts: dict = field(default_factory=dict)
    #: distinct times of the polls left by filter_window and
    #: filter_invalid_days: the observed epochs to sample occupancy at
    epochs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def valid_aps(self) -> set[str]:
        return {ap for ap, v in self.validity.items() if v.valid}

    @property
    def invalid_aps(self) -> set[str]:
        return set(self.validity) - self.valid_aps


def _no_sessions(counts: dict, cfg: PreprocessConfig) -> str:
    """Which step left nothing to extract sessions from, and how many rows
    it dropped."""
    why = {
        "filter_window": f"outside the {cfg.work_start / 3600:g}-{cfg.work_end / 3600:g} h "
                         f"UTC window on weekdays {list(cfg.weekdays)} or in excluded dates",
        "filter_invalid_days": "on days below the per-AP service fraction",
        "classify_open_closed": f"of closed users (attached >= {cfg.closed_user_hours:g} h "
                                "on some day)",
    }
    for step, reason in why.items():
        c = counts[step]
        if c["rows_in"] and not c["rows_out"]:
            return (f"need at least one session: {step} dropped all {c['rows_in']} "
                    f"records as {reason}")
    c = counts["extract_sessions"]
    return (f"need at least one session: extract_sessions made none from "
            f"{c['rows_in']} records")


def run_pipeline(polls: PollTable, cfg: PreprocessConfig, rejects=None,
                 interval: float = 3600.0,
                 eta_threshold: float = 0.15,
                 theta_threshold: float = 0.15) -> TraceResult:
    """The full fixed-order preprocessing pipeline over parsed records.

    Raises ``TraceInputError`` when the cadence cannot be inferred or no
    session survives, naming the step that dropped the records.
    """
    cadence = cfg.poll_cadence if cfg.poll_cadence is not None else infer_cadence(polls)
    counts: dict = {}
    start = time.perf_counter()

    def step(name, rows_in, rows_out, **extra):
        # a step's wall time runs from the end of the one before
        nonlocal start
        now = time.perf_counter()
        counts[name] = {"rows_in": rows_in, "rows_out": rows_out, **extra, "wall_s": now - start}
        start = now

    window = filter_window(polls, cfg)
    step("filter_window", len(polls), len(window))
    valid, removed = filter_invalid_days(window, cfg, cadence)
    step("filter_invalid_days", len(window), len(valid),
         ap_days_removed=sum(len(d) for d in removed.values()))
    folds: dict = {}
    resolved = resolve_multi_association(valid, cfg, cadence, counts=folds)
    step("resolve_multi_association", len(valid), len(resolved), **folds)
    padded = pad_gaps(resolved, cfg, cadence)
    step("pad_gaps", len(resolved), len(padded), padded=len(padded) - len(resolved))
    open_users, closed_users, frac = classify_open_closed(padded, cfg, cadence)
    open_rows = _select_users(padded, open_users)
    step("classify_open_closed", len(padded), len(open_rows),
         open_users=len(open_users), closed_users=len(closed_users))
    sessions, stage_table = extract_sessions(open_rows, cfg, cadence)
    step("extract_sessions", len(open_rows), len(sessions), stages=len(sessions.ap))
    if not len(sessions):
        raise TraceInputError(_no_sessions(counts, cfg))
    ap_days = observed_days(padded)
    estimates, series = estimate_cell_params(sessions, cfg, ap_days, interval)
    validity = test_ap_validity(series, interval, eta_threshold, theta_threshold)
    return TraceResult(cadence, len(polls), rejects or [], removed, open_users,
                       closed_users, frac, sessions, stage_table, estimates, series,
                       validity, ap_days, counts=counts, epochs=distinct(valid.t))


def write_sessions_csv(sessions: StageTable, path) -> None:
    """``user,stage,ap,entry,exit`` rows, stages numbered from 1, as
    ``csv.writer`` writes them; each name is formatted once."""
    user = np.array(csv_fields(sessions.users), dtype=object)[sessions.user[sessions.session]]
    ap = np.array(csv_fields(sessions.aps), dtype=object)[sessions.ap]
    stage = np.arange(len(sessions.ap)) - sessions.first_stages()[sessions.session] + 1
    with open(path, "w", newline="") as fh:
        fh.write("user,stage,ap,entry,exit\r\n")
        fh.write("".join(map("{},{},{},{!r},{!r}\r\n".format, user.tolist(), stage.tolist(),
                             ap.tolist(), sessions.entry.tolist(), sessions.exit.tolist())))


def write_estimates_csv(estimates: dict[str, CellEstimate], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ap", "arrival_rate", "hold_mean", "poisson_mean",
                    "entries", "new_arrivals", "observed_time"])
        for ap in sorted(estimates):
            e = estimates[ap]
            w.writerow([ap, repr(e.arrival_rate), repr(e.hold_mean),
                        repr(e.poisson_mean), e.entries, e.new_arrivals,
                        repr(e.observed_time)])
