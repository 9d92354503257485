"""Reference implementation of the trace pipeline, kept for the tests.

This is the row-at-a-time form of ``multicell.trace``: a ``csv.reader``
poll parser, ``PollRecord`` lists, per-user dicts of lists, one
``datetime`` per record, ``SessionRecord`` lists, a ``csv.writer`` session
writer, and the ping-pong fold that restarts its scan after every join
(quadratic in the number of runs, which makes it a brute-force oracle).
The columnar steps in ``multicell.trace`` must give the same records,
rejects, sessions, stage table, estimates, removed days and session rows.
"""

from __future__ import annotations

import csv
import gzip
import math
from collections import Counter, defaultdict
from datetime import datetime, timezone

from multicell.trace import (CellEstimate, PollRecord, PollTable, PreprocessConfig,
                             SessionRecord, TraceInputError, TraceResult, test_ap_validity)

_TS_MIN, _TS_MAX = -62135596800.0, 253402300800.0
_INT64_MAX = 2 ** 63 - 1


def parse_polls(source) -> tuple[PollTable, list[tuple[int, str, str]]]:
    """Read poll records from a path or file object, one ``csv`` row at a
    time; rejects are (record number, raw line, reason)."""
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        path = str(source)
        fh = gzip.open(path, "rt") if path.endswith(".gz") else open(path)
        close = True
    else:
        path, fh = getattr(source, "name", "<stream>"), source
    times, aps, users, packet_counts, rejects = [], [], [], [], []
    ap_index: dict[str, int] = {}
    user_index: dict[str, int] = {}
    reader = csv.reader(fh)
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == "timestamp"):
                continue
            raw = ",".join(row)
            if len(row) != 4:
                rejects.append((lineno, raw, f"expected 4 fields, got {len(row)}"))
                continue
            try:
                ts = float(row[0])
                packets = int(row[3])
            except ValueError as exc:
                rejects.append((lineno, raw, str(exc)))
                continue
            if not math.isfinite(ts):
                rejects.append((lineno, raw, "non-finite timestamp"))
                continue
            if not _TS_MIN <= ts < _TS_MAX:
                rejects.append((lineno, raw, "timestamp outside the years 1-9999"))
                continue
            if packets < 0:
                rejects.append((lineno, raw, f"negative packets {packets}"))
                continue
            if packets > _INT64_MAX:
                rejects.append((lineno, raw, f"packets {packets} above 2**63 - 1"))
                continue
            times.append(ts)
            aps.append(ap_index.setdefault(row[1].strip(), len(ap_index)))
            users.append(user_index.setdefault(row[2].strip(), len(user_index)))
            packet_counts.append(packets)
    except (OSError, EOFError, UnicodeDecodeError, csv.Error) as exc:
        raise TraceInputError(
            f"cannot read poll records from {path} after line {reader.line_num}: {exc}"
        ) from exc
    finally:
        if close:
            fh.close()
    return PollTable.from_codes(times, aps, ap_index, users, user_index, packet_counts), rejects


def write_sessions_csv(sessions, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "stage", "ap", "entry", "exit"])
        for s in sessions:
            for j, (ap, e, x) in enumerate(s.stages, start=1):
                w.writerow([s.user, j, ap, repr(e), repr(x)])


def _utc(ts: float) -> datetime:
    return datetime.fromtimestamp(ts, tz=timezone.utc)


def _day_key(ts: float) -> str:
    return _utc(ts).date().isoformat()



def infer_cadence(records) -> float:
    """Modal positive gap between consecutive distinct poll timestamps."""
    times = sorted({r.timestamp for r in records})
    gaps = Counter(round(b - a, 6) for a, b in zip(times, times[1:]) if b > a)
    if not gaps:
        raise ValueError("cannot infer poll cadence from fewer than 2 distinct timestamps")
    return max(gaps.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def _excluded(cfg: PreprocessConfig, day: str) -> bool:
    return any(lo <= day <= hi for lo, hi in cfg.excluded_date_ranges)


def filter_window(records, cfg: PreprocessConfig) -> list[PollRecord]:
    """Keep records inside the working window (start inclusive, end
    exclusive), on configured weekdays, outside excluded date ranges."""
    out = []
    for r in records:
        dt = _utc(r.timestamp)
        if dt.weekday() not in cfg.weekdays:
            continue
        sec = dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6
        if not cfg.work_start <= sec < cfg.work_end:
            continue
        if _excluded(cfg, dt.date().isoformat()):
            continue
        out.append(r)
    return out


def filter_invalid_days(records, cfg: PreprocessConfig, cadence: float
                        ) -> tuple[list[PollRecord], dict[str, list[str]]]:
    """Drop, per AP, the days whose total service time falls below the
    configured fraction of that AP's across-days average.

    Service time of an AP on a day is its poll count times the cadence
    (each poll is one user-attachment sample). The average is over days
    with nonzero service, computed before any removal (single pass).
    """
    service: dict[str, Counter] = defaultdict(Counter)
    for r in records:
        service[r.ap][_day_key(r.timestamp)] += 1
    removed: dict[str, list[str]] = {}
    drop: set[tuple[str, str]] = set()
    for ap, days in service.items():
        avg = sum(days.values()) / len(days) * cadence
        bad = sorted(d for d, c in days.items() if c * cadence < cfg.valid_day_fraction * avg)
        if bad:
            removed[ap] = bad
            drop.update((ap, d) for d in bad)
    out = [r for r in records if (r.ap, _day_key(r.timestamp)) not in drop]
    return out, removed


def _runs(user_records, cadence):
    """Maximal same-AP record groups; a gap > cadence or an AP change starts
    a new run. Yields lists of records."""
    run = []
    for r in user_records:
        if run and (r.ap != run[-1].ap or r.timestamp - run[-1].timestamp > cadence + 1e-9):
            yield run
            run = []
        run.append(r)
    if run:
        yield run



def resolve_multi_association(records, cfg: PreprocessConfig, cadence: float
                              ) -> list[PollRecord]:
    """Resolve simultaneous multi-AP attachments and ping-pong excursions.

    A multiple-association period is a maximal span of poll epochs (gaps at
    most one cadence) during which the user appears at two or more APs. The
    whole period is assigned to the AP that exchanged the most packets with
    the user during it; ties break by earliest attachment, then
    lexicographic AP id. Afterwards, an excursion or absence from an AP
    shorter than the ping-pong threshold is folded back into that AP.
    """
    by_user: dict[str, list[PollRecord]] = defaultdict(list)
    for r in records:
        by_user[r.user].append(r)

    out: list[PollRecord] = []
    for user in sorted(by_user):
        recs = sorted(by_user[user], key=lambda r: (r.timestamp, r.ap))
        by_epoch: dict[float, list[PollRecord]] = defaultdict(list)
        for r in recs:
            by_epoch[r.timestamp].append(r)
        epochs = sorted(by_epoch)
        multi = [t for t in epochs if len(by_epoch[t]) > 1]

        # group multi-association epochs into periods
        periods: list[list[float]] = []
        for t in multi:
            if periods and t - periods[-1][-1] <= cadence + 1e-9:
                periods[-1].append(t)
            else:
                periods.append([t])

        resolved: list[PollRecord] = []
        consumed: set[float] = set()
        for period in periods:
            lo, hi = period[0], period[-1]
            in_period = [r for t in period for r in by_epoch[t]]
            packets: Counter = Counter()
            first_seen: dict[str, float] = {}
            for r in in_period:
                packets[r.ap] += r.packets
                first_seen.setdefault(r.ap, r.timestamp)
            winner = min(packets, key=lambda ap: (-packets[ap], first_seen[ap], ap))
            for t in period:
                consumed.add(t)
                resolved.append(PollRecord(t, winner, user,
                                           sum(r.packets for r in by_epoch[t])))
        for t in epochs:
            if t not in consumed:
                resolved.extend(by_epoch[t])
        resolved.sort(key=lambda r: r.timestamp)

        # ping-pong: fold short excursions/absences back into the surrounding AP
        runs = list(_runs(resolved, cadence))
        changed = True
        while changed:
            changed = False
            for i in range(1, len(runs)):
                prev, cur = runs[i - 1], runs[i]
                gap = cur[0].timestamp - prev[-1].timestamp
                if prev[-1].ap == cur[0].ap and cadence < gap <= cfg.pingpong_return:
                    # same-AP absence below threshold: fill the missing epochs
                    fill = []
                    t = prev[-1].timestamp + cadence
                    while t < cur[0].timestamp - 1e-9:
                        fill.append(PollRecord(t, prev[-1].ap, user, 0))
                        t += cadence
                    runs[i - 1] = prev + fill + cur
                    del runs[i]
                    changed = True
                    break
                if (i + 1 < len(runs) and prev[-1].ap == runs[i + 1][0].ap
                        and prev[-1].ap != cur[0].ap
                        and runs[i + 1][0].timestamp - prev[-1].timestamp
                        <= cfg.pingpong_return):
                    # short excursion to another AP: reassign it
                    home = prev[-1].ap
                    runs[i] = [PollRecord(r.timestamp, home, user, r.packets) for r in cur]
                    runs[i - 1] = prev + runs[i] + runs[i + 1]
                    del runs[i:i + 2]
                    changed = True
                    break
        for run in runs:
            out.extend(run)
    out.sort(key=lambda r: (r.timestamp, r.ap, r.user))
    return out


def pad_gaps(records, cfg: PreprocessConfig, cadence: float) -> list[PollRecord]:
    """Bridge absences shorter than the departure threshold.

    A user absent from all APs for less than the threshold and then
    reappearing is padded as present at the AP of reappearance for the
    missing epochs. Longer absences are left alone and split sessions
    later.
    """
    by_user: dict[str, list[PollRecord]] = defaultdict(list)
    for r in records:
        by_user[r.user].append(r)
    out: list[PollRecord] = []
    for user in sorted(by_user):
        recs = sorted(by_user[user], key=lambda r: r.timestamp)
        out.append(recs[0])
        for prev, cur in zip(recs, recs[1:]):
            gap = cur.timestamp - prev.timestamp
            if cadence + 1e-9 < gap < cfg.departure_threshold:
                t = prev.timestamp + cadence
                while t < cur.timestamp - 1e-9:
                    out.append(PollRecord(t, cur.ap, user, 0))
                    t += cadence
            out.append(cur)
    out.sort(key=lambda r: (r.timestamp, r.ap, r.user))
    return out


def classify_open_closed(records, cfg: PreprocessConfig, cadence: float
                         ) -> tuple[set[str], set[str], float]:
    """Split users into open and closed; a user attached at least the
    configured number of hours on any single day is closed."""
    daily: dict[tuple[str, str], float] = defaultdict(float)
    users: set[str] = set()
    for r in records:
        users.add(r.user)
        daily[(r.user, _day_key(r.timestamp))] += cadence
    threshold = cfg.closed_user_hours * 3600.0
    closed = {u for (u, _d), t in daily.items() if t >= threshold - 1e-9}
    open_users = users - closed
    fraction = len(closed) / len(users) if users else 0.0
    return open_users, closed, fraction


def _window_bounds(cfg: PreprocessConfig, ts: float) -> tuple[float, float]:
    dt = _utc(ts)
    day0 = datetime(dt.year, dt.month, dt.day, tzinfo=timezone.utc).timestamp()
    return day0 + cfg.work_start, day0 + cfg.work_end


def extract_sessions(records, cfg: PreprocessConfig, cadence: float,
                     users=None) -> tuple[list[SessionRecord], Counter]:
    """Turn preprocessed records into sessions and the stage-count table.

    Contiguous same-AP attachment runs become stages; a stage interval
    extends half a cadence beyond the first and last poll and is clamped to
    the working window. Consecutive stages chain into one session; an
    absence of at least the departure threshold starts a new session.
    """
    by_user: dict[str, list[PollRecord]] = defaultdict(list)
    for r in records:
        if users is None or r.user in users:
            by_user[r.user].append(r)

    sessions: list[SessionRecord] = []
    table: Counter = Counter()
    half = cadence / 2.0
    for user in sorted(by_user):
        recs = sorted(by_user[user], key=lambda r: r.timestamp)
        groups: list[list[PollRecord]] = [[recs[0]]]
        for prev, cur in zip(recs, recs[1:]):
            if cur.timestamp - prev.timestamp >= cfg.departure_threshold:
                groups.append([cur])
            else:
                groups[-1].append(cur)
        for group in groups:
            stages: list[tuple[str, float, float]] = []
            for run in _runs(group, cadence):
                lo_w, hi_w = _window_bounds(cfg, run[0].timestamp)
                entry = max(run[0].timestamp - half, lo_w)
                exit_ = min(run[-1].timestamp + half, hi_w)
                if stages and stages[-1][0] == run[0].ap and entry <= stages[-1][2] + 1e-9:
                    ap, e0, _ = stages[-1]
                    stages[-1] = (ap, e0, exit_)
                else:
                    if stages:
                        # chain stages: close the previous one at this entry
                        entry = max(entry, stages[-1][2])
                    stages.append((run[0].ap, entry, exit_))
            stages = [(ap, e, x) for ap, e, x in stages if x > e]
            if stages:
                sessions.append(SessionRecord(user, tuple(stages)))
                table[len(stages)] += 1
    return sessions, table



def observed_days(records) -> dict[str, set[str]]:
    """Per AP, the set of days with at least one (surviving) record."""
    days: dict[str, set[str]] = defaultdict(set)
    for r in records:
        days[r.ap].add(_day_key(r.timestamp))
    return days


def arrival_series(sessions, cfg: PreprocessConfig, ap_days: dict[str, set[str]],
                   interval: float = 3600.0) -> dict[str, list[int]]:
    """Per AP, new-session (first stage) arrival counts per interval bucket
    over that AP's observed working time, in day-then-bucket order."""
    buckets_per_day = int((cfg.work_end - cfg.work_start) // interval)
    index: dict[str, dict[tuple[str, int], int]] = {
        ap: {(d, b): 0 for d in sorted(days) for b in range(buckets_per_day)}
        for ap, days in ap_days.items()
    }
    for s in sessions:
        ap, entry, _ = s.stages[0]
        if ap not in index:
            continue
        day = _day_key(entry)
        lo_w, _ = _window_bounds(cfg, entry)
        b = int((entry - lo_w) // interval)
        if (day, b) in index[ap]:
            index[ap][(day, b)] += 1
    return {ap: [cnt for _key, cnt in sorted(cells.items())]
            for ap, cells in index.items()}


def estimate_cell_params(sessions, cfg: PreprocessConfig,
                         ap_days: dict[str, set[str]],
                         interval: float = 3600.0
                         ) -> tuple[dict[str, CellEstimate], dict[str, list[int]]]:
    """Per-AP arrival rate, mean holding time and Poisson mean, plus the
    new-arrival series feeding the Poisson tests."""
    if not sessions:
        raise ValueError("need at least one session")
    window = cfg.work_end - cfg.work_start
    entries: Counter = Counter()
    hold_sum: Counter = Counter()
    new: Counter = Counter()
    for s in sessions:
        for i, (ap, e, x) in enumerate(s.stages):
            entries[ap] += 1
            hold_sum[ap] += x - e
            if i == 0:
                new[ap] += 1
    series = arrival_series(sessions, cfg, ap_days, interval)
    out = {}
    for ap in sorted(entries):
        observed = len(ap_days.get(ap, ())) * window
        if observed <= 0:
            raise ValueError(f"AP {ap!r} has stage entries but zero observed time")
        rate = entries[ap] / observed
        hold = hold_sum[ap] / entries[ap]
        out[ap] = CellEstimate(ap, rate, hold, rate * hold, entries[ap],
                               new[ap], observed)
    return out, series



def occupancy_snapshots(sessions, aps: list[str], epochs) -> list[tuple[int, ...]]:
    """Re-sample attachment state: per epoch, users attached per AP.

    A user counts toward an AP at time t when some stage has
    entry <= t < exit. Returns one count vector per epoch, AP order as
    given.
    """
    ap_index = {ap: i for i, ap in enumerate(aps)}
    events = []   # (time, order, ap_idx, delta); exits sort before entries at equal t
    for s in sessions:
        for ap, e, x in s.stages:
            if ap in ap_index:
                events.append((e, 1, ap_index[ap], +1))
                events.append((x, 0, ap_index[ap], -1))
    events.sort()
    counts = [0] * len(aps)
    out = []
    i = 0
    for t in sorted(epochs):
        while i < len(events) and events[i][0] <= t:
            _, _, idx, delta = events[i]
            counts[idx] += delta
            i += 1
        out.append(tuple(counts))
    return out



def run_pipeline(records, cfg: PreprocessConfig, rejects=None,
                 interval: float = 3600.0,
                 eta_threshold: float = 0.15,
                 theta_threshold: float = 0.15) -> TraceResult:
    """The full fixed-order preprocessing pipeline over parsed records."""
    cadence = cfg.poll_cadence if cfg.poll_cadence is not None else infer_cadence(records)
    n_in = len(records)
    records = filter_window(records, cfg)
    records, removed = filter_invalid_days(records, cfg, cadence)
    records = resolve_multi_association(records, cfg, cadence)
    records = pad_gaps(records, cfg, cadence)
    open_users, closed_users, frac = classify_open_closed(records, cfg, cadence)
    sessions, table = extract_sessions(records, cfg, cadence, users=open_users)
    ap_days = observed_days(records)
    estimates, series = estimate_cell_params(sessions, cfg, ap_days, interval)
    validity = test_ap_validity(series, interval, eta_threshold, theta_threshold)
    return TraceResult(cadence, n_in, rejects or [], removed, open_users,
                       closed_users, frac, sessions, table, estimates, series,
                       validity, ap_days)


