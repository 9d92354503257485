"""Poll records as one columnar table, the trace settings, and the CSV
field formatting and block writing shared by the ``fixture`` and ``trace``
writers.

``fixture`` builds a ``PollTable`` inside the working window of a
``PreprocessConfig``, and ``trace`` reads one through the pipeline in
``multicell.trace``; keeping the two types here lets ``fixture`` load
without that pipeline.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .sim import CSV_BLOCK_ROWS


@dataclass(frozen=True, order=True)
class PollRecord:
    timestamp: float
    ap: str
    user: str
    packets: int


@dataclass(frozen=True, eq=False)
class PollTable:
    """Poll records as columns, rows in (user, timestamp, ap) order.

    ``t`` holds float64 timestamps, ``ap`` and ``user`` integer codes into
    the sorted name tuples ``aps`` and ``users`` (so code order is name
    order), ``packets`` int64 counts. Iteration yields ``PollRecord`` rows.
    """
    t: np.ndarray
    ap: np.ndarray
    user: np.ndarray
    packets: np.ndarray
    aps: tuple[str, ...]
    users: tuple[str, ...]

    @classmethod
    def from_codes(cls, t, ap, ap_index: dict[str, int], user, user_index: dict[str, int],
                   packets) -> PollTable:
        """A table from per-row timestamps, packets and AP and user codes,
        where each index maps a name to its code in order of first sight."""
        ap_names, ap = _ranked(ap_index, ap)
        user_names, user = _ranked(user_index, user)
        return cls(np.asarray(t, dtype=float), ap, user,
                   np.asarray(packets, dtype=np.int64), ap_names, user_names).ordered()

    @classmethod
    def from_records(cls, records) -> PollTable:
        """A table from ``PollRecord`` rows."""
        ap_index: dict[str, int] = {}
        user_index: dict[str, int] = {}
        return cls.from_codes([r.timestamp for r in records],
                              [ap_index.setdefault(r.ap, len(ap_index)) for r in records],
                              ap_index,
                              [user_index.setdefault(r.user, len(user_index)) for r in records],
                              user_index, [r.packets for r in records])

    def ordered(self) -> PollTable:
        """The same rows in (user, timestamp, ap) order; ties keep their order."""
        return self.take(np.lexsort((self.ap, self.t, self.user)))

    def take(self, rows) -> PollTable:
        """The rows selected by an index array or a boolean mask, in that order."""
        return PollTable(self.t[rows], self.ap[rows], self.user[rows], self.packets[rows],
                         self.aps, self.users)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        aps, users = self.aps, self.users
        for t, ap, user, packets in zip(self.t.tolist(), self.ap.tolist(),
                                        self.user.tolist(), self.packets.tolist()):
            yield PollRecord(t, aps[ap], users[user], packets)


def _ranked(index: dict[str, int], codes) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted names of a first-sight index, and codes moved into them."""
    names = sorted(index)
    rank = np.empty(len(names), dtype=np.intp)
    rank[[index[name] for name in names]] = np.arange(len(names))
    return tuple(names), rank[np.asarray(codes, dtype=np.intp)]


@dataclass(frozen=True)
class PreprocessConfig:
    departure_threshold: float = 600.0       # seconds; gaps >= this split sessions
    pingpong_return: float = 300.0           # seconds; shorter excursions/absences rejoin
    closed_user_hours: float = 7.5           # daily presence at/above this marks a closed user
    valid_day_fraction: float = 1.0 / 3.0
    work_start: float = 9 * 3600.0           # seconds of day, inclusive
    work_end: float = 17 * 3600.0            # seconds of day, exclusive
    weekdays: tuple[int, ...] = (0, 1, 2, 3, 4)   # Monday=0
    excluded_date_ranges: tuple[tuple[str, str], ...] = ()   # inclusive ISO dates
    poll_cadence: float | None = None        # seconds; None = infer from data

    def __post_init__(self):
        if not (self.departure_threshold > 0 and self.pingpong_return > 0
                and self.closed_user_hours > 0):
            raise ValueError("durations must be positive")
        if self.poll_cadence is not None and not 0 < self.poll_cadence < math.inf:
            raise ValueError(f"poll cadence must be positive and finite, got {self.poll_cadence}")
        if not 0 < self.valid_day_fraction < 1:
            raise ValueError("valid_day_fraction must be in (0, 1)")


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values. (A bare ``np.unique`` imports ``numpy.ma``
    in numpy 2, about 20 ms of a fresh process.)"""
    values = np.sort(values)
    return values[np.r_[True, values[1:] != values[:-1]]] if len(values) else values


def csv_fields(names) -> list[str]:
    """Each name as ``csv.writer`` writes it inside a row."""
    # writerow returns what the file's write returns, and str(row) is row
    row = csv.writer(SimpleNamespace(write=str)).writerow
    return [row((name, ""))[:-3] for name in names]   # less ",\r\n"


def write_coded_csv(path, header: str, columns) -> None:
    """Write ``header`` and one row per position of the code arrays. Each
    column is (texts, codes): an object array of formatted fields and, per
    row, the index of its field. Rows end in CRLF, as ``csv.writer`` ends
    them, and are joined and written ``sim.CSV_BLOCK_ROWS`` at a time,
    so that the text of one block is held at a time."""
    rows = len(columns[0][1])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for i in range(0, rows, CSV_BLOCK_ROWS):
            block = slice(i, i + CSV_BLOCK_ROWS)
            fh.write("\r\n".join(map(",".join, zip(*(text[code[block]].tolist()
                                                     for text, code in columns)))))
            fh.write("\r\n")
