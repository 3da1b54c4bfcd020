"""Feature construction for the forecasting models.

A feature vector for step t combines cyclic calendar encodings of t with
the last K observed values of the target series (strictly before t).  The
recurrent models consume sequences of single-lag rows instead of one wide
vector: row s holds the value at s-1 and the calendar of s.  Those rows are
built for a whole range of steps at once, and the training windows are
strided views over them, copied out once; the sequences of several series
at one step share one calendar block.  The values are the same bits as
building each row on its own.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..domain import TimeGrid


class InsufficientHistoryError(ValueError):
    pass


def _phase_table(period: int, phase: np.ndarray) -> np.ndarray:
    """Sin and cos, rows 0 and 1, of the angle ``2 pi phase / period``."""
    angle = 2 * np.pi * phase / float(period)
    return np.stack([np.sin(angle), np.cos(angle)])


# the hour-of-day and day-of-week pairs of each hour of the week, and the
# month-of-year pairs of each month
_WEEK = np.concatenate([_phase_table(24, np.arange(168) % 24), _phase_table(7, np.arange(168) // 24)])
_MONTH = _phase_table(12, np.arange(12))


def calendar_encoding(grid: TimeGrid, t: int | np.ndarray) -> np.ndarray:
    """Sin/cos pairs for hour of day, day of week and month of year at step t.

    ``t`` is an int, giving shape (6,), or an integer array of n steps,
    giving shape (6, n) with one column per step.  The pairs are looked up
    in tables over the hours of a week and the months of a year; each entry
    is the ``sin`` or ``cos`` of ``2 pi phase / period`` that the formula
    gives at that step.
    """
    idx = grid.start_index + t
    return np.concatenate([_WEEK.take(idx % 168, axis=-1), _MONTH.take(idx // 720 % 12, axis=-1)])


def build_features(history: np.ndarray, calendar: TimeGrid, t: int, K: int) -> np.ndarray:
    """Features for predicting from step ``t``, shape (6 + K,): the calendar
    encoding of t, then the K values of ``history`` immediately before t
    (most recent last)."""
    history = np.asarray(history, dtype=np.float64)
    return np.concatenate([calendar_encoding(calendar, t), lag_window(history, t, K)])


def lag_window(history: np.ndarray, t: int, K: int) -> np.ndarray:
    """The lag part of ``build_features``, with its checks: the K values of
    ``history`` immediately before t, shape (K,)."""
    if K < 1:
        raise ValueError("lag count K must be >= 1")
    if t - K < 0 or t > history.shape[0]:
        raise InsufficientHistoryError(
            f"need {K} observations before step {t}, history covers [0, {history.shape[0]})"
        )
    return history[t - K : t]


def _sequence_rows(histories: Sequence[np.ndarray], calendar: TimeGrid, first: int, stop: int) -> np.ndarray:
    """Recurrent input rows of M series for steps s in [first, stop), shape
    (M, stop - first, 7): the observed value at s-1, then the calendar
    encoding of s, which is encoded once for all series."""
    out = np.empty((len(histories), stop - first, 7))
    for m, history in enumerate(histories):
        out[m, :, 0] = history[first - 1 : stop - 1]
    out[:, :, 1:] = calendar_encoding(calendar, np.arange(first, stop)).T
    return out


def _check_sequence_range(history: np.ndarray, t: int, K: int) -> None:
    """The checks ``build_features`` makes for every row of the sequence ending at t."""
    if K < 1:
        raise ValueError("lag count K must be >= 1")
    if t - K < 0:
        raise InsufficientHistoryError(f"need {K} observations before step {t}")
    if t > history.shape[0]:
        raise InsufficientHistoryError(
            f"need {K} observations before step {t}, history covers [0, {history.shape[0]})"
        )


def recurrent_sequence(history: np.ndarray, calendar: TimeGrid, t: int, K: int) -> np.ndarray:
    """Input sequence for the recurrent models, shape (K, 7).

    Element k holds the observed value at step t-K+k followed by the
    calendar encoding of step t-K+k+1, so the last element carries the
    calendar of the first step to be predicted.
    """
    return recurrent_sequences([history], calendar, t, K)[0]


def recurrent_sequences(histories: Sequence[np.ndarray], calendar: TimeGrid, t: int, K: int) -> np.ndarray:
    """``recurrent_sequence`` of M series at one step, shape (M, K, 7).

    The calendar block of steps t-K+1 ... t is encoded once; each series
    gives only its lag column, and each is checked as ``recurrent_sequence``
    checks it.
    """
    histories = [np.asarray(history, dtype=np.float64) for history in histories]
    for history in histories:
        _check_sequence_range(history, t, K)
    return _sequence_rows(histories, calendar, t - K + 1, t + 1)


def window_dataset_linear(
    history: np.ndarray, calendar: TimeGrid, K: int, t_start: int, t_end: int
) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead training pairs for the linear model over [t_start, t_end)."""
    xs, ys = [], []
    for t in range(max(t_start, K), t_end):
        xs.append(build_features(history, calendar, t, K))
        ys.append(history[t])
    if not xs:
        raise InsufficientHistoryError("window range produced no training pairs")
    return np.stack(xs), np.asarray(ys)


def window_dataset_recurrent(
    history: np.ndarray, calendar: TimeGrid, K: int, horizon: int, t_start: int, t_end: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sequence/horizon training pairs: X (n, K, 7), Y (n, horizon).

    Pair i starts at t = max(t_start, K) + i; its sequence is
    ``recurrent_sequence(history, calendar, t, K)`` and its targets are
    ``history[t : t + horizon]``.
    """
    history = np.asarray(history, dtype=np.float64)
    first, last = max(t_start, K), t_end - horizon
    if last < first:
        raise InsufficientHistoryError("window range produced no training pairs")
    _check_sequence_range(history, last, K)
    if t_end > history.shape[0]:
        raise InsufficientHistoryError(
            f"targets run to step {t_end}, history covers [0, {history.shape[0]})"
        )
    rows = _sequence_rows([history], calendar, first - K + 1, last + 1)[0]
    X = np.ascontiguousarray(sliding_window_view(rows, K, axis=0).transpose(0, 2, 1))
    Y = sliding_window_view(history[first:t_end], horizon).copy()
    return X, Y
