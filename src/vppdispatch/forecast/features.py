"""Feature construction for the forecasting models.

A feature vector for step t combines cyclic calendar encodings of t with
the last K observed values of the target series (strictly before t).  The
recurrent models consume sequences of single-lag rows instead of one wide
vector: row s holds the value at s-1 and the calendar of s.  Those rows are built for a whole range of steps
at once, and the training windows are strided views over them, copied out
once; the values are the same bits as building each row on its own.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..domain import TimeGrid


class InsufficientHistoryError(ValueError):
    pass


def calendar_encoding(grid: TimeGrid, t: int | np.ndarray) -> np.ndarray:
    """Sin/cos pairs for hour of day, day of week and month of year at step t.

    ``t`` is an int, giving shape (6,), or an integer array of n steps,
    giving shape (6, n) with one column per step.
    """
    idx = grid.start_index + t
    hour = idx % 24
    dow = (idx // 24) % 7
    month = (idx // 720) % 12
    angles = np.array([2 * np.pi * hour / 24.0, 2 * np.pi * dow / 7.0, 2 * np.pi * month / 12.0])
    return np.concatenate([np.sin(angles), np.cos(angles)])[[0, 3, 1, 4, 2, 5]]


def build_features(history: np.ndarray, calendar: TimeGrid, t: int, K: int) -> np.ndarray:
    """Features for predicting from step ``t``, shape (6 + K,): the calendar
    encoding of t, then the K values of ``history`` immediately before t
    (most recent last)."""
    history = np.asarray(history, dtype=np.float64)
    if K < 1:
        raise ValueError("lag count K must be >= 1")
    if t - K < 0 or t > history.shape[0]:
        raise InsufficientHistoryError(
            f"need {K} observations before step {t}, history covers [0, {history.shape[0]})"
        )
    return np.concatenate([calendar_encoding(calendar, t), history[t - K : t]])


def _sequence_rows(history: np.ndarray, calendar: TimeGrid, first: int, stop: int) -> np.ndarray:
    """Recurrent input rows for steps s in [first, stop), shape (stop - first, 7):
    the observed value at s-1, then the calendar encoding of s."""
    steps = np.arange(first, stop)
    return np.column_stack([history[steps - 1], calendar_encoding(calendar, steps).T])


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
    history = np.asarray(history, dtype=np.float64)
    _check_sequence_range(history, t, K)
    return _sequence_rows(history, calendar, t - K + 1, t + 1)


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
    rows = _sequence_rows(history, calendar, first - K + 1, last + 1)
    X = np.ascontiguousarray(sliding_window_view(rows, K, axis=0).transpose(0, 2, 1))
    Y = sliding_window_view(history[first:t_end], horizon).copy()
    return X, Y
