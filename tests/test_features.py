import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vppdispatch.domain import TimeGrid
from vppdispatch.forecast import (
    InsufficientHistoryError,
    build_features,
    calendar_encoding,
    recurrent_sequence,
    recurrent_sequences,
    window_dataset_linear,
    window_dataset_recurrent,
)

from oracles import recurrent_sequence_rows


def test_hour_zero_encoding():
    grid = TimeGrid(0, 48)
    fv = build_features(np.ones(30), grid, t=24, K=3)
    # step 24 is hour 0: sin 0, cos 1
    assert fv[:6][0] == pytest.approx(0.0, abs=1e-12)
    assert fv[:6][1] == pytest.approx(1.0)


def test_hour_six_is_quarter_cycle():
    grid = TimeGrid(0, 48)
    fv = build_features(np.ones(30), grid, t=6, K=3)
    assert fv[:6][0] == pytest.approx(1.0)
    assert fv[:6][1] == pytest.approx(0.0, abs=1e-12)


def test_constant_history_lags():
    grid = TimeGrid(0, 48)
    fv = build_features(np.full(20, 5.0), grid, t=10, K=3)
    assert np.array_equal(fv[6:], [5.0, 5.0, 5.0])


def test_lags_are_the_values_immediately_before_t():
    grid = TimeGrid(0, 48)
    history = np.arange(20.0)
    fv = build_features(history, grid, t=10, K=4)
    assert np.array_equal(fv[6:], [6.0, 7.0, 8.0, 9.0])


def test_insufficient_history_names_requirement():
    grid = TimeGrid(0, 48)
    with pytest.raises(InsufficientHistoryError, match="need 5"):
        build_features(np.ones(10), grid, t=3, K=5)


@settings(max_examples=40, deadline=None)
@given(t=st.integers(min_value=0, max_value=2000), start=st.integers(min_value=0, max_value=500))
def test_cyclic_encodings_bounded(t, start):
    enc = calendar_encoding(TimeGrid(start, 3000), t)
    assert enc.shape == (6,)
    assert np.all(enc >= -1.0) and np.all(enc <= 1.0)


def test_recurrent_sequence_shape_and_content():
    grid = TimeGrid(0, 48)
    history = np.arange(30.0)
    seq = recurrent_sequence(history, grid, t=10, K=4)
    assert seq.shape == (4, 7)
    # value column holds the observations before each step
    assert np.array_equal(seq[:, 0], [6.0, 7.0, 8.0, 9.0])


def test_window_datasets_align():
    grid = TimeGrid(0, 72)
    history = np.sin(np.arange(72.0))
    X, y = window_dataset_linear(history, grid, K=4, t_start=0, t_end=40)
    assert X.shape == (36, 10) and y.shape == (36,)
    assert y[0] == history[4]
    Xr, Yr = window_dataset_recurrent(history, grid, K=4, horizon=6, t_start=0, t_end=40)
    assert Xr.shape == (31, 4, 7) and Yr.shape == (31, 6)
    assert np.array_equal(Yr[0], history[4:10])


class TestSequencesMatchRowByRowOracle:
    """The vectorized recurrent features are the row-by-row ones, bit for bit."""

    HISTORY = np.random.default_rng(7).normal(3.0, 1.5, 1500)

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    # 700 and 8620 put month boundaries (idx // 720) inside the windows,
    # 8620 also the wrap from month 11 to month 0
    @pytest.mark.parametrize("start_index", [0, 5, 700, 1439, 8620])
    def test_recurrent_sequence(self, start_index):
        grid = TimeGrid(start_index, 1500)
        for K in (1, 4, 24):
            for t in [K, K + 1, 23, 24, 25, 700, 719, 720, 721, 1307, 1499, 1500]:
                if t < K:
                    continue
                got = recurrent_sequence(self.HISTORY, grid, t, K)
                ref = recurrent_sequence_rows(self.HISTORY, grid, t, K)
                assert got.shape == ref.shape == (K, 7)
                assert np.array_equal(self._bits(got), self._bits(ref)), (start_index, K, t)
                histories = [self.HISTORY, 2.0 * self.HISTORY + 1.0, self.HISTORY[::-1]]
                stacked = recurrent_sequences(histories, grid, t, K)
                assert stacked.shape == (3, K, 7) and stacked.flags.c_contiguous
                for history, got in zip(histories, stacked):
                    ref = recurrent_sequence_rows(history, grid, t, K)
                    assert np.array_equal(self._bits(got), self._bits(ref)), (start_index, K, t)

    @pytest.mark.parametrize("start_index", [0, 700, 8620])
    def test_window_dataset_recurrent(self, start_index):
        grid = TimeGrid(start_index, 1500)
        for K, horizon, t_start, t_end in [(24, 24, 0, 1300), (4, 6, 10, 60), (24, 24, 24, 48), (3, 1, 700, 760)]:
            X, Y = window_dataset_recurrent(self.HISTORY, grid, K, horizon, t_start, t_end)
            starts = range(max(t_start, K), t_end - horizon + 1)
            X_ref = np.stack([recurrent_sequence_rows(self.HISTORY, grid, t, K) for t in starts])
            Y_ref = np.stack([self.HISTORY[t : t + horizon] for t in starts])
            assert X.shape == X_ref.shape and Y.shape == Y_ref.shape
            # layout matters too: reductions over X sum in memory order
            assert X.flags.c_contiguous and Y.flags.c_contiguous
            assert np.array_equal(self._bits(X), self._bits(X_ref))
            assert np.array_equal(self._bits(Y), self._bits(Y_ref))

    def test_range_errors(self):
        grid = TimeGrid(0, 48)
        history = np.arange(30.0)
        with pytest.raises(InsufficientHistoryError):
            recurrent_sequence(history, grid, t=3, K=4)
        with pytest.raises(InsufficientHistoryError):
            recurrent_sequence(history, grid, t=31, K=4)
        with pytest.raises(ValueError):
            recurrent_sequence(history, grid, t=10, K=0)
        with pytest.raises(InsufficientHistoryError):
            recurrent_sequences([np.arange(40.0), history], grid, t=31, K=4)
        with pytest.raises(InsufficientHistoryError):
            window_dataset_recurrent(history, grid, K=4, horizon=6, t_start=0, t_end=9)
        with pytest.raises(InsufficientHistoryError):
            window_dataset_recurrent(history, grid, K=4, horizon=6, t_start=0, t_end=31)
