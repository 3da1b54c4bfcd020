import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vppdispatch.scenario import Forecasts, Uncertainty, _standard_normals, sample_scenarios

from oracles import drawing_sample_scenarios


def _forecasts(T=6):
    return Forecasts(
        solar=np.linspace(0, 2, T)[None, :],
        load=np.stack([np.full(T, 3.0), np.full(T, 1.0)]),
        price=np.full(T, 0.2),
    )


def test_zero_sigma_reproduces_point_forecasts():
    fc = _forecasts()
    scen = sample_scenarios(fc, Uncertainty.zero(), N=5, seed=0)
    for n in range(5):
        assert np.array_equal(scen.solar[n], fc.solar)
        assert np.array_equal(scen.load[n], fc.load)
        assert np.array_equal(scen.price[n], fc.price)


def test_negative_draws_truncated():
    fc = Forecasts(solar=np.full((1, 4), 0.1), load=np.full((1, 4), 0.1), price=np.full(4, 0.1))
    unc = Uncertainty(solar=np.full(4, 10.0), load=np.full(4, 10.0), price=np.full(4, 10.0))
    scen = sample_scenarios(fc, unc, N=200, seed=1)
    assert np.all(scen.solar >= 0) and np.all(scen.load >= 0) and np.all(scen.price >= 0)


def test_law_of_large_numbers_moments():
    T = 8
    fc = Forecasts(solar=np.zeros((0, T)), load=np.full((1, T), 100.0), price=np.full(T, 100.0))
    unc = Uncertainty(solar=np.zeros(T), load=np.full(T, 1.0), price=np.full(T, 1.0))
    scen = sample_scenarios(fc, unc, N=10000, seed=7)
    assert abs(float(scen.load.mean()) - 100.0) < 0.05
    assert abs(float(scen.load.std()) - 1.0) < 0.05


def test_determinism_given_seed():
    fc = _forecasts()
    unc = Uncertainty(solar=np.full(6, 0.3), load=np.full(6, 0.2), price=np.full(6, 0.01))
    a = sample_scenarios(fc, unc, N=9, seed=123)
    b = sample_scenarios(fc, unc, N=9, seed=123)
    assert np.array_equal(a.solar, b.solar)
    assert np.array_equal(a.load, b.load)
    assert np.array_equal(a.price, b.price)
    c = sample_scenarios(fc, unc, N=9, seed=124)
    assert not np.array_equal(a.load, c.load)


def test_mean_price_converges_toward_forecast():
    T = 12
    price = np.linspace(1.0, 2.0, T) + 5.0  # far from zero so truncation never bites
    fc = Forecasts(solar=np.zeros((0, T)), load=np.full((1, T), 10.0), price=price)
    unc = Uncertainty(solar=np.zeros(T), load=np.zeros(T), price=np.full(T, 0.5))
    errs = []
    for N in (1, 25, 300):
        scen = sample_scenarios(fc, unc, N=N, seed=11)
        errs.append(float(np.abs(scen.price.mean(axis=0) - price).mean()))
    assert errs[2] < errs[0]
    assert errs[2] < errs[1] or errs[1] < errs[0]


def test_zero_scenarios_rejected():
    with pytest.raises(ValueError):
        sample_scenarios(_forecasts(), Uncertainty.zero(), N=0, seed=0)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        Uncertainty(solar=np.array([-0.1]), load=np.zeros(1), price=np.zeros(1))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_every_sample_nonnegative(seed, n):
    fc = _forecasts()
    unc = Uncertainty(solar=np.full(6, 1.0), load=np.full(6, 2.0), price=np.full(6, 0.3))
    scen = sample_scenarios(fc, unc, N=n, seed=seed)
    assert np.all(scen.solar >= 0) and np.all(scen.load >= 0) and np.all(scen.price >= 0)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def test_cached_noise_matches_fresh_draws_bitwise():
    rng = np.random.default_rng(5)
    # interleaved shapes: an episode's shrinking tail, then a new episode
    cases = [(300, 2, 2, 24, 9), (300, 2, 2, 23, 9), (300, 2, 2, 24, 9), (50, 0, 1, 24, 9), (300, 2, 2, 24, 4)]
    for N, G, U, T, seed in cases:
        fc = Forecasts(
            solar=rng.uniform(0, 2, (G, T)), load=rng.uniform(0.5, 3, (U, T)), price=rng.uniform(0.05, 0.3, T)
        )
        unc = Uncertainty(solar=rng.uniform(0, 0.5, T), load=rng.uniform(0, 0.5, (U, T)), price=rng.uniform(0, 0.05, T))
        got = sample_scenarios(fc, unc, N, seed)
        ref = drawing_sample_scenarios(fc, unc, N, seed)
        assert got.seed == ref.seed
        for name in ("solar", "load", "price"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b)), (N, G, U, T, name)


def test_cached_noise_is_read_only():
    for noise in _standard_normals(3, 4, (2, 6), (1, 6)):
        with pytest.raises(ValueError):
            noise[0, 0] = 1.0
    scen = sample_scenarios(_forecasts(), Uncertainty.zero(), N=4, seed=3)
    scen.load[0, 0, 0] = 1.0  # the scenarios themselves are the caller's
