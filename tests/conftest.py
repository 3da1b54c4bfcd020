import os

# one BLAS thread, set before numpy loads: on a shared 2-core machine the
# default thread count makes the simplex's small products contend for the
# cores (a warm 48-step re-plan took 0.18 s instead of 0.008 s)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from vppdispatch.domain import (  # noqa: E402
    BuildingSeries,
    GenerationDevice,
    MarketSeries,
    ProblemInstance,
    StorageDevice,
    TimeGrid,
)


@pytest.fixture
def two_building_instance() -> ProblemInstance:
    T = 48
    grid = TimeGrid(0, T)
    hours = grid.hour_of_day
    load0 = 1.0 + 0.5 * np.sin(2 * np.pi * (hours - 13) / 24)
    load1 = 0.8 + 0.4 * np.sin(2 * np.pi * (hours - 12) / 24)
    solar = np.where((hours > 6) & (hours < 18), np.sin(np.pi * (hours - 6) / 12) ** 2, 0.0)
    return ProblemInstance(
        grid=grid,
        buildings=(
            BuildingSeries("b0", load0, 1.5 * solar),
            BuildingSeries("b1", load1, 1.2 * solar),
        ),
        generators=(
            GenerationDevice("pv_b0", np.zeros(T), 2.0),
            GenerationDevice("pv_b1", np.zeros(T), 1.8),
        ),
        storages=(
            StorageDevice("bat_b0", 0.0, 5.0, 1.5, 1.5, 2.0),
            StorageDevice("bat_b1", 0.0, 4.0, 1.0, 1.0, 0.0),
        ),
        market=MarketSeries(
            np.where(np.isin(hours, (16, 17, 18, 19, 20)), 0.24, 0.08),
            0.4 + 0.15 * np.sin(2 * np.pi * (hours - 15) / 24),
        ),
    )
