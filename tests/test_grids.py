import numpy as np
import pytest

from fracdyn.errors import DomainError
from fracdyn.grids import (GridSpec, TimeGrid, validate_spatial_order,
                           validate_temporal_order)


def test_grid_dx_times_n_is_length():
    for n, L in [(8, 1.0), (256, 2 * np.pi), (100, 7.3)]:
        g = GridSpec(n, L)
        assert abs(g.dx * n - L) <= 8 * np.finfo(float).eps * L


def test_wavenumbers_count_and_zero_mode():
    g = GridSpec(16, 2 * np.pi)
    k = g.wavenumbers
    assert len(k) == 16
    assert np.sum(k == 0.0) == 1
    # integer wavenumbers on the 2*pi domain
    assert set(np.round(k).astype(int)) == set(range(-8, 8))


def test_grid_rejects_bad_args():
    with pytest.raises(DomainError):
        GridSpec(1, 1.0)
    with pytest.raises(DomainError):
        GridSpec(8, -1.0)


def test_time_grid_uniform_increasing():
    tg = TimeGrid(10, 0.25)
    t = tg.t
    assert np.all(np.diff(t) > 0)
    assert np.allclose(np.diff(t), 0.25, rtol=0, atol=0)
    assert tg.t_final == 2.5
    with pytest.raises(DomainError):
        TimeGrid(0, 0.1)
    with pytest.raises(DomainError):
        TimeGrid(5, 0.0)


def test_fractional_order_ranges():
    assert validate_spatial_order(1.5) == 1.5
    assert validate_temporal_order(0.5) == 0.5
    # classical limits allowed
    assert validate_spatial_order(2.0) == 2.0
    assert validate_temporal_order(2.0) == 2.0
    with pytest.raises(DomainError):
        validate_spatial_order(2.5)
    with pytest.raises(DomainError):
        validate_temporal_order(0.0)
    assert validate_spatial_order(1.0) == 1.0  # |k|^alpha is regular at 1
    with pytest.raises(DomainError):
        validate_temporal_order(1.5, allow_high=False)
