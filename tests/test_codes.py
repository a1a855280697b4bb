import numpy as np
import pytest

from freqbooth.codes import _time_divisors, grid_position_codes, time_features


def test_grid_codes_shape_and_determinism():
    a = grid_position_codes(3, 4, 8)
    b = grid_position_codes(3, 4, 8)
    assert a.shape == (12, 8)
    assert np.array_equal(a, b)


def test_grid_codes_distinguish_positions():
    codes = grid_position_codes(4, 4, 16)
    gram = codes @ codes.T
    norms = np.sqrt(np.diag(gram))
    cos = gram / np.outer(norms, norms)
    off = cos - np.eye(16) * cos
    assert off.max() < 0.999


def test_grid_codes_dim_validation():
    with pytest.raises(ValueError, match="multiple of 4"):
        grid_position_codes(2, 2, 6)


def test_time_features_determinism_and_range():
    a = time_features(17, 8, 200)
    assert a.shape == (8,)
    assert np.array_equal(a, time_features(17, 8, 200))
    assert np.max(np.abs(a)) <= 1.0
    assert not np.array_equal(a, time_features(18, 8, 200))
    # an array of timesteps gives one row per timestep, each bit-equal to its own call
    ts = np.array([17, 0, 200, 93, 17])
    rows = time_features(ts, 8, 200)
    assert rows.shape == (5, 8)
    for t, row in zip(ts, rows):
        assert row.tobytes() == time_features(int(t), 8, 200).tobytes()


def test_the_time_divisors_are_computed_once_and_read_only():
    """Every call with one (dim, max_steps) shares one divisor array, which
    no caller can change under the others."""
    div = _time_divisors(6, 123)
    assert _time_divisors(6, 123) is div
    assert not div.flags.writeable
    assert np.array_equal(np.sin(5 / div), time_features(5, 6, 123)[0::2])


def test_time_features_dim_validation():
    with pytest.raises(ValueError, match="even"):
        time_features(0, 5, 100)
