import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqbooth.dct_freq import (DEFAULT_THRESHOLDS, MaskKind, build_mask,
                                coverage_gap, dct2, dct_matrix, idct2,
                                make_control_signal)
from conftest import striped_test_image


def naive_dct2(x: np.ndarray) -> np.ndarray:
    """Direct double-sum evaluation of the orthonormal 2D transform."""
    h, w = x.shape
    out = np.zeros((h, w))
    m = lambda g: 1.0 / np.sqrt(2.0) if g == 0 else 1.0
    for u in range(h):
        for v in range(w):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += (x[i, j]
                            * np.cos((2 * i + 1) * u * np.pi / (2 * h))
                            * np.cos((2 * j + 1) * v * np.pi / (2 * w)))
            out[u, v] = 2.0 / np.sqrt(h * w) * m(u) * m(v) * acc
    return out


# ---------------------------------------------------------------------------
# transform


def test_constant_input_is_pure_dc():
    f = dct2(np.ones((1, 2, 2)))
    assert abs(f[0, 0, 0] - 2.0) <= 1e-12
    assert np.max(np.abs(f[0].ravel()[1:])) <= 1e-12


def test_delta_input_spreads_evenly():
    x = np.zeros((1, 2, 2))
    x[0, 0, 0] = 1.0
    assert np.max(np.abs(dct2(x) - 0.5)) <= 1e-12


def test_matches_double_sum_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 8, 8))
    assert np.max(np.abs(dct2(x)[0] - naive_dct2(x[0]))) <= 1e-10


def test_dc_only_spectrum_inverts_to_constant():
    f = np.zeros((1, 2, 2))
    f[0, 0, 0] = 2.0
    assert np.max(np.abs(idct2(f) - 1.0)) <= 1e-12


def test_zero_spectrum_inverts_to_zero():
    assert np.array_equal(idct2(np.zeros((2, 4, 4))), np.zeros((2, 4, 4)))


def test_roundtrip_recovers_input():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 16, 16))
    assert np.max(np.abs(idct2(dct2(x)) - x)) <= 1e-10


def test_norm_preserved_per_channel():
    rng = np.random.default_rng(2)
    for n in (8, 64):
        x = rng.normal(size=(3, n, n))
        f = dct2(x)
        for c in range(3):
            a, b = np.linalg.norm(f[c]), np.linalg.norm(x[c])
            assert abs(a - b) / b <= 1e-9


def test_linear_in_input():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 1, 8, 8))
    lhs = dct2(2.5 * x - 1.5 * y)
    rhs = 2.5 * dct2(x) - 1.5 * dct2(y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_two_dimensional_input_keeps_rank():
    x = np.random.default_rng(4).normal(size=(8, 8))
    assert dct2(x).shape == (8, 8)
    assert np.max(np.abs(idct2(dct2(x)) - x)) <= 1e-10


def test_transform_matrix_is_orthonormal():
    d = dct_matrix(8)
    assert np.max(np.abs(d @ d.T - np.eye(8))) <= 1e-12
    with pytest.raises(ValueError):
        dct_matrix(0)


@settings(max_examples=40, deadline=None)
@given(c=st.integers(1, 3), h=st.integers(2, 7), w=st.integers(2, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_roundtrip_and_parseval_on_rectangular_latents(c, h, w, seed):
    # h != w, so a row transform applied along the columns cannot pass
    assume(h != w)
    x = np.random.default_rng(seed).normal(size=(c, h, w))
    f = dct2(x)
    for ch in range(c):
        assert np.max(np.abs(f[ch] - naive_dct2(x[ch]))) <= 1e-10
        energy = np.sum(x[ch] ** 2)
        assert abs(np.sum(f[ch] ** 2) - energy) <= 1e-9 * energy
    assert np.max(np.abs(idct2(f) - x)) <= 1e-10


def test_rank_validation():
    with pytest.raises(ValueError, match="channels"):
        dct2(np.zeros(5))
    with pytest.raises(ValueError, match="channels"):
        dct2(np.zeros((2, 1, 4, 8, 8)))


# ---------------------------------------------------------------------------
# band masks


def enumerate_bits(kind: MaskKind, h: int, w: int) -> np.ndarray:
    mini_max, low_max, mid_max, high_min = DEFAULT_THRESHOLDS
    want = np.zeros((h, w), dtype=np.uint8)
    for u in range(h):
        for v in range(w):
            s = u + v
            keep = {
                MaskKind.MINI: s <= mini_max,
                MaskKind.LOW: s <= low_max,
                MaskKind.MID: low_max < s <= mid_max,
                MaskKind.HIGH: s >= high_min,
                MaskKind.ALL: True,
            }[kind]
            want[u, v] = int(keep)
    return want


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("kind", list(MaskKind))
def test_mask_bits_match_enumeration(kind, n):
    mask = build_mask(kind, n, n)
    assert np.array_equal(mask, enumerate_bits(kind, n, n))
    assert mask.dtype == np.uint8 and not mask.flags.writeable


def test_low_band_ones_count_at_64():
    assert build_mask(MaskKind.LOW, 64, 64).sum() == 231


def test_mini_band_saturates_small_grids():
    assert build_mask(MaskKind.MINI, 4, 4).all()


def test_high_band_empty_on_small_grids():
    assert not build_mask(MaskKind.HIGH, 8, 8).any()


@pytest.mark.parametrize("n", [8, 64])
def test_band_containment_and_disjointness(n):
    mini = build_mask(MaskKind.MINI, n, n).astype(bool)
    low = build_mask(MaskKind.LOW, n, n).astype(bool)
    mid = build_mask(MaskKind.MID, n, n).astype(bool)
    high = build_mask(MaskKind.HIGH, n, n).astype(bool)
    assert (mini <= low).all()
    assert not (low & mid).any()
    assert not (mid & high).any()


def test_coverage_gap_between_mid_and_high():
    gap = coverage_gap(64, 64)
    assert gap
    assert all(40 < u + v < 50 for u, v in gap)
    want = {(u, v) for u in range(64) for v in range(64) if 40 < u + v < 50}
    assert set(gap) == want
    assert coverage_gap(8, 8) == []


def test_mask_application_is_idempotent():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(1, 64, 64))
    bits = build_mask(MaskKind.MID, 64, 64)
    once = f * bits
    assert np.array_equal(once * bits, once)


def test_band_energy_nesting():
    rng = np.random.default_rng(6)
    for _ in range(5):
        f = dct2(rng.normal(size=(1, 32, 32)))
        mini = f * build_mask(MaskKind.MINI, 32, 32)
        low = f * build_mask(MaskKind.LOW, 32, 32)
        assert np.sum(mini ** 2) <= np.sum(low ** 2)


def test_a_mask_is_one_shared_read_only_array_per_kind_and_size():
    low = build_mask(MaskKind.LOW, 8, 8)
    assert build_mask("low", 8, 8) is low
    assert build_mask(MaskKind.LOW, 8, 4) is not low
    assert build_mask(MaskKind.MINI, 8, 8) is not low
    with pytest.raises(ValueError, match="read-only"):
        low[0, 0] = 0
    assert np.array_equal(low, enumerate_bits(MaskKind.LOW, 8, 8))


def test_mask_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_mask(MaskKind.LOW, 0, 4)
    with pytest.raises(ValueError):
        MaskKind("bogus")


# ---------------------------------------------------------------------------
# control signal


def test_all_pass_is_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 8, 8))
    assert np.max(np.abs(make_control_signal(x, MaskKind.ALL) - x)) <= 1e-9


def test_a_stack_filters_each_latent_alone():
    x = np.random.default_rng(9).normal(size=(3, 4, 8, 8))
    out = make_control_signal(x, MaskKind.LOW)
    for i in range(len(x)):
        assert np.array_equal(out[i], make_control_signal(x[i], MaskKind.LOW)), i


def test_high_pass_removes_the_mean():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 64, 64)) + 3.0
    out = make_control_signal(x, MaskKind.HIGH)
    assert np.max(np.abs(out.mean(axis=(1, 2)))) <= 1e-9


def test_narrower_band_blurs_more():
    img = striped_test_image()
    mini = make_control_signal(img, MaskKind.MINI)
    low = make_control_signal(img, MaskKind.LOW)
    assert mini.var() < low.var()
