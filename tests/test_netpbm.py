import numpy as np
import pytest

from freqbooth.netpbm import quantize, read_pfm, read_ppm, write_pfm, write_ppm


def test_ppm_roundtrip_is_exact_on_quantized_input(tmp_path):
    rng = np.random.default_rng(0)
    img = quantize(rng.uniform(size=(3, 5, 7)))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_bytes_are_deterministic(tmp_path):
    img = quantize(np.random.default_rng(1).uniform(size=(3, 4, 4)))
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(a, img)
    write_ppm(b, img)
    assert a.read_bytes() == b.read_bytes()


def test_ppm_clamps_out_of_range(tmp_path):
    img = np.array([[[-0.5]], [[0.5]], [[1.5]]])
    path = tmp_path / "clamp.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path).ravel(), [0.0, 0.5019607843137255, 1.0])


def test_ppm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255]))
    img = read_ppm(path)
    assert img.shape == (3, 1, 2)
    assert np.array_equal(img[:, 0, 1], [1.0, 1.0, 1.0])


def test_ppm_read_rejects_bad_files(tmp_path):
    bad_magic = tmp_path / "x.ppm"
    bad_magic.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="P6"):
        read_ppm(bad_magic)
    truncated = tmp_path / "t.ppm"
    truncated.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_ppm(truncated)
    deep = tmp_path / "d.ppm"
    deep.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_ppm(deep)


def test_ppm_write_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((1, 4, 4)))


def test_pfm_roundtrip_keeps_float32_precision(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.normal(size=(3, 4, 6)) * 10.0  # unclamped values survive
    path = tmp_path / "f.pfm"
    write_pfm(path, img)
    assert np.array_equal(read_pfm(path), img.astype(np.float32).astype(np.float64))


def test_pfm_grayscale_roundtrip(tmp_path):
    gray = np.random.default_rng(3).normal(size=(5, 3))
    path = tmp_path / "g.pfm"
    write_pfm(path, gray)
    back = read_pfm(path)
    assert back.shape == (5, 3)
    assert np.array_equal(back, gray.astype(np.float32).astype(np.float64))


def test_pfm_bytes_are_deterministic(tmp_path):
    img = np.random.default_rng(4).normal(size=(3, 4, 4))
    a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
    write_pfm(a, img)
    write_pfm(b, img)
    assert a.read_bytes() == b.read_bytes()


def test_pfm_read_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ValueError, match="PFM"):
        read_pfm(bad)
    short = tmp_path / "short.pfm"
    short.write_bytes(b"Pf\n2 2\n-1.0\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_pfm(short)
    with pytest.raises(ValueError):
        write_pfm(tmp_path / "x.pfm", np.zeros((2, 3, 4)))
