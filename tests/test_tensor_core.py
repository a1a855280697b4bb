import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqbooth
from freqbooth.config import tiny_config, toy_config
from freqbooth.tensor_core import (_GOLDEN, RngState, _mix64, _words, assert_all_finite, matmul_t,
                                  softmax_rows)


def test_the_package_imports_only_the_standard_library_and_numpy():
    # other packages (scipy among them) may be installed, so an import of one
    # would run; the package must still depend on numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "freqbooth"}
    sources = sorted(Path(freqbooth.__file__).parent.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    assert np.array_equal(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_survives_large_logits():
    out = softmax_rows(np.array([[1000.0, 1000.0, 1000.0]]))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)
    assert np.isfinite(out).all()


def test_softmax_matches_direct_formula():
    x = np.array([[1.0, 2.0, 3.0]])
    want = np.exp(x) / np.exp(x).sum()
    assert np.max(np.abs(softmax_rows(x) - want)) <= 1e-12


def test_softmax_positive_and_shift_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 7))
    base = softmax_rows(x.copy())  # the kernel overwrites its argument
    assert (base > 0).all()
    shifted = softmax_rows(x + rng.normal(size=(4, 1)))
    assert np.max(np.abs(base - shifted)) <= 1e-12


def pure_softmax(x):
    """The row softmax as it was written before it worked in place: the
    reference for the kernel's bits."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


LOGITS = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308]),
)


@given(st.integers(1, 4), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_softmax_kernel_matches_the_pure_formula_bit_for_bit(n_rows, n_cols, data):
    """Every row, ±inf, NaN, ±0.0 and 1e300 logits among them, gets the
    bits of the pure formula.  A NaN output is NaN in both, but its sign
    may differ: in a row holding NaN and +inf, the kernel subtracts +inf
    where the formula subtracts the NaN."""
    x = np.array(data.draw(st.lists(LOGITS, min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
    with np.errstate(invalid="ignore", over="ignore"):
        want = pure_softmax(x)
        got = softmax_rows(x.copy())
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    if not np.isnan(x).any():
        assert got.tobytes() == want.tobytes()


def test_softmax_normalises_its_argument_in_place():
    """The kernel writes into the float64 array it is given and returns it,
    over a batch axis too."""
    x = np.random.default_rng(4).normal(size=(2, 3, 5)) * 10.0
    want = pure_softmax(x)
    out = softmax_rows(x)
    assert out is x
    assert x.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# rng


def test_rng_same_state_same_draws():
    a = RngState(seed=7).normal([4])
    b = RngState(seed=7).normal([4])
    assert np.array_equal(a, b)


def test_rng_seed_sensitivity():
    assert not np.array_equal(RngState(7).normal([4]), RngState(8).normal([4]))


def test_rng_moments():
    draws = RngState(123).normal(100_000)
    assert -0.02 <= draws.mean() <= 0.02
    assert 0.97 <= draws.var() <= 1.03


def test_rng_counter_is_position_addressable():
    whole = RngState(5).normal(10)
    tail = RngState(5, counter=6).normal(4)
    assert np.array_equal(whole[6:], tail)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), counter=st.integers(0, 2 ** 40),
       n=st.integers(0, 12), data=st.data())
def test_rng_scalar_uniform_and_split_draws_match_the_vector_path(seed, counter, n, data):
    rng = RngState(seed, counter)
    word = _words(seed, 2 * counter, 1)[0]
    assert rng.uniform() == float((word >> np.uint64(11)).astype(np.float64) / 2.0 ** 53)
    assert rng.counter == counter + 1
    # a normal draw split at any counter equals the single draw
    split = data.draw(st.integers(0, n))
    whole = RngState(seed, counter).normal(n)
    parts = RngState(seed, counter)
    head = parts.normal(split)
    assert np.array_equal(np.concatenate([head, parts.normal(n - split)]), whole)
    assert parts.counter == counter + n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), counter=st.integers(0, 2 ** 40),
       count=st.integers(1, 6), shape=st.sampled_from([(4, 8, 8), (0,), (3,), (2, 0, 5)]),
       bound=st.integers(1, 1000))
def test_rng_example_draws_equal_rounds_of_randint_normal_and_uniform(seed, counter, count,
                                                                      shape, bound):
    rng = RngState(seed, counter)
    lead, normals, trail = rng.example_draws(count, shape)
    assert lead.shape == trail.shape == (count,) and normals.shape == (count, *shape)
    replay = RngState(seed, counter)
    for i in range(count):
        assert lead[i] == RngState(seed, replay.counter).uniform()
        assert int(lead[i] * bound) == replay.randint(bound)
        assert np.array_equal(normals[i], replay.normal(shape))
        assert trail[i] == replay.uniform()
    assert rng.counter == replay.counter == counter + count * (int(np.prod(shape)) + 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), counter=st.integers(0, 2 ** 40),
       steps=st.integers(0, 4), size=st.integers(1, 5),
       shape=st.sampled_from([(4, 8, 8), (0,), (3,), (2, 0, 5)]),
       population=st.integers(1, 2 ** 40))
def test_rng_step_draws_equal_rounds_of_randint_and_example_draws(seed, counter, steps, size,
                                                                  shape, population):
    rng = RngState(seed, counter)
    picks, lead, normals, trail = rng.step_draws(steps, size, population, shape)
    assert picks.shape == lead.shape == trail.shape == (steps, size)
    assert normals.shape == (steps, size, *shape)
    replay = RngState(seed, counter)
    for s in range(steps):
        assert picks[s].tolist() == [replay.randint(population) for _ in range(size)]
        want = replay.example_draws(size, shape)
        for got, value in zip((lead[s], normals[s], trail[s]), want):
            assert got.tobytes() == value.tobytes()
    assert rng.counter == replay.counter == counter + steps * size * (int(np.prod(shape)) + 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1])
@pytest.mark.parametrize("start", [0, 5, 2 ** 40 - 3, 2 ** 40, 2 ** 41 + 7])
def test_words_equal_the_scalar_mix_at_every_position(seed, start):
    """The in-place uint64 words wrap as the Python-int `_mix64` does, and
    raise no overflow warning."""
    got = _words(seed, start, 9)
    assert got.dtype == np.uint64
    assert got.tolist() == [_mix64(seed + (p + 1) * _GOLDEN) for p in range(start, start + 9)]


@pytest.mark.parametrize("shape", [(4, 8, 8), [3, 2], 5, (), (2, 0), (np.int64(3), 2)])
def test_rng_normal_advances_its_counter_by_the_draw_count(shape):
    """The counter stays a Python int, whether the shape is a tuple, a list
    or an int."""
    rng = RngState(11, 2 ** 40)
    draws = rng.normal(shape)
    n = int(np.prod(shape))
    assert draws.shape == np.empty(shape).shape
    assert type(rng.counter) is int and rng.counter == 2 ** 40 + n
    assert rng.normal(3).tolist() == RngState(11, 2 ** 40 + n).normal(3).tolist()
    rng.example_draws(2, (3, 4))
    assert type(rng.counter) is int and rng.counter == 2 ** 40 + n + 3 + 2 * 14
    rng.step_draws(2, 3, 7, (3, 4))
    assert type(rng.counter) is int and rng.counter == 2 ** 40 + n + 3 + 2 * 14 + 2 * 3 * 15


def test_rng_step_draws_reject_an_empty_population_before_drawing():
    rng = RngState(3, 5)
    with pytest.raises(ValueError, match="bound must be positive"):
        rng.step_draws(2, 4, 0, (3,))
    assert rng.counter == 5


def test_rng_derive_streams_are_independent_and_stable():
    root = RngState(9)
    a1 = root.derive("a").normal(8)
    a2 = root.derive("a").normal(8)
    b = root.derive("b").normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert root.counter == 0  # derive does not consume the parent


def test_rng_uniform_and_randint_ranges():
    rng = RngState(11)
    us = [rng.uniform() for _ in range(200)]
    assert all(0.0 <= u < 1.0 for u in us)
    rng2 = RngState(11)
    assert all(0 <= rng2.randint(7) < 7 for _ in range(200))
    with pytest.raises(ValueError):
        rng2.randint(0)


# ---------------------------------------------------------------------------
# finiteness guard


def test_assert_all_finite():
    x = np.ones(3)
    assert assert_all_finite(x, "ok") is x
    with pytest.raises(FloatingPointError, match="prediction"):
        assert_all_finite(np.array([1.0, np.nan]), "prediction")
    with pytest.raises(FloatingPointError):
        assert_all_finite(np.array([np.inf]))


def plain_layout_sites(cfg, rows):
    """(name, x shape, y shape) of each `matmul_t(x, y)` call of a training
    step or `sample` on a `rows`-row stack under `cfg`."""
    seq, c, d, dff = cfg.latent_hw ** 2, cfg.latent_channels, cfg.d_model, cfg.d_ff
    return [
        ("out_proj", (rows, seq, c), (d, c)),
        ("ff_w2", (rows, seq, d), (dff, d)),
        ("ff_w1", (rows, seq, dff), (d, dff)),
        ("w_query, w_key, w_value", (rows, seq, d), (d, d)),
        ("self-term scores and da", (rows, seq, d), (rows, seq, d)),
        # the pooler's learned queries attend over each reference's seq patch tokens
        ("pooler scores", (cfg.n_query, cfg.d_query), (rows, seq, cfg.d_query)),
        ("pooler da", (rows, cfg.n_query, cfg.d_id), (rows, seq, cfg.d_id)),
    ]


@pytest.mark.parametrize("rows", range(1, 9))
@pytest.mark.parametrize("cfg", [toy_config(), tiny_config()], ids=["toy", "tiny"])
def test_the_plain_layout_gives_the_transposed_products_bits(cfg, rows):
    """Each `matmul_t` site equals the transposed-operand product bit for
    bit at the shapes the toy model's steps and samples and the tiny
    gradient check run.  The two layouts are two BLAS kernels, so a BLAS
    that rounds them differently fails here, naming the site."""
    rng = np.random.default_rng(rows)
    for name, x_shape, y_shape in plain_layout_sites(cfg, rows):
        for _ in range(10):
            x, y = rng.standard_normal(x_shape), rng.standard_normal(y_shape)
            assert np.array_equal(matmul_t(x, y), x @ y.swapaxes(-1, -2)), name
