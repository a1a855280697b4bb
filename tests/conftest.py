"""Shared fixtures: a small dataset and a staged-trained tiny model.

Session-scoped so the expensive pieces (rendering, training) run once.  The
tiny model uses reduced dims and step counts; it exercises every code path
without aiming for converged quality.
"""

import numpy as np
import pytest

from freqbooth import training
from freqbooth.config import tiny_config, toy_config
from freqbooth.dct_freq import MaskKind, make_control_signal
from freqbooth.diffusion import (cfg_combine, ddim_step, init_weights, linear_schedule,
                                 predict_eps, project_conditions, sampling_timesteps,
                                 time_terms)
from freqbooth.netpbm import _read_tokens, quantize
from freqbooth.reference_encoder import (build_encoders, decode_latent, encode_latent,
                                         reference_forward)
from freqbooth.training import ToyDatasetSpec, TrainConfig, generate_dataset, train

SMALL_SPEC = ToyDatasetSpec(n_identities=4, n_contexts=2, image_size=8,
                            train_size=16, test_size=8)


@pytest.fixture(scope="session")
def tiny_cfg():
    return tiny_config()


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_dataset(SMALL_SPEC, 0)


@pytest.fixture(scope="session")
def tiny_enc(tiny_cfg):
    return build_encoders(tiny_cfg)


@pytest.fixture(scope="session")
def tiny_schedule(tiny_cfg):
    return linear_schedule(tiny_cfg.timesteps)


@pytest.fixture(scope="session")
def tiny_trained(tiny_cfg, tiny_dataset, tiny_schedule, tiny_enc):
    """Weights taken through all three stages at token counts small enough
    for unit tests; returns (weights, reports-by-stage)."""
    weights = init_weights(tiny_cfg, 0)
    reports = {}
    for stage, steps in ((0, 40), (1, 40), (2, 20)):
        mask = MaskKind.LOW if stage == 2 else None
        cfg = TrainConfig(stage=stage, steps=steps, seed=0, mask_kind=mask)
        reports[stage] = train(cfg, tiny_dataset, weights, tiny_schedule, tiny_enc)
    return weights, reports


@pytest.fixture(scope="session")
def toy_cfg():
    return toy_config()


@pytest.fixture(scope="session")
def toy_enc(toy_cfg):
    return build_encoders(toy_cfg)


def rand_image(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(3, size, size))


def striped_test_image(size: int = 32, angle: float = 0.4,
                       freq: float = 5.0) -> np.ndarray:
    """Full-frame two-color stripes; the fixture for filter comparisons."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    proj = (xx * np.cos(angle) + yy * np.sin(angle)) / size
    tex = 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * proj)
    a = np.array([0.9, 0.8, 0.25])
    b = np.array([0.1, 0.2, 0.55])
    return quantize(a[:, None, None] * tex + b[:, None, None] * (1.0 - tex))


def read_pfm(path) -> np.ndarray:
    """Read colour PFM into a (3, H, W) float64 array: the reader for the
    float sidecars `write_pfm` makes."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"PF"):
        raise ValueError(f"{path}: not a colour PFM (PF) file")
    (w, h, scale), body = _read_tokens(data, 3, 2)
    w, h, scale = int(w), int(h), float(scale)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image size {w}x{h} is not positive")
    dtype = "<f4" if scale < 0 else ">f4"
    n = h * w * 3
    if len(data) - body < 4 * n:
        raise ValueError(f"{path}: truncated raster")
    raster = np.frombuffer(data, dtype=dtype, count=n, offset=body)
    img = raster.reshape(h, w, 3)[::-1]
    return np.moveaxis(img, -1, 0).astype(np.float64)


def predict_one(weights, z, t, text_id, feats=None, ctrl=None, scale=0.0):
    """`predict_eps` on one latent with its own per-block identity features
    and control latent, run as a one-row stack."""
    identity = None if feats is None else ([0], [f[None] for f in feats])
    cond = project_conditions(weights, [text_id], identity,
                              None if ctrl is None else ([0], ctrl[None]), scale)
    return predict_eps(weights, z[None], time_terms(weights, [t], cond), cond)[0]


def both_branch_sample(weights, enc, schedule, rng, steps, ref_img=None,
                       text_id=None, identity_scale=0.0, guidance=1.0, mask_kind=None):
    """`sample` written out by hand with both guidance branches evaluated
    on their own, each a one-row stack: conditional and unconditional
    `predict_eps` on the one latent, with the reference branch run on the
    reference image alone, then `cfg_combine(..., guidance)` and
    `ddim_step`, then the decode."""
    cfg = weights.config
    identity = None
    if ref_img is not None and identity_scale != 0.0:
        identity = reference_forward(ref_img, weights.projection, weights.id_heads(), enc)
    ctrl = None
    if mask_kind is not None:
        ctrl = make_control_signal(encode_latent(ref_img, enc), mask_kind)
    z = rng.normal((cfg.latent_channels, cfg.latent_hw, cfg.latent_hw))
    taus = sampling_timesteps(schedule.timesteps, steps)
    for m in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[m]), int(taus[m - 1])
        eps_cond = predict_one(weights, z, t, text_id, identity, ctrl, identity_scale)
        eps_uncond = predict_one(weights, z, t, None)
        z = ddim_step(z, cfg_combine(eps_cond, eps_uncond, guidance), t, t_prev, schedule)
    return decode_latent(z, enc)


def flip_one_gradient(monkeypatch):
    """Make `training.batch_loss` negate one analytic gradient, the kind of
    backward bug the gradient check exists to catch."""
    real = training.batch_loss

    def flipped(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        if grads:
            first = sorted(grads)[0]
            grads[first] = -grads[first]
        return loss, grads

    monkeypatch.setattr(training, "batch_loss", flipped)
