"""Shared fixtures: a small dataset and a staged-trained tiny model.

Session-scoped so the expensive pieces (rendering, training) run once.  The
tiny model uses reduced dims and step counts; it exercises every code path
without aiming for converged quality.
"""

import numpy as np
import pytest

from freqbooth import training
from freqbooth.config import tiny_config, toy_config
from freqbooth.dct_freq import MaskKind
from freqbooth.diffusion import init_weights, linear_schedule
from freqbooth.netpbm import quantize
from freqbooth.reference_encoder import build_encoders
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
