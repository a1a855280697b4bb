"""Model/geometry configuration shared by the encoder, denoiser, and trainer,
and the package's two type rules, which every count and real-valued setting
goes through: `check_int` (a `numbers.Integral` other than a bool, so a numpy
integer is one and a float or a string none) and `check_real` (a
`numbers.Real` other than a bool).
This module imports nothing from the package.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as an int, or ValueError naming `what` unless it is an integer
    (a `numbers.Integral` other than a bool) >= `low` and, where `high` is
    given, in `low`..`high`; a None `low` leaves it unbounded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if high is not None and not low <= value <= high:
        raise ValueError(f"{what} must be in {low}..{high}, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return value


def check_real(value, what: str) -> float:
    """`value` as a float, or ValueError naming `what` unless it is a real
    number: a bool or a string is none, though float() would take it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} {value!r} is not a real number")
    return float(value)


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32        # square RGB input
    patch: int = 4              # codec + tokenizer patch edge; latent downsample factor
    d_model: int = 32
    n_blocks: int = 2
    d_ff: int = 32
    d_time: int = 8             # sinusoidal timestep feature dim
    n_text: int = 4             # text/context classes; one extra null row is reserved
    d_tok: int = 16             # patch token embedding dim
    d_query: int = 16           # identity pooler query/key dim
    d_id: int = 16              # identity feature dim
    n_query: int = 8            # identity tokens emitted by the pooler
    timesteps: int = 200

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, check_int(getattr(self, field.name),
                                                           field.name, 1))
        if self.image_size % self.patch != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch {self.patch}"
            )

    @property
    def latent_channels(self) -> int:
        """The codec's four analysis directions (see `reference_encoder`)."""
        return 4

    @property
    def latent_hw(self) -> int:
        return self.image_size // self.patch

    @property
    def null_text_id(self) -> int:
        return self.n_text


def toy_config(**overrides) -> ModelConfig:
    """Desk-scale default: 32x32 images, 8x8 latents, 200-step schedule."""
    return replace(ModelConfig(), **overrides) if overrides else ModelConfig()


def tiny_config() -> ModelConfig:
    """Gradient-check preset: every matrix dimension is <= 8."""
    return ModelConfig(image_size=8, patch=4, d_model=8, d_ff=6, d_time=4,
                       n_text=2, d_tok=8, d_query=4, d_id=4, n_query=2,
                       n_blocks=2, timesteps=50)

