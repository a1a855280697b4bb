"""Model/geometry configuration shared by the encoder, denoiser, and trainer."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


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
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{field.name} must be an integer >= 1, got {value!r}")
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

