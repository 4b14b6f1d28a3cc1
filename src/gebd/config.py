"""Settings of the flow, window, training and detection layers.

These dataclasses import no numpy, so :class:`gebd.pipeline.PipelineConfig`
validates a configuration without loading the numeric code.  Each is
re-exported by the module that uses it: :mod:`gebd.flow`,
:mod:`gebd.windows`, :mod:`gebd.classifier` and :mod:`gebd.postprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlowConfig:
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    iterations_per_level: int = 3
    poly_window: int = 5
    poly_sigma: float = 1.1
    averaging_window: int = 15

    def validate(self) -> None:
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 0 < self.pyramid_scale < 1:
            raise ValueError("pyramid_scale must be in (0,1)")
        if self.iterations_per_level < 1:
            raise ValueError("iterations_per_level must be >= 1")
        for name in ("poly_window", "averaging_window"):
            v = getattr(self, name)
            if v < 3 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3, got {v}")
        if self.poly_sigma <= 0:
            raise ValueError("poly_sigma must be positive")


@dataclass(frozen=True)
class WindowSpec:
    m: int = 5
    candidate_stride: float = 0.25
    image_side: int = 224
    label_tolerance: float = 0.125

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.candidate_stride <= 0:
            raise ValueError("candidate_stride must be positive")
        if self.image_side < 32:
            raise ValueError("image_side must be >= 32")
        if self.label_tolerance < 0:
            raise ValueError("label_tolerance must be >= 0")


def check_stride(meta, stride: float) -> None:
    """Refuse a candidate ``stride`` that is not positive, or, naming the
    video, one not shorter than ``meta.duration`` (a ``VideoMeta``)."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    if stride >= meta.duration:
        raise ValueError(f"{meta.video_id}: stride {stride} must be smaller "
                         f"than duration {meta.duration}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    decay_factor: float = 0.1
    decay_every: int = 10
    epochs: int = 16
    batch_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay_factor must be in (0,1]")
        for name in ("decay_every", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:  # np.random.default_rng refuses it only in stage train
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DetectionConfig:
    smooth_sigma: float = 1.0  # in candidate steps; 0 disables smoothing
    score_threshold: float = 0.5
    min_separation: float = 0.5  # seconds

    def validate(self) -> None:
        if self.smooth_sigma < 0:
            raise ValueError("smooth_sigma must be >= 0")
        if self.min_separation < 0:
            raise ValueError("min_separation must be >= 0")
