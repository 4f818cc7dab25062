"""Frozen desk-scale map suites for training, validation, and benchmarks."""

from __future__ import annotations

from .episode import EpisodeConfig
from .walkmap import generate_synthetic_map

DEFAULT_OBSTACLE_DENSITY = 5.0  # per 100 m^2
BENCH_OBSTACLE_DENSITY = 8.0    # per 100 m^2, on the throughput benchmark's map

# (kind, length, width, geometry seed); sizes leave room for 10-15 m goals
_TRAIN_SPECS = [
    ("corridor", 32.0, 3.5, 11),
    ("corridor", 38.0, 4.0, 12),
    ("corridor", 30.0, 3.0, 13),
    ("corridor", 42.0, 4.5, 14),
    ("L-shape", 16.0, 3.5, 15),
    ("L-shape", 18.0, 4.0, 16),
    ("L-shape", 14.0, 3.0, 17),
    ("L-shape", 20.0, 4.5, 18),
    ("grid", 26.0, 3.5, 19),
    ("grid", 30.0, 4.0, 20),
]

_VAL_SPECS = [
    ("corridor", 34.0, 3.5, 101),
    ("corridor", 40.0, 4.0, 102),
    ("corridor", 31.0, 3.0, 103),
    ("L-shape", 17.0, 3.5, 104),
    ("L-shape", 15.0, 4.0, 105),
    ("L-shape", 19.0, 3.0, 106),
    ("grid", 28.0, 4.0, 107),
    ("grid", 32.0, 3.5, 108),
]


def _configs(specs, density: float, **overrides) -> list[EpisodeConfig]:
    configs = []
    for kind, length, width, seed in specs:
        wmap = generate_synthetic_map(kind, length, width, seed=seed)
        configs.append(EpisodeConfig(map=wmap, obstacle_density=density, **overrides))
    return configs


def training_suite(density: float = DEFAULT_OBSTACLE_DENSITY, **overrides):
    return _configs(_TRAIN_SPECS, density, **overrides)


def validation_suite(density: float = DEFAULT_OBSTACLE_DENSITY, **overrides):
    return _configs(_VAL_SPECS, density, **overrides)


def obstacle_free_suite(**overrides):
    return _configs(_VAL_SPECS, 0.0, **overrides)


def bench_config(density: float = BENCH_OBSTACLE_DENSITY) -> EpisodeConfig:
    """A busy grid map: representative load for the throughput benchmark."""
    wmap = generate_synthetic_map("grid", 24.0, 4.5, seed=7)
    return EpisodeConfig(map=wmap, obstacle_density=density)
