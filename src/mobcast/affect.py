"""Campaign designs and affective response formation.

A design is the controllable stimulus: format, symbol placement in
identity space, narrative hook strength, call-and-response staging,
toxicity, and how seeds are chosen. An agent's affective response is an
affine function of exposure, symbol matching, and organizational context,
with exposure interactions, plus agent-level noise. Observed survey items
load on that latent response with item noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import identity_similarity

__all__ = [
    "FORMATS",
    "PARTICIPATORY_FORMATS",
    "SEEDING_STRATEGIES",
    "Design",
    "AffectParams",
    "MeasurementParams",
    "DesignError",
    "matching_vector",
    "affect_vector",
    "measure_items",
]

FORMATS = ("meme", "theatre", "song", "mural")
PARTICIPATORY_FORMATS = ("theatre", "song", "mural")
SEEDING_STRATEGIES = ("random", "top_degree", "top_matching")


class DesignError(ValueError):
    pass


def require_finite(params) -> None:
    """Raise DesignError if a float field of the dataclass params, or a
    float inside a tuple field, is NaN or infinite. Range checks alone
    let NaN through, since every comparison with NaN is false."""
    for name, value in vars(params).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                where = f"{type(params).__name__}.{name}"
                raise DesignError(f"{where} must be finite, got {v!r}")


@dataclass(frozen=True, order=True)
class Design:
    """One campaign configuration. Ordered and hashable so design grids
    can be enumerated and tie-broken deterministically."""

    format: str
    symbols: tuple[float, ...]
    hook: float
    call_and_response: bool
    toxicity: float
    seed_fraction: float
    seeding: str

    def validate(self, identity_dim: int | None = None) -> None:
        if self.format not in FORMATS:
            raise DesignError(f"unknown format {self.format!r}")
        if self.seeding not in SEEDING_STRATEGIES:
            raise DesignError(f"unknown seeding strategy {self.seeding!r}")
        if not 0.0 <= self.hook <= 1.0:
            raise DesignError("hook must be in [0, 1]")
        if not 0.0 <= self.toxicity <= 1.0:
            raise DesignError("toxicity must be in [0, 1]")
        if not 0.0 <= self.seed_fraction <= 1.0:
            raise DesignError("seed_fraction must be in [0, 1]")
        if any(not 0.0 <= s <= 1.0 for s in self.symbols):
            raise DesignError("symbol coordinates must be in [0, 1]")
        if identity_dim is not None and len(self.symbols) != identity_dim:
            raise DesignError(
                f"symbols have dim {len(self.symbols)}, graph has {identity_dim}")


@dataclass(frozen=True)
class AffectParams:
    """Coefficients of the affective response.

    v = a0 + a1 * (1 + hook) * E + a2 * m + a3 * c
        + a4 * (E * m) + a5 * (E * c) + u,   u ~ N(0, sigma_u^2)

    where E is exposure, m symbol matching, c organizational context.
    """

    a0: float = 0.0
    a1: float = 0.2
    a2: float = 1.05
    a3: float = 0.15
    a4: float = 0.15
    a5: float = 0.3
    sigma_u: float = 0.005

    def validate(self) -> None:
        require_finite(self)
        if self.sigma_u < 0:
            raise DesignError("sigma_u must be >= 0")


@dataclass(frozen=True)
class MeasurementParams:
    """Item model y_k = loading_k * v + intercept_k + eps, eps ~ N(0, sigma_eps^2)."""

    loadings: tuple[float, ...] = (1.0, 0.85, 0.7, 0.9, 0.75)
    intercepts: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0)
    sigma_eps: float = 0.4

    def validate(self) -> None:
        require_finite(self)
        if len(self.loadings) != len(self.intercepts):
            raise DesignError("loadings and intercepts must have equal length")
        if len(self.loadings) < 1:
            raise DesignError("at least one item is required")
        if self.sigma_eps < 0:
            raise DesignError("sigma_eps must be >= 0")


def matching_vector(identity: np.ndarray, design: Design) -> np.ndarray:
    return identity_similarity(identity, np.asarray(design.symbols))


def affect_vector(params: AffectParams, exposure: np.ndarray, match: np.ndarray,
                  context: np.ndarray, design: Design,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Latent affective response of every agent:
    a0 + a1 (1 + hook) e + a2 m + a3 c + e (a4 m + a5 c) for exposure e,
    matching m and context c, plus one N(0, sigma_u^2) draw per agent
    when a generator is given."""
    e = exposure.astype(np.float64)
    v = (params.a0
         + params.a1 * (1.0 + design.hook) * e
         + params.a2 * match
         + params.a3 * context
         + e * (params.a4 * match + params.a5 * context))
    if params.sigma_u > 0 and rng is not None:
        v = v + rng.normal(0.0, params.sigma_u, size=v.shape)
    return v


def measure_items(params: MeasurementParams, affect: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw the (n, K) item matrix for the given latent affect vector."""
    params.validate()
    affect = np.asarray(affect, dtype=np.float64)
    lam = np.asarray(params.loadings)
    nu = np.asarray(params.intercepts)
    y = affect[:, None] * lam[None, :] + nu[None, :]
    if params.sigma_eps > 0:
        y = y + rng.normal(0.0, params.sigma_eps, size=y.shape)
    return y
