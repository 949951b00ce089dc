"""Practical-efficiency model: fiber transmission, detection, and the
one-copy vs two-copy resource ratio.

A distributed N-photon state survives transport and detection with
probability (eta_t eta_d eta_c)^N per copy, eta_t = exp(-L/L0) being the
fiber transmission over distance L with attenuation length L0. Schemes that
consume two copies per purification round pay that factor twice plus a 1/4
success penalty for the linear-optical two-copy gate, which is where the
ratio R = 4 / (eta_t eta_d eta_c)^N comes from; R is independent of the
protocol's own success probability p1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EfficiencyParams:
    """Scalar efficiencies of one distribution-and-detection experiment."""

    eta_d: float  # detector efficiency
    eta_c: float  # fiber-to-detector coupling probability
    L: float  # transmission distance, km
    L0: float  # attenuation length, km (25 for commercial fiber)
    N: int  # photon count
    p1: float = 1.0  # protocol success probability

    def __post_init__(self):
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError(f"eta_d must lie in [0, 1], got {self.eta_d!r}")
        if not 0.0 <= self.eta_c <= 1.0:
            raise ValueError(f"eta_c must lie in [0, 1], got {self.eta_c!r}")
        if self.L < 0.0:
            raise ValueError(f"distance must be >= 0, got {self.L!r}")
        if self.L0 <= 0.0:
            raise ValueError(f"attenuation length must be > 0, got {self.L0!r}")
        if self.N < 2:
            raise ValueError(f"photon count must be >= 2, got {self.N!r}")
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1!r}")

    @property
    def eta_t(self) -> float:
        return math.exp(-self.L / self.L0)


def p_one(params: EfficiencyParams) -> float:
    """Total efficiency of the single-copy scheme: p1 (eta_t eta_d eta_c)^N."""
    return params.p1 * (params.eta_t * params.eta_d * params.eta_c) ** params.N


def p_two(params: EfficiencyParams) -> float:
    """Total efficiency of a two-copy scheme: p1/4 (eta_t eta_d eta_c)^(2N)."""
    return 0.25 * params.p1 * (params.eta_t * params.eta_d * params.eta_c) ** (2 * params.N)


def ratio_R(params: EfficiencyParams) -> float:
    """Efficiency advantage of one copy over two: 4 / (eta_t eta_d eta_c)^N.

    Raises ValueError where (eta_t eta_d eta_c)^N underflows to 0 or R
    overflows, since no finite ratio can be reported there.
    """
    survival = (params.eta_t * params.eta_d * params.eta_c) ** params.N
    if survival == 0.0 or not math.isfinite(4.0 / survival):
        raise ValueError(
            f"R is not finite at L={params.L!r}, N={params.N!r}: (eta_t eta_d eta_c)^N = {survival!r}"
        )
    return 4.0 / survival


def axis_values(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop; each value from its index, so no error accumulates."""
    return [start + i * step for i in range(math.floor((stop - start) / step + 1e-9) + 1)]


def sweep(
    params: EfficiencyParams,
    axis: str,
    start: float,
    stop: float,
    step: float = 1.0,
) -> list[tuple[float, float]]:
    """Rows of (axis value, R) with the axis parameter swept inclusively.

    ``axis`` is "L" (distance, km) or "N" (photon count); the other
    parameters are taken from ``params``.
    """
    if axis not in ("L", "N"):
        raise ValueError(f"sweep axis must be 'L' or 'N', got {axis!r}")
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step!r}")
    if stop < start:
        raise ValueError(f"empty sweep range [{start}, {stop}]")
    rows = []
    for value in axis_values(start, stop, step):
        if axis == "L":
            point = replace(params, L=float(value))
            rows.append((float(value), ratio_R(point)))
        else:
            point = replace(params, N=int(round(value)))
            rows.append((float(int(round(value))), ratio_R(point)))
    return rows
