"""Physical system parameters, energy bookkeeping, and exact bound-state relations.

Atomic units (mu = hbar = Kc = 1: lengths in Bohr radii, energies in
Hartree) are the defaults; every field documents its unit so SI values can
be substituted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple


@dataclass(frozen=True)
class SystemParams:
    """Immutable system definition.

    mu      -- reduced mass (mass unit)
    Kc      -- Coulomb strength |K| (energy * length); always positive,
               the attractive/repulsive character is the separate flag
    hbar    -- action quantum
    ndim    -- spatial dimension, >= 2
    attractive -- sign flag for the interaction (True: -Kc/r)
    """

    mu: float = 1.0
    Kc: float = 1.0
    hbar: float = 1.0
    ndim: int = 3
    attractive: bool = True

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.Kc <= 0.0:
            raise ValueError(
                f"Kc must be positive (use the 'attractive' flag for the sign), got {self.Kc}"
            )
        if self.hbar <= 0.0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if int(self.ndim) != self.ndim or self.ndim < 2:
            raise ValueError(f"ndim must be an integer >= 2, got {self.ndim}")

    def with_ndim(self, ndim: int) -> "SystemParams":
        return replace(self, ndim=ndim)


#: Atomic units, three dimensions, attractive.
AU = SystemParams()


class EnergySpec(NamedTuple):
    """Energy plus derived bound-state bookkeeping.

    E  -- energy (negative: bound regime, positive: scattering)
    a  -- orbit scale Kc / (2|E|) (length); semimajor axis for E < 0
    k  -- continuous radial quantum number (E < 0 only, NaN otherwise);
          eigenvalues sit at integer k >= 0
    nu -- k + 1, the conventional 'principal' label for n = 3 displays
    """

    E: float
    a: float
    k: float
    nu: float

    @classmethod
    def from_energy(cls, E: float, params: SystemParams) -> "EnergySpec":
        if E == 0.0 or not math.isfinite(E):
            raise ValueError(f"energy must be finite and nonzero, got {E}")
        a = params.Kc / (2.0 * abs(E))
        if E < 0.0:
            k = math.sqrt(params.mu * params.Kc**2 / (2.0 * params.hbar**2 * abs(E)))
            k -= (params.ndim - 1) / 2.0
            nu = k + 1.0
        else:
            k = math.nan
            nu = math.nan
        return cls(E=E, a=a, k=k, nu=nu)


def energy_eigenvalue(k: int, params: SystemParams) -> float:
    """Exact bound-state energy for radial quantum number k in n dimensions.

    E_k = -mu Kc^2 / (2 hbar^2 (k + (n-1)/2)^2),  k = 0, 1, 2, ...
    """
    if int(k) != k or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    n = params.ndim
    denom = (k + (n - 1) / 2.0) ** 2
    return -params.mu * params.Kc**2 / (2.0 * params.hbar**2 * denom)


def energy_from_nu(nu: float, params: SystemParams) -> EnergySpec:
    """EnergySpec for a (generally non-integer) principal label nu = k + 1."""
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    n = params.ndim
    denom = (nu - 1.0 + (n - 1) / 2.0) ** 2
    if denom == 0.0:
        raise ValueError(f"nu = {nu} gives an infinite energy")
    E = -params.mu * params.Kc**2 / (2.0 * params.hbar**2 * denom)
    return EnergySpec.from_energy(E, params)


def quantization_action(k: int, params: SystemParams) -> float:
    """Round-trip action selected by the quantization rule.

    W_2pi = h (k + (n-1)/2) with h = 2 pi hbar; an integer multiple of h
    only for odd n.
    """
    if int(k) != k or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    h = 2.0 * math.pi * params.hbar
    return h * (k + (params.ndim - 1) / 2.0)
