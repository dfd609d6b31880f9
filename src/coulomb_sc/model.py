"""Physical system parameters, energy bookkeeping, and exact bound-state relations.

Atomic units (mu = hbar = Kc = 1: lengths in Bohr radii, energies in
Hartree) are the defaults; every field documents its unit so SI values can
be substituted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PoleError


class _SystemFields(NamedTuple):
    mu: float = 1.0
    Kc: float = 1.0
    hbar: float = 1.0
    ndim: int = 3
    attractive: bool = True


class SystemParams(_SystemFields):
    """Immutable system definition.

    mu      -- reduced mass (mass unit)
    Kc      -- Coulomb strength |K| (energy * length); always positive,
               the attractive/repulsive character is the separate flag
    hbar    -- action quantum
    ndim    -- spatial dimension, >= 2
    attractive -- sign flag for the interaction (True: -Kc/r)

    mu, Kc and hbar must be finite and positive.  E < 0 needs
    attractive=True (the bound evaluators refuse anything else, see
    ``bound_regime``); for E > 0 the evaluator's name selects the
    interaction, e.g. ``reduced_action_scatter_repulsive``, and the flag
    is not read.

    A named tuple, validated on every path that builds one (the
    constructor, ``_make``, ``_replace``, ``with_ndim``); it equals only
    another SystemParams with the same fields.
    """

    __slots__ = ()

    def __new__(cls, mu: float = 1.0, Kc: float = 1.0, hbar: float = 1.0, ndim: int = 3,
                attractive: bool = True):
        if not 0.0 < mu < math.inf:  # false for NaN, too
            raise ValueError(f"mu must be finite and positive, got {mu}")
        if not 0.0 < Kc < math.inf:
            raise ValueError(f"Kc must be finite and positive (use the 'attractive' flag "
                             f"for the sign), got {Kc}")
        if not 0.0 < hbar < math.inf:
            raise ValueError(f"hbar must be finite and positive, got {hbar}")
        if int(ndim) != ndim or ndim < 2:
            raise ValueError(f"ndim must be an integer >= 2, got {ndim}")
        return tuple.__new__(cls, (mu, Kc, hbar, ndim, attractive))

    @classmethod
    def _make(cls, iterable):
        # the tuple's own _make (and _replace, which calls it) skips __new__
        return cls(*super()._make(iterable))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def with_ndim(self, ndim: int) -> "SystemParams":
        return self._replace(ndim=ndim)


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


# --- the regime rule: which (E, interaction) each closed form takes ----------

#: guard band around integer k inside which bound evaluators refuse to run
POLE_GUARD = 1e-9


def bound_regime(spec: EnergySpec, params: SystemParams) -> tuple[float, float, float]:
    """(sk, cv, ts) = (sqrt(2 mu |E|), sqrt(2|E| / mu), mu a / sk), the
    momentum, velocity and time scales (see ``_kernels``) of the bound
    closed forms, which hold for E < 0 in the attractive potential only:
    any other input raises ValueError."""
    E = spec.E
    if E >= 0.0:
        raise ValueError(f"E = {E} is outside the bound regime (E < 0)")
    check_bound_interaction(params.attractive)
    e2, mu = -2.0 * E, params.mu  # 2|E|; doubling is exact: mu e2 = 2 mu |E|
    sk = math.sqrt(mu * e2)
    return sk, math.sqrt(e2 / mu), mu * spec.a / sk


def check_bound_interaction(attractive: bool):
    """Raise ValueError for E < 0 in a repulsive potential (no bound regime,
    no allowed region): ``bound_regime``'s and ``classify_region``'s rule."""
    if not attractive:
        raise ValueError("a repulsive interaction has no bound regime (E < 0)")


def scattering_regime(spec: EnergySpec, params: SystemParams) -> tuple[float, float, float]:
    """(sk, cv, ts) as in ``bound_regime``, for the E > 0 forms; E <= 0
    raises ValueError.  The interaction flag is not read: each scattering
    form is named for the interaction it models."""
    E = spec.E
    if E <= 0.0:
        raise ValueError(f"E = {E} is outside the scattering regime (E > 0)")
    e2, mu = 2.0 * E, params.mu  # doubling is exact: mu e2 = 2 mu E
    sk = math.sqrt(mu * e2)
    return sk, math.sqrt(e2 / mu), mu * spec.a / sk


def check_pole(spec: EnergySpec):
    """Raise PoleError for a bound energy within POLE_GUARD of an
    eigenvalue (integer k), where the loop sum diverges; call it after
    ``bound_regime``, which refuses the energies without a k."""
    nearest = round(spec.k)
    if abs(spec.k - nearest) < POLE_GUARD:
        raise PoleError(f"energy within the pole guard band of eigenvalue k = {nearest}",
                        k=nearest, energy=spec.E)


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
