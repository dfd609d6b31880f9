"""Exception types shared across the package."""


class CoulombSCError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CoulombSCError, ValueError):
    """Position vectors do not match the configured spatial dimension."""


class RegionError(CoulombSCError, ValueError):
    """An operation was called outside its classically valid region."""


class OnCausticError(RegionError):
    """Point lies on the caustic: the primitive semiclassical amplitude
    diverges there; use the uniform approximation instead."""


class ForbiddenRegionError(RegionError):
    """Point lies in the classically forbidden region; use the tunneling
    continuation (or the forbidden-region action forms)."""


class FocalLineError(RegionError):
    """Degenerate geometry through the force center (alpha_minus -> 0):
    the transit velocity diverges at the center."""


class PoleError(CoulombSCError, ArithmeticError):
    """Energy sits (numerically) on a bound-state pole.

    Attributes
    ----------
    k : int
        Index of the offending quantum number.
    energy : float or None
        Pole energy, when known.
    """

    def __init__(self, message, k, energy=None):
        super().__init__(message)
        self.k = k
        self.energy = energy


class IllConditionedError(CoulombSCError, ArithmeticError):
    """A value cannot be computed in floating point: a stencil degenerated
    (step underflow or noise), or a closed form overflowed."""


class MeshTooLargeError(CoulombSCError, ValueError):
    """The exact reference would need a radial mesh above its size cap
    (``qm_oracle.MAX_MESH_POINTS``)."""


class UnsupportedDimensionError(CoulombSCError, ValueError):
    """Operation only implemented for specific spatial dimensions."""


class ConfigError(CoulombSCError, ValueError):
    """Invalid CLI / scan configuration."""
