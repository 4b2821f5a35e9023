"""Exception types raised across the algebra tower."""


class AlgebraError(ValueError):
    """Base class for every structured error in this package."""


class MixedFields(AlgebraError):
    """Arithmetic attempted between scalars of different fields."""


class DivisionByZero(AlgebraError):
    pass


class NonArithmeticField(AlgebraError):
    """Element arithmetic requested on a classification-only field tag."""


class AlgebraMismatch(AlgebraError):
    """Binary operation on elements of different algebra instances."""


class ModelMismatch(AlgebraError):
    """Operation requires the other Albert model (Hermitian vs Tits)."""


class SingularElement(AlgebraError):
    """Inverse-like operation on an element with vanishing cubic norm."""


class ZeroMultiplier(AlgebraError):
    pass


class NotUnimodular(AlgebraError):
    """tits_phi factor with determinant different from 1."""


class CarrierMismatch(AlgebraError):
    """A linear map used with a map or algebra of another basis tag, or a
    map given a non-square matrix."""


class NotNormPreserving(AlgebraError):
    """Map failed the cubic-norm invariance check."""


class NotAutomorphism(AlgebraError):
    """Map failed the algebra-automorphism check."""


class NotOrderTwo(AlgebraError):
    pass


class NotCommuting(AlgebraError):
    pass


class NotUnitNorm(AlgebraError):
    """make_t parameter with quadratic norm different from 1."""


class NoValidOrdering(AlgebraError):
    """No within-block basis permutation makes the anti-diagonal map an automorphism."""


class NoSuchV(AlgebraError):
    """Octonion search for v with q(v) = -1, <v,e> = 0 exhausted (non-split model)."""


class ZeroParameter(AlgebraError):
    pass


class ArityMismatch(AlgebraError):
    pass


class ZeroArgument(AlgebraError):
    """Hilbert symbol argument is zero."""


class FactorizationTooLarge(AlgebraError):
    """An integer to factor has a cofactor beyond the explicit size bound."""


class UnrecognizedType(AlgebraError):
    """Residual diagram component outside the supported Dynkin catalog."""


class SingularGram(AlgebraError):
    """A singular map has no inverse (`LinMap.inverse_map`)."""


class InternalError(AlgebraError):
    """An internal consistency check failed: two routes to the same exact
    quantity disagree, which is a bug in this package, not a bad input."""
