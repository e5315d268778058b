"""Exception hierarchy shared by all skewex modules.

Every error that carries a mathematical witness stores it on the instance so
callers (and the CLI report writer) can serialize it for replay.
"""


class SkewexError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SkewexError):
    """Operands live in spaces of incompatible dimension."""


class NotAssociative(SkewexError):
    """A structure-constant tensor violates associativity.

    Carries the offending basis triple (i, j, k).
    """

    def __init__(self, i, j, k):
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")
        self.triple = (i, j, k)


class UnitFails(SkewexError):
    """The designated unit vector is not a two-sided identity."""

    def __init__(self, index):
        super().__init__(f"unit fails against basis element {index}")
        self.index = index


class NotAnIdeal(SkewexError):
    """A subspace handed to quotient() is not a two-sided ideal."""


class ImproperIdeal(SkewexError):
    """quotient() was asked to divide by the whole algebra."""


class NotDerivation(SkewexError):
    """A matrix fails the product rule; carries the witness ("unit", j) or (g, j)."""

    def __init__(self, pair):
        super().__init__(f"product rule fails on pair {pair}")
        self.pair = pair


class NotEndomorphism(SkewexError):
    """A matrix is not multiplicative (or not unital when required); carries the
    witness, ("unit",) when the unit is not sent to the unit.

    reason names the identity that failed; the E-derivation check passes
    "difference-map identity", whose map is I - m.
    """

    def __init__(self, pair, reason="multiplicativity"):
        if pair != ("unit",):
            super().__init__(f"{reason} fails on pair {pair}")
        elif reason == "multiplicativity":
            super().__init__("the map does not send 1 to 1")
        else:
            super().__init__(f"{reason} fails: I - m does not send 1 to 1")
        self.pair = pair


class NotAutomorphism(SkewexError):
    """An endomorphism is not invertible where invertibility is required."""


class NotInvertible(SkewexError):
    """An algebra element has no two-sided inverse."""


class NotLocallyNilpotent(SkewexError):
    """A map required to be nilpotent is not."""


class NotInKernelChain(SkewexError):
    """No power of the endomorphism kills the given element."""


class NotMonic(SkewexError):
    """A polynomial required to be monic is not."""


class AnnihilatorFails(SkewexError):
    """p does not annihilate the twisting map; carries a witness vector.

    image is the column of p(map) at basis_index, as given; the message
    writes its entries as rationals, e.g. (2, -1/3, 0).
    """

    def __init__(self, basis_index, image):
        super().__init__(
            f"polynomial does not annihilate the map: basis vector {basis_index} "
            f"maps to ({', '.join(str(x) for x in image)})"
        )
        self.basis_index = basis_index
        self.image = image


class ConstantTermZero(SkewexError):
    """The invertible-witness construction needs p(0) != 0."""


class AssociativityFails(SkewexError):
    """The extension's consistency certificate failed.

    Raised when the rewrite-generated multiplication table is inconsistent,
    which happens exactly when the construction's precondition was bypassed:
    verify_extension finds that the table breaks the unit law, or that an
    associator (e_i, y, e_k) is nonzero at y = embed(e_g), g among the base's
    generators, or at u; or, under the private _skip_annihilator_check hook
    of _extension.assemble, the rewrite grid meets a nonzero relation
    submodule.  detail names the witness.
    """

    def __init__(self, detail):
        super().__init__(f"extension consistency certificate failed: {detail}")
        self.detail = detail


class NotCommutative(SkewexError):
    """Idempotent enumeration only runs on commutative algebras."""


class NotIdempotent(SkewexError):
    """An element claimed to be idempotent satisfies e*e != e."""


class CapExceeded(SkewexError):
    """The idempotent count would exceed the configured cap."""


class ParseError(SkewexError):
    """A definition file is malformed; message carries the location."""


class ValidationError(SkewexError):
    """A parsed object failed its mathematical validation."""


class UnknownSuite(SkewexError):
    """A requested check-suite name is not in the registry."""
