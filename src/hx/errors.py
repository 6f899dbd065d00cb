"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Matrix or chain shapes are incompatible with the requested operation."""


class NotConnectedError(ValueError):
    """The operation requires a connected graph."""


class EnumerationCapError(RuntimeError):
    """The edge count exceeds the configured enumeration cap."""


class UnicyclizerAxiomError(ValueError):
    """A candidate unicyclizer violates one of the three defining axioms.

    The ``axiom`` attribute identifies which one: 1 (columns not linearly
    independent), 2 (incidence times unicyclizer is nonzero), or 3 (the
    cycle-space quotient does not have rank one). ``axioms`` holds the
    evaluation of all three that named it, as ``winding.check_axioms``
    returns it, when the raiser made one.
    """

    def __init__(self, axiom: int, message: str, axioms: list | None = None):
        super().__init__(message)
        self.axiom = axiom
        self.axioms = axioms


class DocumentError(ValueError):
    """A complex document failed to parse or validate."""


class InternalError(RuntimeError):
    """An invariant the library relies on failed: a bug, not bad input."""
