"""Exception types shared across the workbench.

Every exception carries the witness that triggered it, so failed
validations can be reported without re-running the search.
"""


class WorkbenchError(Exception):
    """Base class for all structured errors raised by this package."""


class CycleError(WorkbenchError):
    """Cover closure is not antisymmetric: two elements sit below each other."""

    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"cover closure identifies {a!r} and {b!r}; not a poset")


class NoBound(WorkbenchError):
    """A required meet or join does not exist in the poset."""

    def __init__(self, kind, subject):
        self.kind = kind
        self.subject = subject
        super().__init__(f"no {kind} for {subject!r}")


class NotDistributive(WorkbenchError):
    """Finite meets fail to distribute over joins; not a Heyting algebra."""

    def __init__(self, subset, element):
        self.subset = subset
        self.element = element
        super().__init__(
            f"join of {subset!r} does not distribute against {element!r}"
        )


class SizeGuard(WorkbenchError):
    """An enumeration would exceed the configured hard bound."""

    def __init__(self, what, size, bound):
        self.what = what
        self.size = size
        self.bound = bound
        super().__init__(f"{what}: {size} candidates exceeds guard {bound}")


class PostulateRequired(WorkbenchError):
    """An operation needed a real witness that the carrier does not supply."""

    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"no real witness available: {detail}")


class NotASheaf(WorkbenchError):
    """A presheaf failed the unique-amalgamation condition."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"sheaf condition fails: {witness!r}")


class SchemaError(WorkbenchError):
    """A structure file does not match any accepted JSON shape."""

    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"bad structure file: {detail}")
