"""Exception types shared across the package."""


class PercopError(Exception):
    pass


class PreconditionError(PercopError):
    """An operation was invoked outside its stated domain.

    ``reason`` is a short machine-readable code; ``payload`` carries any
    structured detail (witness vectors and the like).
    """

    def __init__(self, reason, message, **payload):
        super().__init__(message)
        self.reason = reason
        self.payload = payload


class NotCopositiveError(PercopError):
    """An operation needed a copositive input; the witness is a nonnegative
    rational vector with negative form value.
    """

    def __init__(self, witness):
        super().__init__("matrix is not copositive, witness %s" % (witness,))
        self.witness = witness


class UndecidedError(PercopError):
    """No longer raised: copositivity is always decided exactly.

    Kept because perfbench/run.py catches it by name.
    """


class WalkUndecidedError(PercopError):
    """A Ryshkov-polyhedron walk step could not be resolved exactly."""

    def __init__(self, lam):
        super().__init__("walk undecided at lambda = %s" % lam)
        self.lam = lam
