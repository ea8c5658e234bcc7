"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError
(and subclasses) -> 1.
"""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class InvalidAxisError(PreconditionError):
    """Axis data violates one or more of its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid axis: " + "; ".join(self.violations))


class ParseError(ValueError):
    """Malformed textual input (permutations, group specs, axis literals)."""
