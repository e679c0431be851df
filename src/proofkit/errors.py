"""Shared exception types."""


class ProofkitError(Exception):
    pass


class ParseError(ProofkitError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(message + where)


class CaptureError(ProofkitError):
    """A substituted term would have a variable captured by a binder."""

    def __init__(self, variable, binder):
        self.variable = variable
        self.binder = binder
        super().__init__(
            f"variable {variable!r} would be captured by the binder of {binder!r}"
        )


class ArityError(ProofkitError):
    pass


class CheckError(ProofkitError):
    """A proof, script, or classification failed to verify."""


class BudgetExhausted(CheckError):
    """A search ran out of its budget before it could decide."""


class SizeGuardExceeded(ProofkitError):
    def __init__(self, message, projected):
        self.projected = projected
        super().__init__(f"{message} (projected size: {projected})")
