"""Exception types shared across the package."""


class TensorWheelError(Exception):
    """Base class for all package errors."""


class ParseError(TensorWheelError, ValueError):
    """A data file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DuplicateKeyError(TensorWheelError, ValueError):
    """The same (i, j, k) position appeared twice; carries the offending line."""

    def __init__(self, key, line_no=None):
        self.key = key
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"duplicate position {key}{where}")


class BoundsError(TensorWheelError, IndexError):
    """An index lies outside the declared tensor dimensions."""


class DomainError(TensorWheelError, ValueError):
    """A value lies outside the domain an operation requires."""


class StateError(TensorWheelError, RuntimeError):
    """An operation was applied to an object in the wrong state."""


class ParameterError(TensorWheelError, ValueError):
    """A configuration or argument value is invalid."""


class SizeCapError(TensorWheelError, ValueError):
    """A dense materialization would exceed the configured safety cap."""


class DivergenceError(TensorWheelError, ArithmeticError):
    """Training produced a non-finite value; carries the entry id (None
    when an epoch's loss or validation RMSE, not a step, diverged), the
    epoch, and what diverged.  Raised by ``train``, it also carries the
    learning rate ``eta`` and ``norms``, the Frobenius norms of g, a, b
    and c as a dict: the factors were finite then, as a diverging step
    writes nothing back."""

    def __init__(self, entry_id=None, epoch=None, what="value", eta=None, norms=None):
        self.entry_id = entry_id
        self.epoch = epoch
        self.what = what
        self.eta = eta
        self.norms = norms
        super().__init__(self._format())

    def _format(self):
        where = [] if self.epoch is None else [f"epoch {self.epoch}"]
        if self.entry_id is not None:
            where.append(f"entry {self.entry_id}")
        return (f"non-finite {self.what} during training ({', '.join(where)}); "
                f"try a smaller learning rate")

    def with_epoch(self, epoch, eta=None, norms=None):
        return DivergenceError(self.entry_id, epoch, self.what, eta, norms)
