"""Error types shared across the package, and the one check of an argument's type."""


class InputError(ValueError):
    """Raised when a caller hands an operation an ill-formed or mismatched value."""


class ParseError(InputError):
    """A diagnostic tied to a position in a model file, script, or expression."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _require(value, kind: type, where: str):
    """``value``, if it is a ``kind``; else "<where> needs a <Kind>, got <value!r>"."""
    if not isinstance(value, kind):
        name = kind.__name__
        article = "an" if name[0] in "AEIO" else "a"
        raise InputError(f"{where} needs {article} {name}, got {value!r}")
    return value
