"""Exception types shared across the package, and the text decoding that raises them."""

import codecs
import contextlib


class MixProfileError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MixProfileError, ValueError):
    """A parameter lies outside its documented domain."""


class SingularSystemError(MixProfileError, RuntimeError):
    """The normal-equation system is rank deficient."""


class SolverDivergedError(MixProfileError, RuntimeError):
    """An iterative solver's objective increased, so its iterate is not trusted."""


class SingularFrequencyError(MixProfileError, ValueError):
    """A frequency vector contains zero entries where positivity is required."""


class InvalidScenarioError(MixProfileError, ValueError):
    """The observed trace does not match the scenario an estimator assumes."""


class UnsupportedQueryError(MixProfileError, RuntimeError):
    """The trace does not carry the data needed to answer the query."""


class ParseError(MixProfileError, ValueError):
    """A file could not be parsed."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _decode_utf8(data: bytes, first_line_no: int = 1) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 raises :class:`ParseError` at its line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line_no = first_line_no + data.count(b"\n", 0, exc.start)
        raise ParseError(str(exc), line_no=line_no) from None


@contextlib.contextmanager
def _open_utf8(path):
    """``path`` open for reading bytes, past the UTF-8 byte order mark that may start it.

    Spreadsheet exports begin with the mark; anywhere later it stays in the
    text, where the parsers reject it.
    """
    with open(path, "rb") as fh:
        if fh.peek(len(codecs.BOM_UTF8)).startswith(codecs.BOM_UTF8):
            fh.read(len(codecs.BOM_UTF8))
        yield fh


class EmptyLogError(MixProfileError, ValueError):
    """An event log contains no events."""


class EmptyTraceError(MixProfileError, ValueError):
    """Batching produced no complete mixing rounds."""
