"""Exception types shared across the package, the parameter rules that raise
:class:`InvalidParameterError`, and the text decoding that raises :class:`ParseError`.

A rule is a pair ``(test of a value, what the value must be)``, made by
:func:`integer`, :func:`real`, :func:`reals`, :func:`probabilities` or
:func:`choice`, and :func:`check` applies it.  A bool is never a number here.
"""

import codecs
import contextlib
import numbers

import numpy as np


class MixProfileError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MixProfileError, ValueError):
    """A parameter lies outside its documented domain."""


def check(name: str, value, rule: tuple) -> None:
    """Raise :class:`InvalidParameterError` unless ``value`` passes ``rule``; a value that
    the rule's test cannot even compare fails it.  An array of more than 20 entries is
    shown by its first and last three."""
    test, what = rule
    try:
        ok = test(value)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        with np.printoptions(threshold=20, edgeitems=3):
            raise InvalidParameterError(f"{name} must be {what}, got {value!r}")


def _between(value, low, high, bounds: str):
    """``value``, elementwise, in the interval with brackets ``bounds`` (such as ``"(]"``);
    NaN fails every comparison, so it lies in none."""
    above = value > low if bounds[0] == "(" else value >= low
    below = value < high if bounds[1] == ")" else value <= high
    return above & below


def real(low: float, high: float, bounds: str = "[]", what: str | None = None,
         kind: type = numbers.Real) -> tuple:
    """An instance of the ``numbers`` ABC ``kind``, but not a bool, in an interval of
    :func:`_between`; an infinite end must be open."""
    return (lambda v: isinstance(v, kind) and not isinstance(v, bool)
            and bool(_between(v, low, high, bounds)),
            what or f"a number in {bounds[0]}{low}, {high}{bounds[1]}")


def integer(least: int) -> tuple:
    return real(least, np.inf, "[)", f"an integer >= {least}", numbers.Integral)


def reals(low: float, high: float, bounds: str = "[]") -> tuple:
    """An array of numbers, each in an interval of :func:`_between`."""
    return (lambda v: bool(np.all(_between(np.asarray(v, dtype=float), low, high, bounds))),
            f"numbers in {bounds[0]}{low}, {high}{bounds[1]}")


def probabilities(tol: float) -> tuple:
    """Numbers in [0, 1] summing to 1 within ``tol``, along the last axis of a matrix."""
    in_unit, _ = reals(0, 1)
    return (lambda v: in_unit(v) and bool(np.all(np.abs(np.sum(v, axis=-1) - 1.0) <= tol)),
            f"probabilities summing to 1 within {tol:g}")


def choice(options: tuple) -> tuple:
    return lambda v: v in options, f"one of {options}"


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
