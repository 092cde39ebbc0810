"""Exception types shared across the package.

Everything here derives from ValueError or RuntimeError so that callers who
do not care about the fine distinctions can catch the usual builtins. The
command line maps these onto exit codes, which is why they are named types
rather than bare ValueErrors.
"""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a resource guard (stacked dimension,
    hypothesis pairs)."""


class SettingError(ValueError):
    """A numeric setting (tolerance, dimension guard) lies outside the range
    where a verdict means anything."""


class LocalityError(ValueError):
    """A measurement touches degrees of freedom its party does not own."""


class CoverageError(ValueError):
    """A classifier has no entry for a transcript that actually occurred."""


class AmbiguityError(ValueError):
    """Transcript tallying assigned one transcript to several hypotheses."""

    def __init__(self, message: str, transcript=None, claimants=None):
        super().__init__(message)
        self.transcript = transcript
        self.claimants = claimants


class NoConnectingUnitaryError(ValueError):
    """No one-sided unitary maps the source state to the target state."""


class ScriptError(ValueError):
    """A script failed to lex, parse, or resolve.

    Carries a 1-based line and column plus (for syntax errors) the set of
    token descriptions that would have been acceptable at that point.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.reason = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        loc = f"line {line}, column {column}: {message}"
        if self.expected:
            loc += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(loc)


class ExecutionError(RuntimeError):
    """A script statement failed while executing.

    Parse-clean scripts can still fail at run time (unknown state name,
    protocol/task mismatch, invalid cut, ...); the statement's line number is
    kept so command-line users can find the offender.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
