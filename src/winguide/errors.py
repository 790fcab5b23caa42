"""Exception hierarchy for the coupled-strip solver.

Every failure mode that callers are expected to handle gets its own class.  The
CLI maps them to exit codes by base class alone: a ValidationError (bad input)
exits 2 and any other WaveguideError (a numerical failure) exits 3.
"""

from __future__ import annotations


class WaveguideError(Exception):
    """Base class for all package errors."""


class ValidationError(WaveguideError):
    """Bad user input: geometry, settings, malformed config, contract violations."""


class ThresholdError(ValidationError):
    """Spectral parameter outside the admissible window (lambda_floor, 1 - margin)."""


class UnsupportedArgumentError(ValidationError):
    """Argument outside the validated range of a special-function backend."""


class AccuracyError(WaveguideError):
    """A computation cannot meet its accuracy target with the given settings."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ResolventPoleError(WaveguideError):
    """Forced problem posed at (or numerically at) an eigenvalue."""


class EvaluationDomainError(ValidationError):
    """Field evaluation requested outside the open strips or inside the excluded sliver."""


class DegenerateInputError(ValidationError):
    """Prediction requested in a regime where the formula degenerates."""


class InsufficientDataError(ValidationError):
    """Not enough usable samples for a fit."""


class NumericalFailureError(WaveguideError):
    """An iteration failed to converge or a factorization broke down unrecoverably."""
