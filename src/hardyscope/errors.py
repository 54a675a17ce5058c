"""Exception types shared across the package, one per exit code of the CLI."""

from __future__ import annotations


class HardyscopeError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(HardyscopeError):
    """Unusable input: a bad descriptor, parameter, radius or path (exit 2)."""


class QuadratureError(HardyscopeError):
    """A numeric result that cannot be certified or is not finite (exit 1)."""
