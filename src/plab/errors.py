"""Exception types shared across the package.  The two that exit 1 carry
their stderr prefix and, for replay, an optional JSON dump."""

from __future__ import annotations


class PlabError(Exception):
    """Base class for all package errors."""


class UsageError(PlabError):
    """Bad arguments or a violated precondition."""


class ResourceError(PlabError):
    """A construction would exceed the configured element cap."""


class ValidationError(PlabError):
    """A multiplication table fails the group axioms."""


class TheoremViolationError(PlabError):
    """A guaranteed inequality failed: implementation bug or a genuine
    counterexample.  dump holds the offending instance for replay."""

    prefix = "VIOLATION"

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump


class CertificateError(PlabError):
    """gamma's certificate was rejected: a bug in the flow engine, never a
    verdict.  dump holds the graph and the certificate for replay."""

    prefix = "internal error"

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump
