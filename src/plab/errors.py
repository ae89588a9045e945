"""Exception types shared across the package.  The two that exit 1 name
their stderr prefix; ExitOneError carries their optional JSON dump."""

from __future__ import annotations


class PlabError(Exception):
    """Base class for all package errors."""


class UsageError(PlabError):
    """Bad arguments or a violated precondition."""


class ResourceError(PlabError):
    """A construction would exceed the configured element cap."""


class ValidationError(PlabError):
    """A multiplication table fails the group axioms."""


class ExitOneError(PlabError):
    """An error that exits 1: stderr shows the subclass's prefix and the
    message, then the optional JSON dump, for replay."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump


class TheoremViolationError(ExitOneError):
    """A guaranteed inequality failed: implementation bug or a genuine
    counterexample.  dump holds the offending instance for replay."""

    prefix = "VIOLATION"


class CertificateError(ExitOneError):
    """gamma's certificate was rejected: a bug in the flow engine, never a
    verdict.  dump holds the graph and the certificate for replay."""

    prefix = "internal error"
