"""Exception types shared across the package."""

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
    counterexample.  Carries the offending instance for replay."""

    def __init__(self, message: str, instance_dump: dict | None = None):
        super().__init__(message)
        self.instance_dump = instance_dump


class CertificateError(PlabError):
    """gamma's certificate was rejected: a bug in the flow engine, never a
    verdict.  dump holds the graph and the certificate for replay."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump
