"""Exception taxonomy shared by all cvdisc modules."""

from __future__ import annotations


class CvdiscError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CvdiscError):
    """Invalid argument: outside the accepted range, or of the wrong type."""


class DegenerateEnsemble(CvdiscError):
    """All alphabet states coincide: exactly one coefficient is nonzero, as
    for the vacuum alphabet. The requested quantity is undefined for such an
    ensemble."""


class CutoffOverflow(CvdiscError):
    """The Fock truncation needed to reach the requested tail mass exceeds the
    configured hard cap; the mean photon number is too large for oracle-grade
    reconstruction."""


class FullSeparation(CvdiscError):
    """The separation success probability is within 1e-15 of 1, so the failure
    branch is empty and failure-state quantities are defined only as limits."""


class CertificationFailure(CvdiscError):
    """An optimality or consistency certificate did not pass.

    Carries the worst offending state index and eigenvalue when they exist.
    """

    def __init__(self, message: str, *, worst_index: int | None = None,
                 worst_eigenvalue: float | None = None):
        super().__init__(message)
        self.worst_index = worst_index
        self.worst_eigenvalue = worst_eigenvalue
