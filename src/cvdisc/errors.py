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
    """The failure branch is empty (1 - p_s < 1e-15, or every coefficient is
    degenerate with c_min): failure-state quantities are limits only."""


class CertificationFailure(CvdiscError):
    """A consistency check of the oracle's construction did not pass."""
