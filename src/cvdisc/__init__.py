"""Numerics for discriminating phase-symmetric coherent-state alphabets.

Closed-form probabilities and information quantities for the
separate-then-recycle strategy, a brute-force matrix oracle, a seeded Monte
Carlo simulator, and a CLI front end.
"""

from .analytic3 import KINK_PERIOD, CubicSolution, kinks_n3, solve_n3
from .discrim import (
    DiscriminationReport,
    JointDistribution,
    failure_profile,
    ir_columns,
    ir_report,
    joint_distribution,
)
from .ensemble import (
    BasisAmplitudes,
    CoefficientProfile,
    EnsembleSpec,
    basis_amplitudes,
    coefficient_grid,
    coefficients,
)
from .errors import (
    CertificationFailure,
    CutoffOverflow,
    CvdiscError,
    DegenerateEnsemble,
    DomainError,
    FullSeparation,
)
from .infotheory import (
    InfoReport,
    failure_posterior,
    info_columns,
    info_report,
)
from .montecarlo import MCConfig, MCResult, simulate
from .oracle import (
    MatrixWorkspace,
    MedCertificate,
    brute_force_joint,
    brute_force_probabilities,
    build_workspace,
    certify_med_optimality,
    gram,
    gram_probabilities,
)

__version__ = "1.0.0"

__all__ = [
    "BasisAmplitudes",
    "CertificationFailure",
    "CoefficientProfile",
    "CubicSolution",
    "CutoffOverflow",
    "CvdiscError",
    "DegenerateEnsemble",
    "DiscriminationReport",
    "DomainError",
    "EnsembleSpec",
    "FullSeparation",
    "InfoReport",
    "JointDistribution",
    "KINK_PERIOD",
    "MCConfig",
    "MCResult",
    "MatrixWorkspace",
    "MedCertificate",
    "basis_amplitudes",
    "brute_force_joint",
    "brute_force_probabilities",
    "build_workspace",
    "certify_med_optimality",
    "coefficient_grid",
    "coefficients",
    "failure_posterior",
    "failure_profile",
    "gram",
    "gram_probabilities",
    "info_columns",
    "info_report",
    "ir_columns",
    "ir_report",
    "joint_distribution",
    "kinks_n3",
    "simulate",
    "solve_n3",
]
