"""Numerics for discriminating phase-symmetric coherent-state alphabets.

Closed-form probabilities and information quantities for the
separate-then-recycle strategy, a brute-force matrix oracle, a seeded Monte
Carlo simulator, and a CLI front end.
"""

from .analytic3 import KINK_PERIOD, CubicSolution, kinks_n3, solve_n3
from .discrim import (
    DiscriminationReport,
    JointDistribution,
    SeparationOperators,
    failure_med,
    failure_profile,
    helstrom_med,
    ir_columns,
    ir_report,
    joint_distribution,
    separation_operators,
    ud_success,
)
from .ensemble import (
    BasisAmplitudes,
    CoefficientBlock,
    CoefficientProfile,
    EnsembleSpec,
    basis_amplitudes,
    coefficient_grid,
    coefficients,
    gram,
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
    shannon_entropy,
)
from .montecarlo import MCConfig, MCResult, simulate
from .oracle import (
    MatrixWorkspace,
    MedCertificate,
    brute_force_joint,
    brute_force_probabilities,
    build_workspace,
    certify_helstrom,
    certify_med_optimality,
)

__version__ = "1.0.0"

__all__ = [
    "BasisAmplitudes",
    "CertificationFailure",
    "CoefficientBlock",
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
    "SeparationOperators",
    "basis_amplitudes",
    "brute_force_joint",
    "brute_force_probabilities",
    "build_workspace",
    "certify_helstrom",
    "certify_med_optimality",
    "coefficient_grid",
    "coefficients",
    "failure_med",
    "failure_posterior",
    "failure_profile",
    "gram",
    "helstrom_med",
    "info_columns",
    "info_report",
    "ir_columns",
    "ir_report",
    "joint_distribution",
    "kinks_n3",
    "separation_operators",
    "shannon_entropy",
    "simulate",
    "solve_n3",
    "ud_success",
]
