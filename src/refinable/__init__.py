"""Local bases and spectral analysis for dyadic refinable functions.

A mask ``(c_0, ..., c_N)`` defines a refinement equation
``phi(x) = sum_k c_k phi(2x - k)`` whose compactly supported solution
lives on ``[0, N]``.  This package computes the finite scale matrix of
the mask, its Jordan structure under the row conventions that make the
basis rows extendable, the polynomial-reproduction accuracy, a linear
independence test for the integer translates, sequence extensions that
solve the two-scale difference relations, pointwise evaluation of
``phi`` by cascade subdivision, and the basis of homogeneous functions
that locally spans the refinable space, plus a verification battery and
a command line front end.
"""

from .diffeq import (
    CombinationRule,
    DifferenceSystem,
    FundamentalSequenceRule,
    difference_system,
    solve_system,
)
from .errors import (
    ClusteringError,
    DifferenceEquationError,
    EvaluationError,
    ExtensionError,
    ExtensionOverflowError,
    MaskError,
    RefinableError,
    SpectralError,
)
from .evaluate import (
    DependencyReport,
    HomogeneousBasis,
    HomogeneousFunction,
    PhiValues,
    ReconstructionResult,
    build_homogeneous_basis,
    evaluate_phi,
    extend_vector,
    homogeneity_residual,
    integer_samples,
    reconstruct_phi,
    verify_dependency,
)
from .extension import (
    SequenceWindow,
    SubdivisionKernel,
    eigen_extend,
    kernel_of_L,
)
from .mask import (
    Mask,
    MaskSumWarning,
    ScaleMatrices,
    build_scale_matrices,
    mask_from_coefficients,
    parse_mask,
)
from .spectral import (
    AccuracyResult,
    EigenvalueGroup,
    IndependenceResult,
    RowInfo,
    SpectralData,
    accuracy,
    eigen_structure,
    independence_test,
    minimal_order,
    spectrum_of,
)
from .verify import BatteryResult, CheckResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "AccuracyResult",
    "BatteryResult",
    "CheckResult",
    "ClusteringError",
    "CombinationRule",
    "DependencyReport",
    "DifferenceEquationError",
    "DifferenceSystem",
    "EigenvalueGroup",
    "EvaluationError",
    "ExtensionError",
    "ExtensionOverflowError",
    "FundamentalSequenceRule",
    "HomogeneousBasis",
    "HomogeneousFunction",
    "IndependenceResult",
    "Mask",
    "MaskError",
    "MaskSumWarning",
    "PhiValues",
    "ReconstructionResult",
    "RefinableError",
    "RowInfo",
    "ScaleMatrices",
    "SequenceWindow",
    "SpectralData",
    "SpectralError",
    "SubdivisionKernel",
    "accuracy",
    "build_homogeneous_basis",
    "build_scale_matrices",
    "difference_system",
    "eigen_extend",
    "eigen_structure",
    "evaluate_phi",
    "extend_vector",
    "homogeneity_residual",
    "independence_test",
    "integer_samples",
    "kernel_of_L",
    "mask_from_coefficients",
    "minimal_order",
    "parse_mask",
    "reconstruct_phi",
    "run_battery",
    "solve_system",
    "spectrum_of",
    "verify_dependency",
]
