"""Sparse matrix-vector multiplication over CSR storage with a
deterministic in-process simulation of message-passing ranks, plus fixture
generation, serialization, and verification tooling."""

from .core import (
    CsrMatrix,
    DenseMatrix,
    DenseVector,
    SizeMismatch,
    ValidationReport,
    dense_from_csr,
    residual_sq,
    spmv_dense_oracle,
    spmv_seq,
    spmv_sorted_oracle,
    validate_csr,
)
from .layout import (
    Layout,
    LayoutSumMismatch,
    block_local_size,
    build_layout,
    extract_local,
)
from .collectives import (
    MAX_RANKS,
    CollectiveEngine,
    CollectiveError,
    CollectiveMismatch,
    CollectiveTrace,
    CountMismatch,
    OverlappingDisplacement,
    RankContext,
    TraceRecord,
    UnequalBlockLength,
    run_ranks,
)
from .distributed import (
    RESIDUAL_TOLERANCE,
    DistRunReport,
    GatherPath,
    check_pass,
    gather_x,
    run_distributed,
)
from .fixtures import (
    Fixture,
    GenParams,
    InvalidGenParams,
    RNG_NAME,
    generate,
    reference_fixture,
)
from .fixture_io import (
    FORMAT_HEADER,
    FixtureFormatError,
    FixtureValidationError,
    companion_x_path,
    export_matrix_market,
    import_matrix_market,
    read_fixture,
    validate_fixture,
    write_fixture,
)
from .verify import (
    CheckResult,
    VerificationReport,
    verify_fixture,
    verify_sequential,
)

__version__ = "0.1.0"

__all__ = [
    "CsrMatrix", "DenseMatrix", "DenseVector", "SizeMismatch",
    "ValidationReport", "dense_from_csr", "residual_sq", "spmv_dense_oracle",
    "spmv_seq", "spmv_sorted_oracle", "validate_csr",
    "Layout", "LayoutSumMismatch", "block_local_size", "build_layout",
    "extract_local",
    "MAX_RANKS", "CollectiveEngine", "CollectiveError", "CollectiveMismatch",
    "CollectiveTrace", "CountMismatch", "OverlappingDisplacement",
    "RankContext", "TraceRecord", "UnequalBlockLength", "run_ranks",
    "RESIDUAL_TOLERANCE", "DistRunReport", "GatherPath", "check_pass",
    "gather_x", "run_distributed",
    "Fixture", "GenParams", "InvalidGenParams", "RNG_NAME", "generate",
    "reference_fixture",
    "FORMAT_HEADER", "FixtureFormatError", "FixtureValidationError",
    "companion_x_path", "export_matrix_market", "import_matrix_market",
    "read_fixture", "validate_fixture", "write_fixture",
    "CheckResult", "VerificationReport", "verify_fixture", "verify_sequential",
    "__version__",
]
