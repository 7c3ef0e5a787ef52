"""High-dimensional (kernel) distance covariance: estimators, closed-form
Gaussian theory, independence tests, and a reproducible simulation harness."""

from .dcovstats import (
    BandwidthSpec,
    DcovParts,
    DegenerateSample,
    KernelSpec,
    PairedSample,
    SampleTooSmall,
    dcov_parts,
    dcov_star,
    dcov_ustat_oracle,
    gaussian_kernel,
    identity_kernel,
    kernel_by_name,
    kernel_matrix,
    laplace_kernel,
    resolve_bandwidth,
    u_center,
)
from .experiments import (
    CltConfig,
    CltResult,
    PowerConfig,
    PowerResult,
    empirical_quantiles,
    ks_distance,
    run_clt,
    run_power,
)
from .matcore import (
    NotPositiveDefinite,
    cholesky,
    frobenius_norm_sq,
    pairwise_sq_distances,
)
from .simgen import (
    NoiseDist,
    RngStream,
    SimScenario,
    derive_stream,
    sample_factor,
    sample_gaussian,
)
from .testkit import TestResult, dcor_test, normal_cdf, normal_quantile
from .theory import (
    CovarianceBlocks,
    DegenerateKernel,
    TheoryReport,
    hoeffding_sum,
    local_param_A,
    mean_expansion,
    minimax_eigencheck,
    sigma_bar_sq,
    tau_sq,
    tbar_fluctuation,
    theoretical_power,
    theory_report,
    varrho,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
