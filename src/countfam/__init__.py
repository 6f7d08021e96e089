"""Flexible count distributions built on Mittag-Leffler-type functions.

Families: the generalized fractional Poisson law (with the classical
fractional and geometric/Poisson boundary members) and a gamma-ratio
weighted Poisson family covering COM-Poisson, hyper-Poisson and two novel
three-parameter slices, plus negative binomial and generalized Poisson
baselines, samplers, maximum-likelihood fitting and chi-square comparison.
"""

__version__ = "0.1.0"

from .baselines import (
    GenPoissonParams,
    NegBinomParams,
    genpoisson_factorial_moments,
    genpoisson_pmf,
    genpoisson_pmf_table,
    negbinom_pmf,
    negbinom_pmf_table,
    negbinom_skewness,
)
from .errors import CancellationError, ConvergenceError, DomainError, EvaluationError
from .gfpd import (
    GfpdParams,
    aa1_pmf_quadrature,
    fpd_cdf,
    fpd_pmf,
    fpd_pmf_quadrature,
    fpd_skewness,
    fpd_skewness_limit,
    gfpd_aa1_pmf,
    gfpd_factorial_moments,
    gfpd_pmf,
    gfpd_pmf_mc,
    gfpd_pmf_table,
    gfpd_summary,
    overdispersion_delta_bound,
)
from .inference import (
    CountData,
    FitResult,
    MODELS,
    compare,
    fit,
    fit_grid,
    fit_newton,
    fit_simplex,
    gof_chisq,
    loglik,
)
from .moments import (
    FactorialMomentSequence,
    SummaryStats,
    moments_from_factorial,
    pmf_from_factorial,
    skewness_from_factorial,
    summary_from_factorial,
)
from .sampling import RngStream, SampleBatch, mc_moment, sample_fpd, sample_stable, sample_wpd
from .special import (
    SeriesValue,
    bell_partial,
    chi2_sf,
    m_wright,
    prabhakar_ml,
    stirling2,
    trigamma,
    wright_phi,
)
from .wpd import (
    EtaValue,
    SpecialCase,
    WpdParams,
    dispersion_classify,
    eta,
    log_weight,
    make_special_case,
    sufficient_condition_check,
    turan_check,
    weight,
    weight_fn,
    wpd_factorial_moments,
    wpd_factorial_moments_faa,
    wpd_pmf,
    wpd_pmf_recursive,
    wpd_pmf_table,
    wpd_summary,
)
