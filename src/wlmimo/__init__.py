"""Outage behavior of widely linear multi-user MIMO receivers.

The package brings together:

* exact small-eigenvalue asymptotics of real Wishart matrices
  (:mod:`wlmimo.wishart_asymptotics`),
* WL/CL linear and SIC detection front ends (:mod:`wlmimo.receivers`),
* high-SNR diversity and coding gains plus Monte Carlo outage curves
  (:mod:`wlmimo.outage_analysis`),
* a grant-free machine-type traffic simulator (:mod:`wlmimo.mmtc_sim`),
* reproducible experiment plumbing (:mod:`wlmimo.montecarlo`,
  :mod:`wlmimo.cli`).
"""

from .link_model import (
    LinkConfig,
    PowerProfile,
    sample_power_profile,
)
from .montecarlo import (
    Estimate,
    SlopeFit,
    derive_rng,
    fit_diversity,
    wilson_interval,
)
from .mmtc_sim import (
    MmtcConfig,
    MmtcResult,
    SupportedUsers,
    half_tti_mode,
    operating_snr,
    run_scenario,
    supported_users,
)
from .outage_analysis import (
    GainSummary,
    MomentRatio,
    OutageCurve,
    asymptote_curve,
    chi2_cdf_poly_coeff,
    cl_threshold,
    coding_gain_ratio,
    diversity_order,
    gain_for,
    linear_gains,
    moment_ratio_check,
    outage_mc,
    sic_gains,
    wl_threshold,
)
from .random_matrix import (
    sample_channel,
    sample_haar_unit_vector,
    wl_transform,
)
from .receivers import (
    ReceiverSpec,
    SinrReport,
    batched_tagged_sinr,
    cl_sinr,
    mmse_sinr,
    sic_sinr_stages,
    zf_sinr,
)
from .wishart_asymptotics import (
    beta1,
    diversity_exponent,
    incomplete_gamma_ratio,
    j_matrix,
    knm_constant,
    pfaffian,
    sample_kth_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # link model
    "LinkConfig", "PowerProfile", "sample_power_profile",
    # monte carlo plumbing
    "Estimate", "SlopeFit", "derive_rng", "fit_diversity", "wilson_interval",
    # machine-type traffic
    "MmtcConfig", "MmtcResult", "SupportedUsers", "half_tti_mode",
    "operating_snr", "run_scenario", "supported_users",
    # outage analysis
    "GainSummary", "MomentRatio", "OutageCurve", "asymptote_curve",
    "chi2_cdf_poly_coeff", "cl_threshold", "coding_gain_ratio",
    "diversity_order", "gain_for", "linear_gains", "moment_ratio_check",
    "outage_mc", "sic_gains", "wl_threshold",
    # random matrices
    "sample_channel", "sample_haar_unit_vector", "wl_transform",
    # receivers
    "ReceiverSpec", "SinrReport", "batched_tagged_sinr", "cl_sinr",
    "mmse_sinr", "sic_sinr_stages", "zf_sinr",
    # Wishart asymptotics
    "beta1", "diversity_exponent", "incomplete_gamma_ratio", "j_matrix", "knm_constant", "pfaffian",
    "sample_kth_eigenvalue",
]
