"""Outage behavior of widely linear multi-user MIMO receivers.

The package brings together:

* exact small-eigenvalue asymptotics of real Wishart matrices
  (:mod:`wlmimo.wishart_asymptotics`),
* WL/CL linear and SIC detection front ends (:mod:`wlmimo.receivers`),
  on small-matrix kernels vectorised over stacks of draws
  (:mod:`wlmimo.stacked`),
* high-SNR diversity and coding gains plus Monte Carlo outage curves
  (:mod:`wlmimo.outage_analysis`),
* a grant-free machine-type traffic simulator (:mod:`wlmimo.mmtc_sim`),
* reproducible experiment plumbing (:mod:`wlmimo.montecarlo`,
  :mod:`wlmimo.cli`).

Names are imported from the module that defines them, for example
``from wlmimo.receivers import ReceiverSpec``; the package root binds only
``__version__``.
"""

__version__ = "0.1.0"
