"""Desk-scale domain adaptation lab.

Synthetic covariate/label-shift domains, a small MLP stack with exact
analytic gradients, UDA/SFDA/MSFDA trainers, proxy-based source-model
weight estimation, and a reproducible benchmark harness.
"""

__version__ = "0.1.0"
