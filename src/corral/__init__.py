"""Bandit ensembles via log-barrier online mirror descent.

The package combines multiple base bandit algorithms under one master that
samples a base each round, routes importance-weighted feedback, and adapts
per-base learning rates with a threshold-doubling schedule, so that the
ensemble stays competitive with the best base algorithm run on its own.

The root binds only the modules: each name is imported from the module that
defines it (``corral.harness.run_corral``, ``corral.core.ConfigError``).
"""

from . import bases, core, envs, harness, master, omd

__version__ = "0.1.0"
