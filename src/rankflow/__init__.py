"""Rank-based interacting diffusions with common noise: a particle
simulator, a pathwise splitting solver for the conditional-CDF SPDE,
kinetic/entropy diagnostics, and verification experiments."""

__version__ = "0.1.0"
