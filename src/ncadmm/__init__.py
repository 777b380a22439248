"""Decentralized consensus-ADMM simulation with additive computation error.

The package simulates the per-node protocol over connected graphs, injects
seedable error models into the exchanged messages, and certifies linear
convergence (contraction factor, admissibility conditions, steady-state
error bounds) against the measured trajectories.
"""

__version__ = "0.1.0"
