"""tailkit: iterative upper/lower bounds on tail probabilities.

Builds the seed bound P0 = -+ f g/g' from a chosen monotone g, iterates
P_{i+1} = -+ f P_i/P_i', classifies every iterate numerically as an
upper or lower bound with its validity threshold, and applies the
machinery to finite-blocklength AWGN converse bounds.
"""

from .jet import Jet, jet_arith, jet_const, jet_elementary, jet_shift_derivative, jet_var

__all__ = [
    "Jet",
    "jet_const",
    "jet_var",
    "jet_arith",
    "jet_elementary",
    "jet_shift_derivative",
]

__version__ = "0.1.0"
