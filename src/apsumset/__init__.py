"""Arithmetic progressions in sumsets of two geometric progressions.

Tooling for the sets S_{a,b} = {a^x + b^y : x, y >= 0} with b > a > 1:
membership and enumeration, exhaustive bounded progression search, complete
solvers for the related two-prime exponential equations, the classification
table for 5-term progressions with verification sweeps, constructive
infinite families, and a registry of named finite computations with
recorded expected outputs.
"""

__version__ = "0.1.0"
