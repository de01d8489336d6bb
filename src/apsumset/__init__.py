"""Arithmetic progressions in sumsets of two geometric progressions.

Tooling for the sets S_{a,b} = {a^x + b^y : x, y >= 0} with b > a > 1:
membership and enumeration, exhaustive bounded progression search, complete
solvers for the related two-prime exponential equations, the classification
table for 5-term progressions with verification sweeps, constructive
infinite families, and a registry of named finite computations with
recorded expected outputs.
"""

__version__ = "0.1.0"

from .apsearch import Progression, count_3term_stable, find_progressions, progression
from .catalog import LemmaSolution, lemma21_classify, lemma21_solve, run_all, run_check
from .classify import SweepConfig, family_nonextension, theorem1_match
from .families import FAMILY_IDS, find_prog3_pairs, generate
from .numutil import PrimeSet, power_exponent
from .sumset import Representation, SumsetElement, SumsetParams, enumerate_up_to, representations
from .sunit import (
    Pattern,
    PatternSolution,
    PatternTerm,
    SearchBudgetExceeded,
    TripleSolution,
    bajpai_bennett_5term,
    deweger_3term,
    deze_tijdeman_4term,
    solve_pattern,
)
