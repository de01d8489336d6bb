"""The package's records: validated, immutable, compared and printed by their fields."""

import pickle

import pytest

from apsumset.catalog import LemmaSolution, NamedCheck
from apsumset.classify import NonextensionRow, SweepConfig
from apsumset.numutil import PrimeSet
from apsumset.sumset import SumsetParams
from apsumset.sunit import FourTermSolution, Pattern, PatternTerm, TripleSolution

TERMS = (PatternTerm(1, "x", 0), PatternTerm(-1, 0, "y"), PatternTerm(-1, 0, 0))
BOUNDS = (("x", 5), ("y", 5))

# one valid record of each kind, as (class, fields by name)
RECORDS = [
    (SumsetParams, {"a": 2, "b": 3}),
    (SweepConfig, {"a_max": 3, "b_max": 10, "term_limit": 100, "k": 5}),
    (NonextensionRow, {"family": "family1", "k": 1, "params": (2, 3), "next_term": 13, "extends": True,
                       "witness": ((2, 2),)}),
    (PatternTerm, {"coefficient": -1, "p_exp": "x", "q_exp": 0}),
    (Pattern, {"p": 2, "q": 3, "terms": TERMS, "var_bounds": BOUNDS}),
    (TripleSolution, {"x": 1, "y": 2, "z": 3}),
    (FourTermSolution, {"shape": "px+-qy+-pz+-qw", "signs": (1, -1, 1, -1), "exponents": (2, 1, 1, 1),
                        "terms": (4, -3, 2, -3)}),
    (LemmaSolution, {"b": 5, "x": 1, "y": 0, "alpha": 2, "beta": 0}),
    (NamedCheck, {"id": "rn", "solver": {"kind": "rn_scan", "e_max": 3}, "expected": ((3, 2, 3, 1),),
                  "documented_extras": (), "discrepancy_note": None}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


def make(cls, fields):
    return PrimeSet(fields) if cls is PrimeSet else cls(**fields)


ALL_RECORDS = [*RECORDS, (PrimeSet, (2, 3, 5))]
ALL_IDS = [*RECORD_IDS, "PrimeSet"]


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (PrimeSet, ((),), "PrimeSet must be nonempty"),
        (PrimeSet, ((3, 2),), "primes must be strictly increasing, got (3, 2)"),
        (PrimeSet, ([2, 2, 3],), "primes must be strictly increasing, got (2, 2, 3)"),
        (PrimeSet, ((2, 3, 9),), "9 is not prime"),
        (SumsetParams, (3, 3), "need b > a > 1, got a=3, b=3"),
        (SumsetParams, (1, 3), "need b > a > 1, got a=1, b=3"),
        (SweepConfig, (1, 10, 100, 5), "need 2 <= a_max <= b_max"),
        (SweepConfig, (4, 3, 100, 5), "need 2 <= a_max <= b_max"),
        (SweepConfig, (2, 10, 100, 2), "k must be >= 3, got 2"),
        (SweepConfig, (2, 10, 1, 5), "limit must be >= 2, got 1"),
        (PatternTerm, (0, "x", 0), "coefficient must be nonzero"),
        (PatternTerm, (1, 0, -1), "fixed exponent must be >= 0, got -1"),
        (Pattern, (10**25, 3, TERMS, BOUNDS), f"p and q must be below 3317044064679887385961981, got {10**25}, 3"),
        (Pattern, (2, 4, TERMS, BOUNDS), "p, q must be distinct primes, got 2, 4"),
        (Pattern, (3, 3, TERMS, BOUNDS), "p, q must be distinct primes, got 3, 3"),
        (Pattern, (2, 3, TERMS[:1], (("x", 5),)), "pattern needs at least 2 terms"),
        (Pattern, (2, 3, TERMS, (*BOUNDS, ("x", 2))), "variable declared twice in ['x', 'y', 'x']"),
        (Pattern, (2, 3, TERMS, (("x", 5), ("y", -1))), "bound of 'y' must be >= 0, got -1"),
        (Pattern, (2, 3, TERMS, (*BOUNDS, ("z", 1))),
         "variable mismatch: terms use ['x', 'y'], bounds declare ['x', 'y', 'z']"),
        (TripleSolution, (1, 2, 4), "invalid triple (1, 2, 4)"),
        (TripleSolution, (2, 1, 3), "invalid triple (2, 1, 3)"),
        (TripleSolution, (2, 4, 6), "invalid triple (2, 4, 6)"),
        (LemmaSolution, (5, 1, 0, 3, 1), "not a solution: LemmaSolution(b=5, x=1, y=0, alpha=3, beta=1)"),
        (LemmaSolution, (2, 1, -1, -1, 1), "need x > y >= 0: LemmaSolution(b=2, x=1, y=-1, alpha=-1, beta=1)"),
    ],
)
def test_refusal_message(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=ALL_IDS)
def test_fields_cannot_be_assigned(cls, fields):
    record = make(cls, fields)
    for name in [*fields, "extra"] if isinstance(fields, dict) else ["primes", "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert make(cls, fields) == record


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=ALL_IDS)
def test_equal_fields_give_equal_records(cls, fields):
    first, second = make(cls, fields), make(cls, fields)
    assert first == second and first is not second
    if cls is not NamedCheck:  # its solver is a dict, so it has no hash
        assert hash(first) == hash(second)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_repr_names_each_field(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=ALL_IDS)
def test_pickle_round_trip(cls, fields):
    record = make(cls, fields)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is cls


def test_prime_set_is_its_primes():
    primes = PrimeSet([2, 3, 5])
    assert list(primes) == [2, 3, 5]
    assert tuple(primes) == (2, 3, 5)
    assert len(primes) == 3 and 5 in primes
