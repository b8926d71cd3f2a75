"""The package's records: repr, equality and hash by value, immutability.

Each row builds one record from keyword arguments.  The same values given
positionally build an equal record, its repr is the text pinned here, a
record with one field changed is unequal, and no attribute can be set.
"""

import cmath

import pytest

from chebgamma import (
    CaseReport,
    ContourTermSpec,
    LimitSpec,
    SeriesParams,
    SeriesResult,
    SweepConfig,
    SweepSummary,
    TruncationPolicy,
    VerificationCase,
)

# (record type, keyword arguments in field order, repr, (field, other value))
RECORDS = [
    (SeriesParams, {"a": 1, "k": 2.0, "alpha": 0.3, "beta": -0.55},
     "SeriesParams(a=(1+0j), k=(2+0j), alpha=(0.3+0j), beta=(-0.55+0j))",
     ("beta", -0.5)),
    (TruncationPolicy, {"mode": "fixed", "max_shell": 64, "rel_tol": 1e-10},
     "TruncationPolicy(mode='fixed', max_shell=64, rel_tol=1e-10)",
     ("max_shell", 65)),
    (SeriesResult, {"value": 1 + 2j, "error_estimate": 1e-15, "shells_used": 3,
                    "termination": "terminated-exactly",
                    "warnings": frozenset({"branch-sensitive"})},
     "SeriesResult(value=(1+2j), error_estimate=1e-15, shells_used=3, "
     "termination='terminated-exactly', warnings=frozenset({'branch-sensitive'}))",
     ("warnings", frozenset())),
    (ContourTermSpec, {"index": 5, "variable": "alpha-side", "root_sign": "+",
                       "order_shift": -1},
     "ContourTermSpec(index=5, variable='alpha-side', root_sign='+', order_shift=-1)",
     ("root_sign", "-")),
    (LimitSpec, {"kind": "both-to-one"},
     "LimitSpec(kind='both-to-one')",
     ("kind", "alpha-to-one")),
    (SweepConfig, {"a": (1 + 0j,), "k": (2 + 0j,), "alpha": (0.5 + 0j,),
                   "beta": (-0.5 + 0j, 0.25j), "mode": "closed",
                   "policy": TruncationPolicy(), "output_path": "grid.json",
                   "format": "json"},
     "SweepConfig(a=((1+0j),), k=((2+0j),), alpha=((0.5+0j),), beta=((-0.5+0j), 0.25j), "
     "mode='closed', policy=TruncationPolicy(mode='optimal', max_shell=512, rel_tol=1e-14), "
     "output_path='grid.json', format='json')",
     ("mode", "both")),
    (SweepSummary, {"points_evaluated": 4, "failures": 1, "output_path": "grid.csv"},
     "SweepSummary(points_evaluated=4, failures=1, output_path='grid.csv')",
     ("failures", 0)),
    (CaseReport, {"case_id": "prop1-k1", "lhs_value": 1.2 + 0j, "rhs_value": 1.2 + 0j,
                  "abs_err": 0.0, "rel_err": 0.0, "tolerance": 1e-12, "status": "pass",
                  "wall_time_ms": 0.5, "warnings": frozenset(), "point": (10.0,)},
     "CaseReport(case_id='prop1-k1', lhs_value=(1.2+0j), rhs_value=(1.2+0j), abs_err=0.0, "
     "rel_err=0.0, tolerance=1e-12, status='pass', wall_time_ms=0.5, warnings=frozenset(), "
     "point=(10.0,))",
     ("status", "fail")),
    (VerificationCase, {"case_id": "exp", "description": "exp twice", "kind": "primary",
                        "tolerance": 1e-9, "points": ((1.0,),), "draw": None,
                        "lhs": cmath.exp, "rhs": cmath.exp},
     "VerificationCase(case_id='exp', description='exp twice', kind='primary', "
     "tolerance=1e-09, points=((1.0,),), draw=None, lhs=<built-in function exp>, "
     "rhs=<built-in function exp>)",
     ("rhs", cmath.log)),
]


@pytest.mark.parametrize("record, kwargs, text, change", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(record, kwargs, text, change):
    built = record(**kwargs)
    assert repr(built) == text
    again = record(*kwargs.values())
    assert again == built and hash(again) == hash(built) and repr(again) == text
    name, other = change
    assert record(**{**kwargs, name: other}) != built
    for attribute in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(built, attribute, other)


def test_record_defaults():
    assert TruncationPolicy() == TruncationPolicy("optimal", 512, 1e-14)
    grid = {"a": (1 + 0j,), "k": (2 + 0j,), "alpha": (0.5 + 0j,), "beta": (-0.5 + 0j,)}
    assert SweepConfig(**grid) == SweepConfig(*grid.values(), "both", TruncationPolicy(),
                                              "sweep_out.csv", "csv")
