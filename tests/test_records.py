"""naqlab's records: each is read-only, and keeps its field names, defaults
and repr."""

from array import array

import numpy as np
import pytest

from naqlab import algebra, charge, geometry, numerics, shooting


def _records():
    traj = numerics.RkSolution(array("d", (0.0,)), array("d", (1.0,)), array("d", (0.0,)), array("d", (0.0,)), None, 0)
    leaf = algebra.Constituent("F")
    axis = np.linspace(0.0, 1.0, 3)
    return (
        numerics.QuadResult(1.0, 0.0, 15),
        traj,
        shooting.CouplingParams(1.0, 0.1),
        shooting.Probe(0.9, "overshoot", 1e-3, traj),
        charge.ChargeModel(1.0),
        charge.FieldSample(1.0, 2.0, 3.0, 4.0),
        charge.EnergyReport(1.0, 2.0, 3.0, 4.0),
        leaf,
        algebra.State(),
        algebra.Product(leaf, algebra.State()),
        algebra.CorrectionSeries(()),
        geometry.Grid((axis, axis, axis, axis)),
        geometry.ContorsionTensor(np.zeros((4, 4, 4)), np.zeros((4, 4, 4))),
    )


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_fields_cannot_be_set(record):
    # a name that is no field is refused too: no record carries a __dict__
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_repr_names_fields_and_defaults():
    assert repr(shooting.CouplingParams(1.0, 0.1)) == "CouplingParams(lambda_tilde=1.0, m=0.1)"
    assert repr(charge.ChargeModel(2.0)) == "ChargeModel(q=2.0, G=1.0, c=1.0)"
    assert repr(algebra.Constituent("B")) == "Constituent(kind='B', constituent_index='i')"
    assert repr(algebra.Product(algebra.State(), algebra.State())) == "Product(left=State(), right=State())"
    assert charge.ChargeModel(q=2.0, c=1.5) == charge.ChargeModel(2.0, 1.0, 1.5)
