import numpy as np
import pytest

from cavitree.cavity import CavityTable, RegularTreeEngine, TableError


@pytest.fixture(scope="module")
def engine(model15, bayes):
    eng = RegularTreeEngine(model15, 3, bayes)
    eng.run(3)
    return eng


def test_normalization_defect_small(engine):
    for t in range(3):
        assert engine.cavity_table(t).normalization_defect() <= 1e-12


def test_marginalization_defect_small(engine):
    for t in (1, 2):
        defect = engine.cavity_table(t).marginalization_defect(
            engine.cavity_table(t - 1))
        assert defect <= 1e-12


def test_entries_are_probabilities(engine):
    for t in range(3):
        arr = engine.cavity_table(t).array
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


def test_table_constructors_validate():
    with pytest.raises(TableError):
        CavityTable(horizon=1, alphabet_size=2, array=np.zeros((3, 2, 2)))
    with pytest.raises(TableError):
        CavityTable(horizon=1, alphabet_size=2, array=np.zeros((4, 2)))
