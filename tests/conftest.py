import random

import pytest

from rothman import cli, inference, standardize
from rothman.measures import ContourValue, Measure, contour_y
from rothman.tables import CellCounts, RiskPoint, StratifiedTable, Stratum, newcastle_fixture


@pytest.fixture
def newcastle() -> StratifiedTable:
    return newcastle_fixture()


@pytest.fixture
def fit_calls(monkeypatch) -> list:
    """Specs of the fits made through ``rothman.inference.fit``, including the
    CLI's binding of it and names imported from it after the fixture runs."""
    calls = []
    original = inference.fit

    def counted(table, spec, *args, **kwargs):
        calls.append(spec)
        return original(table, spec, *args, **kwargs)

    monkeypatch.setattr(inference, "fit", counted)
    monkeypatch.setattr(cli, "fit", counted)
    return calls


@pytest.fixture
def newton_calls(monkeypatch) -> list:
    """Specs of the Newton solves ``rothman.inference.fit`` runs, which it
    looks up at call time; the fit memo starts empty, so every fit not
    repeated inside the test runs one."""
    inference._fit.cache_clear()
    calls = []
    original = inference._newton

    def counted(link, X, *args, **kwargs):
        calls.append((link, X.shape[1]))
        return original(link, X, *args, **kwargs)

    monkeypatch.setattr(inference, "_newton", counted)
    return calls


@pytest.fixture
def profile_loglik_calls(monkeypatch) -> list:
    """b1 values of the profile solves made through
    ``rothman.inference.profile_loglik``, which ``profile_ci`` looks up at call time."""
    calls = []
    original = inference.profile_loglik

    def counted(table, link, b1):
        calls.append(b1)
        return original(table, link, b1)

    monkeypatch.setattr(inference, "profile_loglik", counted)
    return calls


@pytest.fixture
def stratum_evaluations(monkeypatch) -> list:
    """Per stratum solve of ``rothman.inference.profile_loglik``, how often
    it evaluates the stratum log-likelihood: calls of its link's cell
    function (one per cell and evaluation) made in ``_stratum_max``, over 2."""
    calls = []
    cell_calls = [0]

    for link, cell in list(inference._CELL.items()):
        def counted_cell(y, f, eta, cell=cell):
            cell_calls[0] += 1
            return cell(y, f, eta)

        monkeypatch.setitem(inference._CELL, link, counted_cell)
    original = inference._stratum_max

    def counted(*args):
        before = cell_calls[0]
        out = original(*args)
        calls.append((cell_calls[0] - before) / 2)
        return out

    monkeypatch.setattr(inference, "_stratum_max", counted)
    return calls


@pytest.fixture
def measure_calls(monkeypatch) -> list:
    """Names of the measure evaluations standardize makes: each call of its
    bindings of ``evaluate`` and ``gradient``."""
    calls = []

    def counting(name):
        original = getattr(standardize, name)

        def counted(measure, p):
            calls.append(name)
            return original(measure, p)

        monkeypatch.setattr(standardize, name, counted)

    counting("evaluate")
    counting("gradient")
    return calls


def random_table(rng: random.Random, k: int = 2, max_total: int = 400, interior: bool = False) -> StratifiedTable:
    """Random stratified table; with interior=True every cell has 0 < risk < 1."""
    strata = []
    for i in range(k):
        cells = []
        for _ in range(2):
            total = rng.randint(2 if interior else 1, max_total)
            lo, hi = (1, total - 1) if interior else (0, total)
            cells.append(CellCounts(rng.randint(lo, hi), total))
        strata.append(Stratum(f"s{i}", exposed=cells[0], unexposed=cells[1]))
    return StratifiedTable(tuple(strata))


def points_on_contour(
    rng: random.Random,
    measure: Measure,
    m: float,
    k: int,
    x_lo: float = 0.02,
    x_hi: float = 0.95,
    min_sep: float = 1e-3,
    y_cap: float = 1.0 - 1e-6,
) -> list[RiskPoint]:
    """k distinct points on one contour, x-separated by at least min_sep."""
    c = ContourValue(measure, m)
    xs: list[float] = []
    guard = 0
    while len(xs) < k:
        guard += 1
        if guard > 10000:
            raise RuntimeError("could not sample contour points")
        x = rng.uniform(x_lo, x_hi)
        if any(abs(x - other) < min_sep for other in xs):
            continue
        try:
            y = contour_y(c, x)
        except Exception:
            continue
        if 0.0 < y < y_cap and 0.0 < x < 1.0:
            xs.append(x)
    return [RiskPoint(x, contour_y(c, x)) for x in sorted(xs)]


def synthetic_four_strata() -> StratifiedTable:
    """Deterministic four-stratum table with interior risks, used where the
    multi-stratum code paths need a concrete example."""
    return StratifiedTable(
        (
            Stratum("18-44", exposed=CellCounts(31, 412), unexposed=CellCounts(19, 377)),
            Stratum("45-54", exposed=CellCounts(44, 310), unexposed=CellCounts(33, 335)),
            Stratum("55-64", exposed=CellCounts(63, 245), unexposed=CellCounts(52, 270)),
            Stratum("65+", exposed=CellCounts(42, 49), unexposed=CellCounts(165, 193)),
        )
    )
