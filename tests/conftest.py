import dataclasses
import math
import random

import pytest
from hypothesis import strategies as st

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
def computed_fits():
    """A function that returns how many fits ``rothman.inference.fit`` has
    computed rather than taken from its memo. The memo starts empty, so
    every fit not repeated inside the test counts once. The memo of lp at
    a fit's estimate starts empty too."""
    inference._fit.cache_clear()
    inference._lp_at.cache_clear()
    return lambda: inference._fit.cache_info().misses


@pytest.fixture
def one_step_solves(monkeypatch):
    """Every solver of ``rothman.inference`` limited to one step, with the fit
    and lp memos cleared before and after, so that nothing computed under the
    limit is reused."""
    monkeypatch.setattr(inference, "_MAX_ITER", 1)
    inference._fit.cache_clear()
    inference._lp_at.cache_clear()
    yield
    inference._fit.cache_clear()
    inference._lp_at.cache_clear()


@pytest.fixture
def profile_loglik_calls(monkeypatch) -> list:
    """b1 values of the profile solves made through
    ``rothman.inference.profile_loglik_slope``, which ``profile_ci`` looks
    up at call time."""
    calls = []
    original = inference.profile_loglik_slope

    def counted(table, link, b1):
        calls.append(b1)
        return original(table, link, b1)

    monkeypatch.setattr(inference, "profile_loglik_slope", counted)
    return calls


@pytest.fixture
def stratum_evaluations(monkeypatch) -> list:
    """Per stratum solve of ``rothman.inference.profile_loglik_slope``, how often
    it evaluates the stratum log-likelihood: calls of its link's cell
    function (one per cell and evaluation) made in ``_stratum_max``, over 2."""
    calls = []
    cell_calls = [0]

    for link, rec in list(inference._LINKS.items()):
        def counted_cell(y, f, eta, cell=rec.cell):
            cell_calls[0] += 1
            return cell(y, f, eta)

        monkeypatch.setitem(inference._LINKS, link, dataclasses.replace(rec, cell=counted_cell))
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
    bindings of ``evaluate`` and of the scalar derivative core
    ``_gradient_xy``, which the extremizer's edge search calls."""
    calls = []

    def counting(name):
        original = getattr(standardize, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(standardize, name, counted)

    counting("evaluate")
    counting("_gradient_xy")
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


@st.composite
def extreme_tables(draw):
    """K = 1-6, totals log-uniform up to 1e9, cells often forced to 0, n,
    1 or n - 1."""
    strata = []
    for j in range(draw(st.integers(1, 6))):
        cells = []
        for _ in range(2):
            n = max(1, round(math.exp(draw(st.floats(0.0, math.log(1e9))))))
            cases = draw(st.one_of(st.sampled_from([0, n, 1, n - 1]), st.integers(0, n)))
            cells.append(CellCounts(cases, n))
        strata.append(Stratum(f"s{j}", exposed=cells[0], unexposed=cells[1]))
    return StratifiedTable(tuple(strata))


def sweep_tables() -> list[StratifiedTable]:
    """Thirty seeded tables, K = 1 to 10 three times over: interior-sized
    cells (tables 0-9), cells of at most six subjects, often zero or full
    (10-19), and a first stratum whose two cells are both full (20-29)."""
    rng = random.Random(1313)
    tables = []
    for i in range(30):
        k, kind = 1 + i % 10, i // 10
        table = random_table(rng, k, max_total=400 if kind == 0 else 6)
        if kind == 2:
            full = Stratum("s0", exposed=CellCounts(30, 30), unexposed=CellCounts(50, 50))
            table = StratifiedTable((full,) + table.strata[1:])
        tables.append(table)
    return tables


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

