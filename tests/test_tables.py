import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rothman.errors import DomainError, TableParseError
from rothman.tables import (
    CellCounts,
    RiskPoint,
    StratifiedTable,
    Stratum,
    crude_point,
    newcastle_fixture,
    parse_table,
    risk,
    serialize_table,
    stratum_points,
)

NEWCASTLE_CSV = """\
stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total
# ages at the original survey
18-64,97,533,65,539
65+,42,49,165,193
"""


def test_risk_direct_ratios():
    assert risk(CellCounts(97, 533)) == pytest.approx(0.18199, abs=5e-6)
    assert risk(CellCounts(0, 10)) == 0.0
    assert risk(CellCounts(165, 193)) == pytest.approx(0.85492, abs=5e-6)


def test_cell_counts_invariants():
    with pytest.raises(DomainError):
        CellCounts(5, 4)
    with pytest.raises(DomainError):
        CellCounts(-1, 4)
    with pytest.raises(DomainError):
        CellCounts(0, 0)
    with pytest.raises(DomainError):
        CellCounts(1.5, 3)
    assert CellCounts(10**100, 10**100).total == 10**100
    with pytest.raises(DomainError, match="at most 10\\^100"):
        CellCounts(0, 10**100 + 1)


def test_risk_point_bounds():
    with pytest.raises(DomainError):
        RiskPoint(1.2, 0.5)
    with pytest.raises(DomainError):
        RiskPoint(0.5, -0.01)


def test_stratum_points_newcastle():
    pts = stratum_points(newcastle_fixture())
    assert pts[0].x == 65 / 539
    assert pts[0].y == 97 / 533
    assert pts[1].x == 165 / 193
    assert pts[1].y == 42 / 49
    assert pts[0].x == pytest.approx(0.12060, abs=1e-5)
    assert pts[0].y == pytest.approx(0.18199, abs=1e-5)
    assert pts[1].x == pytest.approx(0.85492, abs=1e-5)
    assert pts[1].y == pytest.approx(0.85714, abs=1e-5)


def test_stratum_point_on_null_line_when_arms_match():
    table = StratifiedTable((Stratum("a", CellCounts(3, 12), CellCounts(3, 12)),))
    (p,) = stratum_points(table)
    assert p.x == p.y


def test_stratum_point_all_cases():
    table = StratifiedTable((Stratum("a", CellCounts(9, 9), CellCounts(4, 4)),))
    assert stratum_points(table)[0] == RiskPoint(1.0, 1.0)


def test_crude_point_newcastle():
    p = crude_point(newcastle_fixture())
    assert p.x == pytest.approx(230 / 732)
    assert p.y == pytest.approx(139 / 582)
    assert p.x == pytest.approx(0.31421, abs=5e-6)
    assert p.y == pytest.approx(0.23883, abs=5e-6)


def test_crude_point_single_stratum_is_the_stratum_point():
    table = StratifiedTable((Stratum("a", CellCounts(5, 20), CellCounts(4, 25)),))
    assert crude_point(table) == stratum_points(table)[0]


def test_crude_point_on_segment_when_arm_distributions_match():
    # both arms have the same stratum-size distribution (100:50), so the
    # crude point is the same convex combination of both stratum points
    table = StratifiedTable(
        (
            Stratum("a", exposed=CellCounts(10, 100), unexposed=CellCounts(20, 100)),
            Stratum("b", exposed=CellCounts(30, 50), unexposed=CellCounts(10, 50)),
        )
    )
    p1, p2 = stratum_points(table)
    c = crude_point(table)
    w = 100 / 150
    assert c.x == pytest.approx(w * p1.x + (1 - w) * p2.x, abs=1e-15)
    assert c.y == pytest.approx(w * p1.y + (1 - w) * p2.y, abs=1e-15)


def test_parse_newcastle_csv_matches_fixture():
    assert parse_table(NEWCASTLE_CSV) == newcastle_fixture()


def test_parse_rejects_empty_body():
    with pytest.raises(TableParseError):
        parse_table("stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n")
    with pytest.raises(TableParseError):
        parse_table("")


def test_parse_rejects_bad_header():
    with pytest.raises(TableParseError):
        parse_table("a,b,c,d,e\nA,1,2,1,2\n")


def test_parse_reports_line_numbers():
    text = NEWCASTLE_CSV + "bad,row\n"
    with pytest.raises(TableParseError) as exc:
        parse_table(text)
    assert exc.value.line == 5
    assert "line 5" in str(exc.value)


def test_parse_rejects_non_integer_counts():
    with pytest.raises(TableParseError):
        parse_table("stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\nA,1.5,2,1,2\n")


def test_parse_cases_exceeding_total_is_domain_error():
    with pytest.raises(DomainError):
        parse_table("stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\nA,5,4,1,10\n")


def test_parse_rejects_duplicate_labels():
    text = (
        "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total\n"
        "A,1,10,2,10\nA,3,10,4,10\n"
    )
    with pytest.raises(DomainError):
        parse_table(text)


def test_newcastle_fixture_counts():
    table = newcastle_fixture()
    assert table.strata[0].label == "18-64"
    assert table.strata[0].exposed == CellCounts(97, 533)
    assert table.strata[1].unexposed == CellCounts(165, 193)
    total = sum(s.exposed.total + s.unexposed.total for s in table.strata)
    assert total == 1314


@st.composite
def tables(draw, min_k=1, max_k=4, max_total=300):
    k = draw(st.integers(min_k, max_k))
    strata = []
    for i in range(k):
        cells = []
        for _ in range(2):
            total = draw(st.integers(1, max_total))
            cells.append(CellCounts(draw(st.integers(0, total)), total))
        strata.append(Stratum(f"s{i}", exposed=cells[0], unexposed=cells[1]))
    return StratifiedTable(tuple(strata))


@given(tables())
def test_serialize_parse_round_trip(table):
    assert parse_table(serialize_table(table)) == table


@given(st.integers(1, 1000), st.data())
def test_risk_monotone_in_cases(total, data):
    lo = data.draw(st.integers(0, total))
    hi = data.draw(st.integers(lo, total))
    assert risk(CellCounts(lo, total)) <= risk(CellCounts(hi, total))


def test_stratum_order_preserved():
    rng = random.Random(4)
    labels = [f"g{i}" for i in range(6)]
    rng.shuffle(labels)
    strata = tuple(Stratum(lab, CellCounts(1, 10), CellCounts(2, 10)) for lab in labels)
    table = parse_table(serialize_table(StratifiedTable(strata)))
    assert [s.label for s in table.strata] == labels


def test_table_hash_is_set_once_and_equality_and_repr_are_the_fields():
    def build(label="a"):
        return StratifiedTable((
            Stratum(label, exposed=CellCounts(10, 100), unexposed=CellCounts(20, 100)),
            Stratum("b", exposed=CellCounts(30, 100), unexposed=CellCounts(10, 100)),
        ))

    first, second = build(), build()
    assert first == second and hash(first) == hash(second) == hash(first.strata)
    assert repr(first) == f"StratifiedTable(strata={first.strata!r})"
    assert build("c") != first


def test_unpickled_table_hashes_as_one_built_in_its_process():
    # the hash is set once from strings, whose hashes differ between processes
    def run(seed, code, data=b""):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True).stdout

    # in this process too, where a line trace sees __reduce__ run
    table = newcastle_fixture()
    assert table.__reduce__() == (StratifiedTable, (table.strata,))
    assert hash(pickle.loads(pickle.dumps(table))) == hash(table)

    prelude = "import pickle, sys; from rothman.tables import newcastle_fixture; "
    data = run("1", prelude + "sys.stdout.buffer.write(pickle.dumps(newcastle_fixture()))")
    check = "t = pickle.loads(sys.stdin.buffer.read()); print(t == newcastle_fixture() and hash(t) == hash(newcastle_fixture()))"
    assert run("2", prelude + check, data).strip() == b"True"


_CELL = CellCounts(1, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CellCounts(1, 2.0), "total must be an integer, got 2.0"),
        (lambda: Stratum("", exposed=_CELL, unexposed=_CELL), "stratum label must be nonempty"),
        (lambda: StratifiedTable(()), "a table needs at least one stratum"),
    ],
    ids=["non-integer-total", "empty-label", "no-strata"],
)
def test_malformed_records_are_refused(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message
