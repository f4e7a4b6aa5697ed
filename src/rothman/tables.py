"""Data model for stratified 2x2 count data.

Counts are stored as exact integers; risks are computed on demand and
never cached, so every downstream quantity can be traced back to counts.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .errors import DomainError, TableParseError

CSV_HEADER = "stratum,exposed_cases,exposed_total,unexposed_cases,unexposed_total"
# the largest arm total: the closed-form stratum solves multiply two counts
# in floats, and a product of two at 10^100 stays far below the largest
# float (about 1.8e308)
MAX_TOTAL = 10**100


@dataclass(frozen=True)
class CellCounts:
    """Case count and group size for one exposure arm of one stratum."""

    cases: int
    total: int

    def __post_init__(self):
        if not isinstance(self.cases, int) or isinstance(self.cases, bool):
            raise DomainError(f"cases must be an integer, got {self.cases!r}")
        if not isinstance(self.total, int) or isinstance(self.total, bool):
            raise DomainError(f"total must be an integer, got {self.total!r}")
        if self.total < 1:
            raise DomainError(f"total must be >= 1, got {self.total}")
        if self.total > MAX_TOTAL:
            raise DomainError("total must be at most 10^100")
        if not 0 <= self.cases <= self.total:
            raise DomainError(f"cases must satisfy 0 <= cases <= total, got {self.cases}/{self.total}")


@dataclass(frozen=True)
class Stratum:
    """One level of the stratifying covariate with its two exposure arms."""

    label: str
    exposed: CellCounts
    unexposed: CellCounts

    def __post_init__(self):
        if not self.label:
            raise DomainError("stratum label must be nonempty")


@dataclass(frozen=True)
class StratifiedTable:
    """An ordered collection of strata; order is preserved from input."""

    strata: tuple[Stratum, ...]

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        if len(self.strata) < 1:
            raise DomainError("a table needs at least one stratum")
        labels = [s.label for s in self.strata]
        if len(set(labels)) != len(labels):
            dup = next(lab for lab in labels if labels.count(lab) > 1)
            raise DomainError(f"duplicate stratum label {dup!r}")
        # tables key the fit and profile memos: hash the nested strata once
        object.__setattr__(self, "_hash", hash(self.strata))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled table hashes as its own process does
        return type(self), (self.strata,)

    @property
    def k(self) -> int:
        return len(self.strata)


@dataclass(frozen=True)
class RiskPoint:
    """A point in the unit square: risk in unexposed (x), risk in exposed (y)."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise DomainError(f"risk point ({self.x}, {self.y}) outside the unit square")


def risk(cell: CellCounts) -> float:
    """Empirical risk cases/total."""
    return cell.cases / cell.total


def stratum_points(table: StratifiedTable) -> list[RiskPoint]:
    """Per-stratum risk points, in stratum order."""
    return [RiskPoint(risk(s.unexposed), risk(s.exposed)) for s in table.strata]


def _pooled_counts(table: StratifiedTable) -> tuple[int, int, int, int]:
    """The collapsed table's unexposed cases and total, then its exposed ones."""
    return (sum(s.unexposed.cases for s in table.strata), sum(s.unexposed.total for s in table.strata),
            sum(s.exposed.cases for s in table.strata), sum(s.exposed.total for s in table.strata))


def crude_point(table: StratifiedTable) -> RiskPoint:
    """Risk point of the collapsed (marginal) 2x2 table."""
    uc, ut, ec, et = _pooled_counts(table)
    return RiskPoint(uc / ut, ec / et)


def parse_table(text: str) -> StratifiedTable:
    """Parse CSV with header ``stratum,exposed_cases,exposed_total,
    unexposed_cases,unexposed_total``; ``#``-prefixed lines are ignored.

    Raises TableParseError for malformed input (with line number) and
    DomainError for count-invariant violations.
    """
    header_seen = False
    strata: list[Stratum] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise TableParseError(f"expected header {CSV_HEADER!r}, got {line!r}", lineno)
            header_seen = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise TableParseError(f"expected 5 fields, got {len(fields)}", lineno)
        label = fields[0]
        try:
            ec, et, uc, ut = (int(f) for f in fields[1:])
        except ValueError:
            raise TableParseError(f"counts must be integers, got {fields[1:]!r}", lineno) from None
        strata.append(Stratum(label, CellCounts(ec, et), CellCounts(uc, ut)))
    if not header_seen:
        raise TableParseError("empty input: missing header", None)
    if not strata:
        raise TableParseError("no data rows", None)
    return StratifiedTable(tuple(strata))


def serialize_table(table: StratifiedTable) -> str:
    """Inverse of parse_table: render a table as CSV text."""
    lines = [CSV_HEADER]
    for s in table.strata:
        lines.append(f"{s.label},{s.exposed.cases},{s.exposed.total},{s.unexposed.cases},{s.unexposed.total}")
    return "\n".join(lines) + "\n"


def newcastle_fixture() -> StratifiedTable:
    """The embedded Newcastle smoking / 20-year mortality table, two age strata."""
    return StratifiedTable(
        (
            Stratum("18-64", exposed=CellCounts(97, 533), unexposed=CellCounts(65, 539)),
            Stratum("65+", exposed=CellCounts(42, 49), unexposed=CellCounts(165, 193)),
        )
    )


def four_strata_fixture() -> StratifiedTable:
    """A synthetic four-stratum table with interior risks, for the hull figure,
    whose published four-age-group counts are not public."""
    return StratifiedTable(
        (
            Stratum("18-44", exposed=CellCounts(31, 412), unexposed=CellCounts(19, 377)),
            Stratum("45-54", exposed=CellCounts(44, 310), unexposed=CellCounts(33, 335)),
            Stratum("55-64", exposed=CellCounts(63, 245), unexposed=CellCounts(52, 270)),
            Stratum("65+", exposed=CellCounts(42, 49), unexposed=CellCounts(165, 193)),
        )
    )
