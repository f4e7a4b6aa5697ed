#!/usr/bin/env python3
"""Emit all six diagram analogs as SVG files, one per entry of
rothman.render.FIGURES, in its order, as fig{i}_{name}.svg.

The hull figure needs at least three strata, so it runs on a synthetic
four-stratum table (the four-age-group counts behind the published figure
are not public); every other figure uses the embedded Newcastle table.

Usage: python scripts/make_figures.py [output_dir]
"""

import sys
from pathlib import Path

from rothman.render import FIGURES, render_svg
from rothman.tables import four_strata_fixture, newcastle_fixture


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures")
    out_dir.mkdir(parents=True, exist_ok=True)
    newcastle = newcastle_fixture()
    for i, (name, build) in enumerate(FIGURES.items(), start=1):
        path = out_dir / f"fig{i}_{name}.svg"
        table = four_strata_fixture() if name == "hull" else newcastle
        path.write_text(render_svg(build(table)), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
