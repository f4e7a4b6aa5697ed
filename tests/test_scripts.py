"""Smoke tests of the scripts in scripts/ and of README's library example,
run in-process."""

import hashlib
import re
import runpy
import sys
from pathlib import Path

from test_render import FIGURE_SHA256

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

RUN_NEWCASTLE_OUTPUT = """\
stratum-specific and crude risk points
   18-64: x = 0.12059, y = 0.18199
     65+: x = 0.85492, y = 0.85714
   crude: x = 0.31421, y = 0.23883

confounded: yes (crude point 0.0892 from the standardized segment)

measure                      18-64     65+       p  common  95% CI
risk difference              0.061   0.002   0.300   0.052  (0.013, 0.091)
odds ratio                   1.622   1.018   0.353   1.537  (1.119, 2.125)
risk ratio                   1.509   1.003   0.010   1.062  (0.952, 1.166)
cumulative hazard ratio      1.563   1.008   0.086   1.316  (1.034, 1.676)

risk difference: common 0.052, verdict collapsible-here
risk ratio: common 1.062, verdict collapsible-here
odds ratio: common 1.537, verdict attenuated-toward-null, minimum 1.229 at weights (0.484, 0.516)
cumulative hazard ratio: common 1.316, verdict attenuated-toward-null, minimum 1.168 at weights (0.506, 0.494)
"""


def test_run_newcastle_output_and_fit_count(capsys, fit_calls, computed_fits):
    runpy.run_path(str(SCRIPTS / "run_newcastle.py"), run_name="__main__")
    assert capsys.readouterr().out == RUN_NEWCASTLE_OUTPUT
    # one saturated and one no-interaction fit per link, each computed once
    assert computed_fits() == len(set(fit_calls)) == 8


MAKE_FIGURES_DIGESTS = {
    "fig1_contours.svg": FIGURE_SHA256[("newcastle", "contours")],
    "fig2_modification.svg": FIGURE_SHA256[("newcastle", "modification")],
    "fig3_modconf.svg": FIGURE_SHA256[("newcastle", "modconf")],
    "fig4_collapsible.svg": FIGURE_SHA256[("newcastle", "collapsible")],
    "fig5_noncollapsible.svg": FIGURE_SHA256[("newcastle", "noncollapsible")],
    "fig6_hull.svg": FIGURE_SHA256[("four", "hull")],
}


def test_make_figures_writes_the_golden_figures(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["make_figures.py", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "make_figures.py"), run_name="__main__")
    assert capsys.readouterr().out.count("wrote ") == 6
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == MAKE_FIGURES_DIGESTS


def test_readme_library_example_prints_what_its_comments_say(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    number = re.compile(r"-?\d+\.\d+")
    for code, out in zip(prints, printed):
        values = [float(v) for v in number.findall(out)]
        # each number a comment gives is a printed value, rounded to its digits
        for claim in number.findall(code.partition("#")[2]):
            digits = len(claim.partition(".")[2])
            assert float(claim) in [round(v, digits) for v in values], (code, out)
