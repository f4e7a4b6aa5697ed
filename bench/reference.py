"""Known answers for the two fixed tables, and the check tolerances.

The numbers are the acceptance criteria of tests/test_acceptance.py for
the Newcastle table (checked at 3 decimals, within 1e-3 as the suite
does).  The SVG digests were recorded from the unchanged program; they
equal what scripts/make_figures.py writes for its six figures.
"""

ACCEPTANCE_TOL = 1e-3

# link -> (stratum estimates, common estimate, interaction p-value, 95% profile CI)
NEWCASTLE_FITS = {
    "identity": ((0.061, 0.002), 0.052, 0.300, (0.013, 0.091)),
    "logit": ((1.622, 1.018), 1.537, 0.353, (1.119, 2.125)),
    "log": ((1.509, 1.003), 1.062, 0.010, (0.952, 1.166)),
    "cloglog": ((1.563, 1.008), 1.316, 0.085, (1.034, 1.676)),
}
# minimum standardized odds ratio over the fitted segment, and its weights
NEWCASTLE_MIN_OR = (1.229, (0.484, 0.516))

SVG_SHA256 = {
    ("newcastle", "contours"): "95844e6a8f55f4bf9d39c81373fe64a4032db7c7f1bfa8916472b628850e9451",
    ("newcastle", "modification"): "15247d12aa2a5360d44538f150bc2929e4e7ade64ee4830b53ee5edaae233472",
    ("newcastle", "modconf"): "75ed86464a86c46142f584f02175aaee731f7193763d25c9cac3af7cfbf13b78",
    ("newcastle", "collapsible"): "121b240ebf78f4c79333845b994872930bb65f6246efddfe3083d0ef25ee550a",
    ("newcastle", "noncollapsible"): "80a5066c6b3683e08cf7814aca043aadc17e081305312f3d2d5e3e76a8545093",
    ("newcastle", "hull"): "baa80d762bdabf18bbe0c631d01c3e9ad425ccaba23dc0f390acdbd6ec07a261",
    ("four", "modification"): "ad8edd54317727332e577458bd3af4843b0c63a40b33ee2fc7656034fc576db1",
    ("four", "collapsible"): "3bdd777d7abeda2e655ab7aa38a92472de340cd6342cd91b0a2fa544a62bc1cd",
    ("four", "noncollapsible"): "09d183d492edfd11a943a7d24f5bdb9cfd798ab7d24f93bff552730ff541e38a",
    ("four", "hull"): "b75ea848ff336a5ab4d7c4acfd1c1bcd5b14e4096d6ff2ffd23f15d67aaf8586",
}

# An extremization may not be less extreme than the grid oracle by more
# than this share of the oracle's value.
ORACLE_REL_TOL = 1e-9
# Grid oracle lattice steps per unit weight, by K: fine where the lattice
# is cheap, coarser as the simplex's dimension grows, so that one oracle
# call stays within a few milliseconds at every K.
ORACLE_STEPS = {2: 10000, 3: 300, 4: 60, 5: 25, 6: 10, 7: 7, 8: 6, 9: 5, 10: 4}


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= ACCEPTANCE_TOL


def reason_ref(what: str) -> str:
    """A failed comparison against a known answer; it makes the run incorrect."""
    return "reference:" + what
