import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests run a fixed, bounded set of examples with no time limit per
# example: the same examples on every run, no failure when the host runs at
# half speed, and no example database written into the checkout.  "tier1"
# is the default; "deep" (--hypothesis-profile deep) runs ten times as many.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.register_profile(
    "deep", derandomize=True, deadline=None, max_examples=600, database=None
)


def pytest_configure(config):
    settings.load_profile(config.getoption("hypothesis_profile", None) or "tier1")

from nsmacdonald.qt import QTRational
from nsmacdonald.xpoly import XPolynomial


@pytest.fixture(scope="session")
def qt_symbols():
    return QTRational.q(), QTRational.t(), QTRational.one()


@pytest.fixture(scope="session")
def golden_polys(qt_symbols):
    """The three hand-derived golden polynomials, written out explicitly."""
    q, t, one = qt_symbols
    x1 = XPolynomial.variable(2, 1)
    x2 = XPolynomial.variable(2, 2)
    return {
        (1, 0): x1,
        (0, 1): x2 + x1.scale(q * (one - t) / (one - q * t)),
        (2, 0): x1 * x1 + (x1 * x2).scale((one - t) / (one - q * t)),
    }
