"""LoOP's error function is SciPy's, bit for bit, without SciPy.

``repro.detectors.loop._erf`` ports cephes' float64 ``erf`` (what
``scipy.special.erf`` evaluates); SciPy is only the oracle here.
"""

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from repro.detectors import LoOP
from repro.detectors import loop as loop_module
from repro.detectors.loop import _erf


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# Both branches of erf, the erfc switch at 8, the underflow cut near
# sqrt(MAXLOG) ~ 26.64 and the |x| = 1 boundary from both sides.
RANGES = [(-1, 1), (0, 3), (0, 8), (-30, 30), (7, 9), (0.99, 1.01), (26, 28)]

SPECIAL = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    np.nextafter(1.0, 2.0),
    np.nextafter(1.0, 0.0),
    -np.nextafter(1.0, 2.0),
    -np.nextafter(1.0, 0.0),
    8.0,
    -8.0,
    np.nextafter(8.0, 0.0),
    26.5,
    26.64,
    26.65,
    27.0,
    -27.0,
    1e-300,
    -1e-300,
    5e-324,
    -5e-324,
    2.2e-308,
    np.inf,
    -np.inf,
    1e300,
    -1e300,
    np.nan,
    -np.nan,
]


@pytest.mark.parametrize("seed", range(len(RANGES)))
def test_seeded_draws_match_scipy_bitwise(seed):
    x = np.random.default_rng(seed).uniform(*RANGES[seed], 200_000)
    np.testing.assert_array_equal(_bits(_erf(x)), _bits(scipy_erf(x)))


def test_special_points_match_scipy_bitwise():
    x = np.array(SPECIAL)
    np.testing.assert_array_equal(_bits(_erf(x)), _bits(scipy_erf(x)))
    assert np.signbit(_erf(np.array([-0.0])))[0]
    assert np.isnan(_erf(np.array([np.nan])))[0]


def test_empty_and_strided_input():
    assert _erf(np.empty(0)).shape == (0,)
    x = np.linspace(-4.0, 4.0, 41)[::3]
    np.testing.assert_array_equal(_bits(_erf(x)), _bits(scipy_erf(x)))


def test_fitted_loop_scores_match_scipy_erf(monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((300, 5))
    X[:15] *= 6.0  # outliers push erf's argument past 1
    Q = rng.standard_normal((40, 5)) * 3.0
    ours = LoOP(n_neighbors=12).fit(X)
    train, query = ours.decision_scores_, ours.decision_function(Q)
    # Both branches of erf are exercised (erf(1) ~ 0.8427).
    assert ((train > 0.0) & (train < 0.84)).any() and (train > 0.85).any()
    monkeypatch.setattr(loop_module, "_erf", scipy_erf)
    oracle = LoOP(n_neighbors=12).fit(X)
    assert train.tobytes() == oracle.decision_scores_.tobytes()
    assert query.tobytes() == oracle.decision_function(Q).tobytes()
