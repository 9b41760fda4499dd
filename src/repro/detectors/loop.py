"""Local Outlier Probabilities — LoOP (Kriegel et al., 2009).

A probabilistic variant of LOF cited in the paper's introduction among
the costly proximity detectors. Scores are calibrated probabilities in
[0, 1]: the probabilistic set distance (pdist) of each point is compared
to the expected pdist of its neighborhood, and the normalised deviation
is squashed through the Gaussian error function.
"""

from __future__ import annotations

import math

import numpy as np

from repro.detectors.base import BaseDetector
from repro.neighbors import neighbors_for_fit, neighbors_for_scoring

__all__ = ["LoOP"]

_EPS = 1e-12

# cephes ndtr.c coefficient tables, highest degree first. U, Q and S
# spell out the leading 1.0 that cephes' p1evl leaves implicit: 1.0 * x
# is exact, so one Horner loop gives p1evl's bits too.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    1.0,
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_MAXLOG = 7.09782712893383996843e2
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, one multiply and one add per step."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes' float64 ``erf``, bit for bit (see ``LoOP``'s notes)."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    # NaN stays NaN; |x| past sqrt(MAXLOG), where erfc underflows to
    # 0.0, is +-1.0.
    y = np.where(np.isnan(x), np.nan, np.copysign(1.0, x))
    inner = a <= 1.0
    s = x[inner]  # signed, so erf(-0.0) is -0.0
    z = s * s
    y[inner] = s * _polevl(z, _T) / _polevl(z, _U)
    with np.errstate(over="ignore"):
        tail = (a > 1.0) & (-a * a >= -_MAXLOG)
    t = a[tail]
    near = t < 8.0
    p = np.where(near, _polevl(t, _P), _polevl(t, _R))
    q = np.where(near, _polevl(t, _Q), _polevl(t, _S))
    erfc = _libm_exp(-t * t).astype(np.float64) * p / q
    y[tail] = np.copysign(1.0 - erfc, x[tail])
    return y


class LoOP(BaseDetector):
    """Local Outlier Probability detector.

    Parameters
    ----------
    n_neighbors : int, default 20
    extent : float, default 2.0
        The lambda of the original paper: number of standard deviations
        defining the "density" scale (2.0 ≈ 95% significance).
    contamination : float, default 0.1

    Notes
    -----
    The error function is cephes' float64 ``erf`` (``ndtr.c``, the one
    ``scipy.special.erf`` evaluates), ported expression for expression so
    the scores carry the same bits without SciPy: a rational function of
    ``x * x`` on ``|x| <= 1``, else ``1 - erfc(|x|)`` with the sign
    restored, where ``erfc(a) = exp(-a * a) * p(a) / q(a)`` and ``exp`` is
    libm's (``math.exp``). Neither shortcut keeps the bits. NumPy's
    ``np.exp`` is its own SIMD routine and rounds some tail values
    differently from libm; ``math.erf`` is a different approximation and
    disagrees on about half of ``[-1, 1]``. Either would move the training
    scores, and with them the PSA forests trained on those scores.
    """

    def __init__(
        self,
        n_neighbors: int = 20,
        *,
        extent: float = 2.0,
        contamination: float = 0.1,
    ):
        super().__init__(contamination=contamination)
        self.n_neighbors = n_neighbors
        self.extent = extent

    def _validate_params(self, X: np.ndarray) -> None:
        if not 1 <= self.n_neighbors <= X.shape[0] - 1:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} out of [1, {X.shape[0] - 1}]"
            )
        if self.extent <= 0:
            raise ValueError("extent must be > 0")

    def _neighbor_request(self) -> dict:
        return {
            "n_neighbors": self.n_neighbors,
            "metric": "euclidean",
            "p": 2.0,
        }

    def _fit(self, X: np.ndarray) -> np.ndarray:
        dist, idx = neighbors_for_fit(self, X, n_neighbors=self.n_neighbors)
        # Probabilistic set distance: lambda * sqrt(mean squared distance).
        self._pdist = self.extent * np.sqrt((dist**2).mean(axis=1) + _EPS)
        plof = self._pdist / (self._pdist[idx].mean(axis=1) + _EPS) - 1.0
        self._nplof = self.extent * np.sqrt((plof**2).mean() + _EPS)
        return self._to_probability(plof)

    def _to_probability(self, plof: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, _erf(plof / (self._nplof * np.sqrt(2.0))))

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, idx = neighbors_for_scoring(self, X, n_neighbors=self.n_neighbors)
        pdist_q = self.extent * np.sqrt((dist**2).mean(axis=1) + _EPS)
        plof = pdist_q / (self._pdist[idx].mean(axis=1) + _EPS) - 1.0
        return self._to_probability(plof)
