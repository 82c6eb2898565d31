"""The four special functions the package uses, without scipy.

`expit` and `logit` act on arrays with the formulas of scipy.special; numpy
evaluates their exp, log and log1p, so where those are SIMD they can differ
from scipy's in the last few bits. `ndtr` and `ndtri` act on one float and are
the Cephes routines that scipy.special wraps, coefficient for coefficient and
in the same order of operations, so they give scipy's bits. Of Cephes' erf
and erfc only the branches that `ndtr` reaches are ported: erf below 1/sqrt(2)
and erfc from 1/sqrt(2) up.
"""

from __future__ import annotations

import math

import numpy as np


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logit(p):
    """log(p / (1 - p)) elementwise; inside [0.3, 0.65] as log1p(s) - log1p(-s),
    s = 2(p - 0.5), which keeps its precision near 0.5. NaN outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * (p - 0.5)
        return np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)), np.log1p(s) - np.log1p(-s))[()]


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """The polynomial with coefficients `coef`, highest power first, by Horner's
    rule. A leading 1.0 gives Cephes' p1evl bit for bit, as 1.0 * x is x."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRTH = 7.07106781186547524401e-1  # 1 / sqrt(2)
_S2PI = 2.50662827463100050242e0    # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189    # exp(-2)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R(x) / S(x) beyond
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: y + y^3 P0(y^2) / Q0(y^2) around 0.5, then in z = 1 / sqrt(-2 log y) on
# exp(-32) < y <= exp(-2) (P1, Q1) and below (P2, Q2)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _erf(x: float) -> float:
    """erf(x) for |x| < 1/sqrt(2), the only arguments `ndtr` passes."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """erfc(x) for x >= 1/sqrt(2) or NaN, the only arguments `ndtr` passes."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q)
    return (z * _polevl(x, _ERFC_R)) / _polevl(x, _ERFC_S)


def ndtr(a: float) -> float:
    """The standard normal distribution function at `a` (NaN at NaN)."""
    x = float(a) * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def ndtri(y0: float) -> float:
    """The standard normal quantile of `y0`: -inf at 0, inf at 1, NaN outside [0, 1]."""
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    return x0 - x1 if upper else -(x0 - x1)
