"""Agreement and association statistics.

Bland-Altman agreement (bias, limits of agreement, CV/RPC as percentages of
the grand mean, R² as squared Pearson correlation), two-sided paired t-tests,
and covariate-adjusted multiple linear regression with per-coefficient
p-values. Tail probabilities come from the regularized incomplete beta
function, evaluated here by its continued fraction, so numpy is the only
dependency.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cohort import SubjectRecord, numeric_field, resolve_field
from .errors import (
    InputError,
    LengthMismatch,
    NoCompleteRows,
    RankDeficient,
    TooFewPairs,
    TooFewRows,
    ZeroMeanReference,
)

LOA_FACTOR = 1.96
# ols_regress rejects a design whose smallest singular value is below this
# fraction of its largest as collinear
RANK_TOL = 1e-10

DEFAULT_COVARIATES = ("age", "icv", "sex", "education", "apoe4", "diagnosis")
# canonical design-matrix ordering for covariate columns
_COVARIATE_ORDER = {name: i for i, name in enumerate(DEFAULT_COVARIATES)}


# ---------------------------------------------------------------------------
# t-distribution machinery


def _stirling_tail(x: float) -> float:
    """lnΓ(x) − ((x − ½)·ln x − x + ½·ln 2π) for x ≥ 10, within about 2e-14."""
    r = 1.0 / (x * x)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b). Once the larger argument b reaches 10, lnΓ(b) − lnΓ(a + b)
    is taken in Stirling form, as in DiDonato and Morris (ACM TOMS 18(3), 1992,
    Algorithm 708): the two ``lgamma`` values grow with b while their
    difference does not, so subtracting them loses digits."""
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(a) - a * math.log(b) - (a + b - 0.5) * math.log1p(a / b) + a
        + _stirling_tail(b) - _stirling_tail(a + b)
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0, with x clipped to [0, 1].

    The continued fraction of Numerical Recipes §6.4, by the modified Lentz
    method, below x = (a + 1)/(a + b + 2) where it converges fast, and
    I_x(a, b) = 1 − I_{1−x}(b, a) above. Near that point it loses about
    log10(a + b) digits: 9e-13 absolute at a + b = 5e4. It stops after 10⁴
    terms with the approximant it has; only shapes both near 10¹⁰ or past
    need that many (a t-distribution's b = ½ converges within 100 at any df).
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    x = min(max(float(x), 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return x
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, 1.0 - x
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    h = d = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coef in (even, odd):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    value = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)) * h / a
    return 1.0 - value if flip else value


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return min(1.0, max(0.0, regularized_incomplete_beta(df / 2.0, 0.5, x)))


# ---------------------------------------------------------------------------
# agreement


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two measurement series as float64 vectors; raises LengthMismatch
    unless both are 1-D and of one length."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"series lengths differ: {a.shape} vs {b.shape}")
    return a, b


@dataclass(frozen=True)
class BlandAltmanResult:
    n: int
    bias: float  # mean of differences (b - a)
    sd_diff: float  # sample SD of differences
    loa_low: float
    loa_high: float
    cv_percent: float  # 100 * sd_diff / grand mean of pairwise means
    rpc_percent: float  # 1.96 * cv_percent
    r_squared: float  # squared Pearson correlation of the two series

    def to_dict(self) -> dict:
        return asdict(self)


def bland_altman(a, b) -> BlandAltmanResult:
    """Agreement between two measurement series of the same quantity.

    Differences are taken as ``b - a``; limits of agreement are
    bias ± 1.96·SD(differences) with the sample (n-1) SD.
    """
    a, b = _paired(a, b)
    n = a.size
    if n < 3:
        raise TooFewPairs(f"need at least 3 pairs, got {n}")
    d = b - a
    bias = float(d.mean())
    sd_diff = float(d.std(ddof=1))
    grand_mean = float(((a + b) / 2.0).mean())
    if grand_mean == 0.0:
        raise ZeroMeanReference("grand mean of pairwise means is zero")
    cv = 100.0 * sd_diff / grand_mean
    if np.array_equal(a, b):
        r2 = 1.0
    elif a.std() == 0.0 or b.std() == 0.0:
        r2 = 0.0
    else:
        r = float(np.corrcoef(a, b)[0, 1])
        r2 = min(1.0, r * r)
    return BlandAltmanResult(
        n=n,
        bias=bias,
        sd_diff=sd_diff,
        loa_low=bias - LOA_FACTOR * sd_diff,
        loa_high=bias + LOA_FACTOR * sd_diff,
        cv_percent=cv,
        rpc_percent=LOA_FACTOR * cv,
        r_squared=r2,
    )


def bland_altman_points(a, b) -> list[tuple[float, float]]:
    """Per-pair (mean, difference) plot points, difference = b - a."""
    a, b = _paired(a, b)
    return [(float(m), float(d)) for m, d in zip((a + b) / 2.0, b - a)]


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def paired_ttest(a, b) -> TTestResult:
    """Two-sided paired t-test on differences a - b.

    Zero-variance differences are degenerate: p is 0 when the mean difference
    is nonzero (flagged), and 1 when the series agree exactly.
    """
    a, b = _paired(a, b)
    n = a.size
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean), df=df, p=0.0, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, df=df, p=t_two_sided_p(t, df))


# ---------------------------------------------------------------------------
# regression


@dataclass(frozen=True)
class DesignMatrix:
    X: np.ndarray  # (n, k) float64, first column is the intercept
    y: np.ndarray  # (n,)
    names: tuple[str, ...]
    n_dropped: int  # rows removed for missing data


@dataclass(frozen=True)
class RegressionResult:
    names: tuple[str, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    r_squared: float
    n_used: int
    n_dropped: int
    exact_fit: bool = False

    def coefficient(self, name: str) -> dict:
        i = self.names.index(name)
        return {
            "estimate": float(self.estimates[i]),
            "std_error": float(self.std_errors[i]),
            "t": float(self.t_statistics[i]),
            "p": float(self.p_values[i]),
        }

    def to_dict(self) -> dict:
        return {
            "coefficients": [{"name": name, **self.coefficient(name)} for name in self.names],
            "r_squared": self.r_squared,
            "n_used": self.n_used,
            "n_dropped": self.n_dropped,
            "exact_fit": self.exact_fit,
        }


def _covariate_columns(name: str, rec: SubjectRecord) -> dict[str, float | None]:
    """Column values a covariate contributes for one record (None = missing)."""
    if name == "sex":
        if rec.sex is None:
            return {"sex": None}
        return {"sex": 0.0 if rec.sex == "F" else 1.0}
    if name == "diagnosis":
        if rec.diagnosis is None:
            return {"diagnosis_MCI": None, "diagnosis_AD": None}
        return {
            "diagnosis_MCI": 1.0 if rec.diagnosis == "MCI" else 0.0,
            "diagnosis_AD": 1.0 if rec.diagnosis == "AD" else 0.0,
        }
    value = getattr(rec, resolve_field(name))
    return {name: None if value is None else float(value)}


def build_design_matrix(
    records,
    outcome: str,
    exposure: str,
    covariates=DEFAULT_COVARIATES,
) -> DesignMatrix:
    """Complete-case design matrix: intercept, exposure, then covariates.

    Covariate columns follow the fixed canonical order (age, icv, sex,
    education, apoe4, diagnosis dummies with CN as reference) regardless of
    the order requested. Rows missing any required value are dropped and
    counted. A non-numeric outcome or exposure is an InputError.
    """
    outcome_attr = numeric_field(outcome)
    exposure_attr = numeric_field(exposure)
    ordered = sorted(set(covariates), key=lambda c: _COVARIATE_ORDER.get(c, 99))
    for c in ordered:
        if c not in _COVARIATE_ORDER:
            raise InputError(f"unknown covariate {c!r}; expected one of {DEFAULT_COVARIATES}")

    rows: list[list[float]] = []
    ys: list[float] = []
    names: list[str] | None = None
    n_dropped = 0
    for rec in records:
        y = getattr(rec, outcome_attr)
        cols: dict[str, float | None] = {"intercept": 1.0}
        x = getattr(rec, exposure_attr)
        cols[exposure] = None if x is None else float(x)
        for c in ordered:
            cols.update(_covariate_columns(c, rec))
        if y is None or any(v is None for v in cols.values()):
            n_dropped += 1
            continue
        if names is None:
            names = list(cols.keys())
        rows.append([cols[k] for k in names])
        ys.append(float(y))

    if not rows:
        raise NoCompleteRows(f"no record has complete data for {outcome} ~ {exposure}")
    return DesignMatrix(
        X=np.asarray(rows, dtype=np.float64),
        y=np.asarray(ys, dtype=np.float64),
        names=tuple(names),
        n_dropped=n_dropped,
    )


def ols_regress(
    X: np.ndarray,
    y: np.ndarray,
    names: tuple[str, ...] | None = None,
    n_dropped: int = 0,
) -> RegressionResult:
    """Least squares via SVD with classical OLS standard errors.

    Collinear designs, whose singular values span more than 1 / ``RANK_TOL``,
    are an error (RankDeficient), never silently reduced.
    An exact fit (zero residual) reports p-values of 0 with ``exact_fit`` set.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, k = X.shape
    if names is None:
        names = tuple(f"x{i}" for i in range(k))
    if n <= k:
        raise TooFewRows(f"need more rows ({n}) than columns ({k})")

    u, s, vt = np.linalg.svd(X, full_matrices=False)
    if s[0] == 0.0 or s[-1] < RANK_TOL * s[0]:
        raise RankDeficient(
            f"design matrix is rank deficient (singular value ratio {s[-1]:.3e}/{s[0]:.3e})"
        )
    beta = vt.T @ ((u.T @ y) / s)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    df = n - k
    sigma2 = rss / df
    xtx_inv_diag = ((vt.T / s) ** 2).sum(axis=1)
    se = np.sqrt(sigma2 * xtx_inv_diag)

    exact = rss <= 1e-20 * max(tss, 1.0)
    if exact:
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stats = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
        p_vals = np.zeros(k)
        r2 = 1.0
    else:
        t_stats = beta / se
        p_vals = np.array([t_two_sided_p(float(t), df) for t in t_stats])
        r2 = 1.0 - rss / tss if tss > 0 else 0.0

    return RegressionResult(
        names=tuple(names),
        estimates=beta,
        std_errors=se,
        t_statistics=t_stats,
        p_values=p_vals,
        r_squared=float(r2),
        n_used=n,
        n_dropped=n_dropped,
        exact_fit=exact,
    )
