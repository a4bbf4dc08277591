"""Semiparametric G-estimation.

Only the treatment mechanism is modeled: a pooled logistic regression of the
dose indicator on past-history features, augmented with a function of the
blipped-down event time.  Under the candidate shift parameters being correct,
the augmented term carries no information, so its coefficient has population
value zero; tests of that coefficient test the candidate.  The estimate is the
root of the augmentation score at the treatment fit without augmentation, which
is where the fitted coefficient crosses zero, so an estimate makes that one
logistic fit.  No covariate-transition or baseline-survival model is consulted
anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import special

from .core import (
    BracketError,
    Cohort,
    ConvergenceError,
    NonIdentifiableError,
    SeparationError,
    SnftmError,
    WeakIdentificationError,
)
from .shift import PSI_DIM, BlipTable, ShiftParams

__all__ = [
    "GFeature",
    "TreatmentModelSpec",
    "TreatmentFit",
    "GTestReport",
    "PsiEstimate",
    "fit_treatment_model",
    "g_test",
    "estimate_psi",
    "sandwich_variance",
    "score_residuals",
]


@dataclass(frozen=True)
class GFeature:
    """The augmentation function applied to the blipped-down time.

    Identity by default; ``clip`` bounds extreme times before use (guards the
    logistic fit against leverage from long survivors) and ``log`` transforms
    after clipping.  Multi-parameter estimation needs as many columns as free
    parameters: either successive ``powers`` or, much better conditioned, the
    piecewise-linear segments cut at ``knots``.
    """

    clip: tuple[float, float] | None = None
    log: bool = False
    powers: int = 1
    knots: tuple[float, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.knots) + 1 if self.knots else self.powers

    def design(self, t0: np.ndarray) -> np.ndarray:
        x = np.asarray(t0, dtype=float)
        if self.clip is not None:
            x = np.clip(x, self.clip[0], self.clip[1])
        if self.log:
            x = np.log(x)
        if self.knots:
            edges = (0.0,) + tuple(self.knots) + (math.inf,)
            return np.column_stack(
                [np.clip(x - lo, 0.0, hi - lo) for lo, hi in zip(edges, edges[1:])]
            )
        return np.column_stack([x**p for p in range(1, self.powers + 1)])


_F_TERMS = ("intercept", "l", "l_prev", "a_prev", "k")
_N_SCAN = 9  # scan points bracketing the roots of one free component
MAX_CI_GRID_POINTS = 100_000  # points of a confidence-set grid
_CI_LEVEL = 0.05  # a confidence-set point is accepted where the score test's p-value is at least this
_NEWTON_TOL = 1e-10  # a logistic fit converges once its largest |standardized score| is below this
_NEWTON_MAX_ITER = 120


@dataclass(frozen=True)
class TreatmentModelSpec:
    """Pooled person-interval logistic model for the dose indicator.

    ``f_terms`` name history features (shared coefficients across visits);
    ``g`` builds the augmentation columns; ``components`` lists which shift
    parameters are free when estimating (the rest pinned at zero).
    """

    f_terms: tuple[str, ...] = ("intercept", "l", "a_prev")
    g: GFeature = field(default_factory=GFeature)
    components: tuple[int, ...] = (0,)

    def __post_init__(self):
        for term in self.f_terms:
            if term not in _F_TERMS:
                raise SnftmError(f"unknown history feature {term!r}; pick from {_F_TERMS}")
        if len(set(self.components)) != len(self.components) or any(
            not 0 <= c < PSI_DIM for c in self.components
        ):
            raise SnftmError(f"invalid free-component list {self.components}")

    def embed(self, active: np.ndarray) -> np.ndarray:
        psi = np.zeros(PSI_DIM)
        psi[list(self.components)] = np.asarray(active, dtype=float)
        return psi


@dataclass(frozen=True)
class _NullFit:
    """The treatment model without augmentation: fitted values ``p``, their
    variances ``w``, the weighted design ``Fw = F * w`` and the history-block
    information ``i_ff = Fw.T @ F``."""

    theta: np.ndarray
    p: np.ndarray
    w: np.ndarray
    Fw: np.ndarray
    i_ff: np.ndarray


def _unit_scale(X: np.ndarray) -> np.ndarray:
    """Column standard deviations, with 1 for constant columns."""
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return scale


def _require_full_rank(factor: np.ndarray, n_rows: int) -> None:
    """``np.linalg.matrix_rank``'s decision on an ``n_rows``-row design, made
    from ``factor``, a small matrix with the design's singular values: full
    rank when all ``d`` singular values exceed ``s_max * max(n_rows, d) * eps``."""
    d = factor.shape[1]
    s = np.linalg.svd(factor, compute_uv=False)
    if len(s) < d or np.count_nonzero(s > s.max() * max(n_rows, d) * np.finfo(float).eps) < d:
        raise NonIdentifiableError(f"design matrix is rank deficient ({d} columns)")


@dataclass(frozen=True)
class _HistoryBlock:
    """The history design ``F`` standardized once, ``Fs = F / scale``, with a
    thin QR factor ``Fs = Q R``.  ``R`` carries the singular values of ``Fs``,
    so ``F``'s rank is checked on a ``d x d`` matrix, and an augmented design's
    rank on a slightly larger block-triangular one."""

    Fs: np.ndarray
    scale: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    @classmethod
    def of(cls, F: np.ndarray) -> "_HistoryBlock":
        scale = _unit_scale(F)
        Fs = F / scale
        Q, R = np.linalg.qr(Fs)
        _require_full_rank(R, len(F))
        return cls(Fs, scale, Q, R)

    def augment(self, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The augmentation columns standardized, ``Gs = G / std(G)``, and their
        scales, once ``[F | G]`` is known to have full column rank.

        Raises ``NonIdentifiableError`` when it does not.  The rank of the
        standardized ``[Fs | Gs]`` comes from ``[[R, Q^T Gs], [0, R22]]``, where
        ``R22`` is the R factor of the part of ``Gs`` orthogonal to ``Q``
        (projected out twice, which keeps that part accurate when it is small)."""
        g_scale = _unit_scale(G)
        Gs = G / g_scale
        C = self.Q.T @ Gs
        Z = Gs - self.Q @ C
        C2 = self.Q.T @ Z
        Z -= self.Q @ C2
        R22 = np.linalg.qr(Z, mode="r")
        T = np.block([[self.R, C + C2], [np.zeros((len(R22), self.R.shape[1])), R22]])
        _require_full_rank(T, len(G))
        return Gs, g_scale


class _GestData:
    """Person-interval records: one row per (subject, visit) with the visit's
    dose as response.  Built once per cohort; the augmentation column is the
    only part that changes with the candidate shift parameters.  So, once per
    cohort and on first use, the history block is standardized, rank-checked
    and factored (``history``) and the null treatment fit is made
    (``null_fit``); every candidate shares both."""

    def __init__(self, cohort: Cohort, spec: TreatmentModelSpec):
        self.spec = spec
        k, l, a = cohort.k, cohort.l, cohort.a
        if np.any(a > 1):
            raise SnftmError(
                "G-estimation handles binary dosing only; multi-valued treatments are out of scope"
            )
        lag = lambda col: np.where(k > 0, np.roll(col, 1), 0)
        columns = {"intercept": 1.0, "l": l, "l_prev": lag(l), "a_prev": lag(a), "k": k}
        self.F = np.empty((len(k), len(spec.f_terms)))
        for j, term in enumerate(spec.f_terms):
            self.F[:, j] = columns[term]
        self.y = a.astype(float)
        self.row_subject = cohort.subject
        self.n_subjects = len(cohort)
        self.event_times = cohort.event_times
        self._cohort = cohort
        self._blip: BlipTable | None = None

    def blipped_times(self, psi: np.ndarray | None) -> np.ndarray:
        """Per-subject blipped-down times; ``None`` means the identity shift,
        which by construction never evaluates a shift map."""
        if psi is None:
            return self.event_times
        if self._blip is None:
            self._blip = BlipTable.from_cohort(self._cohort)
        return self._blip.t0(np.asarray(psi, dtype=float))

    def g_columns(self, psi: np.ndarray | None) -> np.ndarray:
        return self.spec.g.design(self.blipped_times(psi))[self.row_subject]

    @cached_property
    def history(self) -> _HistoryBlock:
        return _HistoryBlock.of(self.F)

    @cached_property
    def null_fit(self) -> _NullFit:
        theta0, _, _, _ = _logistic_newton(self.history.Fs, self.history.scale, self.y)
        p0 = special.expit(self.F @ theta0)
        w0 = p0 * (1.0 - p0)
        Fw = self.F * w0[:, None]
        return _NullFit(theta0, p0, w0, Fw, Fw.T @ self.F)


def _log1pexp(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))``, as ``np.logaddexp(0, x)`` but in vectorized ufuncs."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _loglik(y: np.ndarray, eta: np.ndarray) -> float:
    return float(np.sum(y * eta - _log1pexp(eta)))


def _logistic_newton(
    Xs: np.ndarray,
    scale: np.ndarray,
    y: np.ndarray,
    start: np.ndarray | None = None,
):
    """Newton-Raphson logistic MLE; returns (beta, covariance, score_norm, loglik).

    ``Xs`` is the design already standardized, ``X / scale``, and already
    checked to have full column rank: ``_HistoryBlock`` does both once per
    cohort for the history block and, per candidate, only for the
    augmentation columns.  The score-norm stopping rule and the Newton steps
    are scale-free; coefficients and covariance are mapped back to the scale
    of ``X`` exactly.  ``start`` (on the scale of ``X``) replaces the zero
    starting point; the stopping rule is the same either way.
    """
    d = Xs.shape[1]
    beta = np.zeros(d) if start is None else np.asarray(start, dtype=float) * scale
    eta = Xs @ beta
    ll = _loglik(y, eta)
    for _ in range(_NEWTON_MAX_ITER):
        p = special.expit(eta)
        score = Xs.T @ (y - p)
        if float(np.max(np.abs(score))) < _NEWTON_TOL:
            if float(np.max(np.abs(beta))) > 15.0:
                raise SeparationError(
                    f"logistic likelihood diverges (max |standardized coef| "
                    f"{np.max(np.abs(beta)):.1f}): data are separated on some feature",
                    best=beta / scale,
                )
            w = p * (1.0 - p)
            H = (Xs * w[:, None]).T @ Xs
            cov = np.linalg.inv(H) / np.outer(scale, scale)
            return beta / scale, cov, float(np.max(np.abs(score))), ll
        w = np.clip(p * (1.0 - p), 1e-12, None)
        H = (Xs * w[:, None]).T @ Xs
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError as e:
            raise NonIdentifiableError(f"singular information in logistic fit: {e}") from e
        damp = 1.0
        cand, ll_c = beta, ll
        for _ in range(30):
            cand = beta + damp * step
            eta_c = Xs @ cand
            ll_c = _loglik(y, eta_c)
            if ll_c >= ll - 1e-9:
                break
            damp *= 0.5
        beta, eta, ll = cand, eta_c, ll_c
    if float(np.max(np.abs(beta))) > 30.0:
        raise SeparationError(
            f"logistic likelihood diverges (max |scaled coef| {np.max(np.abs(beta)):.1f}): "
            "data are separated on some feature",
            best=beta / scale,
        )
    raise ConvergenceError(
        f"logistic fit did not reach score norm {_NEWTON_TOL:g} in {_NEWTON_MAX_ITER} iterations",
        best=beta / scale,
    )


@dataclass(frozen=True)
class TreatmentFit:
    theta: np.ndarray
    alpha: np.ndarray
    cov: np.ndarray
    score_norm: float
    loglik: float
    n_records: int

    @property
    def alpha_se(self) -> np.ndarray:
        d = len(self.alpha)
        return np.sqrt(np.diag(self.cov)[-d:])


def fit_treatment_model(
    cohort: Cohort, spec: TreatmentModelSpec, psi: ShiftParams | Sequence[float] | None
) -> TreatmentFit:
    """Fit the augmented pooled logistic model at candidate shift parameters.

    ``psi = None`` requests the identity candidate (the raw event time enters
    the augmentation; no shift map is evaluated).
    """
    data = _GestData(cohort, spec)
    return _fit_augmented(data, _as_vector(psi))


def _as_vector(psi) -> np.ndarray | None:
    if psi is None:
        return None
    if isinstance(psi, ShiftParams):
        return psi.as_array()
    return np.asarray(psi, dtype=float)


def _fit_augmented(
    data: _GestData, psi: np.ndarray | None, G: np.ndarray | None = None
) -> TreatmentFit:
    """Augmented fit at ``psi``, started from the null fit with the augmentation
    coefficient at 0; ``G`` passes in ``data.g_columns(psi)`` when the caller
    already has it."""
    h = data.history
    Gs, g_scale = h.augment(data.g_columns(psi) if G is None else G)
    start = np.concatenate([data.null_fit.theta, np.zeros(Gs.shape[1])])
    Xs, scale = np.column_stack([h.Fs, Gs]), np.concatenate([h.scale, g_scale])
    beta, cov, norm, ll = _logistic_newton(Xs, scale, data.y, start=start)
    d_f = data.F.shape[1]
    return TreatmentFit(beta[:d_f], beta[d_f:], cov, norm, ll, len(data.y))


@dataclass(frozen=True)
class GTestReport:
    """Score and Wald tests of the augmentation coefficient being zero."""

    df: int
    score: float
    score_p: float
    wald: float
    wald_p: float
    alpha: np.ndarray
    alpha_se: np.ndarray
    n_records: int

    def to_dict(self) -> dict:
        return {
            "df": self.df,
            "score": float(self.score),
            "score_p": float(self.score_p),
            "wald": float(self.wald),
            "wald_p": float(self.wald_p),
            "alpha": [float(a) for a in self.alpha],
            "alpha_se": [float(s) for s in self.alpha_se],
            "n_records": self.n_records,
        }


def _score_test(data: _GestData, psi: np.ndarray | None, G: np.ndarray | None = None):
    null = data.null_fit
    G = data.g_columns(psi) if G is None else G
    U = G.T @ (data.y - null.p)
    i_fg = null.Fw.T @ G
    i_gg = (G * null.w[:, None]).T @ G
    V = i_gg - i_fg.T @ np.linalg.solve(null.i_ff, i_fg)
    stat = float(U @ np.linalg.solve(V, U))
    return stat, G.shape[1]


def g_test(cohort: Cohort, spec: TreatmentModelSpec, psi0=None) -> GTestReport:
    """Test a candidate shift parameter (default: the identity, i.e. no
    treatment effect) by testing the augmentation coefficient at zero."""
    data = _GestData(cohort, spec)
    psi_vec = _as_vector(psi0)
    G = data.g_columns(psi_vec)
    fit = _fit_augmented(data, psi_vec, G)  # rank-checks G before the score test's solve
    stat, df = _score_test(data, psi_vec, G)
    d = len(fit.alpha)
    wald = float(
        fit.alpha @ np.linalg.solve(fit.cov[-d:, -d:], fit.alpha)
    )
    return GTestReport(
        df=df,
        score=stat,
        score_p=float(special.chdtrc(df, stat)),
        wald=wald,
        wald_p=float(special.chdtrc(d, wald)),
        alpha=fit.alpha,
        alpha_se=fit.alpha_se,
        n_records=fit.n_records,
    )


def score_residuals(cohort: Cohort, spec: TreatmentModelSpec, psi) -> np.ndarray:
    """Per-subject profile score for the augmentation coefficient at
    ``(alpha = 0, psi)``: the estimating-function values whose root is the
    parameter estimate."""
    data = _GestData(cohort, spec)
    return _h_matrix(data, _as_vector(psi))


def _h_matrix(data: _GestData, psi: np.ndarray | None) -> np.ndarray:
    null = data.null_fit
    G = data.g_columns(psi)
    i_fg = null.Fw.T @ G
    resid = (data.y - null.p)[:, None] * (G - data.F @ np.linalg.solve(null.i_ff, i_fg))
    out = np.zeros((data.n_subjects, G.shape[1]))
    np.add.at(out, data.row_subject, resid)
    return out


def sandwich_variance(
    cohort: Cohort,
    spec: TreatmentModelSpec,
    psi_hat,
    step: float = 1e-4,
):
    """M-estimator variance of the shift estimate: the second moment of the
    per-subject estimating function over the squared slope of its mean in the
    candidate parameter, slope by central finite differences.  The nuisance
    (null treatment) fit does not depend on the candidate, so it is computed
    once and shared by the estimate and both perturbed candidates.

    Returns ``(variance_matrix, se_vector)`` on the active components; the
    standard error already includes the 1/n factor.
    """
    data = _GestData(cohort, spec)
    _just_identified(spec)
    return _sandwich(data, psi_hat, step)[:2]


def _just_identified(spec: TreatmentModelSpec) -> int:
    """The number of free components, which the augmentation columns must match."""
    d = len(spec.components)
    if spec.g.dim != d:
        raise SnftmError(
            f"just-identification requires as many augmentation columns as free components "
            f"({spec.g.dim} != {d})"
        )
    return d


def _sandwich(data: _GestData, psi_hat, step: float = 1e-4):
    """``sandwich_variance`` on built, just-identified data, and the per-subject
    estimating function it used."""
    spec = data.spec
    active = np.asarray(psi_hat, dtype=float)[list(spec.components)]
    h = _h_matrix(data, spec.embed(active))
    V = h.T @ h / data.n_subjects
    D = _slope(data, active, step)
    smallest = np.min(np.abs(np.linalg.svd(D, compute_uv=False)))
    if smallest < 1e-10 * max(1.0, float(np.max(np.abs(V)))):
        raise WeakIdentificationError(
            f"estimating-equation slope is numerically singular (min singular value {smallest:.2e})"
        )
    Dinv = np.linalg.inv(D)
    var = Dinv @ V @ Dinv.T
    se = np.sqrt(np.diag(var) / data.n_subjects)
    return var, se, h


def _mean_score(data: _GestData, active) -> np.ndarray:
    """Mean augmentation score ``G^T (y - p0) / n`` at the null fit.  That fit solves the
    history-block score equations and the log-likelihood is strictly concave, so the
    augmented fit's coefficient is zero exactly where this is; one column shares its sign."""
    G = data.g_columns(data.spec.embed(active))
    return G.T @ (data.y - data.null_fit.p) / data.n_subjects


def _slope(data: _GestData, active, step: float = 1e-4) -> np.ndarray:
    """Jacobian of ``_mean_score`` in the free components, by central differences."""
    active = np.asarray(active, dtype=float)
    steps = np.diag(step * np.maximum(1.0, np.abs(active)))
    return np.column_stack([
        (_mean_score(data, active + e) - _mean_score(data, active - e)) / (2.0 * e[j])
        for j, e in enumerate(steps)
    ])


@dataclass(frozen=True)
class PsiEstimate:
    """Root of the augmentation score and fitted coefficient, with test-inversion confidence
    set: ``ci_mask`` holds where the score statistic ``score_trace`` does not reject."""

    psi: np.ndarray
    components: tuple[int, ...]
    roots: tuple[tuple[float, ...], ...]
    se: np.ndarray
    ci_grid: np.ndarray
    ci_mask: np.ndarray
    score_trace: np.ndarray
    h_residual: np.ndarray

    @property
    def active(self) -> np.ndarray:
        return self.psi[list(self.components)]

    @property
    def multiple_roots(self) -> bool:
        return len(self.roots) > 1

    def ci_interval(self):
        """Convex hull of the accepted grid (1-parameter case)."""
        acc = self.ci_grid[self.ci_mask]
        return (float(acc.min()), float(acc.max())) if len(acc) else (math.nan, math.nan)


def estimate_psi(
    cohort: Cohort,
    spec: TreatmentModelSpec,
    box: Sequence[tuple[float, float]],
    grid_pitch: float = 0.01,
    compute_ci: bool = True,
) -> PsiEstimate:
    """Estimate the free shift components as the root of the augmentation
    score at the null treatment fit, which is also the root of the fitted
    augmentation coefficient, with a confidence set by test inversion.

    One free component: bracket scan plus Brent's method.  All roots in the
    box are reported; when there are several, the one with the smallest
    ``|score|`` is primary.  Several free components: a root search, with the
    sandwich's finite-difference slope, from the coarse-grid point of smallest
    score norm; a search that stalls raises ``ConvergenceError``.  The null
    treatment fit is the only logistic fit; the confidence set, one free
    component only, is the score test at each point of a grid of at most
    ``MAX_CI_GRID_POINTS``.
    """
    from scipy import optimize  # deferred: g_test needs only scipy.special

    data = _GestData(cohort, spec)
    d = _just_identified(spec)
    box = [tuple(map(float, b)) for b in box]
    if len(box) != d:
        raise SnftmError(f"search box must have {d} intervals, got {len(box)}")
    compute_ci = compute_ci and d == 1
    if compute_ci:
        lo, hi = box[0]
        n_points = np.ceil((hi + 0.5 * grid_pitch - lo) / grid_pitch) if grid_pitch > 0 else np.nan
        if not n_points <= MAX_CI_GRID_POINTS:  # n_points is np.arange's count
            raise SnftmError(
                f"confidence grid pitch {grid_pitch:g} on [{lo:g}, {hi:g}] must be positive and "
                f"give at most {MAX_CI_GRID_POINTS} points; it gives {n_points:.4g}"
            )

    if d == 1:
        lo, hi = box[0]
        score = lambda x: _mean_score(data, [x])[0]
        grid = np.linspace(lo, hi, _N_SCAN)
        vals = np.array([score(x) for x in grid])
        roots = []
        for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
            if fa == 0.0:
                roots.append(a)
                continue
            if fa * fb < 0.0:
                roots.append(optimize.brentq(score, a, b, xtol=1e-10))
        if vals[-1] == 0.0:
            roots.append(grid[-1])
        if not roots:
            raise BracketError(
                f"augmentation score has no sign change on [{lo}, {hi}]: "
                f"endpoint values {vals[0]:.4g}, {vals[-1]:.4g}"
            )
        best = int(np.argmin([abs(score(r)) for r in roots])) if len(roots) > 1 else 0
        active_hat = np.array([roots[best]])
        all_roots = tuple((float(r),) for r in roots)
    else:
        axes = [np.linspace(lo, hi, 5) for lo, hi in box]
        points = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
        start = min(points, key=lambda pt: np.linalg.norm(_mean_score(data, pt)))
        # hybr's own difference step is relative, so it vanishes at a zero start component
        sol = optimize.root(
            lambda x: _mean_score(data, x), start, jac=lambda x: _slope(data, x), tol=1e-12
        )
        if not sol.success:
            raise ConvergenceError(
                "vector root search stalled, the stacked equations may be weakly identified: "
                + " ".join(sol.message.split()),  # hybr's messages hold line breaks
                best=sol.x,
            )
        active_hat = np.asarray(sol.x)
        all_roots = (tuple(float(v) for v in active_hat),)

    _, se, h = _sandwich(data, spec.embed(active_hat))

    ci_grid = np.arange(lo, hi + 0.5 * grid_pitch, grid_pitch) if compute_ci else np.zeros((0,))
    trace = np.empty(len(ci_grid))
    for idx, x in enumerate(ci_grid):
        vec = spec.embed([x])
        G = data.g_columns(vec)
        data.history.augment(G)  # a collinear G fails here, not in the score test's solve
        trace[idx], _ = _score_test(data, vec, G)
    mask = special.chdtrc(d, trace) >= _CI_LEVEL

    return PsiEstimate(
        psi=spec.embed(active_hat),
        components=spec.components,
        roots=all_roots,
        se=se,
        ci_grid=ci_grid,
        ci_mask=mask,
        score_trace=trace,
        h_residual=h.mean(axis=0),
    )
