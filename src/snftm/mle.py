"""Fully parametric likelihood inference for the shift parameters.

The observation density factorizes through the blipped-down time: a Jacobian
term from the time-scale maps, a piecewise-exponential density for the
blipped-down time, and saturated multinomial factors for each covariate given
the past and the blipped-down time's threshold bin.  Treatment factors carry
no information about the shift parameters and are dropped throughout.

For fixed shift parameters every nuisance block has a closed-form maximizer
(event counts over person-time on the blipped scale; cell frequencies), so
fitting reduces to a low-dimensional search over the profile likelihood.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
from scipy import special

from .core import (
    Cohort,
    ConvergenceError,
    NonIdentifiableError,
    StructuralZeroError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    chi2_sf,
    finite_increasing,
    first_seen,
)
from .shift import BlipTable, ShiftModel, ShiftParams, blip_down, gamma_deriv

__all__ = ["ParametricModel", "MleFit", "MleTestReport", "log_density", "fit", "profile_at", "test_null"]


@dataclass(frozen=True)
class ParametricModel:
    """A full parametric specification of the observables.

    ``baseline_bounds``/``baseline_rates`` give the piecewise-exponential
    density of the blipped-down time; ``covariate_probs`` maps
    ``(k, lbar_prev, abar_prev, bin)`` to the law of ``L_k``, where ``bin``
    indexes the partition of the blipped-down time by ``bins``.
    """

    grid: TimeGrid
    psi: ShiftParams
    baseline_bounds: tuple[float, ...]
    baseline_rates: tuple[float, ...]
    bins: tuple[float, ...]
    covariate_probs: Mapping[tuple, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        bounds, bins = tuple(self.baseline_bounds), tuple(self.bins)
        if bounds[:1] != (0.0,) or not finite_increasing(bounds):
            raise ValueError(f"field 'baseline_bounds' must be a strictly increasing list that starts at 0.0, "
                             f"all finite, got {bounds}")
        if not finite_increasing((0.0, *bins)):
            raise ValueError(f"field 'bins' must be positive and strictly increasing, all finite, got {bins}")

    @classmethod
    def template(cls, grid, baseline_bounds, bins, psi_init=None) -> "ParametricModel":
        """A fit-ready skeleton: structure fixed, nuisance blocks to be profiled."""
        bounds = tuple(float(b) for b in baseline_bounds)
        return cls(
            grid=grid,
            psi=psi_init if psi_init is not None else ShiftParams.zero(),
            baseline_bounds=bounds,
            baseline_rates=(1.0,) * len(bounds),
            bins=tuple(float(c) for c in bins),
        )

    def bin_index(self, t0: float) -> int:
        return bisect.bisect_left(self.bins, t0)

    def baseline_curve(self) -> SurvivalCurve:
        return SurvivalCurve(self.baseline_bounds, self.baseline_rates)


def log_density(model: ParametricModel, traj: Trajectory) -> float:
    """Log density of one record under the model (treatment factors omitted).

    The Jacobian is the derivative of the innermost map at ``T``: every outer
    map of the blip-down composition acts past its own breakpoint, where its
    derivative is 1.  At breakpoints the right-continuous convention applies
    (a probability-zero set).
    """
    grid = model.grid
    p = grid.interval_index(traj.event_time)
    if traj.n_visits != p + 1:
        raise StructuralZeroError(
            f"record has {traj.n_visits} visits but the event time implies {p + 1}"
        )
    shift_model = ShiftModel(model.psi, grid)
    t0 = blip_down(shift_model, traj)
    log_jac = math.log(gamma_deriv(shift_model, p, traj.covariates, traj.treatments, traj.event_time))
    base = model.baseline_curve()
    if base.hazard_at(t0) == 0.0:
        raise StructuralZeroError(f"blipped-down time {t0} falls in a zero-rate piece")
    total = log_jac + base.log_density(t0)
    b = model.bin_index(t0)
    for k in range(p + 1):
        key = (k, traj.covariates[:k], traj.treatments[:k], b)
        probs = model.covariate_probs.get(key)
        if probs is None or traj.covariates[k] >= len(probs) or probs[traj.covariates[k]] <= 0.0:
            raise StructuralZeroError(f"zero-probability covariate cell {key}")
        total += math.log(probs[traj.covariates[k]])
    return total


# ---------------------------------------------------------------------------
# Profile likelihood machinery


class _ProfileTables:
    """Cohort pre-aggregation: everything psi-independent, per subject.

    ``profile`` reads no person-visit row.  Subjects with the same full
    history (``index.through`` at their last visit) have the same
    ``(cell, level)`` rows, so the covariate counts are the number of
    subjects of each history in each bin of ``t0``, spread over the rows of
    one subject of that history (``row_history``, ``slot``).  The counts
    are integers, so they keep their bits in any summation order.

    Piece and bin codes are counts of comparisons with the sorted
    breakpoints.  Ties go left: a ``t0`` on a breakpoint belongs to the
    piece below it, as the pieces ``(bounds[j], bounds[j+1]]`` and
    :meth:`ParametricModel.bin_index` say.  Counting ``t0 <= b`` rather than
    ``t0 > b`` also puts a NaN ``t0`` in the last piece and bin.
    """

    def __init__(self, cohort: Cohort, model: ParametricModel):
        self.blip = BlipTable.from_cohort(cohort)
        self.bounds = np.asarray(model.baseline_bounds)
        self.upper = np.append(self.bounds[1:], np.inf)
        self.bins = np.asarray(model.bins)
        self.n = len(cohort)
        ix = cohort.index
        # Cells in order of first appearance: ``profile`` sums over them in that order.
        cells, row_cell = first_seen(ix.cell)
        self.cells = [ix.prefixes[c] for c in cells.tolist()]
        self.max_level = max(1, *ix.covariate_levels)
        self.n_bins = len(model.bins) + 1
        histories, history = first_seen(ix.through[cohort.last])
        self.n_histories = len(histories)
        # A subject's bin is ``n_bins - 1`` less the number of bins at or above its t0.
        self.history_top_bin = history * self.n_bins + self.n_bins - 1
        first = np.zeros(self.n, dtype=bool)
        first[np.unique(history, return_index=True)[1]] = True
        rows = first[cohort.subject]
        self.row_history = history[cohort.subject[rows]]
        slot = row_cell[rows] * (self.n_bins * self.max_level) + cohort.l[rows]
        self.slot = (slot[:, None] + np.arange(self.n_bins) * self.max_level).ravel()

    def profile(self, psi: np.ndarray):
        """Profile log-likelihood at ``psi`` plus the maximizing nuisances."""
        t0 = self.blip.t0(psi)
        log_jac = float(self.blip.log_jacobian(psi).sum())

        below = (t0 <= self.bounds[1:, None]).sum(axis=1)
        events = np.diff(below, prepend=0, append=self.n).astype(float)
        persontime = np.maximum(np.minimum(t0, self.upper[:, None]) - self.bounds[:, None], 0.0).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(persontime > 0.0, events / np.maximum(persontime, 1e-300), 0.0)
        ll_base = float(special.xlogy(events, rates).sum()) - float(events.sum())

        history_bin = self.history_top_bin - (t0 <= self.bins[:, None]).sum(axis=0)
        per_history = np.bincount(history_bin, minlength=self.n_histories * self.n_bins)
        counts = np.bincount(self.slot, weights=per_history.reshape(-1, self.n_bins)[self.row_history].ravel(),
                             minlength=len(self.cells) * self.n_bins * self.max_level)
        grouped = counts.reshape(-1, self.max_level)
        totals = grouped.sum(axis=1)
        ll_cov = float(special.xlogy(grouped, grouped).sum() - special.xlogy(totals, totals).sum())

        return log_jac + ll_base + ll_cov, rates, grouped


def _quadratic_surface(f, x0, w):
    """Least-squares quadratic fit of ``f`` on a 3-level factorial around
    ``x0``; returns (gradient, hessian) of the fitted surface.

    The empirical profile likelihood carries observation-level jump points
    (records crossing fixed density breakpoints as the shift parameters
    move), so pointwise finite differences see the jumps, not the envelope.
    Fitting over a window of statistical width averages them out.
    """
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    w = np.broadcast_to(np.asarray(w, dtype=float), (d,))
    pts = np.array(
        [x0 + w * np.array(s) for s in itertools.product((-1.0, 0.0, 1.0), repeat=d)]
    )
    vals = np.array([f(p) for p in pts])
    dx = pts - x0
    cols = (
        [np.ones(len(pts))]
        + [dx[:, i] for i in range(d)]
        + [dx[:, i] ** 2 for i in range(d)]
        + [dx[:, i] * dx[:, j] for i in range(d) for j in range(i + 1, d)]
    )
    beta, *_ = np.linalg.lstsq(np.column_stack(cols), vals, rcond=None)
    grad = beta[1 : 1 + d]
    hess = np.diag(2.0 * beta[1 + d : 1 + 2 * d])
    upper = np.triu_indices(d, 1)  # row-major, the order of the cross-term columns
    hess[upper] = hess.T[upper] = beta[1 + 2 * d :]
    return grad, hess


def _observed_information(neg, x0):
    """Two-pass window calibration: a rough window sets the statistical
    scale, the refit window is about one standard error per axis."""
    d = len(x0)
    _, rough = _quadratic_surface(neg, x0, np.full(d, 0.15))
    try:
        with np.errstate(invalid="ignore"):
            widths = np.clip(1.2 * np.sqrt(np.diag(np.linalg.inv(rough))), 0.02, 0.30)
    except np.linalg.LinAlgError:
        widths = np.full(d, 0.15)
    if not np.all(np.isfinite(widths)):
        widths = np.full(d, 0.15)
    grad, hess = _quadratic_surface(neg, x0, widths)
    for wider in (np.full(d, 0.15), np.full(d, 0.35)):
        if np.all(np.linalg.eigvalsh(hess) > 0.0):
            break
        grad, hess = _quadratic_surface(neg, x0, wider)
    eigvals = np.linalg.eigvalsh(hess)
    if np.any(eigvals <= 0.0):
        raise NonIdentifiableError(
            f"observed information is not positive definite (eigenvalues {eigvals})"
        )
    return grad, hess


def _simplex(x0, edge):
    x0 = np.asarray(x0, dtype=float)
    s = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        s[i + 1, i] += edge
    return s


def _staged_nelder_mead(neg, start, max_evals):
    from scipy import optimize  # deferred: the model types need only scipy.special

    coarse = optimize.minimize(
        neg, start, method="Nelder-Mead",
        options={"initial_simplex": _simplex(start, 0.35), "xatol": 1e-7,
                 "fatol": 1e-12, "maxfev": max_evals // 2},
    )
    refine = optimize.minimize(
        neg, coarse.x, method="Nelder-Mead",
        options={"initial_simplex": _simplex(coarse.x, 0.04), "xatol": 1e-7,
                 "fatol": 1e-12, "maxfev": max_evals // 2},
    )
    best = refine if refine.fun <= coarse.fun else coarse
    best.stages = tuple({"stage": name, "nfev": int(res.nfev), "success": bool(res.success)}
                        for name, res in (("coarse", coarse), ("refine", refine)))
    return best


def _finalize_model(model: ParametricModel, tables: _ProfileTables, psi, rates, grouped) -> ParametricModel:
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = grouped / np.maximum(grouped.sum(axis=1, keepdims=True), 1e-300)
    cov_probs = {}
    for ci, key in enumerate(tables.cells):
        for b in range(tables.n_bins):
            row = probs[ci * tables.n_bins + b]
            if row.sum() > 0.0:
                cov_probs[key + (b,)] = tuple(row)
    return replace(
        model,
        psi=ShiftParams(tuple(psi)),
        baseline_rates=tuple(rates),
        covariate_probs=cov_probs,
    )


@dataclass(frozen=True)
class MleFit:
    model: ParametricModel
    loglik: float
    information: np.ndarray
    psi_cov: np.ndarray
    grad_norm: float
    converged: bool
    n_evals: int
    # How ``fit`` spent ``n_evals``: each Nelder-Mead stage's ``nfev`` and
    # ``success`` in search order, and the evaluations of the information fit.
    diagnostics: Mapping = field(default_factory=dict)


def profile_at(cohort: Cohort, model: ParametricModel, psi) -> MleFit:
    """The restricted fit with the shift parameters pinned at ``psi``:
    nuisance blocks at their closed-form maximizers, no search."""
    return _pinned_fit(_ProfileTables(cohort, model), model, psi)


def _pinned_fit(tables: _ProfileTables, model: ParametricModel, psi) -> MleFit:
    psi = np.asarray(psi, dtype=float)
    ll, rates, grouped = tables.profile(psi)
    fitted = _finalize_model(model, tables, psi, rates, grouped)
    d = len(psi)
    return MleFit(fitted, ll, np.full((d, d), np.nan), np.full((d, d), np.nan), np.nan, True, 1)


def _all_identical(cohort: Cohort) -> bool:
    """Whether the cohort has fewer than two distinct subjects.  Equal event
    times mean equal visit counts, so row ``r`` then matches row ``k[r]``,
    the same visit of the first subject."""
    t, k = cohort.event_times, cohort.k
    return bool(np.all(t == t[:1]) and np.all(cohort.l == cohort.l[k]) and np.all(cohort.a == cohort.a[k]))


MAX_EVALS = 4000  # the profile search's budget of likelihood evaluations


def fit(cohort: Cohort, init: ParametricModel) -> MleFit:
    """Maximize the likelihood over shift and nuisance parameters.

    Derivative-free simplex search over the shift block (staged: a wide
    exploration simplex, then a refinement around the best point) wrapped
    around the closed-form nuisance profile.  The reported gradient norm is
    the per-subject envelope score from the windowed quadratic fit; it will
    not reach machine zero because the empirical profile is only
    piecewise-smooth in the shift parameters.
    """
    if _all_identical(cohort):
        raise NonIdentifiableError("cohort is degenerate: all trajectories identical")
    tables = _ProfileTables(cohort, init)
    evals = 0

    def neg(psi):
        nonlocal evals
        evals += 1
        return -tables.profile(psi)[0]

    d = len(init.psi.psi)
    starts = [np.asarray(init.psi.psi, dtype=float)]
    if np.any(starts[0] != 0.0):
        starts.append(np.zeros(d))
    best, stages = None, []
    for start in starts:
        res = _staged_nelder_mead(neg, start, MAX_EVALS // len(starts))
        stages += res.stages
        if best is None or res.fun < best.fun:
            best = res
    psi_hat = np.asarray(best.x, dtype=float)
    searched = evals
    grad, info = _observed_information(neg, psi_hat)
    psi_cov = np.linalg.inv(info)
    grad_norm = float(np.max(np.abs(grad))) / tables.n
    diagnostics = {"nelder_mead": tuple(stages), "information_evals": evals - searched}
    result = replace(_pinned_fit(tables, init, psi_hat), information=info, psi_cov=psi_cov,
                     grad_norm=grad_norm, converged=bool(best.success), n_evals=evals, diagnostics=diagnostics)
    if not best.success:
        raise ConvergenceError(
            f"profile search exhausted its budget of {MAX_EVALS} evaluations",
            best=result,
        )
    return result


@dataclass(frozen=True)
class MleTestReport:
    df: int
    lr: float
    lr_p: float
    wald: float
    wald_p: float
    score: float
    score_p: float
    loglik_full: float
    loglik_null: float

    def to_dict(self) -> dict:
        return {k: float(getattr(self, k)) if k != "df" else self.df for k in (
            "df", "lr", "lr_p", "wald", "wald_p", "score", "score_p", "loglik_full", "loglik_null")}


def test_null(cohort: Cohort, fitted: MleFit) -> MleTestReport:
    """Wald, score and likelihood-ratio tests of "no treatment effect"
    (shift parameters all zero) against the fitted model."""
    d = len(fitted.model.psi.psi)
    tables = _ProfileTables(cohort, fitted.model)
    restricted = _pinned_fit(tables, fitted.model, np.zeros(d))
    lr = 2.0 * (fitted.loglik - restricted.loglik)
    if lr < -1e-8:
        raise ConvergenceError(
            f"negative likelihood ratio {lr}: the unrestricted fit is worse than the null",
            best=fitted,
        )
    lr = max(lr, 0.0)
    psi_hat = np.asarray(fitted.model.psi.psi)
    wald = float(psi_hat @ fitted.information @ psi_hat)

    neg = lambda psi: -tables.profile(psi)[0]
    grad0, info0 = _observed_information(neg, np.zeros(d))
    score_vec = -grad0
    score = float(score_vec @ np.linalg.solve(info0, score_vec))
    return MleTestReport(
        df=d,
        lr=lr,
        lr_p=chi2_sf(d, lr),
        wald=wald,
        wald_p=chi2_sf(d, wald),
        score=score,
        score_p=chi2_sf(d, score),
        loglik_full=fitted.loglik,
        loglik_null=restricted.loglik,
    )
