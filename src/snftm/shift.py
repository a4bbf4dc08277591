"""Shift functions: the parametric family of time-scale maps that remove the
effect of a final treatment blip, and the transforms built from them.

The model maps the interval ``(tau_k, tau_{k+1}]`` onto itself rescaled,

    gamma(t) = tau_k + (min(tau_{k+1}, t) - tau_k) * exp(psi . x)
               + (t - tau_{k+1})_+                                  ,

where ``x = x(k, lbar_k, abar_k) = (a_k, a_k * a_{k-1}, a_k * l_k)`` is
the model's one feature vector (:func:`default_features`), so ``psi`` has
``PSI_DIM = 3`` components.  Each map is a continuous strictly increasing
bijection of ``(tau_k, inf)`` onto itself; ``psi = 0`` (or a baseline dose
``a_k = 0``) gives the identity, i.e. no treatment effect.

``blip_down`` composes the maps innermost-at-death to recover the time a
subject would have shown with treatment stopped at a given visit;
``walk_up_array`` inverts that construction visit by visit, turning
never-treated times into the times under histories supplied one visit at a
time, for many subjects at once.  It is the one forward walk: the sampler
behind ``dgp.sample_cohort``, ``dgp.sample_trajectory`` and
``cfsim.simulate_counterfactual``, and, on one row, ``blip_up`` of
recorded histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Cohort,
    CohortFormatError,
    CurveDomainError,
    GridBoundsError,
    InsufficientHistoryError,
    TimeGrid,
    Trajectory,
    first_seen,
)

__all__ = [
    "PSI_DIM",
    "ShiftParams",
    "ShiftModel",
    "default_features",
    "gamma",
    "gamma_inv",
    "gamma_deriv",
    "blip_down",
    "blip_up",
    "walk_up_array",
    "in_chunks",
    "per_distinct",
    "BlipTable",
]


PSI_DIM = 3  # the length of psi: one parameter per feature of ``default_features``


def default_features(k: int, lbar, abar) -> np.ndarray:
    """Main effect, previous-treatment interaction, current-covariate interaction."""
    a_k = abar[k]
    a_prev = abar[k - 1] if k > 0 else 0
    return np.array([a_k, a_k * a_prev, a_k * lbar[k]], dtype=float)


@dataclass(frozen=True)
class ShiftParams:
    """Log time-scale effects; ``psi = 0`` encodes no treatment effect."""

    psi: tuple[float, ...]

    def __post_init__(self):
        psi = tuple(float(v) for v in self.psi)
        object.__setattr__(self, "psi", psi)
        if len(psi) != PSI_DIM:
            raise ValueError(f"shift parameters must be {PSI_DIM} numbers, got {psi}")
        if any(not math.isfinite(v) for v in psi):
            raise ValueError(f"shift parameters must be finite, got {psi}")

    @classmethod
    def zero(cls) -> "ShiftParams":
        return cls((0.0,) * PSI_DIM)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.psi)


@dataclass(frozen=True)
class ShiftModel:
    """The shift-function family over a grid."""

    params: ShiftParams
    grid: TimeGrid

    def scale(self, k: int, lbar, abar) -> float:
        """The interval time-scale factor ``exp(psi . x)``."""
        return math.exp(float(np.dot(self.params.as_array(), default_features(k, lbar, abar))))


def _check_args(model: ShiftModel, k: int, lbar, abar, t: float):
    if not 0 <= k <= model.grid.K:
        raise GridBoundsError(f"visit index {k} outside 0..{model.grid.K}")
    if len(lbar) < k + 1 or len(abar) < k + 1:
        raise InsufficientHistoryError(
            f"histories must cover visits 0..{k}: got {len(lbar)} covariates, {len(abar)} treatments"
        )
    if not t > model.grid.tau(k):
        raise CurveDomainError(f"shift at visit {k} needs t > {model.grid.tau(k)}, got {t}")


def gamma(model: ShiftModel, k: int, lbar, abar, t: float) -> float:
    """The shift map at visit ``k`` evaluated at ``t > tau_k``."""
    _check_args(model, k, lbar, abar, t)
    tau_k, tau_k1 = model.grid.tau(k), model.grid.next_tau(k)
    s = model.scale(k, lbar, abar)
    return tau_k + (min(tau_k1, t) - tau_k) * s + max(t - tau_k1, 0.0)


def gamma_inv(model: ShiftModel, k: int, lbar, abar, t: float) -> float:
    """Exact functional inverse of :func:`gamma` at visit ``k``."""
    _check_args(model, k, lbar, abar, t)
    tau_k, tau_k1 = model.grid.tau(k), model.grid.next_tau(k)
    s = model.scale(k, lbar, abar)
    knee = tau_k + (tau_k1 - tau_k) * s if math.isfinite(tau_k1) else math.inf
    if t <= knee:
        return tau_k + (t - tau_k) / s
    return tau_k1 + (t - knee)


def gamma_deriv(model: ShiftModel, k: int, lbar, abar, t: float) -> float:
    """Right-continuous derivative: the scale factor on ``(tau_k, tau_{k+1})``, 1 beyond."""
    _check_args(model, k, lbar, abar, t)
    if t < model.grid.next_tau(k):
        return model.scale(k, lbar, abar)
    return 1.0


def blip_down(model: ShiftModel, traj: Trajectory, upto: int = 0) -> float:
    """Remove the treatment blips at visits ``upto, ..., p(T)`` from the event time.

    With ``upto = 0`` this is the mimicked never-treated outcome; for
    ``upto > p(T)`` the composition is empty and ``T`` is returned unchanged.
    """
    if not 0 <= upto <= model.grid.K:
        raise GridBoundsError(f"visit index {upto} outside 0..{model.grid.K}")
    p = model.grid.interval_index(traj.event_time)
    t = traj.event_time
    for m in range(min(p, traj.n_visits - 1), upto - 1, -1):
        t = gamma(model, m, traj.covariates[: m + 1], traj.treatments[: m + 1], t)
    return t


def per_distinct(f, *columns) -> np.ndarray:
    """``f(*key)`` called once per distinct row of the integer ``columns``
    (in order of first appearance), the results gathered onto every row."""
    keys, inverse = first_seen(np.column_stack(columns))
    return np.array([f(*key) for key in keys.tolist()])[inverse]


def walk_up_array(model: ShiftModel, t0: np.ndarray, visit):
    """Walk the visits from never-treated times ``t0`` to observed ones,
    for many subjects at once, looping over visits only.

    At each visit ``k`` the caller's ``visit(k, rows, hist, prefixes)``
    gets the subjects still walking (``rows``) and the ids of their
    histories through visit ``k - 1`` (``hist``, where
    ``prefixes[h] == (lbar, abar)``), and returns the arrays ``(l_k, a_k)``
    for those rows.  The walk appends them and applies the inverse shift
    map of visit ``k`` (:func:`gamma_inv`) to each candidate time; a subject
    stops at the first interval ``(tau_k, tau_{k+1}]`` that holds its
    candidate.  Histories are interned visit by visit, as
    :class:`~snftm.core.VisitIndex` does, so the scale factor is computed
    once per distinct history with the scalar :meth:`ShiftModel.scale`.
    Returns the settled times and the visits walked as cohort columns
    ``(t, n_visits, l, a)``, subject-major (see
    :meth:`~snftm.core.Cohort.from_columns`).
    """
    grid = model.grid
    t, prefixes, walked = np.array(t0, dtype=float), [((), ())], []
    rows, hist = np.arange(len(t)), np.zeros(len(t), dtype=np.intp)
    for k in range(grid.K + 1):
        l_k, a_k = visit(k, rows, hist, prefixes)
        tau_k, tau_k1 = grid.taus[k], grid.next_tau(k)
        v = t[rows]
        if not np.all(v > tau_k):
            raise CurveDomainError(f"shift at visit {k} needs t > {tau_k}, got {v[~(v > tau_k)][0]}")
        keys, inverse = first_seen(np.column_stack([hist, l_k, a_k]))
        new = [(prefixes[h][0] + (lk,), prefixes[h][1] + (ak,)) for h, lk, ak in keys.tolist()]
        s = np.array([model.scale(k, lbar, abar) for lbar, abar in new])[inverse]
        hist = len(prefixes) + inverse
        prefixes += new
        # The inverse shift map, each branch on its own rows; the last
        # interval is unbounded, so nothing there is past its knee.
        below = np.ones(len(v), dtype=bool)
        if k < grid.K:
            knee = tau_k + (tau_k1 - tau_k) * s
            below = v <= knee
            v[~below] = tau_k1 + (v[~below] - knee[~below])
        v[below] = tau_k + (v[below] - tau_k) / s[below]
        t[rows] = v
        walked.append(np.column_stack([rows, l_k, a_k]))
        rows, hist = rows[v > tau_k1], hist[v > tau_k1]
        if not len(rows):
            break
    w = np.concatenate(walked)
    w = w[np.argsort(w[:, 0], kind="stable")]
    return t, np.bincount(w[:, 0], minlength=len(t)), w[:, 1], w[:, 2]


CHUNK = 8192


def in_chunks(walk, uniforms: np.ndarray) -> tuple:
    """``walk`` on successive blocks of ``CHUNK`` rows of ``uniforms``, each
    of its output columns concatenated.  A row's result does not depend on
    its block; the blocks bound the temporaries of the walk and of the
    baseline draw to a few MB whatever the number of rows."""
    parts = [walk(uniforms[i : i + CHUNK]) for i in range(0, len(uniforms), CHUNK)]
    return tuple(map(np.concatenate, zip(*parts)))


def blip_up(model: ShiftModel, t0: float, lbar, abar) -> float:
    """Re-apply the treatment effects of recorded histories to a never-treated
    time ``t0`` (:func:`walk_up_array` on one row); the histories must reach
    the visit where the candidate time settles."""
    if not t0 > 0.0:
        raise CurveDomainError(f"baseline time must be positive, got {t0}")

    def code(k, v):
        if not (v >= 0 and float(v).is_integer()):
            raise CohortFormatError(f"history code at visit {k} must be a non-negative integer, got {v!r}")
        return int(v)

    def recorded(k, _rows, _hist, _prefixes):
        if k >= len(lbar) or k >= len(abar):
            raise InsufficientHistoryError(
                f"blip-up of {t0} still past visit {k} but histories end at {min(len(lbar), len(abar))}"
            )
        return np.array([code(k, lbar[k])]), np.array([code(k, abar[k])])

    return float(walk_up_array(model, [t0], recorded)[0][0])


# ---------------------------------------------------------------------------
# Vectorized blip-down over a cohort


@dataclass(frozen=True)
class BlipTable:
    """Per-visit feature rows for a cohort, for fast blip-down at many psi.

    One row per (subject, visit) pair, ordered by subject: the cohort's
    person-visit rows.  :func:`default_features` is called once per
    interned history through a visit (``cohort.index.prefixes``) and
    gathered onto the rows by their ``through`` ids.  Because every shift map except the innermost acts past its own
    breakpoint, the blipped-down time is affine in the per-row scale factors:

        t0(psi) = tau_p + (T - tau_p) * s_p + sum_{m<p} delta_m * (s_m - 1).
    """

    n_subjects: int
    row_subject: np.ndarray
    row_features: np.ndarray
    row_c1: np.ndarray
    row_c0: np.ndarray
    base: np.ndarray
    terminal_features: np.ndarray

    @classmethod
    def from_cohort(cls, cohort: Cohort) -> "BlipTable":
        ix, k, last, subject = cohort.index, cohort.k, cohort.last, cohort.subject
        # Every prefix but the empty one is the history through some visit.
        table = np.array([default_features(m - 1, lb, ab) for m, lb, ab in ix.prefixes[1:]])
        row_features = table[ix.through - 1]
        taus = np.asarray(cohort.grid.taus)
        delta = np.append(np.diff(taus), math.inf)[k]
        return cls(
            n_subjects=len(cohort),
            row_subject=subject,
            row_features=row_features,
            row_c1=np.where(last, cohort.event_times[subject] - taus[k], delta),
            row_c0=np.where(last, 0.0, -delta),
            base=taus[k[last]],
            terminal_features=row_features[last],
        )

    def t0(self, psi: np.ndarray) -> np.ndarray:
        """Blipped-down times for every subject at parameter ``psi``."""
        s = np.exp(self.row_features @ np.asarray(psi, dtype=float))
        contrib = self.row_c1 * s + self.row_c0
        return self.base + np.bincount(
            self.row_subject, weights=contrib, minlength=self.n_subjects
        )

    def log_jacobian(self, psi: np.ndarray) -> np.ndarray:
        """Per-subject ``log d t0 / d T``: the innermost log scale factor."""
        return self.terminal_features @ np.asarray(psi, dtype=float)
