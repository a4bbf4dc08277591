"""Synthetic worlds with a known structural truth.

The generator is counterfactual-first and rank-preserving: each subject gets
a never-treated time ``T0`` from a configured baseline curve, covariates that
depend on prognosis only through a coarse bin of ``T0``, treatments that
depend only on the observed history, and an observed event time obtained by
sequentially inverting the shift maps.  Removing the treatment blips from the
observed record therefore recovers the drawn ``T0`` exactly, which is what
makes every downstream identity checkable without tolerance games.

``sample_cohort`` walks all subjects at once with ``shift.walk_up_array``;
``sample_trajectory`` runs the same walk on one row of uniforms.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import rng as _rng
from .core import (
    Cohort,
    CohortFormatError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    UndefinedCellError,
    finite_increasing,
)
from .shift import ShiftModel, ShiftParams, in_chunks, per_distinct, walk_up_array

__all__ = [
    "CovariateLaw",
    "TreatmentLaw",
    "DgpConfig",
    "prognosis_thresholds",
    "sample_trajectory",
    "sample_cohort",
]


def _expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)  # underflows to an exact structural zero for very negative x
    return e / (1.0 + e)


def _normalized(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise CohortFormatError(f"probability vector expected, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v < 0.0) or abs(float(v.sum()) - 1.0) > 1e-12:
        raise CohortFormatError(f"probabilities must be finite, >= 0 and sum to 1: {v}")
    return v


@dataclass(frozen=True)
class CovariateLaw:
    """Conditional law of ``L_k`` given the prognosis bin and the past.

    Tabular and total: ``table[(k, bin, lbar_prev, abar_prev)]`` is the
    probability vector of ``L_k``.  Dependence on the never-treated time is
    routed through the bin index only, which keeps exact enumeration finite.
    """

    levels: tuple[int, ...]
    table: Mapping[tuple, np.ndarray]
    spec: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "table", {k: _normalized(v) for k, v in self.table.items()}
        )
        for (k, _b, lprev, aprev), v in self.table.items():
            if len(lprev) != k or len(aprev) != k:
                raise CohortFormatError(f"history lengths do not match visit {k}")
            if len(v) != self.levels[k]:
                raise CohortFormatError(
                    f"visit {k} declares {self.levels[k]} covariate levels, got {len(v)}"
                )

    def probs(self, k: int, bin_idx: int, lbar_prev, abar_prev) -> np.ndarray:
        key = (k, bin_idx, tuple(lbar_prev), tuple(abar_prev))
        try:
            return self.table[key]
        except KeyError:
            raise UndefinedCellError(f"covariate law has no cell {key}") from None

    @classmethod
    def from_logistic(
        cls,
        n_visits: int,
        n_bins: int,
        *,
        intercept: float,
        bin_coef: float = 0.0,
        l_prev_coef: float = 0.0,
        a_prev_coef: float = 0.0,
        treatment_levels: tuple[int, ...] | None = None,
    ) -> "CovariateLaw":
        """Binary covariates with ``P(L_k = 1) = expit(b0 + b1*bin + b2*l_prev + b3*a_prev)``."""
        treatment_levels = treatment_levels or (2,) * n_visits
        table = {}
        for k in range(n_visits):
            lspace = itertools.product(*(range(2) for _ in range(k)))
            for lprev in lspace:
                aspace = itertools.product(*(range(treatment_levels[m]) for m in range(k)))
                for aprev in aspace:
                    for b in range(n_bins):
                        p1 = _expit(
                            intercept
                            + bin_coef * b
                            + l_prev_coef * (lprev[-1] if k else 0)
                            + a_prev_coef * (aprev[-1] if k else 0)
                        )
                        table[(k, b, lprev, aprev)] = np.array([1.0 - p1, p1])
        spec = {
            "kind": "logistic",
            "n_visits": n_visits,
            "n_bins": n_bins,
            "intercept": intercept,
            "bin_coef": bin_coef,
            "l_prev_coef": l_prev_coef,
            "a_prev_coef": a_prev_coef,
            "treatment_levels": list(treatment_levels),
        }
        return cls((2,) * n_visits, table, spec)


@dataclass(frozen=True)
class TreatmentLaw:
    """Conditional law of ``A_k`` given the observed past (never the prognosis).

    Every cell must leave positive probability on dosage 0, so stopping
    treatment is always possible — the admissibility condition the null
    analysis leans on.
    """

    levels: tuple[int, ...]
    table: Mapping[tuple, np.ndarray]
    spec: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "table", {k: _normalized(v) for k, v in self.table.items()}
        )
        for (k, lbar, aprev), v in self.table.items():
            if len(lbar) != k + 1 or len(aprev) != k:
                raise CohortFormatError(f"history lengths do not match visit {k}")
            if len(v) != self.levels[k]:
                raise CohortFormatError(
                    f"visit {k} declares {self.levels[k]} treatment levels, got {len(v)}"
                )
            if not v[0] > 0.0:
                raise CohortFormatError(
                    f"treatment law must keep P(A_{k} = 0) > 0, violated at {(k, lbar, aprev)}"
                )

    def probs(self, k: int, lbar, abar_prev) -> np.ndarray:
        key = (k, tuple(lbar), tuple(abar_prev))
        try:
            return self.table[key]
        except KeyError:
            raise UndefinedCellError(f"treatment law has no cell {key}") from None

    @classmethod
    def from_logistic(
        cls,
        n_visits: int,
        *,
        intercept: float,
        l_coef: float = 0.0,
        a_prev_coef: float = 0.0,
        covariate_levels: tuple[int, ...] | None = None,
    ) -> "TreatmentLaw":
        """Binary dosing with ``P(A_k = 1) = expit(d0 + d1*l_k + d2*a_prev)``."""
        covariate_levels = covariate_levels or (2,) * n_visits
        table = {}
        for k in range(n_visits):
            lspace = itertools.product(*(range(covariate_levels[m]) for m in range(k + 1)))
            for lbar in lspace:
                for aprev in itertools.product(*(range(2) for _ in range(k))):
                    p1 = _expit(
                        intercept + l_coef * lbar[-1] + a_prev_coef * (aprev[-1] if k else 0)
                    )
                    table[(k, lbar, aprev)] = np.array([1.0 - p1, p1])
        spec = {
            "kind": "logistic",
            "n_visits": n_visits,
            "intercept": intercept,
            "l_coef": l_coef,
            "a_prev_coef": a_prev_coef,
            "covariate_levels": list(covariate_levels),
        }
        return cls((2,) * n_visits, table, spec)


def prognosis_thresholds(values) -> tuple[float, ...]:
    """``values`` as the prognosis thresholds that cut the never-treated time into bins."""
    cuts = tuple(float(c) for c in values)
    if not finite_increasing((0.0, *cuts)):
        raise CohortFormatError(f"field 'thresholds' must be positive and strictly increasing, all finite, got {cuts}")
    return cuts


@dataclass(frozen=True)
class DgpConfig:
    """Everything needed to draw one synthetic world.

    ``baseline`` is the law of the never-treated time; ``thresholds`` cut it
    into prognosis bins that drive the covariate law; ``psi0`` is the true
    shift parameter.  Treatment draws see only the observed history, so the
    no-unmeasured-confounding condition holds by construction.
    """

    grid: TimeGrid
    baseline: SurvivalCurve
    thresholds: tuple[float, ...]
    covariate_law: CovariateLaw
    treatment_law: TreatmentLaw
    psi0: ShiftParams
    seed: int = _rng.DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "thresholds", prognosis_thresholds(self.thresholds))
        if self.baseline.support_start != 0.0 or min(self.baseline.rates) <= 0.0:
            raise CohortFormatError("field 'baseline' must start at 0 with positive hazard rates")
        n_visits = self.grid.K + 1
        if len(self.covariate_law.levels) != n_visits or len(self.treatment_law.levels) != n_visits:
            raise CohortFormatError("law level declarations must cover every visit")

    @property
    def n_bins(self) -> int:
        return len(self.thresholds) + 1

    def bin_index(self, t0: float) -> int:
        return bisect.bisect_left(self.thresholds, t0)

    def shift_model(self) -> ShiftModel:
        return ShiftModel(self.psi0, self.grid)

    @property
    def draws_per_subject(self) -> int:
        return 1 + 2 * (self.grid.K + 1)


def _walk(cfg: DgpConfig, uniforms: np.ndarray):
    """The subjects drawn from the rows of ``uniforms`` by one array walk,
    as cohort columns; each row's subject depends on that row alone.  Law
    rows are looked up once per distinct (history, prognosis bin) and
    (history, ``l_k``) and drawn row-wise."""
    t0 = cfg.baseline.quantile(1.0 - uniforms[:, 0])
    bins = np.searchsorted(np.asarray(cfg.thresholds), t0, side="left")
    cov, trt = cfg.covariate_law, cfg.treatment_law

    def draw(k, rows, hist, prefixes):
        p = per_distinct(lambda h, b: cov.probs(k, b, *prefixes[h]), hist, bins[rows])
        l_k = _rng.categorical(p, uniforms[rows, 1 + 2 * k])
        q = per_distinct(lambda h, l: trt.probs(k, prefixes[h][0] + (l,), prefixes[h][1]), hist, l_k)
        return l_k, _rng.categorical(q, uniforms[rows, 2 + 2 * k])

    return walk_up_array(cfg.shift_model(), t0, draw)


def sample_trajectory(cfg: DgpConfig, rng: np.random.Generator) -> Trajectory:
    """One subject: draw ``T0``, then walk the visits, inverting one shift map
    per interval until the candidate event time lands inside the current one
    (:func:`_walk` on one row)."""
    t, _, l, a = _walk(cfg, rng.random((1, cfg.draws_per_subject)))
    return Trajectory(l, a, t[0])


def sample_cohort(cfg: DgpConfig, n: int, seed: int | None = None) -> Cohort:
    """``n`` independent subjects, bit-reproducible per ``(seed, subject)``.

    Subject ``i`` consumes a fixed-width slice of one counter-based stream,
    so its record does not depend on ``n`` or on scheduling.  One array walk
    over all subjects fills the cohort's columns directly.
    """
    if n < 1:
        raise CohortFormatError(f"cohort size must be >= 1, got {n}")
    seed = cfg.seed if seed is None else seed
    uniforms = _rng.stream(seed, "dgp").random((n, cfg.draws_per_subject))
    return Cohort.from_columns(cfg.grid, *in_chunks(lambda u: _walk(cfg, u), uniforms))
