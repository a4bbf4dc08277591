"""Counterfactual survival by backward recursion over conditional laws.

The engine consumes two ingredient maps estimated or derived elsewhere: the
covariate transition probabilities given the past, and the
interval-conditional survival of the event time given the past.  Treatment
laws never enter — survival under a regime is a function of these two
ingredients alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import rng as _rng
from .core import (
    Cohort,
    CohortFormatError,
    CurveDomainError,
    SurvivalCurve,
    TimeGrid,
    TreatmentRegime,
    UndefinedCellError,
    apply_regime,
    first_seen,
)

__all__ = [
    "ConditionalLaws",
    "s_conditional",
    "s_marginal",
    "estimate_laws",
    "mc_gcomp",
    "SampledSurvival",
]


@dataclass(frozen=True)
class ConditionalLaws:
    """The two G-computation ingredients, keyed by history cells.

    ``covariate_transition[(m, lbar, abar)]`` is the law of ``L_m`` given
    ``(Lbar_{m-1}, Abar_{m-1}) = (lbar, abar)`` and survival past ``tau_m``
    (for ``m = 0`` the key is ``(0, (), ())`` and the vector is the marginal
    law of ``L_0``).  ``interval_survival[(m, lbar, abar)]`` is the survival
    function of ``T`` given the same history and ``T > tau_{m-1}``, valid on
    ``(tau_{m-1}, tau_m]``; keys run ``m = 1 .. K+1``.  Presence of a key is
    what "in support" means; anything else errors loudly.
    """

    grid: TimeGrid
    covariate_levels: tuple[int, ...]
    covariate_transition: Mapping[tuple, np.ndarray]
    interval_survival: Mapping[tuple, object]

    def transition(self, m: int, lbar, abar) -> np.ndarray:
        key = (m, tuple(lbar), tuple(abar))
        try:
            return self.covariate_transition[key]
        except KeyError:
            raise UndefinedCellError(f"no covariate transition for cell {key}") from None

    def survival(self, m: int, lbar, abar):
        key = (m, tuple(lbar), tuple(abar))
        try:
            return self.interval_survival[key]
        except KeyError:
            raise UndefinedCellError(f"no interval survival for cell {key}") from None


def s_conditional(laws: ConditionalLaws, regime: TreatmentRegime, lbar, t: float) -> float:
    """``P(T^g > t | Lbar_k = lbar, Abar_{k-1} follows g, T > tau_k)``.

    Backward recursion: at the death interval the interval-conditional tail is
    returned; one step earlier the interval survival factor multiplies the
    transition-weighted average over the next covariate.  The recursion and
    the nested-sum formula are algebraically identical.
    """
    grid = laws.grid
    lbar = tuple(lbar)
    k = len(lbar) - 1
    if k > grid.K:
        raise CurveDomainError(f"history of length {len(lbar)} exceeds the grid")
    if not t > grid.tau(k):
        raise CurveDomainError(f"need t > tau_{k} = {grid.tau(k)}, got {t}")
    p = grid.interval_index(t)
    memo: dict = {}

    def rec(kk: int, hist: tuple) -> float:
        got = memo.get((kk, hist))
        if got is not None:
            return got
        abar = apply_regime(regime, hist)
        if kk == p:
            val = laws.survival(p + 1, hist, abar).eval(t)
        else:
            surv = laws.survival(kk + 1, hist, abar).eval(grid.tau(kk + 1))
            trans = laws.transition(kk + 1, hist, abar)
            val = surv * sum(
                trans[l] * rec(kk + 1, hist + (l,))
                for l in range(len(trans))
                if trans[l] > 0.0
            )
        memo[(kk, hist)] = val
        return val

    return rec(k, lbar)


def s_marginal(laws: ConditionalLaws, regime: TreatmentRegime, t: float) -> float:
    """``P(T^g > t)``: the recursion averaged over the initial covariate."""
    start = laws.transition(0, (), ())
    return float(
        sum(
            start[l0] * s_conditional(laws, regime, (l0,), t)
            for l0 in range(len(start))
            if start[l0] > 0.0
        )
    )


def estimate_laws(cohort: Cohort) -> ConditionalLaws:
    """Plug-in estimates: cell frequencies for covariate transitions, one
    exponential hazard per (cell, interval) with rate = events / person-time.

    Cells never visited are simply absent from the support.
    """
    if len(cohort) == 0:
        raise CohortFormatError("cannot estimate laws from an empty cohort")
    grid = cohort.grid
    ix, k = cohort.index, cohort.k
    transitions = {cell: law for (cell, _), law in ix.cell_frequencies(cohort).items()}

    # Interval k of a subject is keyed by its history through visit k; the
    # sums run over the rows in subject-major order.
    histories, row = first_seen(ix.through)
    taus = np.asarray(grid.taus)
    end = np.append(taus[1:], np.inf)[k]
    t = cohort.event_times[cohort.subject]
    persontime = np.bincount(row, weights=np.minimum(t, end) - taus[k], minlength=len(histories))
    events = np.bincount(row, weights=t <= end, minlength=len(histories))
    curves = {
        ix.prefixes[j]: SurvivalCurve((grid.taus[ix.prefixes[j][0] - 1],), (e / pt,))
        for j, e, pt in zip(histories.tolist(), events.tolist(), persontime.tolist())
    }
    return ConditionalLaws(grid, ix.covariate_levels, transitions, curves)


@dataclass(frozen=True)
class SampledSurvival:
    """Sampled counterfactual event times with their survivor fractions and
    binomial standard errors on a time grid, and their mean."""

    event_times: np.ndarray = field(repr=False)
    t_grid: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray
    mean: float

    @classmethod
    def of(cls, times: np.ndarray, t_grid) -> "SampledSurvival":
        t_grid = np.asarray(t_grid, dtype=float)
        surv = (times[:, None] > t_grid[None, :]).mean(axis=0)
        stderr = np.sqrt(surv * (1.0 - surv) / len(times))
        return cls(times, t_grid, surv, stderr, float(times.mean()))

    def to_rows(self):
        """``(t, survival, stderr)`` rows, as the curve CSVs write them."""
        return zip(self.t_grid, self.survival, self.stderr)


def _simulate_path(laws: ConditionalLaws, regime: TreatmentRegime, uniforms) -> float:
    # Not shift.walk_up_array: this inverts the interval-survival curves and evaluates no shift map.
    grid = laws.grid
    start = laws.transition(0, (), ())
    lbar = (_rng.categorical(start, uniforms[0]),)
    m, pos = 1, 1
    while True:
        abar = apply_regime(regime, lbar)
        curve = laws.survival(m, lbar, abar)
        u = 1.0 - uniforms[pos]
        pos += 1
        if m <= grid.K and u < curve.eval(grid.tau(m)):
            trans = laws.transition(m, lbar, abar)
            lbar += (_rng.categorical(trans, uniforms[pos]),)
            pos += 1
            m += 1
        else:
            return curve.quantile(u)


def mc_gcomp(
    laws: ConditionalLaws,
    regime: TreatmentRegime,
    t_grid,
    n_sim: int,
    seed: int = _rng.DEFAULT_SEED,
) -> SampledSurvival:
    """Monte-Carlo evaluation of the counterfactual curve: forward-simulate
    covariates and survival under the regime, report survivor fractions with
    binomial standard errors.

    Each replicate consumes its own fixed-width slice of one counter-based
    stream, so replicate ``i`` is reproducible independently of ``n_sim``.
    """
    if n_sim < 1:
        raise CohortFormatError(f"need n_sim >= 1, got {n_sim}")
    width = 2 * laws.grid.K + 3
    uniforms = _rng.stream(seed, "mcgcomp").random((n_sim, width))
    times = np.empty(n_sim)
    for i in range(n_sim):
        times[i] = _simulate_path(laws, regime, uniforms[i])
    return SampledSurvival.of(times, t_grid)
