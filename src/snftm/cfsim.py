"""Counterfactual sampling from a fitted (or exact) world.

Draws a never-treated time, walks the visits drawing covariates given its
prognosis bin and assigning treatment by the regime, and re-applies the
fitted treatment effects one interval at a time until the candidate event
time settles.  Built from estimates this approximates the regime-specific
survival law; built from exact structural ingredients it reproduces it.
All draws walk together, one visit at a time (``shift.walk_up_array``);
each depends only on its own row of uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng as _rng
from .core import (
    Cohort,
    CohortFormatError,
    SurvivalCurve,
    TimeGrid,
    TreatmentRegime,
    UndefinedCellError,
    require_visits,
)
from .dgp import DgpConfig
from .gcomp import SampledSurvival
from .shift import BlipTable, ShiftModel, ShiftParams, in_chunks, per_distinct, walk_up_array

__all__ = ["FittedWorld", "simulate_counterfactual"]


@dataclass(frozen=True)
class FittedWorld:
    """Everything the counterfactual sampler needs.

    ``baseline`` is either a survival curve or an empirical sample of
    blipped-down times; ``covariate_laws`` maps
    ``(k, bin, lbar_prev, abar_prev)`` to the law of ``L_k``, with bins
    cutting the never-treated time at ``thresholds``.
    """

    grid: TimeGrid
    psi: ShiftParams
    thresholds: tuple[float, ...]
    baseline: object
    covariate_laws: Mapping[tuple, np.ndarray]

    def draw_baseline(self, u):
        """Inverse-distribution draw from the baseline, ``u`` uniform in [0, 1)
        (scalar or array)."""
        if isinstance(self.baseline, SurvivalCurve):
            return self.baseline.quantile(1.0 - u)
        values = self.baseline
        return values[(np.asarray(u) * len(values)).astype(np.intp)]

    @classmethod
    def from_dgp_config(cls, cfg: DgpConfig, psi: ShiftParams | None = None) -> "FittedWorld":
        """The exact world: true baseline curve, true covariate laws."""
        return cls(
            grid=cfg.grid,
            psi=psi if psi is not None else cfg.psi0,
            thresholds=cfg.thresholds,
            baseline=cfg.baseline,
            covariate_laws=dict(cfg.covariate_law.table),
        )

    @classmethod
    def from_cohort(cls, cohort: Cohort, psi: ShiftParams, thresholds: tuple[float, ...]) -> "FittedWorld":
        """Estimated world: empirical distribution of blipped-down times and
        cell-frequency covariate laws keyed by their bin."""
        blip = BlipTable.from_cohort(cohort)
        t0s = blip.t0(psi.as_array())
        bins = np.searchsorted(np.asarray(thresholds), t0s, side="left")
        frequencies = cohort.index.cell_frequencies(cohort, bins, len(thresholds) + 1)
        laws = {(k, b, lbar, abar): law for ((k, lbar, abar), b), law in frequencies.items()}
        return cls(
            grid=cohort.grid,
            psi=psi,
            thresholds=tuple(float(c) for c in thresholds),
            baseline=np.sort(t0s),
            covariate_laws=laws,
        )


def _walk(world: FittedWorld, regime: TreatmentRegime, uniforms: np.ndarray):
    """The draws from the rows of ``uniforms`` by one array walk, as cohort
    columns ``(t, n_visits, l, a)``.  Covariate laws are looked up once per
    distinct (history, prognosis bin) and the regime's rule is called once
    per distinct covariate history.  Laws are padded with zero-probability
    codes to one width, which leaves every draw unchanged."""
    t0 = world.draw_baseline(uniforms[:, 0])
    bins = np.searchsorted(np.asarray(world.thresholds), t0, side="left")
    width = max(map(len, world.covariate_laws.values()), default=0)

    def law(k, b, lbar, abar):
        key = (k, b, lbar, abar)
        probs = world.covariate_laws.get(key)
        if probs is None:
            raise UndefinedCellError(
                f"no covariate law for cell {key}; the fitted world has no data "
                "for this regime-consistent history"
            )
        return np.pad(probs, (0, width - len(probs)))

    def draw(k, rows, hist, prefixes):
        p = per_distinct(lambda h, b: law(k, b, *prefixes[h]), hist, bins[rows])
        l_k = _rng.categorical(p, uniforms[rows, 1 + k])
        a_k = per_distinct(lambda h, l: int(regime.rules[k](prefixes[h][0] + (l,))), hist, l_k)
        return l_k, a_k

    return walk_up_array(ShiftModel(world.psi, world.grid), t0, draw)


def simulate_counterfactual(
    world: FittedWorld,
    regime: TreatmentRegime,
    n: int,
    seed: int = _rng.DEFAULT_SEED,
    t_grid=None,
) -> SampledSurvival:
    """``n`` draws of the event time under the regime, survivor fractions
    with binomial standard errors on ``t_grid``, and the sample mean.

    Deterministic per ``(seed, draw index)`` via fixed-width stream slices.
    """
    if n < 1:
        raise CohortFormatError(f"need n >= 1, got {n}")
    grid = world.grid
    require_visits(regime, grid.K + 1)
    if t_grid is None:
        t_grid = grid.curve_times()
    uniforms = _rng.stream(seed, "cfsim").random((n, grid.K + 2))
    (times,) = in_chunks(lambda u: _walk(world, regime, u)[:1], uniforms)
    return SampledSurvival.of(times, t_grid)
