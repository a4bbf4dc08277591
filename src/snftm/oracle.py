"""Exact brute-force ground truth on small instances.

A structural config is unrolled into path atoms: for every covariate and
treatment history the per-prognosis-bin probability mass and the interval of
never-treated times compatible with each death interval, all in closed
piecewise-exponential form.  From the atoms one can read off exact observed
conditional laws, exact counterfactual survival under any regime, joint
densities, and numeric checks of the identification, blip-distribution and
null-equivalence theorems — no sampling, no quadrature.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
import numpy as np

from .core import (
    CohortFormatError,
    CurveDomainError,
    InstanceTooLargeError,
    SurvivalCurve,
    TimeGrid,
    TreatmentRegime,
    all_regimes,
    apply_regime,
    is_evaluable,
    require_visits,
)
from .dgp import DgpConfig
from .gcomp import ConditionalLaws, s_conditional, s_marginal
from .shift import ShiftModel, ShiftParams

__all__ = [
    "EnumeratedWorld",
    "enumerate_world",
    "ExactIntervalSurvival",
    "Report",
    "verify_gcomputation",
    "verify_blip_theorems",
    "verify_null_equivalence",
    "run_suite",
]


@dataclass(frozen=True)
class _Node:
    """One history atom: the path ``(lbar_k, abar_k)`` with per-bin mass.

    ``pi[b]`` multiplies the covariate/treatment draw probabilities along the
    path for prognosis bin ``b``; the subject is alive at ``tau_k`` iff the
    never-treated time exceeds ``u_alive``, and dies inside interval ``k`` iff
    it is at most ``u_next``.  ``scale`` and ``d_prev`` pin the affine map
    from event time to never-treated time on the death interval.
    """

    k: int
    lbar: tuple
    abar: tuple
    pi: np.ndarray
    u_alive: float
    u_next: float
    d_prev: float
    scale: float

    @classmethod
    def empty(cls, cfg: DgpConfig) -> "_Node":
        """The empty history, the parent of every enrollment node."""
        return cls(-1, (), (), np.ones(cfg.n_bins), -math.inf, 0.0, 0.0, 1.0)

    def t0_of_t(self, grid: TimeGrid, t: float) -> float:
        """Never-treated time of a subject on this path dying at ``t``."""
        return grid.tau(self.k) + (t - grid.tau(self.k)) * self.scale + self.d_prev

    def t_of_t0(self, grid: TimeGrid, x: float) -> float:
        return grid.tau(self.k) + (x - grid.tau(self.k) - self.d_prev) / self.scale


def _edge_survival(baseline: SurvivalCurve, bin_edges, above: float, upto: float = math.inf) -> list[float]:
    """Baseline survival at each bin edge clamped into ``[above, upto]``, each read once:
    ``s[b] - s[b + 1]`` is the mass of bin ``b`` in ``(above, upto]`` (0.0 for a bin outside it)."""
    return [baseline.mass_above(min(max(e, above), upto)) for e in bin_edges]


def _mixture_mass(baseline: SurvivalCurve, bin_edges, weights, above: float, upto: float = math.inf) -> float:
    """Baseline mass in ``(above, upto]``, prognosis bin ``b`` weighted by ``weights[b]``."""
    s = _edge_survival(baseline, bin_edges, above, upto)
    return sum(w * (s[b] - s[b + 1]) for b, w in enumerate(weights) if w > 0.0)


def _enumerate_stages(cfg: DgpConfig, regime, max_cells: int):
    """Unroll all positive-probability paths of the world ``cfg``; with ``regime``
    set, treatments follow the regime instead of the treatment law
    (counterfactual world)."""
    grid = cfg.grid
    root = _Node.empty(cfg)
    model = ShiftModel(cfg.psi0, grid)
    B = cfg.n_bins
    stages: list[dict] = [{} for _ in range(grid.K + 1)]
    count = 0
    for k in range(grid.K + 1):
        parents = [root] if k == 0 else list(stages[k - 1].values())
        for parent in parents:
            d_prev = 0.0 if k == 0 else parent.d_prev + grid.delta(k - 1) * (parent.scale - 1.0)
            for l in range(cfg.covariate_law.levels[k]):
                pl = np.array(
                    [
                        cfg.covariate_law.probs(k, b, parent.lbar, parent.abar)[l]
                        for b in range(B)
                    ]
                )
                pi_l = parent.pi * pl
                if not pi_l.any():
                    continue
                lbar = parent.lbar + (l,)
                if regime is None:
                    pa = cfg.treatment_law.probs(k, lbar, parent.abar)
                    choices = [(a, pa[a]) for a in range(len(pa)) if pa[a] > 0.0]
                else:
                    choices = [(int(regime.rules[k](lbar)), 1.0)]
                for a, w in choices:
                    abar = parent.abar + (a,)
                    s = model.scale(k, lbar, abar)
                    u_next = (
                        grid.tau(k) + grid.delta(k) * s + d_prev if k < grid.K else math.inf
                    )
                    stages[k][(lbar, abar)] = _Node(
                        k, lbar, abar, pi_l * w, parent.u_next, u_next, d_prev, s
                    )
                    count += 1
                    if count > max_cells:
                        raise InstanceTooLargeError(
                            f"enumeration exceeds {max_cells} cells; shrink the instance"
                        )
    return tuple(stages)


@dataclass(frozen=True)
class ExactIntervalSurvival:
    """Exact interval-conditional survival of the event time given a history.

    On its interval the event-to-baseline-time map is affine,
    ``x = offset + slope * t``, and survival is the bin-weighted baseline mass
    above ``x`` renormalized at the interval start.  A bin mixture is not a
    single piecewise-exponential curve, but it evaluates and inverts in
    closed form, which is all the recursion and samplers need.
    """

    baseline: SurvivalCurve
    bin_edges: tuple[float, ...]
    weights: tuple[float, ...]
    t_lo: float
    t_hi: float
    offset: float
    slope: float

    def __post_init__(self):
        x_lo = self.offset + self.slope * self.t_lo
        object.__setattr__(self, "_x_lo", x_lo)
        object.__setattr__(self, "_norm", self._n(x_lo))

    def _n(self, x: float) -> float:
        return _mixture_mass(self.baseline, self.bin_edges, self.weights, x)

    def eval(self, t: float) -> float:
        if not self.t_lo <= t <= self.t_hi:
            raise CurveDomainError(f"interval survival defined on ({self.t_lo}, {self.t_hi}], got {t}")
        if t == self.t_lo:
            return 1.0
        return self._n(self.offset + self.slope * t) / self._norm

    def quantile(self, u: float) -> float:
        """Exact inverse of :meth:`eval` on the interval, solved inside the
        first prognosis bin whose upper end (capped at the interval end) has
        mass at most ``u`` times the normalizer."""
        if not 0.0 < u <= 1.0:
            raise CurveDomainError(f"quantile level must be in (0, 1], got {u}")
        x_hi = math.inf if math.isinf(self.t_hi) else self.offset + self.slope * self.t_hi
        target = u * self._norm
        edges = self.bin_edges
        start = bisect.bisect_right(edges, self._x_lo, 1, len(edges) - 1) - 1
        for b in range(start, len(self.weights)):
            n_end = self._n(edges[b + 1])
            if (n_end if edges[b + 1] <= x_hi else self._n(x_hi)) > target:
                continue
            w = self.weights[b]
            if w <= 0.0:
                x = max(edges[b], self._x_lo)
            else:
                # inside bin b the mass above x is w * (S(x) - S(e_{b+1})) + N(e_{b+1})
                s_end = self.baseline.mass_above(edges[b + 1])
                x = self.baseline.quantile(min((target - n_end) / w + s_end, 1.0))
            return max((x - self.offset) / self.slope, self.t_lo)
        raise CurveDomainError(f"no quantile at level {u} on ({self.t_lo}, {self.t_hi}]")


@dataclass(frozen=True)
class Report:
    """Machine-readable outcome of one theorem check."""

    name: str
    passed: bool
    worst: float
    details: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_abs_error": float(self.worst),
            "details": list(self.details),
            "skipped": list(self.skipped),
        }


class EnumeratedWorld:
    """Exact law handle over an enumerated structural config of at most
    ``max_cells`` history cells."""

    def __init__(self, cfg: DgpConfig, max_cells: int = 1_000_000):
        self.cfg = cfg
        self.max_cells = max_cells
        self.root = _Node.empty(cfg)
        self.stages = _enumerate_stages(cfg, None, max_cells)
        self.bin_edges = (0.0,) + cfg.thresholds + (math.inf,)
        self._laws = None
        self._regime_memo = (None, None)  # (regime, its stages): a one-entry memo

    # -- exact-law handle interface -------------------------------------

    @property
    def grid(self) -> TimeGrid:
        return self.cfg.grid

    @property
    def covariate_levels(self) -> tuple[int, ...]:
        return self.cfg.covariate_law.levels

    def _alive_mass(self, node: _Node) -> float:
        return _mixture_mass(self.cfg.baseline, self.bin_edges, node.pi, node.u_alive)

    def _cell_law(self, parent: _Node, m: int) -> np.ndarray:
        """Unnormalised law of ``L_m`` after ``parent``: entry ``l`` is
        ``P(Lbar_m = parent.lbar + (l,), Abar_{m-1} = parent.abar, T > tau_m)``."""
        vec = np.zeros(self.covariate_levels[m])
        s = _edge_survival(self.cfg.baseline, self.bin_edges, parent.u_next)
        for b, w in enumerate(parent.pi):
            if w > 0.0:
                pl = self.cfg.covariate_law.probs(m, b, parent.lbar, parent.abar)
                vec += w * (s[b] - s[b + 1]) * pl
        return vec

    def history_prob(self, lbar, abar) -> float:
        """Exact ``P(Lbar = lbar, Abar = abar, T > tau_k)`` with ``k = len(lbar) - 1``;
        ``abar`` may also stop at ``k - 1`` (pre-treatment cell)."""
        lbar, abar = tuple(lbar), tuple(abar)
        k = len(lbar) - 1
        if len(abar) == k + 1:
            node = self.stages[k].get((lbar, abar))
            return 0.0 if node is None else self._alive_mass(node)
        if len(abar) == k:
            parent = self.root if k == 0 else self.stages[k - 1].get((lbar[:-1], abar))
            return 0.0 if parent is None else self._cell_law(parent, k)[lbar[-1]]
        raise CohortFormatError("treatment history must have length k or k+1")

    # -- exact conditional laws ------------------------------------------

    def conditional_laws(self) -> ConditionalLaws:
        if self._laws is not None:
            return self._laws
        grid = self.grid
        transitions: dict = {}
        curves: dict = {}
        for m in range(grid.K + 1):
            for node in [self.root] if m == 0 else [n for _, n in sorted(self.stages[m - 1].items())]:
                vec = self._cell_law(node, m)
                if vec.sum() > 0.0:
                    transitions[(m, node.lbar, node.abar)] = vec / vec.sum()
        if (0, (), ()) not in transitions:
            raise CohortFormatError("the configured world has no mass at enrollment")
        for m in range(1, grid.K + 2):
            for (lbar, abar), node in sorted(self.stages[m - 1].items()):
                if self._alive_mass(node) > 0.0:
                    curves[(m, lbar, abar)] = ExactIntervalSurvival(
                        baseline=self.cfg.baseline,
                        bin_edges=self.bin_edges,
                        weights=tuple(node.pi),
                        t_lo=grid.tau(m - 1),
                        t_hi=grid.next_tau(m - 1),
                        offset=grid.tau(m - 1) * (1.0 - node.scale) + node.d_prev,
                        slope=node.scale,
                    )
        self._laws = ConditionalLaws(
            grid, self.covariate_levels, transitions, curves
        )
        return self._laws

    # -- exact counterfactual quantities ----------------------------------

    def _regime_stages(self, regime: TreatmentRegime):
        """The counterfactual world under ``regime``, enumerated once for a
        run of calls with the same regime object (callers loop over t inside
        one regime; a one-entry memo keeps memory flat over many regimes)."""
        if self._regime_memo[0] is not regime:
            require_visits(regime, self.grid.K + 1)
            stages = _enumerate_stages(self.cfg, regime, self.max_cells)
            self._regime_memo = (regime, stages)
        return self._regime_memo[1]

    def counterfactual_survival(self, regime: TreatmentRegime, t: float, given=None) -> float:
        """Exact ``P(T^g > t)``, optionally given an initial covariate history
        (conditioning also on having followed ``g`` and survival so far)."""
        if not t > 0.0:
            raise CurveDomainError(f"need t > 0, got {t}")
        stages = self._regime_stages(regime)
        grid = self.grid
        given = () if given is None else tuple(given)
        k = len(given) - 1
        alive = 1.0  # the empty history: P(T > tau_0) = 1
        if given:
            if not t > grid.tau(k):
                raise CurveDomainError(f"conditional survival needs t > tau_{k}")
            anchor = stages[k].get((given, apply_regime(regime, given)))
            alive = 0.0 if anchor is None else self._alive_mass(anchor)
            if alive <= 0.0:
                raise CurveDomainError(f"conditioning history {given} has probability 0 under the regime")
        num = sum(
            (_mixture_mass(self.cfg.baseline, self.bin_edges, node.pi, node.t0_of_t(grid, t))
             for (lbar, _a), node in stages[grid.interval_index(t)].items() if lbar[: k + 1] == given),
            0.0,
        )
        return num / alive

    def counterfactual_mean(self, regime: TreatmentRegime) -> float:
        """Exact ``E[T^g]`` by closed-form integration over death atoms."""
        grid = self.grid
        stages = self._regime_stages(regime)
        total = 0.0
        for k in range(grid.K + 1):
            for node in stages[k].values():
                shift_const = grid.tau(k) - (grid.tau(k) + node.d_prev) / node.scale
                for b, w in enumerate(node.pi):
                    if w <= 0.0:
                        continue
                    xa = max(node.u_alive, self.bin_edges[b])
                    xb = min(node.u_next, self.bin_edges[b + 1])
                    if xb <= xa:
                        continue
                    pe = self.cfg.baseline.partial_expectation(xa, xb)
                    mass = self.cfg.baseline.interval_mass(xa, xb)
                    total += w * (pe / node.scale + shift_const * mass)
        return total

    def observed_density(self, lbar, abar, t: float) -> float:
        """Exact joint density of ``(Lbar, Abar, T)`` at a full record."""
        grid = self.grid
        p = grid.interval_index(t)
        lbar, abar = tuple(lbar), tuple(abar)
        if len(lbar) != p + 1 or len(abar) != p + 1:
            raise CohortFormatError(
                f"death at {t} lies in interval {p}, histories must have length {p + 1}"
            )
        node = self.stages[p].get((lbar, abar))
        if node is None:
            return 0.0
        x = node.t0_of_t(grid, t)
        b = self.cfg.bin_index(x)
        if node.pi[b] <= 0.0:
            return 0.0
        return float(node.pi[b]) * self.cfg.baseline.density(x) * node.scale


enumerate_world = EnumeratedWorld  # the constructor under its public name


# ---------------------------------------------------------------------------
# Theorem checks


def verify_gcomputation(world: EnumeratedWorld, regime: TreatmentRegime, t_grid=None, tol=1e-10) -> Report:
    """Identification check: the backward recursion on the exact conditional
    laws must reproduce exact counterfactual survival, marginally and per
    conditioning cell, for an evaluable regime."""
    name = f"gcomputation[{regime.label or 'regime'}]"
    if not is_evaluable(regime, world):
        skipped = (f"regime {regime.label or regime} is not evaluable; theorem does not apply",)
        return Report(name, True, 0.0, skipped=skipped)
    t_grid = world.grid.curve_times() if t_grid is None else np.asarray(t_grid, dtype=float)
    laws = world.conditional_laws()
    grid = world.grid
    worst, worst_where = 0.0, ""
    for t in t_grid:
        err = abs(s_marginal(laws, regime, float(t)) - world.counterfactual_survival(regime, float(t)))
        if err > worst:
            worst, worst_where = err, f"marginal t={t:.6g}"
    for k in range(grid.K + 1):
        for lbar in itertools.product(*(range(world.covariate_levels[m]) for m in range(k + 1))):
            abar = apply_regime(regime, lbar)
            if world.history_prob(lbar, abar[:-1]) <= 0.0:
                continue
            for t in t_grid:
                if not t > grid.tau(k):
                    continue
                got = s_conditional(laws, regime, lbar, float(t))
                want = world.counterfactual_survival(regime, float(t), given=lbar)
                err = abs(got - want)
                if err > worst:
                    worst, worst_where = err, f"cell {lbar} t={t:.6g}"
    details = (f"worst deviation {worst:.3e} at {worst_where}",) if worst > tol else ()
    return Report(name, worst <= tol, worst, details)


def _mass_t0gamma_above(world, model, node, x: float, from_visit: int = 0) -> float:
    """Mass on a death atom with the blipped-down time (visits >= from_visit,
    under ``model``'s shift maps) exceeding ``x``."""
    grid = world.grid
    scales = [model.scale(m, node.lbar[: m + 1], node.abar[: m + 1]) for m in range(len(node.lbar))]
    d_tilde = sum(
        grid.delta(m) * (scales[m] - 1.0) for m in range(from_visit, node.k)
    )
    s_tilde = scales[node.k]
    tau_k = grid.tau(node.k)
    t_star = tau_k + (x - tau_k - d_tilde) / s_tilde
    if t_star <= tau_k:
        x0 = node.u_alive
    else:
        x0 = max(node.u_alive, node.t0_of_t(grid, t_star))
    return _mixture_mass(world.cfg.baseline, world.bin_edges, node.pi, x0, node.u_next)


def _descendants(world: EnumeratedWorld, lbar, abar) -> list:
    """The atoms at or after visit ``len(lbar) - 1`` whose histories extend ``(lbar, abar)``."""
    k = len(lbar) - 1
    return [
        d
        for j in range(k, world.grid.K + 1)
        for (dl, da), d in sorted(world.stages[j].items())
        if dl[: k + 1] == lbar and da[: k + 1] == abar
    ]


def verify_blip_theorems(world: EnumeratedWorld, psi: ShiftParams | None = None, tol=1e-12) -> dict:
    """The blip-transform distribution theorems, checked against enumeration.

    Returns reports for (a) the blipped-down time having the never-treated
    survival law, (b) its conditional independence of the current treatment
    given the past, and (c) the per-visit stopped-treatment law identity
    (including that it is free of the current dose); (a) and (b) are checked
    at 19 baseline quantiles and at the prognosis thresholds.
    """
    cfg = world.cfg
    model = ShiftModel(psi if psi is not None else cfg.psi0, world.grid)
    qs = np.array([cfg.baseline.quantile(u) for u in np.linspace(0.95, 0.05, 19)])
    probes = np.unique(np.concatenate([qs, np.asarray(cfg.thresholds)]))
    laws = world.conditional_laws()
    grid = world.grid
    never = TreatmentRegime.baseline(grid.K + 1)

    # (a) law of the blipped-down time vs the never-treated curve
    worst_a = 0.0
    for x in probes:
        got = sum(
            _mass_t0gamma_above(world, model, node, float(x))
            for k in range(grid.K + 1)
            for node in world.stages[k].values()
        )
        err = abs(got - s_marginal(laws, never, float(x)))
        err = max(err, abs(got - cfg.baseline.mass_above(float(x))))
        worst_a = max(worst_a, err)
    report_a = Report("blip[baseline-law]", worst_a <= tol, worst_a)

    # (b) treatment independent of the blipped-down time given the past
    worst_b = 0.0
    for k in range(grid.K + 1):
        cells: dict = {}
        for (lbar, abar), node in sorted(world.stages[k].items()):
            cells.setdefault((lbar, abar[:-1]), []).append(node)
        for (lbar, aprev), nodes in cells.items():
            p_cell = world.history_prob(lbar, aprev)
            if p_cell <= 0.0:
                continue
            descendants = {node.abar[-1]: _descendants(world, lbar, node.abar) for node in nodes}
            for x in probes:
                joint = {
                    a: sum(_mass_t0gamma_above(world, model, d, float(x)) for d in descs)
                    for a, descs in descendants.items()
                }
                p_x = sum(joint.values())
                for a, j_ax in joint.items():
                    p_a = world.history_prob(lbar, aprev + (a,))
                    err = abs(j_ax / p_cell - (p_a / p_cell) * (p_x / p_cell))
                    worst_b = max(worst_b, err)
    report_b = Report("blip[independence]", worst_b <= tol, worst_b)

    # (c) stopped-treatment law identity per visit, free of the current dose
    worst_c = 0.0
    for k in range(grid.K + 1):
        taus = [grid.tau(m) for m in range(k, grid.K + 1)]
        spread = np.diff(np.asarray(taus + [grid.taus[-1] + 1.0])) / 2.0
        t_probes = np.concatenate(
            [np.asarray(taus) + spread, [grid.taus[-1] + 1.5]]
        )
        by_prefix: dict = {}
        for (lbar, abar), node in sorted(world.stages[k].items()):
            alive = world._alive_mass(node)
            if alive <= 0.0:
                continue
            stopped = TreatmentRegime.stopped(abar[:k], grid.K + 1)
            descendants = _descendants(world, lbar, abar)
            curve = []
            for t in t_probes:
                got = (
                    sum(
                        _mass_t0gamma_above(world, model, d, float(t), from_visit=k)
                        for d in descendants
                    )
                    / alive
                )
                curve.append(got)
                want = s_conditional(laws, stopped, lbar, float(t))
                worst_c = max(worst_c, abs(got - want))
            by_prefix.setdefault((lbar, abar[:-1]), []).append(np.asarray(curve))
        for curves in by_prefix.values():
            for other in curves[1:]:
                worst_c = max(worst_c, float(np.max(np.abs(other - curves[0]))))
    report_c = Report("blip[stopped-law]", worst_c <= tol, worst_c)

    return {"baseline_law": report_a, "independence": report_b, "stopped_law": report_c}


def verify_null_equivalence(world: EnumeratedWorld, tol: float = 1e-12, witness_threshold: float = 1e-3) -> Report:
    """Equivalence of "all shift maps are the identity" with "every evaluable
    regime shares one survival curve".

    When some positive-probability cell has a non-identity map, the two
    regimes that differ only in that cell's dose are produced as an explicit
    witness pair and their curves must separate.
    """
    t_grid = world.grid.curve_times()
    grid = world.grid
    off_identity = [
        (k, lbar, abar)
        for k in range(grid.K + 1)
        for (lbar, abar), node in sorted(world.stages[k].items())
        if world._alive_mass(node) > 0.0 and node.scale != 1.0
    ]
    if not off_identity:
        regimes, sampled = all_regimes(world.covariate_levels, world.cfg.treatment_law.levels)
        evaluable = [g for g in regimes if is_evaluable(g, world)]
        curves = [np.array([world.counterfactual_survival(g, float(t)) for t in t_grid]) for g in evaluable]
        worst = max((float(np.max(np.abs(curve - curves[0]))) for curve in curves[1:]), default=0.0)
        details = (
            f"all shift maps are the identity; {len(evaluable)} evaluable regimes compared"
            + (" (seeded subset)" if sampled else ""),
        )
        return Report("null-equivalence[forward]", worst <= tol, worst, details)

    k, lbar, abar = off_identity[0]
    tables1 = [
        {
            hist: (abar[m] if m <= k and hist == lbar[: m + 1] else 0)
            for hist in itertools.product(*(range(world.covariate_levels[j]) for j in range(m + 1)))
        }
        for m in range(grid.K + 1)
    ]
    tables2 = [dict(t) for t in tables1]
    for hist in tables2[k]:
        tables2[k][hist] = 0
    g1 = TreatmentRegime.from_tables(tables1, label=f"witness-dose@{(k, lbar, abar)}")
    g2 = TreatmentRegime.from_tables(tables2, label=f"witness-stop@{(k, lbar)}")
    skipped = ()
    if not (is_evaluable(g1, world) and is_evaluable(g2, world)):
        skipped = ("witness regimes not evaluable; baseline admissibility violated?",)
    # one regime at a time, so each is enumerated once
    curve1, curve2 = ([world.counterfactual_survival(g, float(t)) for t in t_grid] for g in (g1, g2))
    dev = max(abs(s1 - s2) for s1, s2 in zip(curve1, curve2))
    details = (
        f"non-identity cell at visit {k}, histories {lbar}/{abar}; "
        f"witness curves separate by {dev:.3e}",
    )
    return Report("null-equivalence[witness]", dev > witness_threshold, dev, details, skipped)


def run_suite(world: EnumeratedWorld, suite: str = "all") -> dict:
    """Run the requested verification suites; returns name -> report dict.
    The gcomp suite checks up to 128 regimes of :func:`all_regimes`."""
    out: dict = {}
    if suite in ("gcomp", "all"):
        regimes, _ = all_regimes(world.covariate_levels, world.cfg.treatment_law.levels, cap=128)
        for g in regimes:
            rep = verify_gcomputation(world, g)
            out[rep.name] = rep
    if suite in ("blip", "all"):
        out.update(
            {f"blip-{k}": r for k, r in verify_blip_theorems(world).items()}
        )
    if suite in ("null", "all"):
        rep = verify_null_equivalence(world)
        out[rep.name] = rep
    if not out:
        raise CohortFormatError(f"unknown suite {suite!r}; pick gcomp, blip, null or all")
    return out
