"""Shared domain types for longitudinal survival data on a common visit grid.

Time runs from enrollment.  Visits happen at fixed times
``tau_0 = 0 < tau_1 < ... < tau_K`` shared by all subjects; the treatment
taken in ``(tau_k, tau_{k+1}]`` is recorded at ``tau_k``.  Covariate and
treatment values are small non-negative integer codes, and dosage code 0
always means "no treatment".
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SnftmError",
    "GridBoundsError",
    "CurveDomainError",
    "UndefinedCellError",
    "InstanceTooLargeError",
    "InsufficientHistoryError",
    "ConvergenceError",
    "SeparationError",
    "BracketError",
    "WeakIdentificationError",
    "NonIdentifiableError",
    "StructuralZeroError",
    "CohortFormatError",
    "finite_increasing",
    "TimeGrid",
    "SurvivalCurve",
    "Trajectory",
    "Cohort",
    "VisitIndex",
    "first_seen",
    "TreatmentRegime",
    "apply_regime",
    "require_visits",
    "is_evaluable",
    "all_regimes",
    "chi2_sf",
]

CovariateHistory = tuple[int, ...]
TreatmentHistory = tuple[int, ...]


class SnftmError(Exception):
    """Base class for all errors raised by this package."""


class GridBoundsError(SnftmError):
    """A visit index or time falls outside the grid."""


class CurveDomainError(SnftmError):
    """A survival curve was queried outside its domain."""


class UndefinedCellError(SnftmError):
    """A history cell outside the support of the conditional laws was hit."""


class InstanceTooLargeError(SnftmError):
    """Exact enumeration would exceed the configured cell budget."""


class InsufficientHistoryError(SnftmError):
    """Histories end before a sequential inversion settles."""


class ConvergenceError(SnftmError):
    """An iterative fit did not converge; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SeparationError(ConvergenceError):
    """Logistic likelihood diverges (perfectly separated data)."""


class BracketError(SnftmError):
    """No sign change of the estimating function inside the search box."""


class WeakIdentificationError(SnftmError):
    """The estimating-equation slope is too close to zero for a variance."""


class NonIdentifiableError(SnftmError):
    """The data cannot identify the requested parameters."""


class StructuralZeroError(SnftmError):
    """A trajectory hits a zero-probability cell of a parametric model."""


class CohortFormatError(SnftmError):
    """Malformed cohort CSV or config JSON."""


# ---------------------------------------------------------------------------
# Time grid


def finite_increasing(values) -> bool:
    """Whether ``values`` are finite and strictly increasing (NaN is neither)."""
    return all(a < b for a, b in itertools.pairwise((-math.inf, *values, math.inf)))


@dataclass(frozen=True)
class TimeGrid:
    """Fixed visit times ``tau_0 = 0 < tau_1 < ... < tau_K``.

    All intervals are half-open on the left: time ``t`` belongs to interval
    ``p`` when ``tau_p < t <= tau_{p+1}``, and everything past ``tau_K``
    belongs to interval ``K``.
    """

    taus: tuple[float, ...]

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) < 2 or taus[0] != 0.0 or not finite_increasing(taus):
            raise GridBoundsError(f"field 'taus' must be 0.0 then more finite, strictly increasing times, got {taus}")
        object.__setattr__(self, "_taus_arr", np.asarray(taus))

    @property
    def K(self) -> int:
        return len(self.taus) - 1

    def tau(self, k: int) -> float:
        if not 0 <= k <= self.K:
            raise GridBoundsError(f"visit index {k} outside 0..{self.K}")
        return self.taus[k]

    def next_tau(self, k: int) -> float:
        """Upper end of interval ``k``; ``inf`` for the last interval."""
        if not 0 <= k <= self.K:
            raise GridBoundsError(f"visit index {k} outside 0..{self.K}")
        return self.taus[k + 1] if k < self.K else math.inf

    def delta(self, k: int) -> float:
        return self.next_tau(k) - self.tau(k)

    def interval_index(self, t: float) -> int:
        """The visit index ``p`` with ``tau_p < t <= tau_{p+1}`` (``K`` past the grid)."""
        if not t > 0.0:
            raise GridBoundsError(f"interval_index needs t > 0, got {t}")
        return min(bisect.bisect_left(self.taus, t) - 1, self.K)

    def implied_visits(self, t: np.ndarray) -> np.ndarray:
        """Visits recorded by a subject dying at each event time ``t > 0``: ``interval_index + 1``."""
        return np.minimum(np.searchsorted(self._taus_arr, t, side="left") - 1, self.K) + 1

    def curve_times(self) -> np.ndarray:
        """The default times of a survival curve: 20 equal steps up to 1.5 times ``tau_K``."""
        hi = 1.5 * self.taus[-1]
        return np.linspace(hi / 20, hi, 20)


# ---------------------------------------------------------------------------
# Piecewise-exponential survival curves


@dataclass(frozen=True)
class SurvivalCurve:
    """Piecewise-exponential survival function on ``(support_start, inf)``.

    ``rates[j]`` is the hazard on ``(bounds[j], bounds[j+1]]``; the last rate
    extends to infinity.  With all rates positive the curve is continuous,
    strictly decreasing, equals 1 at ``support_start`` and tends to 0, and
    ``quantile`` is its exact functional inverse.  Zero rates are tolerated
    (they arise in fitted segments with no observed events) at the cost of a
    flat stretch; ``quantile`` then fails for levels the curve never reaches.
    """

    bounds: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        bounds = tuple(float(b) for b in self.bounds)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "rates", rates)
        if len(bounds) != len(rates) or not bounds:
            raise CurveDomainError("need one rate per breakpoint")
        if not finite_increasing(bounds):
            raise CurveDomainError(f"field 'bounds' must be finite and strictly increasing, got {bounds}")
        if any(not math.isfinite(r) or r < 0.0 for r in rates):
            raise CurveDomainError(f"hazard rates must be finite and >= 0: {rates}")
        cum = itertools.accumulate((r * (hi - lo) for r, lo, hi in zip(rates, bounds, bounds[1:])), initial=0.0)
        object.__setattr__(self, "_cumhaz", tuple(cum))

    @property
    def support_start(self) -> float:
        return self.bounds[0]

    def _piece(self, t: float) -> int:
        return max(bisect.bisect_left(self.bounds, t) - 1, 0)

    def cum_hazard(self, t: float) -> float:
        j = self._piece(t)
        return self._cumhaz[j] + self.rates[j] * (t - self.bounds[j])

    def eval(self, t: float) -> float:
        """Survival probability at ``t >= support_start``."""
        if t < self.support_start:
            raise CurveDomainError(f"curve is defined on [{self.support_start}, inf), got t={t}")
        return float(np.exp(-self.cum_hazard(t)))

    def mass_above(self, x) -> float:
        """``P(T > x)`` with no domain restriction (1 at or below the start)."""
        x = max(float(x), self.support_start)
        if math.isinf(x) and self.rates[-1] == 0.0:
            x = self.bounds[-1]  # a flat tail keeps its last level (0 * inf would be nan)
        return float(np.exp(-self.cum_hazard(x)))

    def interval_mass(self, a: float, b: float) -> float:
        """``P(a < T <= b)``."""
        if b <= a:
            return 0.0
        return self.mass_above(a) - self.mass_above(b)

    def quantile(self, u):
        """Exact inverse: the ``t`` with ``eval(t) == u``, for ``u`` in ``(0, 1]``
        (scalar or array; each array element equals the scalar call)."""
        if np.ndim(u):
            return self._quantiles(np.asarray(u, dtype=float))
        if not 0.0 < u <= 1.0:
            raise CurveDomainError(f"quantile level must be in (0, 1], got {u}")
        target = -math.log(u)
        for lo, hi, r, cum in zip(self.bounds, self.bounds[1:] + (math.inf,), self.rates, self._cumhaz):
            if target <= cum + r * (hi - lo) or hi == math.inf:  # the last piece takes any target
                if r > 0.0:
                    return lo + (target - cum) / r
                if target == cum:
                    return lo
        raise CurveDomainError(f"curve never falls to survival level {u}")

    def _quantiles(self, u: np.ndarray) -> np.ndarray:
        # The scalar loop's choice of piece, as a mask over (levels x pieces):
        # the first whose top reaches the target (the last always), where a
        # zero-rate piece takes only a target on its own level.
        bad = ~((u > 0.0) & (u <= 1.0))
        if np.any(bad):
            raise CurveDomainError(f"quantile level must be in (0, 1], got {u[bad][0]}")
        target = -np.array(list(map(math.log, u.ravel().tolist()))).reshape(u.shape)
        cum, r, b = np.asarray(self._cumhaz), np.asarray(self.rates), np.asarray(self.bounds)
        top = np.append(cum[:-1] + r[:-1] * np.diff(b), math.inf)
        takes = np.where(r == 0.0, target[..., None] == cum, target[..., None] <= top)
        if not np.all(takes.any(axis=-1)):
            raise CurveDomainError(f"curve never falls to survival level {u[~takes.any(axis=-1)][0]}")
        j = np.argmax(takes, axis=-1)
        flat = r[j] == 0.0
        return np.where(flat, b[j], b[j] + (target - cum[j]) / np.where(flat, 1.0, r[j]))

    def hazard_at(self, t: float) -> float:
        """Hazard on the piece containing ``t`` (pieces are left-open)."""
        if t <= self.support_start:
            raise CurveDomainError(f"hazard undefined at or before {self.support_start}")
        return self.rates[self._piece(t)]

    def density(self, t: float) -> float:
        return self.hazard_at(t) * self.eval(t)

    def log_density(self, t: float) -> float:
        h = self.hazard_at(t)
        if h == 0.0:
            return -math.inf
        return math.log(h) - self.cum_hazard(t)

    def conditional_from(self, x: float) -> "SurvivalCurve":
        """The curve of ``T | T > x``, i.e. renormalized to start at ``x``."""
        if x < self.support_start:
            raise CurveDomainError(f"cannot condition on T > {x} before the support start")
        j = self._piece(x)
        keep = tuple(b for b in self.bounds[j + 1 :] if b > x)
        return SurvivalCurve((x,) + keep, self.rates[len(self.bounds) - len(keep) - 1 :])

    def partial_expectation(self, a: float, b: float) -> float:
        """``E[T 1{a < T <= b}]``, in closed form per hazard piece."""
        if b <= a:
            return 0.0
        total = 0.0
        for lo, hi, r in zip(self.bounds, self.bounds[1:] + (math.inf,), self.rates):
            x, y = max(a, lo), min(b, hi)
            if y <= x or r == 0.0:
                continue
            head = (x + 1.0 / r) * self.mass_above(x)
            tail = 0.0 if math.isinf(y) else (y + 1.0 / r) * self.mass_above(y)
            total += head - tail
        return total


# ---------------------------------------------------------------------------
# Trajectories and cohorts


@dataclass(frozen=True)
class Trajectory:
    """One subject's record: covariates and treatments at visits before the
    event, plus the event time itself.

    Histories run over visit indices ``k`` with ``tau_k < event_time``, so
    both tuples have length ``p(T) + 1`` on the cohort's grid.  A cohort
    does not store these: it is its person-visit columns, and a trajectory
    is a per-record view of them (``Cohort.subjects``), or a single draw
    (``dgp.sample_trajectory``) for the scalar ``blip_down``/``log_density``.
    """

    covariates: CovariateHistory
    treatments: TreatmentHistory
    event_time: float

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(int(v) for v in self.covariates))
        object.__setattr__(self, "treatments", tuple(int(v) for v in self.treatments))
        object.__setattr__(self, "event_time", float(self.event_time))
        if not (math.isfinite(self.event_time) and self.event_time > 0.0):
            raise CurveDomainError(
                f"event_time must be positive and finite, got {self.event_time}"
            )
        if len(self.covariates) != len(self.treatments):
            raise CohortFormatError("covariate and treatment histories differ in length")
        if not self.covariates:
            raise CohortFormatError("a trajectory records at least the enrollment visit")
        if any(v < 0 for v in self.covariates + self.treatments):
            raise CohortFormatError("covariate/treatment codes are non-negative integers")

    @property
    def n_visits(self) -> int:
        return len(self.covariates)


class Cohort:
    """Independent subjects on one shared grid, stored as one read-only row
    per subject-visit, subject-major: row ``r`` is visit ``k[r]`` of subject
    ``subject[r]``, with codes ``l[r]`` and ``a[r]``, and ``last[r]`` marks
    the visit whose interval holds the event at ``event_times[subject[r]]``.
    ``subjects`` views the rows as :class:`Trajectory` records and ``index``
    interns their history cells (:class:`VisitIndex`), each built on first
    use and cached.  ``Cohort(subjects, grid)`` flattens trajectories into
    the columns of :meth:`from_columns`; both validate in one array pass.
    """

    def __init__(self, subjects: Sequence[Trajectory], grid: TimeGrid):
        subjects, chain = tuple(subjects), itertools.chain.from_iterable
        self._fill(grid, [s.event_time for s in subjects], [s.n_visits for s in subjects],
                   list(chain(s.covariates for s in subjects)), list(chain(s.treatments for s in subjects)))

    @classmethod
    def from_columns(cls, grid: TimeGrid, event_times, n_visits, l, a) -> "Cohort":
        """Subject ``i`` dies at ``event_times[i]`` after visits ``0 .. n_visits[i] - 1``,
        whose codes are its ``n_visits[i]`` consecutive entries of ``l`` and ``a``."""
        cohort = cls.__new__(cls)
        cohort._fill(grid, event_times, n_visits, l, a)
        return cohort

    def _fill(self, grid, event_times, n_visits, l, a):
        def fail(bad, error, message):
            if np.any(bad):
                i = int(np.argmax(bad))
                raise error(f"subject {i}: {message(i)}")

        self.grid = grid
        self.event_times = t = np.array(event_times, dtype=float)
        self.l, self.a = l, a = np.array(l, dtype=np.int64), np.array(a, dtype=np.int64)
        n_visits = np.asarray(n_visits, dtype=np.intp)
        fail(~(np.isfinite(t) & (t > 0.0)), CurveDomainError,
             lambda i: f"event_time must be positive and finite, got {t[i]}")
        if len(n_visits) != len(t) or len(l) != len(a) or len(l) != n_visits.sum():
            raise CohortFormatError("covariate and treatment columns must hold one code per recorded visit")
        fail(n_visits < 1, CohortFormatError, lambda i: "a trajectory records at least the enrollment visit")
        self.subject = np.repeat(np.arange(len(t)), n_visits)
        fail(np.isin(np.arange(len(t)), self.subject[(l < 0) | (a < 0)]), CohortFormatError,
             lambda i: "covariate/treatment codes are non-negative integers")
        expect = grid.implied_visits(t)
        fail(n_visits != expect, CohortFormatError,
             lambda i: f"{n_visits[i]} visits recorded but event time {t[i]} implies {expect[i]}")
        first = np.cumsum(n_visits) - n_visits
        self.k = np.arange(len(l)) - np.repeat(first, n_visits)
        self.last = np.zeros(len(l), dtype=bool)
        self.last[first + n_visits - 1] = True
        for arr in (t, l, a, self.subject, self.k, self.last):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.event_times)

    def __iter__(self):
        return iter(self.subjects)

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        return self.grid == other.grid and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("event_times", "k", "l", "a"))

    @cached_property
    def subjects(self) -> tuple[Trajectory, ...]:
        """The records as :class:`Trajectory` views, in subject order."""
        l, a = self.l.tolist(), self.a.tolist()
        ends = (np.flatnonzero(self.last) + 1).tolist()
        return tuple(Trajectory(l[s:e], a[s:e], t)
                     for s, e, t in zip([0] + ends, ends, self.event_times.tolist()))

    @cached_property
    def index(self) -> "VisitIndex":
        return VisitIndex(self)


def first_seen(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer matrix (or entries of a vector) in
    order of first appearance, and each row's position in that list."""
    rows = x[:, None] if x.ndim == 1 else x
    order = np.lexsort(rows.T[::-1])  # stable: each run of equal rows starts at its first
    ranked = rows[order]
    new = np.ones(len(x), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    starts = order[new]
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.argsort(np.argsort(starts))[np.cumsum(new) - 1]
    return x[np.sort(starts)], inverse


class VisitIndex:
    """A cohort's history cells, interned once into one table of prefixes.

    ``prefixes[j]`` is a history ``(m, lbar, abar)`` of the first ``m``
    covariates and treatments of some subject, the empty one first.  Each
    of the cohort's person-visit rows carries two ids into it: ``cell``, the
    history before visit ``k`` that conditions ``L_k``, and ``through``, the
    history through visit ``k`` that keys interval ``k``.
    ``covariate_levels[k]`` and ``treatment_levels[k]`` are one past the
    largest code at visit ``k`` (0 for a visit nobody reaches).  The rows'
    own columns stay on the :class:`Cohort`.
    """

    def __init__(self, cohort: Cohort):
        K, k, l, a = cohort.grid.K, cohort.k, cohort.l, cohort.a
        self.covariate_levels = tuple(int(l[k == m].max(initial=-1)) + 1 for m in range(K + 1))
        self.treatment_levels = tuple(int(a[k == m].max(initial=-1)) + 1 for m in range(K + 1))
        # Intern visit by visit: the history through visit m is the cell
        # before it plus (l_m, a_m).
        prefixes = [(0, (), ())]
        self.cell = np.zeros(len(k), dtype=np.intp)
        self.through = np.zeros(len(k), dtype=np.intp)
        for m in range(K + 1):
            at = np.flatnonzero(k == m)
            if m:
                self.cell[at] = self.through[at - 1]
            keys, inverse = first_seen(np.column_stack([self.cell[at], l[at], a[at]]))
            self.through[at] = len(prefixes) + inverse
            prefixes += [(m + 1, prefixes[c][1] + (lm,), prefixes[c][2] + (am,))
                         for c, lm, am in keys.tolist()]
        self.prefixes = tuple(prefixes)
        self.cell.flags.writeable = self.through.flags.writeable = False

    def cell_frequencies(self, cohort: Cohort, strata: np.ndarray | None = None, n_strata: int = 1) -> dict:
        """Frequencies of ``L_k`` in each cell of ``cohort``, the cohort this
        index interns: ``{(cell, stratum): law}`` with the cell's prefix
        tuple, in order of first appearance; ``strata`` optionally splits the
        cells by a per-subject stratum in ``0 .. n_strata - 1``."""
        group = self.cell * n_strata + (0 if strata is None else np.asarray(strata)[cohort.subject])
        groups, row_group = first_seen(group)
        width = max(self.covariate_levels)
        counts = np.bincount(row_group * width + cohort.l, minlength=len(groups) * width).reshape(-1, width)
        laws = {}
        for g, freq in zip(groups.tolist(), counts / counts.sum(axis=1, keepdims=True)):
            cell = self.prefixes[g // n_strata]
            laws[(cell, g % n_strata)] = freq[: self.covariate_levels[cell[0]]]
        return laws


# ---------------------------------------------------------------------------
# Treatment regimes


@dataclass(frozen=True)
class TreatmentRegime:
    """A deterministic dosing rule ``g_k(lbar_k)`` for every visit ``k``.

    ``rules[k]`` maps the covariate history ``(l_0, ..., l_k)`` to the dosage
    for ``(tau_k, tau_{k+1}]``; each rule must be total on the covariate
    product space.
    """

    rules: tuple[Callable[[CovariateHistory], int], ...]
    label: str = ""

    @classmethod
    def static(cls, doses: Sequence[int], label: str = "") -> "TreatmentRegime":
        doses = tuple(int(a) for a in doses)
        rules = tuple((lambda lbar, a=a: a) for a in doses)
        return cls(rules, label or f"static{doses}")

    @classmethod
    def baseline(cls, n_visits: int) -> "TreatmentRegime":
        return cls.static((0,) * n_visits, label="never-treat")

    @classmethod
    def threshold(cls, n_visits: int, level: int, dose: int = 1) -> "TreatmentRegime":
        rules = tuple(
            (lambda lbar, lv=level, d=dose: d if lbar[-1] >= lv else 0)
            for _ in range(n_visits)
        )
        return cls(rules, label=f"treat-if-l>={level}")

    @classmethod
    def stopped(cls, prefix: Sequence[int], n_visits: int) -> "TreatmentRegime":
        """The regime ``(abar_k, 0bar)``: fixed doses through ``len(prefix)-1``, then 0."""
        prefix = tuple(int(a) for a in prefix)
        doses = prefix + (0,) * (n_visits - len(prefix))
        return cls.static(doses, label=f"stop-after{prefix}")

    @classmethod
    def from_tables(cls, tables: Sequence[dict], label: str = "") -> "TreatmentRegime":
        """``tables[k]`` maps covariate-history tuples to dosages."""
        frozen = tuple(dict(t) for t in tables)

        def make(k):
            def rule(lbar, _t=frozen[k]):
                try:
                    return _t[tuple(lbar)]
                except KeyError:
                    raise UndefinedCellError(
                        f"regime table at visit {k} has no entry for history {tuple(lbar)}"
                    ) from None

            return rule

        return cls(tuple(make(k) for k in range(len(frozen))), label)


def apply_regime(regime: TreatmentRegime, lbar: CovariateHistory) -> TreatmentHistory:
    """The prescribed treatment history ``(g_0(l_0), ..., g_k(lbar_k))``."""
    lbar = tuple(lbar)
    if len(lbar) > len(regime.rules):
        raise GridBoundsError(
            f"history of length {len(lbar)} exceeds the regime's {len(regime.rules)} visits"
        )
    return tuple(int(regime.rules[m](lbar[: m + 1])) for m in range(len(lbar)))


def require_visits(regime: TreatmentRegime, n_visits: int) -> None:
    """Raise ``GridBoundsError`` unless ``regime`` has a rule for each of ``n_visits`` visits."""
    if len(regime.rules) < n_visits:
        raise GridBoundsError(f"world of {n_visits} visits exceeds the regime's {len(regime.rules)} visits")


def is_evaluable(regime: TreatmentRegime, world) -> bool:
    """Whether every history that followed the regime can keep following it.

    ``world`` is an :class:`~snftm.oracle.EnumeratedWorld`, whose
    ``history_prob(lbar, abar)`` gives the exact
    ``P(Lbar_k = lbar, Abar = abar, T > tau_k)`` for ``abar`` of length
    ``k`` or ``k + 1``.
    """
    levels = world.covariate_levels
    for k in range(world.grid.K + 1):
        for lbar in itertools.product(*(range(levels[m]) for m in range(k + 1))):
            abar = apply_regime(regime, lbar)
            if world.history_prob(lbar, abar[:-1]) > 0.0 and world.history_prob(lbar, abar) <= 0.0:
                return False
    return True


def all_regimes(covariate_levels, treatment_levels, cap: int = 10_000):
    """Every deterministic regime on the finite instance, as table regimes.

    When the full count exceeds ``cap`` a random subset of ``cap`` regimes,
    drawn from seed 0, is returned instead (flagged via the second return
    value).
    """
    n_visits = len(covariate_levels)
    histories = [
        list(itertools.product(*(range(covariate_levels[m]) for m in range(k + 1))))
        for k in range(n_visits)
    ]
    sizes = [len(h) for h in histories]
    total = 1
    for k in range(n_visits):
        total *= treatment_levels[k] ** sizes[k]
    if total <= cap:
        per_visit = [
            [dict(zip(histories[k], assign)) for assign in
             itertools.product(range(treatment_levels[k]), repeat=sizes[k])]
            for k in range(n_visits)
        ]
        regimes = [
            TreatmentRegime.from_tables(combo, label=f"enum{i}")
            for i, combo in enumerate(itertools.product(*per_visit))
        ]
        return regimes, False
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    regimes = []
    for i in range(cap):
        tables = [
            {h: int(rng.integers(treatment_levels[k])) for h in histories[k]}
            for k in range(n_visits)
        ]
        regimes.append(TreatmentRegime.from_tables(tables, label=f"sampled{i}"))
    return regimes, True


def chi2_sf(df: int, x: float) -> float:
    """The chi-square survival function ``P(X > x)`` on ``df`` (a positive
    integer) degrees of freedom, in closed form (Abramowitz & Stegun
    26.4.4-26.4.5): ``erfc(sqrt(x / 2))`` plus a finite sum for odd ``df``,
    a Poisson sum for even ``df``.  Clamped to [0, 1]; NaN for a NaN or
    negative ``x``, as ``scipy.special.chdtrc``.  Each term is built from
    ``exp(-x / 2)``, which underflows past ``x`` of about 1,490: the tail is
    then below 1e-300 for the few degrees of freedom the estimators make."""
    x = float(x)
    if not x >= 0.0:
        return math.nan
    if x == math.inf:
        return 0.0
    if df % 2:
        q = math.erfc(math.sqrt(0.5 * x))
        term = math.exp(-0.5 * x) * math.sqrt(2.0 / math.pi * x)
        for r in range(1, df // 2 + 1):
            q += term
            term *= x / (2 * r + 1)
    else:
        q, term = 0.0, math.exp(-0.5 * x)
        for r in range(1, df // 2 + 1):
            q += term
            term *= 0.5 * x / r
    return min(max(q, 0.0), 1.0)
