import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from snftm import dgp, oracle
from snftm.core import (
    Cohort,
    CohortFormatError,
    CurveDomainError,
    GridBoundsError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    TreatmentRegime,
    all_regimes,
    apply_regime,
    is_evaluable,
)

from conftest import make_config


class TestTimeGrid:
    def test_interval_index_convention(self):
        grid = TimeGrid((0.0, 1.0, 2.5))
        assert grid.interval_index(0.5) == 0
        assert grid.interval_index(1.0) == 0  # intervals are left-open
        assert grid.interval_index(1.7) == 1
        assert grid.interval_index(2.5) == 1
        assert grid.interval_index(99.0) == 2  # everything past the grid

    def test_validation(self):
        with pytest.raises(GridBoundsError):
            TimeGrid((0.0,))
        with pytest.raises(GridBoundsError):
            TimeGrid((0.5, 1.0))
        with pytest.raises(GridBoundsError):
            TimeGrid((0.0, 1.0, 1.0))
        with pytest.raises(GridBoundsError):
            TimeGrid((0.0, 2.0)).interval_index(0.0)

    def test_delta_last_interval_unbounded(self):
        grid = TimeGrid((0.0, 2.0))
        assert grid.delta(0) == 2.0
        assert math.isinf(grid.delta(1))

    def test_implied_visits_follow_interval_index(self):
        grid = TimeGrid((0.0, 1.0, 2.5))
        t = np.array([0.5, 1.0, np.nextafter(1.0, 2.0), 2.5, 99.0])
        assert grid.implied_visits(t).tolist() == [grid.interval_index(x) + 1 for x in t] == [1, 1, 2, 2, 3]


class TestSurvivalCurve:
    def test_single_exponential(self):
        s = SurvivalCurve((0.0,), (1.0,))
        assert s.eval(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_two_piece_hand_integration(self):
        # rate 1 on (0,1], rate 2 after: s(1.5) = e^-1 * e^-1
        s = SurvivalCurve((0.0, 1.0), (1.0, 2.0))
        assert s.eval(1.5) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_quantile_boundary(self):
        s = SurvivalCurve((0.5, 1.0), (0.7, 0.2))
        assert s.quantile(1.0) == 0.5

    def test_domain_errors(self):
        s = SurvivalCurve((1.0,), (1.0,))
        with pytest.raises(CurveDomainError):
            s.eval(0.5)
        with pytest.raises(CurveDomainError):
            s.quantile(0.0)
        with pytest.raises(CurveDomainError):
            SurvivalCurve((0.0, 1.0), (1.0, -0.1))

    @given(
        rates=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4),
        u=st.floats(1e-9, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_eval_round_trip(self, rates, u):
        bounds = tuple(0.3 * j for j in range(len(rates)))
        s = SurvivalCurve(bounds, tuple(rates))
        t = s.quantile(u)
        assert s.eval(t) == pytest.approx(u, rel=1e-12)

    @given(t=st.floats(0.01, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_eval_quantile_round_trip(self, t):
        s = SurvivalCurve((0.0, 1.0, 2.0), (0.5, 0.4, 0.3))
        assert s.quantile(s.eval(t)) == pytest.approx(t, rel=1e-12)

    def test_conditional_from(self):
        s = SurvivalCurve((0.0, 1.0), (0.5, 0.25))
        c = s.conditional_from(0.6)
        assert c.eval(0.6) == 1.0
        assert c.eval(1.8) == pytest.approx(s.eval(1.8) / s.eval(0.6), rel=1e-14)

    def test_partial_expectation_against_quadrature(self):
        s = SurvivalCurve((0.0, 1.0, 2.0), (0.5, 0.4, 0.3))
        for a, b in ((0.0, 0.7), (0.5, 1.5), (1.9, 30.0), (0.2, math.inf)):
            hi = min(b, 200.0)
            num, _ = integrate.quad(
                lambda t: t * s.density(t), a, hi, points=[1.0, 2.0], limit=300
            )
            assert s.partial_expectation(a, b) == pytest.approx(num, rel=1e-8, abs=1e-12)

    def test_mass_above_edges(self):
        s = SurvivalCurve((0.0, 1.0), (1.0, 0.5))
        assert s.mass_above(-3.0) == 1.0
        assert s.mass_above(math.inf) == 0.0
        assert s.interval_mass(2.0, 1.0) == 0.0

    @given(
        start=st.floats(-1.0, 1.0),
        widths=st.lists(st.floats(0.05, 2.0), min_size=0, max_size=4),
        picks=st.lists(
            st.one_of(st.floats(-3.0, 12.0), st.integers(-1, 5), st.sampled_from([math.inf, -math.inf])),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_piece_matches_clip_reference(self, start, widths, picks):
        bounds = [start]
        for w in widths:
            bounds.append(bounds[-1] + w)
        s = SurvivalCurve(tuple(bounds), (0.5,) * len(bounds))
        def point(x):
            # An integer picks t below the start (-1), on bound x, or past the last bound.
            if not isinstance(x, int):
                return x
            if x < 0:
                return bounds[0] - 1.0
            return bounds[x] if x < len(bounds) else bounds[-1] + x

        ts = [point(x) for x in picks]

        def reference(t):
            return np.clip(np.searchsorted(np.asarray(s.bounds), t, side="left") - 1, 0, len(s.bounds) - 1)

        for t in ts:
            got = s._piece(t)
            assert type(got) is int and got == int(reference(t))


class TestTrajectoryCohort:
    def test_validation(self):
        with pytest.raises(CurveDomainError):
            Trajectory((0,), (0,), 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(CurveDomainError, match="event_time"):
                Trajectory((0,), (0,), bad)
        with pytest.raises(CohortFormatError):
            Trajectory((0, 1), (0,), 1.0)
        with pytest.raises(CohortFormatError):
            Trajectory((), (), 1.0)

    def test_cohort_checks_visit_count(self):
        grid = TimeGrid((0.0, 1.0))
        with pytest.raises(CohortFormatError):
            Cohort((Trajectory((0,), (0,), 1.5),), grid)  # dies in interval 1, needs 2 visits
        Cohort((Trajectory((0, 1), (0, 1), 1.5),), grid)


class TestRegimes:
    def test_static_baseline(self):
        g = TreatmentRegime.baseline(3)
        assert apply_regime(g, (0, 1, 0)) == (0, 0, 0)

    def test_threshold_rule(self):
        g = TreatmentRegime.threshold(2, level=1)
        assert apply_regime(g, (0, 1)) == (0, 1)

    def test_stopped_prefix(self):
        g = TreatmentRegime.stopped((1, 1), 3)
        assert apply_regime(g, (1, 0, 1)) == (1, 1, 0)

    def test_history_too_long(self):
        g = TreatmentRegime.baseline(2)
        with pytest.raises(GridBoundsError):
            apply_regime(g, (0, 0, 0))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_prefix_consistency(self, lbar):
        g = TreatmentRegime.threshold(4, level=1)
        full = apply_regime(g, tuple(lbar))
        for k in range(1, len(lbar)):
            assert apply_regime(g, tuple(lbar[:k])) == full[:k]

    def test_all_regimes_enumeration(self):
        regimes, sampled = all_regimes((2, 2), (2, 2))
        assert len(regimes) == 64 and not sampled
        regimes, sampled = all_regimes((2, 2), (2, 2), cap=10)
        assert len(regimes) == 10 and sampled


class TestEvaluability:
    def test_full_support_always_evaluable(self, rich_world):
        for g in (
            TreatmentRegime.baseline(2),
            TreatmentRegime.static((1, 1)),
            TreatmentRegime.threshold(2, level=1),
        ):
            assert is_evaluable(g, rich_world)

    def test_baseline_regime_evaluable_under_admissibility(self, null_world):
        assert is_evaluable(TreatmentRegime.baseline(2), null_world)

    def test_structural_zero_blocks_a_regime(self):
        # at visit 1 the dose 1 is impossible once (l, a) = ((1, 1), 1)
        cfg = make_config()
        table = dict(cfg.treatment_law.table)
        table[(1, (1, 1), (1,))] = np.array([1.0, 0.0])
        law = dgp.TreatmentLaw(cfg.treatment_law.levels, table)
        blocked = dgp.DgpConfig(
            cfg.grid, cfg.baseline, cfg.thresholds, cfg.covariate_law, law, cfg.psi0
        )
        world = oracle.enumerate_world(blocked)
        assert not is_evaluable(TreatmentRegime.static((1, 1)), world)
        assert is_evaluable(TreatmentRegime.baseline(2), world)


class _NumpyCurve:
    """The array formulas ``SurvivalCurve`` once evaluated by (``searchsorted``
    pieces, ``cumsum`` hazards), kept as the reference for its scalar methods."""

    def __init__(self, bounds, rates):
        self.bounds, self.rates = bounds, rates
        self.b, self.r = np.asarray(bounds, dtype=float), np.asarray(rates, dtype=float)
        self.cum = np.concatenate([[0.0], np.cumsum(self.r[:-1] * np.diff(self.b))])

    def piece(self, t):
        return np.maximum(np.searchsorted(self.b, t, side="left") - 1, 0)

    def cum_hazard(self, t):
        j = self.piece(t)
        with np.errstate(invalid="ignore"):  # 0 * inf on a flat tail is nan, as in plain floats
            return self.cum[j] + self.r[j] * (np.asarray(t, dtype=float) - self.b[j])

    def eval(self, t):
        return float(np.exp(-self.cum_hazard(t)))

    def mass_above(self, x):
        x = max(float(x), self.bounds[0])
        if math.isinf(x):
            return 0.0 if self.rates[-1] > 0.0 else float(np.exp(-self.cum[-1]))
        return self.eval(x)

    def interval_mass(self, a, b):
        return 0.0 if b <= a else self.mass_above(a) - self.mass_above(b)

    def hazard_at(self, t):
        return self.rates[int(self.piece(t))]

    def log_density(self, t):
        h = self.hazard_at(t)
        return -math.inf if h == 0.0 else math.log(h) - float(self.cum_hazard(t))

    def conditional_from(self, x):
        j = int(self.piece(x)) if x > self.bounds[0] else 0
        keep = tuple(b for b in self.bounds[j + 1 :] if b > x)
        return (x,) + keep, self.rates[len(self.bounds) - len(keep) - 1 :]


def _same(got, want):
    """Equal bit for bit, up to the payload of a NaN."""
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


_pieces = st.lists(st.tuples(st.floats(0.05, 2.0), st.sampled_from([0.0, 0.3]) | st.floats(0.01, 3.0)), max_size=4)


@given(
    start=st.floats(-1.0, 1.0),
    first_rate=st.sampled_from([0.0, 0.5]) | st.floats(0.01, 3.0),
    pieces=_pieces,
    picks=st.lists(st.one_of(st.floats(-3.0, 12.0), st.integers(-1, 5), st.just(math.inf)),
                   min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_scalar_curve_methods_match_the_array_formulas(start, first_rate, pieces, picks):
    bounds, rates = [start], [first_rate]
    for width, rate in pieces:
        bounds.append(bounds[-1] + width)
        rates.append(rate)
    bounds, rates = tuple(bounds), tuple(rates)
    s, ref = SurvivalCurve(bounds, rates), _NumpyCurve(bounds, rates)
    assert s._cumhaz == tuple(ref.cum.tolist())
    # an integer picks t below the start (-1), on bound x, or past the last bound
    ts = [x if not isinstance(x, int) else bounds[0] - 1.0 if x < 0 else bounds[x] if x < len(bounds)
          else bounds[-1] + x for x in picks]
    for t in ts:
        assert _same(s.cum_hazard(t), float(ref.cum_hazard(t)))
        assert _same(s.mass_above(t), ref.mass_above(t))
        for u in ts + [-math.inf, math.inf]:
            assert _same(s.interval_mass(t, u), ref.interval_mass(t, u))
        if t < start:
            with pytest.raises(CurveDomainError):
                s.eval(t)
            continue
        assert _same(s.eval(t), ref.eval(t))
        if math.isfinite(t):
            assert s.conditional_from(t) == SurvivalCurve(*ref.conditional_from(t))
        if t > start:
            assert s.hazard_at(t) == ref.hazard_at(t)
            assert _same(s.log_density(t), ref.log_density(t))


@given(
    widths=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5),
    picks=st.lists(st.one_of(st.floats(1e-9, 20.0), st.integers(1, 5), st.just(math.inf)), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_interval_index_matches_searchsorted(widths, picks):
    taus = [0.0]
    for w in widths:
        taus.append(taus[-1] + w)
    grid = TimeGrid(tuple(taus))
    for x in picks:
        t = taus[min(x, grid.K)] if isinstance(x, int) else x  # an integer picks a visit time
        want = min(int(np.searchsorted(np.asarray(taus), t, side="left")) - 1, grid.K)
        got = grid.interval_index(t)
        assert type(got) is int and got == want
