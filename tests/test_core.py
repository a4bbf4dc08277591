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
    UnsupportedLawError,
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

    def test_mean_against_quadrature(self):
        s = SurvivalCurve((0.0, 1.0, 2.0), (0.5, 0.4, 0.3))
        num, _ = integrate.quad(s.eval, 0.0, 200.0, points=[1.0, 2.0], limit=200)
        assert s.mean() == pytest.approx(num, rel=1e-9)

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
            return np.clip(np.searchsorted(s._b, t, side="left") - 1, 0, len(s.bounds) - 1)

        for t in ts:
            got, want = s._piece(t), reference(t)
            assert got == want and got.dtype == want.dtype and np.ndim(got) == 0
        arr = np.array(ts)
        assert s._piece(arr).tobytes() == reference(arr).tobytes()
        assert s._piece(arr.reshape(-1, 1)).shape == reference(arr.reshape(-1, 1)).shape


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

    def test_law_handle_must_be_exact(self):
        with pytest.raises(UnsupportedLawError):
            is_evaluable(TreatmentRegime.baseline(2), object())
