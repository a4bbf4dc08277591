import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snftm import dgp
from snftm.core import (
    CohortFormatError,
    CurveDomainError,
    InsufficientHistoryError,
    TimeGrid,
    Trajectory,
)
from snftm.shift import (
    BlipTable,
    ShiftModel,
    ShiftParams,
    blip_down,
    blip_up,
    gamma,
    gamma_deriv,
    gamma_inv,
)

from conftest import make_config

GRID = TimeGrid((0.0, 1.0, 2.0))
HALF = ShiftModel(ShiftParams((math.log(0.5), 0.0, 0.0)), GRID)


def test_printed_figure_values():
    # scale 0.5 between visit times 1 and 2
    lbar, abar = (0, 0), (0, 1)
    assert gamma(HALF, 1, lbar, abar, 1.5) == 1.25
    assert gamma(HALF, 1, lbar, abar, 3.0) == 2.5
    assert gamma_inv(HALF, 1, lbar, abar, 1.25) == 1.5
    assert gamma_deriv(HALF, 1, lbar, abar, 1.5) == 0.5
    assert gamma_deriv(HALF, 1, lbar, abar, 3.0) == 1.0


def test_identity_at_zero_params():
    model = ShiftModel(ShiftParams.zero(), GRID)
    for t in (0.3, 1.0, 1.5, 7.7):
        assert gamma(model, 0, (1,), (1,), t) == t


def test_baseline_dose_is_null():
    model = ShiftModel(ShiftParams((2.0, -1.0, 0.5)), GRID)
    for t in (1.2, 5.0):
        assert gamma(model, 1, (1, 1), (1, 0), t) == t


def test_deriv_right_continuous_at_breakpoint():
    lbar, abar = (0, 0), (0, 1)
    assert gamma_deriv(HALF, 1, lbar, abar, 2.0) == 1.0
    assert gamma_deriv(HALF, 1, lbar, abar, 2.0 - 1e-9) == 0.5


def test_domain_errors():
    with pytest.raises(CurveDomainError):
        gamma(HALF, 1, (0, 0), (0, 1), 1.0)
    with pytest.raises(CurveDomainError):
        gamma_inv(HALF, 1, (0, 0), (0, 1), 0.99)


@given(
    psi=st.tuples(*(st.floats(-1.2, 1.2) for _ in range(3))),
    k=st.integers(0, 2),
    a_k=st.integers(0, 1),
    a_prev=st.integers(0, 1),
    l_k=st.integers(0, 1),
    t_off=st.floats(1e-6, 6.0),
)
@settings(max_examples=300, deadline=None)
def test_gamma_inverse_round_trip(psi, k, a_k, a_prev, l_k, t_off):
    model = ShiftModel(ShiftParams(psi), GRID)
    lbar = (0,) * k + (l_k,)
    abar = (a_prev,) * k + (a_k,)
    t = GRID.tau(k) + t_off
    forward = gamma(model, k, lbar, abar, t)
    assert forward > GRID.tau(k)
    assert gamma_inv(model, k, lbar, abar, forward) == pytest.approx(t, rel=1e-14)


@given(
    t1=st.floats(0.01, 5.0),
    t2=st.floats(0.01, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_gamma_strictly_increasing(t1, t2):
    model = ShiftModel(ShiftParams((0.8, -0.3, 0.4)), GRID)
    lo, hi = sorted((t1, t2))
    if lo == hi:
        return
    assert gamma(model, 0, (1,), (1,), lo) < gamma(model, 0, (1,), (1,), hi)


class TestBlipDown:
    def test_identity_params_leave_time_alone(self):
        model = ShiftModel(ShiftParams.zero(), GRID)
        traj = Trajectory((1, 0), (1, 1), 1.7)
        assert blip_down(model, traj) == 1.7

    def test_single_interval_hand_value(self):
        # death in the first interval under dose 1 with scale 0.5
        grid = TimeGrid((0.0, 1.0))
        model = ShiftModel(ShiftParams((math.log(0.5), 0.0, 0.0)), grid)
        traj = Trajectory((0,), (1,), 0.5)
        assert blip_down(model, traj) == 0.25

    def test_empty_composition_past_death(self):
        model = ShiftModel(ShiftParams((1.0, 1.0, 1.0)), GRID)
        traj = Trajectory((1,), (1,), 0.8)  # dies in interval 0
        assert blip_down(model, traj, upto=1) == 0.8
        assert blip_down(model, traj, upto=2) == 0.8


class TestBlipUp:
    def test_identity(self):
        model = ShiftModel(ShiftParams.zero(), GRID)
        assert blip_up(model, 0.37, (0, 0, 0), (1, 1, 1)) == 0.37

    def test_inverts_hand_example(self):
        grid = TimeGrid((0.0, 1.0))
        model = ShiftModel(ShiftParams((math.log(0.5), 0.0, 0.0)), grid)
        assert blip_up(model, 0.25, (0,), (1,)) == 0.5

    def test_needs_positive_start(self):
        with pytest.raises(CurveDomainError):
            blip_up(HALF, 0.0, (0,), (0,))

    def test_insufficient_history(self):
        model = ShiftModel(ShiftParams((2.0, 0.0, 0.0)), GRID)
        with pytest.raises(InsufficientHistoryError):
            blip_up(model, 5.0, (0,), (0,))  # needs visits past 0

    def test_integral_float_codes(self):
        model = ShiftModel(ShiftParams((0.3, 0.1, 0.2)), TimeGrid((0.0, 1.0)))
        assert blip_up(model, 0.5, (1.0,), (1.0,)) == blip_up(model, 0.5, (1,), (1,)) == 0.3032653298563167

    @pytest.mark.parametrize("lbar, abar, bad", [((0, 1.5), (0, 1), "1.5"), ((0, 0), (0, -1), "-1")])
    def test_codes_are_non_negative_integers(self, lbar, abar, bad):
        model = ShiftModel(ShiftParams((0.0, 0.0, 0.0)), GRID)
        with pytest.raises(CohortFormatError, match=f"visit 1 .* got {bad}$"):
            blip_up(model, 1.5, lbar, abar)

    @given(
        psi=st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))),
        t0=st.floats(0.01, 8.0),
        lbar=st.tuples(*(st.integers(0, 1) for _ in range(3))),
        abar=st.tuples(*(st.integers(0, 1) for _ in range(3))),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_through_observed_time(self, psi, t0, lbar, abar):
        model = ShiftModel(ShiftParams(psi), GRID)
        t = blip_up(model, t0, lbar, abar)
        p = GRID.interval_index(t)
        traj = Trajectory(lbar[: p + 1], abar[: p + 1], t)
        assert blip_down(model, traj) == pytest.approx(t0, rel=1e-12)


def test_blip_table_matches_scalar_path():
    cfg = make_config()
    cohort = dgp.sample_cohort(cfg, 500, seed=7)
    table = BlipTable.from_cohort(cohort)
    for psi in ((0.0, 0.0, 0.0), (0.4, -0.2, 0.1), (math.log(0.5), 0.2, -0.25)):
        model = ShiftModel(ShiftParams(psi), cfg.grid)
        fast = table.t0(np.asarray(psi))
        slow = np.array([blip_down(model, traj) for traj in cohort])
        np.testing.assert_allclose(fast, slow, rtol=1e-13)
        scale_logs = table.log_jacobian(np.asarray(psi))
        want = [
            math.log(
                gamma_deriv(
                    model,
                    traj.n_visits - 1,
                    traj.covariates,
                    traj.treatments,
                    traj.event_time - 1e-12,
                )
            )
            for traj in cohort
        ]
        np.testing.assert_allclose(scale_logs, want, rtol=1e-10, atol=1e-12)
