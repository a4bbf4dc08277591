import math

import numpy as np
import pytest

from snftm import cfsim, dgp
from snftm.core import Cohort, GridBoundsError, TreatmentRegime, UndefinedCellError
from snftm.shift import ShiftModel, ShiftParams, blip_down

NEVER = TreatmentRegime.baseline(2)
THRESHOLD = TreatmentRegime.threshold(2, level=1)


def test_exact_world_baseline_regime_matches_baseline_curve(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    res = cfsim.simulate_counterfactual(world, NEVER, 20_000, seed=3)
    times = np.sort(res.event_times)
    n = len(times)
    grid_u = np.array([rich_config.baseline.eval(t) for t in times])
    empirical_above = 1.0 - np.arange(1, n + 1) / n
    ks = np.max(np.abs(grid_u - empirical_above))
    assert ks < 1.36 / math.sqrt(n)


def test_exact_world_matches_oracle_curve(rich_config, rich_world):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    res = cfsim.simulate_counterfactual(world, THRESHOLD, 50_000, seed=5)
    for t, est, se in zip(res.t_grid, res.survival, res.stderr):
        want = rich_world.counterfactual_survival(THRESHOLD, float(t))
        assert abs(est - want) < 3.0 * se + 1e-12


def test_regime_mean_ordering_matches_oracle(rich_config, rich_world):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    regimes = (NEVER, THRESHOLD, TreatmentRegime.static((1, 1)))
    sims = [cfsim.simulate_counterfactual(world, g, 50_000, seed=9).mean for g in regimes]
    exact = [rich_world.counterfactual_mean(g) for g in regimes]
    assert np.argsort(sims).tolist() == np.argsort(exact).tolist()


def test_blip_consistency_round_trip(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    model = ShiftModel(world.psi, world.grid)
    uniforms = np.column_stack([np.linspace(0.02, 0.98, 7), np.tile([0.3, 0.7], (7, 1))])
    draws = Cohort.from_columns(world.grid, *cfsim._walk(world, THRESHOLD, uniforms))
    for u0, traj in zip(uniforms[:, 0], draws):
        t0 = world.draw_baseline(u0)
        assert blip_down(model, traj) == pytest.approx(t0, rel=1e-13)


def test_null_params_never_alter_the_draw(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config, psi=ShiftParams.zero())
    res = cfsim.simulate_counterfactual(world, THRESHOLD, 500, seed=12)
    draws = np.array([
        world.draw_baseline(u)
        for u in __import__("snftm.rng", fromlist=["stream"]).stream(12, "cfsim").random((500, 3))[:, 0]
    ])
    np.testing.assert_allclose(np.sort(res.event_times), np.sort(draws), rtol=1e-14)


def test_seed_determinism(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    a = cfsim.simulate_counterfactual(world, THRESHOLD, 300, seed=7)
    b = cfsim.simulate_counterfactual(world, THRESHOLD, 300, seed=7)
    np.testing.assert_array_equal(a.event_times, b.event_times)


def test_regime_with_too_few_visits_is_a_grid_error(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    with pytest.raises(GridBoundsError, match="world of 2 visits exceeds the regime's 1 visits"):
        cfsim.simulate_counterfactual(world, TreatmentRegime.static((1,)), 100, seed=1)


def test_missing_cell_error_names_cell(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    trimmed = cfsim.FittedWorld(
        grid=world.grid,
        psi=world.psi,
        thresholds=world.thresholds,
        baseline=world.baseline,
        covariate_laws={k: v for k, v in world.covariate_laws.items() if k[0] == 0},
    )
    with pytest.raises(UndefinedCellError, match=r"\(1,"):
        cfsim.simulate_counterfactual(trimmed, THRESHOLD, 50, seed=1)


def test_estimated_world_approximates_oracle(rich_config, rich_world):
    cohort = dgp.sample_cohort(rich_config, 60_000, seed=77)
    world = cfsim.FittedWorld.from_cohort(cohort, rich_config.psi0, rich_config.thresholds)
    res = cfsim.simulate_counterfactual(world, THRESHOLD, 40_000, seed=21)
    for t, est, se in zip(res.t_grid, res.survival, res.stderr):
        want = rich_world.counterfactual_survival(THRESHOLD, float(t))
        # estimation noise on top of simulation noise: generous but honest band
        assert abs(est - want) < 5.0 * se + 0.01
