"""The shared forward walk and categorical draw against the loops they replaced.

Each ``_reference_*`` function below is the per-module settle loop as it
stood before the shared walk existed; the array walk
(``shift.walk_up_array``) behind ``sample_cohort``, ``sample_trajectory``,
``simulate_counterfactual`` and ``blip_up`` must reproduce it bit for bit,
row by row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snftm import cfsim, dgp, mle, rng, shift
from snftm.core import (
    Cohort,
    CurveDomainError,
    InsufficientHistoryError,
    SnftmError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    TreatmentRegime,
    UndefinedCellError,
)
from snftm.rng import categorical
from snftm.shift import ShiftModel, ShiftParams, blip_up, gamma, gamma_deriv, gamma_inv

from conftest import make_config, make_smooth_null_config, table_law_config

PSI = st.tuples(*(st.floats(-1.5, 1.5) for _ in range(3)))
UNIFORM = st.floats(0.0, 1.0, exclude_max=True)
THRESHOLDS = st.sampled_from([(1.5,), (0.4, 1.0, 2.5), (1.0,), ()])
VISITS = st.sampled_from([2, 3, 4])
REGIMES = (
    TreatmentRegime.baseline(4),
    TreatmentRegime.static((1, 1, 1, 1)),
    TreatmentRegime.threshold(4, level=1),
)


def three_visit_config(psi0, thresholds):
    grid = TimeGrid((0.0, 0.7, 1.6))
    baseline = SurvivalCurve((0.0, 1.0, 2.0), (0.6, 0.4, 0.3))
    cov = dgp.CovariateLaw.from_logistic(
        3, len(thresholds) + 1, intercept=-0.2, bin_coef=-0.8, l_prev_coef=0.7, a_prev_coef=-0.4
    )
    trt = dgp.TreatmentLaw.from_logistic(3, intercept=-0.5, l_coef=1.1, a_prev_coef=0.9)
    return dgp.DgpConfig(grid, baseline, thresholds, cov, trt, ShiftParams(psi0))


def world_config(psi, thresholds, visits):
    """The 2- and 3-visit logistic worlds, or a 4-visit table-law world with
    covariate levels (2, 3, 2, 3)."""
    if visits == 4:
        return table_law_config((2, 3, 2, 3), psi0=psi, thresholds=thresholds)
    if visits == 3:
        return three_visit_config(psi, thresholds)
    return make_config(psi0=psi, thresholds=thresholds)


def outcome(f, *args):
    """The value of ``f(*args)``, or the class of the package error it raises."""
    try:
        return f(*args)
    except SnftmError as e:
        return type(e)


def _reference_draw(probs, u):
    acc = 0.0
    for code, p in enumerate(probs):
        acc += p
        if u < acc:
            return code
    return len(probs) - 1


def _reference_assemble(cfg, model, uniforms):
    t0 = cfg.baseline.quantile(1.0 - uniforms[0])
    b = int(np.searchsorted(np.asarray(cfg.thresholds), t0, side="left"))
    lbar, abar, v = (), (), t0
    for k in range(cfg.grid.K + 1):
        lbar += (_reference_draw(cfg.covariate_law.probs(k, b, lbar, abar), uniforms[1 + 2 * k]),)
        abar += (_reference_draw(cfg.treatment_law.probs(k, lbar, abar), uniforms[2 + 2 * k]),)
        v = gamma_inv(model, k, lbar, abar, v)
        if v <= cfg.grid.next_tau(k):
            return Trajectory(lbar, abar, v)
    raise AssertionError("unreachable")


def _reference_one_draw(world, regime, model, uniforms):
    t0 = world.draw_baseline(uniforms[0])
    b = int(np.searchsorted(np.asarray(world.thresholds), t0, side="left"))
    lbar, abar, v = (), (), t0
    for k in range(world.grid.K + 1):
        key = (k, b, lbar, abar)
        probs = world.covariate_laws.get(key)
        if probs is None:
            raise UndefinedCellError(f"no covariate law for cell {key}")
        lbar += (_reference_draw(probs, uniforms[1 + k]),)
        abar += (int(regime.rules[k](lbar)),)
        v = gamma_inv(model, k, lbar, abar, v)
        if v <= world.grid.next_tau(k):
            return v, lbar, abar
    raise AssertionError("unreachable")


def _reference_blip_up(model, t0, lbar, abar):
    v = t0
    for k in range(model.grid.K + 1):
        if k >= len(lbar) or k >= len(abar):
            raise InsufficientHistoryError("histories too short")
        v = gamma_inv(model, k, lbar[: k + 1], abar[: k + 1], v)
        if v <= model.grid.next_tau(k):
            return v
    raise AssertionError("unreachable")


def _reference_log_density(model, traj):
    shift_model = ShiftModel(model.psi, model.grid)
    log_jac, t = 0.0, traj.event_time
    for m in range(len(traj.covariates) - 1, -1, -1):
        lbar, abar = traj.covariates[: m + 1], traj.treatments[: m + 1]
        log_jac += math.log(gamma_deriv(shift_model, m, lbar, abar, t))
        t = gamma(shift_model, m, lbar, abar, t)
    total = log_jac + model.baseline_curve().log_density(t)
    b = int(np.searchsorted(np.asarray(model.bins), t, side="left"))
    for k in range(len(traj.covariates)):
        probs = model.covariate_probs[(k, traj.covariates[:k], traj.treatments[:k], b)]
        total += math.log(probs[traj.covariates[k]])
    return total


def cf_records(world, regime, uniforms):
    """The array walk's draws from ``uniforms``, as ``(t, lbar, abar)`` per row."""
    cohort = Cohort.from_columns(world.grid, *cfsim._walk(world, regime, uniforms))
    return [(s.event_time, s.covariates, s.treatments) for s in cohort]


def cohort_world(cfg, thresholds):
    """An estimated world: empirical baseline and cell-frequency laws, some cells missing."""
    cohort = dgp.sample_cohort(cfg, 150, seed=8)
    return cfsim.FittedWorld.from_cohort(cohort, cfg.psi0, thresholds)


def assert_rows_match(batch, single, want):
    """Every row alone gives its reference outcome; the batch gives all of
    them, or, when some row fails, the error class of a failing row."""
    assert single == want
    errors = {w for w in want if isinstance(w, type)}
    if errors:
        assert batch in errors
    else:
        assert batch == want


ROWS = st.lists(st.lists(UNIFORM, min_size=9, max_size=9), min_size=1, max_size=6)


def test_named_streams_are_pinned():
    """Each stream's first draws: re-keying a stream would change every seeded output."""
    pinned = {
        "dgp": ([0.9327447774356386, 0.9819384132334424], [3092920692, 2981661364]),
        "cfsim": ([0.9598568538402509, 0.2255754150368524], [3673030255, 1431457544]),
        "mcgcomp": ([0.5544439924880616, 0.6652415546238942], [98451207, 3550851598]),
    }
    for name, (uniforms, words) in pinned.items():
        assert rng.stream(rng.DEFAULT_SEED, name).random(2).tolist() == uniforms
        assert rng.stream(5, name).integers(0, 2**32, 2).tolist() == words


class TestCategorical:
    def test_matches_reference_draw(self):
        probs = np.array([0.2, 0.5, 0.3])
        for u in np.linspace(0.0, 1.0, 101, endpoint=False):
            assert categorical(probs, u) == _reference_draw(probs, u)

    def test_fallback_skips_trailing_zero_probability_code(self):
        probs = [0.20381898702851367, 0.7463113329614236, 0.049869680010062596, 0.0]
        assert sum(probs) == 0.9999999999999999
        dgp.CovariateLaw((4,), {(0, 0, (), ()): probs})  # the validator accepts it
        u = np.nextafter(1.0, 0.0)
        assert _reference_draw(probs, u) == 3
        assert categorical(probs, u) == 2
        assert categorical(np.asarray(probs), u) == 2

    def test_rows_match_scalar_draws(self):
        trailing = [0.20381898702851367, 0.7463113329614236, 0.049869680010062596, 0.0]
        probs = np.array([[0.2, 0.5, 0.3, 0.0], trailing, [0.0, 0.0, 1.0, 0.0], trailing, [0.0] * 4])
        for u in [*np.linspace(0.0, 1.0, 41, endpoint=False), np.nextafter(1.0, 0.0)]:
            codes = categorical(probs, np.full(len(probs), u))
            assert codes.tolist() == [categorical(row, u) for row in probs]
        codes = categorical(probs, np.array([0.1, np.nextafter(1.0, 0.0), 0.5, 0.95, 0.3]))
        assert codes.tolist() == [0, 2, 2, 1, 3]


@given(psi=PSI, thresholds=THRESHOLDS, visits=VISITS, rows=ROWS, zero_row=st.booleans())
@settings(max_examples=300, deadline=None)
def test_assemble_matches_reference_loop(psi, thresholds, visits, rows, zero_row):
    cfg = world_config(psi, thresholds, visits)
    u = np.array(rows)[:, : cfg.draws_per_subject]
    if zero_row:
        u[0, 0] = 0.0  # t0 = 0: the first shift map is undefined
    model = cfg.shift_model()
    want = [outcome(_reference_assemble, cfg, model, row) for row in u]

    def records(uniforms):
        return list(Cohort.from_columns(cfg.grid, *dgp._walk(cfg, uniforms)))

    single = [outcome(lambda: records(row[None])[0]) for row in u]
    assert_rows_match(outcome(records, u), single, want)


@given(
    psi=PSI,
    thresholds=THRESHOLDS,
    visits=VISITS,
    regime=st.integers(0, len(REGIMES) - 1),
    estimated=st.booleans(),
    rows=ROWS,
    zero_row=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_draw_matches_reference_loop(psi, thresholds, visits, regime, estimated, rows, zero_row):
    cfg = world_config(psi, thresholds, visits)
    world = cohort_world(cfg, thresholds) if estimated else cfsim.FittedWorld.from_dgp_config(cfg)
    u = np.array(rows)[:, : world.grid.K + 2]
    if zero_row:
        u[0, 0] = 0.0
    model, g = ShiftModel(world.psi, world.grid), REGIMES[regime]
    want = [outcome(_reference_one_draw, world, g, model, row) for row in u]
    single = [outcome(lambda: cf_records(world, g, row[None])[0]) for row in u]
    assert_rows_match(outcome(cf_records, world, g, u), single, want)


def test_one_draw_keeps_the_undefined_cell_message(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    sparse = cfsim.FittedWorld(
        world.grid, world.psi, world.thresholds, world.baseline,
        {key: v for key, v in world.covariate_laws.items() if key[0] == 0},
    )
    regime = TreatmentRegime.static((0, 0))
    with pytest.raises(UndefinedCellError, match="no data for this regime-consistent history"):
        cfsim.simulate_counterfactual(sparse, regime, 50, seed=1)


@given(psi=PSI, thresholds=THRESHOLDS, visits=VISITS, seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_sample_cohort_matches_reference_on_its_stream(psi, thresholds, visits, seed):
    cfg = world_config(psi, thresholds, visits)
    uniforms = rng.stream(seed, "dgp").random((40, cfg.draws_per_subject))
    model = cfg.shift_model()
    want = [_reference_assemble(cfg, model, row) for row in uniforms]
    assert list(dgp.sample_cohort(cfg, 40, seed=seed)) == want


@given(
    psi=PSI,
    thresholds=THRESHOLDS,
    visits=VISITS,
    regime=st.integers(0, len(REGIMES) - 1),
    estimated=st.booleans(),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_simulate_counterfactual_matches_reference_on_its_stream(psi, thresholds, visits, regime, estimated, seed):
    cfg = world_config(psi, thresholds, visits)
    world = cohort_world(cfg, thresholds) if estimated else cfsim.FittedWorld.from_dgp_config(cfg)
    model, g = ShiftModel(world.psi, world.grid), REGIMES[regime]
    uniforms = rng.stream(seed, "cfsim").random((40, world.grid.K + 2))
    want = [outcome(_reference_one_draw, world, g, model, row) for row in uniforms]
    got = outcome(lambda: cfsim.simulate_counterfactual(world, g, 40, seed=seed).event_times.tolist())
    errors = {w for w in want if isinstance(w, type)}
    assert got in errors if errors else got == [w[0] for w in want]


def test_laws_of_unequal_length_draw_like_the_scalar_walk(rich_config):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    laws = {key: np.append(v, [0.0] * (key[0] + key[1])) for key, v in world.covariate_laws.items()}
    ragged = cfsim.FittedWorld(world.grid, world.psi, world.thresholds, world.baseline, laws)
    uniforms = rng.stream(4, "cfsim").random((300, world.grid.K + 2))
    model = ShiftModel(world.psi, world.grid)
    want = [_reference_one_draw(ragged, REGIMES[2], model, row)[0] for row in uniforms]
    assert cfsim.simulate_counterfactual(ragged, REGIMES[2], 300, seed=4).event_times.tolist() == want


def test_chunks_do_not_change_the_draws(rich_config, monkeypatch):
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    cohort = dgp.sample_cohort(rich_config, 100, seed=6)
    times = cfsim.simulate_counterfactual(world, REGIMES[2], 100, seed=6).event_times
    monkeypatch.setattr(shift, "CHUNK", 7)
    assert dgp.sample_cohort(rich_config, 100, seed=6) == cohort
    assert cfsim.simulate_counterfactual(world, REGIMES[2], 100, seed=6).event_times.tobytes() == times.tobytes()


@pytest.mark.parametrize("estimated", [False, True])
def test_zero_baseline_time_still_fails_in_the_array_walks(rich_config, estimated):
    u = np.array([[0.3, 0.5, 0.5, 0.5, 0.5], [0.0, 0.5, 0.5, 0.5, 0.5]])
    with pytest.raises(CurveDomainError, match="needs t > 0.0, got 0.0"):
        dgp._walk(rich_config, u)
    world = cfsim.FittedWorld.from_dgp_config(rich_config)
    if estimated:  # an empirical baseline whose smallest time is 0
        world = cfsim.FittedWorld(world.grid, world.psi, world.thresholds,
                                  np.array([0.0, 0.4, 1.3]), world.covariate_laws)
    with pytest.raises(CurveDomainError, match="needs t > 0.0, got 0.0"):
        cfsim._walk(world, REGIMES[1], u[:, :3])


@given(
    rates=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 4.0)), min_size=1, max_size=4),
    levels=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5), st.integers(0, 3)), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_quantile_array_matches_scalar_calls(rates, levels):
    curve = SurvivalCurve(tuple(0.3 * j for j in range(len(rates))), tuple(rates))
    # An integer stands for the survival at that breakpoint: a zero-rate
    # piece is flat there, the scalar loop's special case.
    u = np.array([curve.eval(curve.bounds[min(x, len(rates) - 1)]) if isinstance(x, int) else x for x in levels])
    want = [outcome(curve.quantile, float(x)) for x in u]
    if any(isinstance(w, type) for w in want):
        with pytest.raises(CurveDomainError):
            curve.quantile(u)
    else:
        assert curve.quantile(u).tobytes() == np.array(want, dtype=float).tobytes()
        assert curve.quantile(u.reshape(-1, 1)).ravel().tobytes() == np.array(want, dtype=float).tobytes()


@given(
    psi=PSI,
    t0=st.floats(0.01, 8.0),
    lbar=st.lists(st.integers(0, 1), min_size=0, max_size=3),
    abar=st.lists(st.integers(0, 2), min_size=0, max_size=3),
)
@settings(max_examples=400, deadline=None)
def test_blip_up_matches_reference_loop(psi, t0, lbar, abar):
    model = ShiftModel(ShiftParams(psi), TimeGrid((0.0, 1.0, 2.0)))
    assert outcome(blip_up, model, t0, lbar, abar) == outcome(
        _reference_blip_up, model, t0, tuple(lbar), tuple(abar)
    )


@given(psi=PSI, seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_log_density_matches_reference_loop(psi, seed):
    cfg = make_config()
    cohort = dgp.sample_cohort(cfg, 60, seed=seed)
    template = mle.ParametricModel.template(cfg.grid, (0.0, 1.0, 2.0), cfg.thresholds)
    model = mle.profile_at(cohort, template, np.asarray(psi)).model
    for traj in cohort:
        assert mle.log_density(model, traj) == _reference_log_density(model, traj)


@given(t0=st.one_of(st.floats(-1.0, 4.0), st.sampled_from([0.4, 1.0, 1.5, 2.5])))
@settings(max_examples=200, deadline=None)
def test_bin_index_matches_searchsorted_left(t0):
    for thresholds in ((1.5,), (0.4, 1.0, 2.5), ()):
        want = int(np.searchsorted(np.asarray(thresholds), t0, side="left"))
        cfg = make_config(thresholds=thresholds)
        model = mle.ParametricModel.template(cfg.grid, (0.0,), thresholds)
        assert cfg.bin_index(t0) == model.bin_index(t0) == want


def test_bin_index_on_a_threshold_goes_left():
    cfg = make_config(thresholds=(0.4, 1.0, 2.5))
    assert [cfg.bin_index(t) for t in (0.4, 1.0, 2.5, np.float64(1.0))] == [0, 1, 2, 1]


def test_fit_and_test_null_build_profile_tables_twice(monkeypatch):
    cfg = make_smooth_null_config()
    cohort = dgp.sample_cohort(cfg, 1000, seed=2)
    template = mle.ParametricModel.template(cfg.grid, (0.0, 1.0, 2.0), (1.5,))
    builds = []
    original = mle._ProfileTables.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(mle._ProfileTables, "__init__", counting)
    fitted = mle.fit(cohort, template)
    report = mle.test_null(cohort, fitted)
    assert len(builds) == 2

    restricted = mle.profile_at(cohort, fitted.model, np.zeros(3))
    assert report == mle.test_null(cohort, fitted, restricted=restricted)
