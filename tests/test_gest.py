import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from snftm import dgp, gest
from snftm.core import (
    BracketError,
    Cohort,
    ConvergenceError,
    NonIdentifiableError,
    SeparationError,
    SnftmError,
    TimeGrid,
    Trajectory,
    WeakIdentificationError,
)
from snftm.shift import ShiftParams

from conftest import make_config

SPEC = gest.TreatmentModelSpec()


def test_coin_flip_treatment_has_null_augmentation():
    cfg = make_config()
    coin = dgp.TreatmentLaw.from_logistic(2, intercept=0.0)  # fair coin, history-free
    cfg = dgp.DgpConfig(
        cfg.grid, cfg.baseline, cfg.thresholds, cfg.covariate_law, coin, ShiftParams.zero()
    )
    cohort = dgp.sample_cohort(cfg, 5000, seed=6)
    fit = gest.fit_treatment_model(cohort, SPEC, None)
    assert abs(fit.alpha[0]) < 3.0 * fit.alpha_se[0]


def test_theta_recovery_and_alpha_zero_at_truth():
    cfg = make_config(psi0=(0.7, 0.0, 0.0))
    cohort = dgp.sample_cohort(cfg, 20_000, seed=17)
    fit = gest.fit_treatment_model(cohort, SPEC, (0.7, 0.0, 0.0))
    truth = np.array([-0.8, 1.4, 0.6])
    se_theta = np.sqrt(np.diag(fit.cov)[:3])
    assert np.all(np.abs(fit.theta - truth) < 3.0 * se_theta)
    assert abs(fit.alpha[0]) < 3.0 * fit.alpha_se[0]
    assert fit.score_norm < 1e-10


def test_wrong_candidate_is_rejected():
    cfg = make_config(psi0=(0.7, 0.0, 0.0))
    cohort = dgp.sample_cohort(cfg, 20_000, seed=23)
    fit = gest.fit_treatment_model(cohort, SPEC, (-0.5, 0.0, 0.0))
    assert abs(fit.alpha[0]) / fit.alpha_se[0] > 2.0


def test_null_test_never_touches_shift_maps(monkeypatch):
    cfg = make_config(psi0=(0.0, 0.0, 0.0))
    cohort = dgp.sample_cohort(cfg, 1500, seed=4)

    def boom(*a, **k):
        raise AssertionError("shift machinery must stay untouched for the identity candidate")

    monkeypatch.setattr(gest.BlipTable, "from_cohort", boom)
    report = gest.g_test(cohort, SPEC, None)  # must not raise
    assert 0.0 <= report.score_p <= 1.0
    with pytest.raises(AssertionError):
        gest.g_test(cohort, SPEC, (0.2, 0.0, 0.0))


def test_null_test_interns_no_histories():
    cohort = dgp.sample_cohort(make_config(), 1500, seed=4)
    gest.g_test(cohort, SPEC)
    assert "index" not in vars(cohort)


def test_multivalued_treatment_out_of_scope():
    grid = TimeGrid((0.0, 1.0))
    cohort = Cohort((Trajectory((0,), (2,), 0.5), Trajectory((1,), (0,), 0.4)), grid)
    with pytest.raises(SnftmError, match="binary"):
        gest.fit_treatment_model(cohort, SPEC, None)


def test_separation_reported():
    # dose always equals the current covariate: perfect separation on l
    grid = TimeGrid((0.0, 1.0))
    rows = []
    for i in range(40):
        l0, l1 = i % 2, (i // 2) % 2
        rows.append(Trajectory((l0,), (l0,), 0.3 + 0.01 * (i % 7)))
        rows.append(Trajectory((l0, l1), (l0, l1), 1.2 + 0.01 * (i % 9)))
    with pytest.raises(SeparationError):
        gest.fit_treatment_model(Cohort(tuple(rows), grid), SPEC, None)


def test_rank_deficiency_detected():
    cfg = make_config()
    cohort = dgp.sample_cohort(cfg, 400, seed=2)
    dup = gest.TreatmentModelSpec(f_terms=("intercept", "l", "l"))
    with pytest.raises(NonIdentifiableError):
        gest.fit_treatment_model(cohort, dup, None)


def test_collinear_augmentation_is_non_identifiable():
    # a clip to [0, 1e-300] makes the augmentation column a constant, collinear
    # with the intercept; the score test's solve must not be reached
    cohort = dgp.sample_cohort(make_config(), 2000, seed=5)
    spec = gest.TreatmentModelSpec(g=gest.GFeature(clip=(0.0, 1e-300)))
    with pytest.raises(NonIdentifiableError, match="rank deficient"):
        gest.g_test(cohort, spec, (0.3, 0.0, 0.0))


def test_over_identified_spec_fails_the_same_way_everywhere():
    cohort = dgp.sample_cohort(make_config(), 400, seed=3)
    spec = gest.TreatmentModelSpec(g=gest.GFeature(powers=2))  # 2 columns, 1 free component
    with pytest.raises(SnftmError) as by_estimate:
        gest.estimate_psi(cohort, spec, [(-1.0, 1.0)])
    with pytest.raises(SnftmError) as by_sandwich:
        gest.sandwich_variance(cohort, spec, (0.0, 0.0, 0.0))
    assert str(by_estimate.value) == str(by_sandwich.value) == (
        "just-identification requires as many augmentation columns as free components (2 != 1)"
    )


@pytest.mark.parametrize("box", [
    [(0.5, -1.5)], [(math.nan, 0.5)], [(0.5, 0.5)], [(-math.inf, 0.5)], [(-1.5, math.inf)], [(-1.5, 0.5), (0.0, 1.0)],
])
def test_search_box_is_checked(box):
    """A box that is not one finite interval lo < hi per free component is an
    error naming the box, with or without a confidence set: a reversed box
    would give an empty confidence set, and a NaN end is not a pitch error."""
    cohort = dgp.sample_cohort(make_config(), 400, seed=3)
    for compute_ci in (True, False):
        with pytest.raises(SnftmError, match=re.escape(f"search box {box}: need 1 interval(s)")):
            gest.estimate_psi(cohort, SPEC, box, compute_ci=compute_ci)


_EXTREMES = [0.0, 1e-300, -1e-300, 20.0, -20.0, 36.7, -36.7, 709.0, -709.0, 800.0, -800.0]


def test_log1pexp_matches_logaddexp():
    x = np.array(_EXTREMES + [math.inf, -math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = gest._log1pexp(x)
    want = np.logaddexp(0.0, x)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= 2.0 * np.spacing(np.abs(want[finite])))


def test_expit_is_scipys_formula_on_numpys_exp():
    """``_expit`` and ``special.expit`` both compute ``1 / (1 + exp(-x))``; they
    differ only in ``exp``, numpy's against libm's, which are within 1 ulp.
    Rounding ``1 + exp(-x)`` can double that gap: the largest seen is 2.2 eps
    relative, near x = -36.8, where ``exp(-x)`` is close to 2**53."""
    x = np.concatenate([np.linspace(-709.0, 800.0, 150_001), _EXTREMES[:-1]])
    libm_exp = np.array([math.exp(-v) for v in x])
    assert np.all(np.abs(np.exp(-x) - libm_exp) <= np.spacing(libm_exp))
    np.testing.assert_array_equal(special.expit(x), 1.0 / (1.0 + libm_exp))
    got, want = gest._expit(x), special.expit(x)
    np.testing.assert_array_equal(got, 1.0 / (1.0 + np.exp(-x)))
    assert np.all(np.abs(got - want) <= 3.0 * np.finfo(float).eps * want)


def test_expit_extremes_raise_no_warning():
    x = np.array([1000.0, -1000.0, math.inf, -math.inf, math.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = gest._expit(x)
    np.testing.assert_array_equal(got, [1.0, 0.0, 1.0, 0.0, math.nan])


def _reference_rank_margin(F, G):
    """The smallest singular value of the standardized ``[F | G]`` over
    ``np.linalg.matrix_rank``'s threshold, from the full n-row SVD."""
    X = np.column_stack([F, G])
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    s = np.linalg.svd(X / scale, compute_uv=False)
    return s.min() / (s.max() * max(X.shape) * np.finfo(float).eps)


def _random_history(rng, n, d_f):
    """Full-rank history block: an intercept and normal columns on scales 1e-3 .. 1e3."""
    cols = rng.normal(size=(n, d_f - 1)) * 10.0 ** rng.uniform(-3.0, 3.0, size=d_f - 1)
    return np.column_stack([np.ones(n), cols])


@given(
    n=st.integers(50, 400),
    d_f=st.integers(2, 4),
    case=st.sampled_from(["random", "combination", "constant", "perturbed"]),
    perturbation=st.sampled_from([1e-3, 1e-6, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cheap_rank_check_matches_matrix_rank(n, d_f, case, perturbation, seed):
    rng = np.random.default_rng(seed)
    F = _random_history(rng, n, d_f)
    coef = rng.normal(size=d_f)
    G = {
        "random": lambda: rng.normal(size=n),
        "combination": lambda: F @ coef,
        "constant": lambda: np.full(n, rng.normal()),
        "perturbed": lambda: (F @ coef) * (1.0 + perturbation * rng.normal(size=n)),
    }[case]()[:, None]
    margin = _reference_rank_margin(F, G)
    # Within a factor of 1e3 of the threshold the two decisions may differ by
    # rounding alone, so those cases are excluded.  Exact combinations mostly
    # land there (the SVD's own rounding puts them at 1e-3..1e-2 of the
    # threshold); test_cheap_rank_check_rejects_exact_combinations covers them.
    assume(not 1e-3 < margin < 1e3)
    history = gest._HistoryBlock.of(F)
    if margin > 1.0:
        Gs, g_scale = history.augment(G)
        X = np.column_stack([F, G])
        scale = np.concatenate([history.scale, g_scale])
        assert np.array_equal(np.column_stack([history.Fs, Gs]), X / scale)
    else:
        with pytest.raises(NonIdentifiableError):
            history.augment(G)


@pytest.mark.parametrize("seed", range(6))
def test_cheap_rank_check_rejects_exact_combinations(seed):
    rng = np.random.default_rng(seed)
    n, d_f = 50 + 70 * seed, 2 + seed % 3
    F = _random_history(rng, n, d_f)
    history = gest._HistoryBlock.of(F)
    for G in (F @ rng.normal(size=d_f), F[:, -1].copy(), 3.0 * F[:, 1], np.full(n, 2.5)):
        G = G[:, None]
        assert _reference_rank_margin(F, G) < 1.0
        with pytest.raises(NonIdentifiableError):
            history.augment(G)


class TestEstimate:
    def test_root_recovers_truth(self):
        cfg = make_config(psi0=(0.7, 0.0, 0.0))
        cohort = dgp.sample_cohort(cfg, 20_000, seed=17)
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], compute_ci=False)
        assert abs(est.active[0] - 0.7) < 3.0 * est.se[0]
        assert abs(est.h_residual[0]) < 1e-6
        assert not est.multiple_roots

    def test_null_data_ci_covers_zero(self):
        cfg = make_config(psi0=(0.0, 0.0, 0.0))
        cohort = dgp.sample_cohort(cfg, 6000, seed=29)
        est = gest.estimate_psi(cohort, SPEC, [(-0.6, 0.6)], grid_pitch=0.05)
        lo, hi = est.ci_interval()
        assert lo <= 0.0 <= hi
        assert abs(est.active[0]) < 3.0 * est.se[0]

    def test_missing_bracket_raises(self):
        cfg = make_config(psi0=(0.7, 0.0, 0.0))
        cohort = dgp.sample_cohort(cfg, 4000, seed=3)
        with pytest.raises(BracketError):
            gest.estimate_psi(cohort, SPEC, [(-3.0, -1.5)], compute_ci=False)

    # the best grid start of seed 45 has a component of 2.2e-16, where a root
    # search with its own relative finite-difference step stalls
    @pytest.mark.parametrize("seed", [41, 45])
    def test_vector_estimation_two_components(self, seed):
        cfg = make_config(psi0=(0.6, 0.0, -0.5))
        cohort = dgp.sample_cohort(cfg, 30_000, seed=seed)
        spec = gest.TreatmentModelSpec(
            g=gest.GFeature(knots=(1.2,)), components=(0, 2)
        )
        est = gest.estimate_psi(cohort, spec, [(-0.2, 1.2), (-1.2, 0.4)], compute_ci=False)
        data = gest._GestData(cohort, spec)
        resid = gest._fit_augmented(data, spec.embed(est.active)).alpha
        assert float(np.linalg.norm(resid)) < 1e-6
        assert float(np.max(np.abs(gest._mean_score(data, est.active)))) <= 1e-12
        assert np.all(np.abs(est.active - np.array([0.6, -0.5])) < 4.0 * est.se)


    def test_primary_root_has_smallest_score(self, monkeypatch):
        """Of several roots, the primary one is where ``|score|`` is smallest: here
        a jump near 0.3, where Brent's method stops at ``|score| = 1e-3``, and a
        linear crossing at 1.0."""
        cohort = dgp.sample_cohort(make_config(psi0=(0.7, 0.0, 0.0)), 500, seed=3)

        def two_roots(_data, active):
            x = float(np.asarray(active)[0])
            return np.array([1e-3 if x < 0.3 else -1e-3 if x < 0.9 else x - 1.0])

        monkeypatch.setattr(gest, "_mean_score", two_roots)
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.4)], compute_ci=False)
        assert est.multiple_roots and len(est.roots) == 2
        assert abs(est.roots[0][0] - 0.3) < 1e-9
        assert est.active[0] == est.roots[1][0] == pytest.approx(1.0, abs=1e-9)

    def test_stalled_vector_search_raises(self):
        cohort = dgp.sample_cohort(make_config(psi0=(0.6, 0.0, -0.5)), 2000, seed=3)
        spec = gest.TreatmentModelSpec(g=gest.GFeature(knots=(1.2,)), components=(0, 2))
        with pytest.raises(ConvergenceError) as info:
            gest.estimate_psi(cohort, spec, [(-0.2, 1.2), (-1.2, 0.4)], compute_ci=False)
        best = np.asarray(info.value.best, dtype=float)
        assert best.shape == (2,) and np.all(np.isfinite(best))


class TestSandwich:
    def test_estimating_function_unbiased_at_truth(self):
        cfg = make_config(psi0=(0.7, 0.0, 0.0))
        cohort = dgp.sample_cohort(cfg, 20_000, seed=51)
        h = gest.score_residuals(cohort, SPEC, (0.7, 0.0, 0.0))
        mean, sd = h.mean(axis=0), h.std(axis=0)
        assert abs(mean[0]) < 3.0 * sd[0] / math.sqrt(len(h))

    def test_variance_halves_when_n_doubles(self):
        cfg = make_config(psi0=(0.7, 0.0, 0.0))
        small = dgp.sample_cohort(cfg, 5000, seed=61)
        large = dgp.sample_cohort(cfg, 10_000, seed=61)
        _, se_small = gest.sandwich_variance(small, SPEC, (0.7, 0.0, 0.0))
        _, se_large = gest.sandwich_variance(large, SPEC, (0.7, 0.0, 0.0))
        ratio = (se_small[0] / se_large[0]) ** 2
        assert 1.6 < ratio < 2.5

    def test_unidentified_component_flagged(self):
        # the covariate-interaction component never binds when l is constant 0
        cfg = make_config()
        cov0 = dgp.CovariateLaw.from_logistic(2, 2, intercept=-800.0)
        cfg = dgp.DgpConfig(
            cfg.grid, cfg.baseline, cfg.thresholds, cov0, cfg.treatment_law,
            ShiftParams.zero(),
        )
        cohort = dgp.sample_cohort(cfg, 2000, seed=8)
        spec = gest.TreatmentModelSpec(
            f_terms=("intercept", "a_prev"), components=(2,)
        )
        with pytest.raises(WeakIdentificationError):
            gest.sandwich_variance(cohort, spec, (0.0, 0.0, 0.0))


@functools.cache
def _slope_cohort():
    return dgp.sample_cohort(make_config(), 300, seed=5)


SLOPE_FEATURES = {
    "identity": gest.GFeature(),
    "powers 2": gest.GFeature(powers=2),
    "powers 3": gest.GFeature(powers=3),
    "clip": gest.GFeature(clip=(0.3, 4.0)),
    "log": gest.GFeature(log=True),
    "clip and log": gest.GFeature(clip=(0.3, 4.0), log=True),
    "knots": gest.GFeature(knots=(0.8, 2.5)),
}


def _central_difference(f, x, h):
    """The derivative of ``f`` at ``x`` along each axis, stacked last, by central differences of step ``h``."""
    return np.stack([(f(x + e) - f(x - e)) / (2.0 * h) for e in h * np.eye(len(x))], axis=-1)


@given(g=st.sampled_from(sorted(SLOPE_FEATURES)), psi=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_closed_form_slope_matches_central_differences(g, psi):
    """``BlipTable.t0_slope`` and ``_slope`` against central differences on all
    three components, at points where no subject's ``t0`` crosses a clip bound
    or a knot within the differences (``t0`` rises in each component)."""
    spec = gest.TreatmentModelSpec(g=SLOPE_FEATURES[g], components=(0, 1, 2))
    data, psi, h = gest._GestData(_slope_cohort(), spec), np.asarray(psi), 1e-5
    blip = data.blip
    lo, hi = blip.t0(psi - h), blip.t0(psi + h)
    assume(not any(np.any((lo <= kink) & (kink <= hi)) for kink in (*(spec.g.clip or ()), *spec.g.knots)))
    t0, dt0 = blip.t0(psi), blip.t0_slope(psi)
    assert np.all(np.abs(dt0 - _central_difference(blip.t0, psi, h)) <= 1e-8 * (np.abs(dt0) + t0[:, None]))
    # each entry against the sum of the absolute values of the terms it adds
    size = np.abs(spec.g.slope(t0) * data.null_fit.R[:, None]).T @ np.abs(dt0) / data.n_subjects
    want = _central_difference(lambda x: gest._mean_score(data, x), psi, h)
    assert np.all(np.abs(gest._slope(data, psi) - want) <= 1e-7 * size)


def _newton_from_scratch(X, y):
    """A logistic fit that standardizes the raw design itself and checks its
    rank with the full ``np.linalg.matrix_rank``, sharing nothing with
    ``_GestData``'s once-per-cohort standardization and factor."""
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = X / scale
    assert np.linalg.matrix_rank(Xs) == X.shape[1]
    return gest._logistic_newton(Xs, scale, y)


def _score_test_refit(data, psi):
    """The score statistic with the null treatment model refit from scratch,
    independent of the cached null fit."""
    theta0, _, _, _ = _newton_from_scratch(data.F, data.y)
    p0 = special.expit(data.F @ theta0)
    w0 = p0 * (1.0 - p0)
    G = data.g_columns(psi)[data.row_subject]
    U = G.T @ (data.y - p0)
    i_ff = (data.F * w0[:, None]).T @ data.F
    i_fg = (data.F * w0[:, None]).T @ G
    i_gg = (G * w0[:, None]).T @ G
    V = i_gg - i_fg.T @ np.linalg.solve(i_ff, i_fg)
    return float(U @ np.linalg.solve(V, U)), G.shape[1]


def _cold_alpha(data, psi):
    """Augmentation coefficient from a fit started at zero."""
    X = np.column_stack([data.F, data.g_columns(psi)[data.row_subject]])
    beta, _, _, _ = _newton_from_scratch(X, data.y)
    return beta[data.F.shape[1]:]


class TestSharedNullFit:
    """The null treatment fit is made once per data object and reused by every
    candidate; results must match from-scratch fits."""

    TOL_ALPHA = 1e-6

    @pytest.fixture(scope="class")
    def cohort(self):
        return dgp.sample_cohort(make_config(psi0=(0.7, 0.0, 0.0)), 3000, seed=71)

    @pytest.fixture(scope="class")
    def estimate(self, cohort):
        return gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=0.05)

    def test_score_test_matches_refit(self, cohort):
        data = gest._GestData(cohort, SPEC)
        for psi in (None, (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.7, 0.0, 0.0), (1.3, 0.0, 0.0)):
            vec = None if psi is None else np.asarray(psi)
            stat, df = gest._score_test(data, vec)
            ref, df_ref = _score_test_refit(data, vec)
            assert df == df_ref == 1
            assert abs(stat - ref) <= 1e-12 * abs(ref)

    def test_score_trace_matches_refit(self, cohort, estimate):
        data = gest._GestData(cohort, SPEC)
        for x, stat in zip(estimate.ci_grid, estimate.score_trace, strict=True):
            ref, _ = _score_test_refit(data, SPEC.embed([x]))
            assert abs(stat - ref) <= 1e-12 * abs(ref)
        accepted = special.chdtrc(1, estimate.score_trace) >= 0.05
        np.testing.assert_array_equal(estimate.ci_mask, accepted)

    def test_ci_mask_matches_refit_loop(self, cohort, estimate):
        data = gest._GestData(cohort, SPEC)
        mask = []
        for x in estimate.ci_grid:
            stat, df = _score_test_refit(data, SPEC.embed([x]))
            mask.append(stats.chi2.sf(stat, df) >= 0.05)
        np.testing.assert_array_equal(estimate.ci_mask, mask)
        assert estimate.ci_mask.any() and not estimate.ci_mask.all()

    def test_root_is_tight(self, cohort, estimate):
        data = gest._GestData(cohort, SPEC)
        assert abs(_cold_alpha(data, estimate.psi)[0]) <= 0.1 * self.TOL_ALPHA

    @staticmethod
    def _count_fits(cohort, monkeypatch):
        """Record each logistic fit as null (the columns of ``F`` only) or augmented."""
        d_f = len(SPEC.f_terms)
        newton = gest._logistic_newton
        fits = {"null": 0, "augmented": 0}

        def counting(Xs, *args, **kwargs):
            fits["null" if Xs.shape[1] == d_f else "augmented"] += 1
            return newton(Xs, *args, **kwargs)

        monkeypatch.setattr(gest, "_logistic_newton", counting)
        return fits

    def test_one_null_fit_per_estimate(self, cohort, monkeypatch):
        fits = self._count_fits(cohort, monkeypatch)
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=0.1)
        assert len(est.ci_grid) > 1
        assert fits == {"null": 1, "augmented": 0}

    def test_one_estimating_function_build_per_estimate(self, cohort, monkeypatch):
        builds = []
        h_matrix = gest._h_matrix

        def counting(*args):
            builds.append(1)
            return h_matrix(*args)

        monkeypatch.setattr(gest, "_h_matrix", counting)
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=0.1)
        assert len(builds) == 1
        assert est.h_residual.tolist() == h_matrix(gest._GestData(cohort, SPEC), est.psi).mean(axis=0).tolist()

    def test_root_search_fits_only_at_roots(self, cohort, monkeypatch):
        fits = self._count_fits(cohort, monkeypatch)
        gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], compute_ci=False)
        assert fits == {"null": 1, "augmented": 0}

    def test_score_and_coefficient_share_sign_on_scan(self, cohort):
        data = gest._GestData(cohort, SPEC)
        signs = set()
        for x in np.linspace(-0.2, 1.6, gest._N_SCAN):
            score = gest._mean_score(data, [x])[0]
            alpha = gest._fit_augmented(data, SPEC.embed([x])).alpha[0]
            assert np.sign(score) == np.sign(alpha) != 0.0
            signs.add(np.sign(score))
        assert signs == {-1.0, 1.0}

    def test_collinear_grid_point_is_non_identifiable(self, cohort, monkeypatch):
        """Once the root and its standard error are found, every augmentation
        column turns constant: the grid's rank check must reject it."""
        sandwich, g_columns = gest._sandwich, gest._GestData.g_columns
        done = []

        def flagging(*args, **kwargs):
            out = sandwich(*args, **kwargs)
            done.append(True)
            return out

        def collinear(self, psi):
            G = g_columns(self, psi)
            return np.full_like(G, 2.5) if done else G

        monkeypatch.setattr(gest, "_sandwich", flagging)
        monkeypatch.setattr(gest._GestData, "g_columns", collinear)
        with pytest.raises(NonIdentifiableError, match="rank deficient"):
            gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=0.1)
        assert done

    @pytest.mark.parametrize("pitch", [1e-9, 1e-300, 0.0, -0.01])
    def test_ci_grid_pitch_is_checked(self, cohort, monkeypatch, pitch):
        fits = self._count_fits(cohort, monkeypatch)
        with pytest.raises(SnftmError, match=f"pitch {pitch:g} .* points"):
            gest.estimate_psi(cohort, SPEC, [(-1.5, 0.5)], grid_pitch=pitch)
        assert fits == {"null": 0, "augmented": 0}
        # the cap binds only where a grid is built
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=pitch, compute_ci=False)
        assert len(est.ci_grid) == len(est.score_trace) == 0

    def test_ci_checks_rank_on_small_factors(self, cohort, monkeypatch):
        """An estimate with CI standardizes and factors the history block once;
        no grid point makes a rank check or SVD of an n-row matrix."""
        n_rows = len(gest._GestData(cohort, SPEC).y)
        big = []
        for name in ("matrix_rank", "svd"):
            original = getattr(gest.np.linalg, name)

            def counting(A, *args, _original=original, _name=name, **kwargs):
                if np.shape(A)[0] >= n_rows:
                    big.append(_name)
                return _original(A, *args, **kwargs)

            monkeypatch.setattr(gest.np.linalg, name, counting)
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=0.1)
        assert len(est.ci_grid) >= 19
        assert len(big) <= 1, big

    def test_one_g_columns_build_per_ci_point(self, cohort, monkeypatch):
        builds = []
        original = gest._GestData.g_columns

        def counting(self, psi):
            builds.append(psi)
            return original(self, psi)

        monkeypatch.setattr(gest._GestData, "g_columns", counting)
        gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], compute_ci=False)
        without_ci = len(builds)
        builds.clear()
        est = gest.estimate_psi(cohort, SPEC, [(-0.2, 1.6)], grid_pitch=0.1)
        assert len(est.ci_grid) > 1
        assert len(builds) - without_ci == len(est.ci_grid)
