import bisect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from snftm import dgp, io, oracle
from snftm.core import CurveDomainError, GridBoundsError, InstanceTooLargeError, SurvivalCurve, TimeGrid, TreatmentRegime
from snftm.shift import ShiftParams

from conftest import make_config, table_law_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

THRESHOLD = TreatmentRegime.threshold(2, level=1)


def _atom_mass(world, node, b):
    """Baseline mass of prognosis bin ``b`` on the death interval of ``node``."""
    edges = world.bin_edges
    return world.cfg.baseline.interval_mass(max(node.u_alive, edges[b]), min(node.u_next, edges[b + 1]))


def test_death_atoms_partition_unity(rich_world):
    total = 0.0
    for k in range(rich_world.grid.K + 1):
        for node in rich_world.stages[k].values():
            for b, w in enumerate(node.pi):
                total += w * _atom_mass(rich_world, node, b)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_history_prob_layers_are_coherent(rich_world):
    # summing the dose out of a post-treatment cell recovers the pre-treatment cell
    for (lbar, abar) in rich_world.stages[1]:
        pre = rich_world.history_prob(lbar, abar[:-1])
        post = sum(
            rich_world.history_prob(lbar, abar[:-1] + (a,)) for a in (0, 1)
        )
        assert pre == pytest.approx(post, abs=1e-14)


def test_baseline_regime_recovers_baseline_curve(rich_world):
    never = TreatmentRegime.baseline(2)
    for t in (0.3, 1.0, 2.2, 4.0):
        want = rich_world.cfg.baseline.eval(t)
        assert rich_world.counterfactual_survival(never, t) == pytest.approx(want, abs=1e-12)


def test_null_world_is_regime_free(null_world):
    regimes, _ = oracle.all_regimes((2, 2), (2, 2))
    t_grid = (0.4, 1.1, 2.6)
    base = [null_world.counterfactual_survival(regimes[0], t) for t in t_grid]
    for g in regimes[1:]:
        for t, b in zip(t_grid, base):
            assert null_world.counterfactual_survival(g, t) == pytest.approx(b, abs=1e-12)


def test_counterfactual_mean_against_quadrature(rich_world):
    grid = rich_world.grid
    for g in (TreatmentRegime.baseline(2), THRESHOLD, TreatmentRegime.static((1, 1))):
        # curve kinks: blip images of hazard bounds and prognosis edges per path
        cuts = {1.0}
        for k in range(grid.K + 1):
            for node in rich_world._regime_stages(g)[k].values():
                for x in (1.0, 1.5, 2.0):
                    t = node.t_of_t0(grid, x)
                    if grid.tau(k) < t <= grid.next_tau(k) and 1e-9 < t < 12.0:
                        cuts.add(t)
        head, _ = integrate.quad(
            lambda t: rich_world.counterfactual_survival(g, t), 1e-9, 12.0,
            points=sorted(cuts), limit=400,
        )
        tail, _ = integrate.quad(
            lambda t: rich_world.counterfactual_survival(g, t), 12.0, 250.0, limit=200
        )
        assert rich_world.counterfactual_mean(g) == pytest.approx(head + tail, rel=1e-9)


def test_observed_density_integrates_to_cell_mass(rich_world):
    # integrating the joint density over one death interval recovers the atom mass
    lbar, abar = (1, 1), (1, 0)
    node = rich_world.stages[1][(lbar, abar)]
    mass = sum(
        w * _atom_mass(rich_world, node, b)
        for b, w in enumerate(node.pi)
    )
    # density kinks sit where the blipped time crosses bin edges or hazard bounds
    cuts = sorted(
        node.t_of_t0(rich_world.grid, x)
        for x in (1.0, 1.5, 2.0)
        if node.u_alive < x
    )
    num, _ = integrate.quad(
        lambda t: rich_world.observed_density(lbar, abar, t), 1.0 + 1e-12, 400.0,
        points=[c for c in cuts if c < 400.0], limit=400,
    )
    assert num == pytest.approx(mass, rel=1e-9)


def test_guard_rejects_large_instances(rich_config):
    with pytest.raises(InstanceTooLargeError):
        oracle.enumerate_world(rich_config, max_cells=3)


class TestVerifyGcomputation:
    def test_passes_for_evaluable_regimes(self, rich_world):
        for g in (THRESHOLD, TreatmentRegime.static((1, 1)), TreatmentRegime.baseline(2)):
            rep = oracle.verify_gcomputation(rich_world, g)
            assert rep.passed and rep.worst < 1e-10

    def test_skips_non_evaluable_regime(self):
        cfg = make_config()
        table = dict(cfg.treatment_law.table)
        table[(1, (1, 1), (1,))] = np.array([1.0, 0.0])
        blocked = dgp.DgpConfig(
            cfg.grid, cfg.baseline, cfg.thresholds, cfg.covariate_law,
            dgp.TreatmentLaw(cfg.treatment_law.levels, table), cfg.psi0,
        )
        world = oracle.enumerate_world(blocked)
        rep = oracle.verify_gcomputation(world, TreatmentRegime.static((1, 1)))
        assert rep.passed and rep.skipped and "not evaluable" in rep.skipped[0]


class TestVerifyBlipTheorems:
    def test_exact_identities_at_truth(self, rich_world):
        reports = oracle.verify_blip_theorems(rich_world)
        for rep in reports.values():
            assert rep.passed, rep
            assert rep.worst < 1e-12

    def test_trivial_at_null(self, null_world):
        reports = oracle.verify_blip_theorems(null_world)
        assert all(r.passed for r in reports.values())

    def test_wrong_parameters_break_independence(self, rich_world):
        reports = oracle.verify_blip_theorems(rich_world, psi=ShiftParams((0.3, 0.0, 0.0)))
        assert not reports["independence"].passed
        assert reports["independence"].worst > 1e-3


class TestVerifyNullEquivalence:
    def test_forward_direction_at_null(self, null_world):
        rep = oracle.verify_null_equivalence(null_world)
        assert rep.passed and "forward" in rep.name
        assert rep.worst < 1e-12

    def test_witness_pair_when_effectful(self, rich_world):
        rep = oracle.verify_null_equivalence(rich_world)
        assert rep.passed and "witness" in rep.name
        assert rep.worst > 1e-3
        assert not rep.skipped  # both witness regimes evaluable

    def test_effect_confined_to_zero_probability_cells(self):
        # covariates are identically 0 (exact structural zero on l_k = 1),
        # and the only effect rides on l_k = 1
        grid = TimeGrid((0.0, 1.0))
        cov = dgp.CovariateLaw.from_logistic(2, 1, intercept=-800.0)
        trt = dgp.TreatmentLaw.from_logistic(2, intercept=-0.5, l_coef=0.5)
        from snftm.core import SurvivalCurve

        cfg = dgp.DgpConfig(
            grid, SurvivalCurve((0.0,), (0.6,)), (), cov, trt,
            ShiftParams((0.0, 0.0, 0.9)),
        )
        world = oracle.enumerate_world(cfg)
        rep = oracle.verify_null_equivalence(world)
        assert "forward" in rep.name and rep.passed


def test_run_suite_shapes(rich_world):
    reports = oracle.run_suite(rich_world, "blip")
    assert set(reports) == {"blip-baseline_law", "blip-independence", "blip-stopped_law"}
    as_dict = reports["blip-independence"].to_dict()
    assert as_dict["passed"] is True and "worst_abs_error" in as_dict
    with pytest.raises(Exception):
        oracle.run_suite(rich_world, "bogus")


def test_gcomp_suite_enumerates_each_regime_once(monkeypatch):
    calls = []
    enumerate_stages = oracle._enumerate_stages

    def counting(*args, **kwargs):
        calls.append(1)
        return enumerate_stages(*args, **kwargs)

    monkeypatch.setattr(oracle, "_enumerate_stages", counting)
    world = oracle.enumerate_world(io.load_dgp_config(CONFIGS / "demo_dgp.json"))
    reports = oracle.run_suite(world, "gcomp")
    assert len(reports) == 64 and all(r.passed for r in reports.values())
    assert len(calls) == 65  # the observed world, then one per regime


def test_alternating_regimes_match_fresh_worlds(rich_config):
    shared = oracle.enumerate_world(rich_config)
    regimes = (THRESHOLD, TreatmentRegime.static((1, 1)))

    def queries(world, g):
        return [
            world.counterfactual_survival(g, 0.4),
            world.counterfactual_survival(g, 2.5),
            world.counterfactual_survival(g, 1.3, given=(1,)),
            world.counterfactual_mean(g),
        ]

    got = [queries(shared, g) for _ in range(2) for g in regimes]
    want = [queries(oracle.enumerate_world(rich_config), g) for _ in range(2) for g in regimes]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_regime_with_too_few_visits_is_a_grid_error(rich_world):
    with pytest.raises(GridBoundsError, match="world of 2 visits exceeds the regime's 1 visits"):
        rich_world.counterfactual_survival(TreatmentRegime.static((1,)), 1.0)


@pytest.fixture(scope="module")
def irregular_world():
    """Three visits with covariate levels (2, 3, 2), table laws."""
    return oracle.enumerate_world(table_law_config((2, 3, 2), psi0=(-0.5, 0.3, -0.2)))


def test_gcomputation_on_irregular_levels(irregular_world):
    for g in (TreatmentRegime.baseline(3), TreatmentRegime.static((1, 1, 1)), TreatmentRegime.threshold(3, level=1)):
        rep = oracle.verify_gcomputation(irregular_world, g)
        assert rep.passed and not rep.skipped and rep.worst < 1e-10, rep


def test_blip_suite_on_irregular_levels(irregular_world):
    reports = oracle.run_suite(irregular_world, "blip")
    assert len(reports) == 3
    for rep in reports.values():
        assert rep.passed and rep.worst < 1e-12, rep


_edges = st.lists(st.floats(0.1, 3.0), min_size=0, max_size=3).map(
    lambda ws: (0.0,) + tuple(itertools.accumulate(ws)) + (math.inf,)
)
_baselines = st.tuples(st.floats(0.0, 0.5), st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.05, 2.0)),
                                                    min_size=1, max_size=4))


def _baseline(drawn, zero_tail=False):
    start, pieces = drawn
    bounds, rates = [start], []
    for width, rate in pieces:
        rates.append(rate)
        bounds.append(bounds[-1] + width)
    return SurvivalCurve(tuple(bounds[:-1]), tuple(rates[:-1]) + ((0.0,) if zero_tail else (rates[-1],)))


@given(
    drawn=_baselines, zero_tail=st.booleans(), edges=_edges, data=st.data(),
    above=st.floats(-1.0, 8.0) | st.just(-math.inf), upto=st.floats(-1.0, 8.0) | st.just(math.inf),
)
@settings(max_examples=300, deadline=None)
def test_mixture_mass_equals_the_per_bin_interval_masses(drawn, zero_tail, edges, data, above, upto):
    baseline = _baseline(drawn, zero_tail)
    n_bins = len(edges) - 1
    weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25]) | st.floats(0.01, 1.0),
                                          min_size=n_bins, max_size=n_bins)))
    above = data.draw(st.sampled_from([above, *edges[:-1]]))  # also exactly on a bin edge
    want = sum(
        w * baseline.interval_mass(max(above, edges[b]), min(upto, edges[b + 1]))
        for b, w in enumerate(weights)
        if w > 0.0
    )
    got = oracle._mixture_mass(baseline, edges, weights, above, upto)
    assert got == want and type(got) is type(want)
    s = oracle._edge_survival(baseline, edges, above, upto)
    for b in range(n_bins):
        assert s[b] - s[b + 1] == baseline.interval_mass(max(above, edges[b]), min(upto, edges[b + 1])), b


def _cut_walk_quantile(curve, u):
    """The inverse of an exact interval curve by a walk over every bin edge and
    baseline breakpoint on the interval: the reference for its per-bin solve."""
    x_lo = curve.offset + curve.slope * curve.t_lo
    x_hi = math.inf if math.isinf(curve.t_hi) else curve.offset + curve.slope * curve.t_hi
    target = u * curve._n(x_lo)
    cuts = sorted(
        {x_lo}
        | {c for c in curve.bin_edges if x_lo < c < x_hi}
        | {c for c in curve.baseline.bounds if x_lo < c < x_hi}
    ) + [x_hi]
    for xa, xb in zip(cuts, cuts[1:]):
        n_b = curve._n(xb) if math.isfinite(xb) else 0.0
        if n_b <= target:
            b = bisect.bisect_right(curve.bin_edges, xa, 1, len(curve.bin_edges) - 1) - 1
            w = curve.weights[b]
            if w <= 0.0:
                if curve._n(xa) != target:
                    continue
                x = xa
            else:
                s_hi = curve.baseline.mass_above(curve.bin_edges[b + 1])
                rest = n_b - (w * (curve.baseline.mass_above(xb) - s_hi) if math.isfinite(xb) else 0.0)
                x = curve.baseline.quantile(min((target - rest) / w + s_hi, 1.0))
            return (x - curve.offset) / curve.slope
    raise AssertionError(f"no quantile at level {u}")


@given(drawn=_baselines, edges=_edges, data=st.data(), x=st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_interval_survival_quantile_inverts_eval(drawn, edges, data, x):
    baseline = _baseline(drawn)
    weights = list(data.draw(st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.05, 1.0),
                                      min_size=len(edges) - 1, max_size=len(edges) - 1)))
    # the bin lookup of ExactIntervalSurvival.quantile: inner edges at or below x
    b = bisect.bisect_right(edges, x, 1, len(edges) - 1) - 1
    assert b == int(np.searchsorted(np.asarray(edges[1:-1]), x, side="right"))
    # the curve starts at baseline time x, inside bin b, whose weight may be zero
    if data.draw(st.booleans()):
        weights[b] = 0.0
    weights = tuple(weights)
    assume(any(weights))
    t_lo, slope = data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.3, 3.0))
    offset = x - slope * t_lo
    t_hi = data.draw(st.just(math.inf) | st.floats(t_lo + 0.5, t_lo + 6.0))
    curve = oracle.ExactIntervalSurvival(baseline, edges, weights, t_lo, t_hi, offset, slope)
    assume(curve._norm > 1e-9)
    for t in (t_lo + 0.01, t_lo + 0.3, t_lo + 0.5):
        assert curve.eval(t) == curve._n(offset + slope * t) / curve._n(offset + slope * t_lo)
    floor = curve.eval(t_hi) if math.isfinite(t_hi) else 0.0
    for u in (1.0, 0.7, 0.3, 0.05):
        if u <= floor:
            if u < floor:  # the curve never falls that far on its interval
                with pytest.raises(CurveDomainError):
                    curve.quantile(u)
            continue
        t = curve.quantile(u)
        assert t == pytest.approx(_cut_walk_quantile(curve, u), rel=1e-12)
        assert t_lo <= t <= t_hi
        assert curve.eval(t) == pytest.approx(u, rel=1e-9, abs=1e-12)
