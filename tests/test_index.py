"""The shared person-visit index against the per-subject loops it replaced.

Each ``_reference_*`` function below is a table builder's loop over the
``Trajectory`` tuple as it stood before ``Cohort.index`` existed; the
rebuilt builders must reproduce it bit for bit.
"""

import itertools
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from snftm import cfsim, core, dgp, gcomp, gest, io, mle
from snftm.core import Cohort, SnftmError, SurvivalCurve, TimeGrid, Trajectory
from snftm.gcomp import ConditionalLaws
from snftm.shift import BlipTable, ShiftParams, default_features

from conftest import make_smooth_null_config


@st.composite
def cohorts(draw, binary_treatments=False):
    """Small cohorts on grids of 2-4 visits with multi-level codes; some
    event times sit exactly on a visit time or past the last one."""
    n_visits = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.sampled_from([0.5, 0.7, 1.0]), min_size=n_visits - 1, max_size=n_visits - 1))
    grid = TimeGrid((0.0, *np.cumsum(gaps).tolist()))
    cov_levels = draw(st.lists(st.integers(1, 3), min_size=n_visits, max_size=n_visits))
    trt_levels = [2] * n_visits if binary_treatments else draw(
        st.lists(st.integers(1, 3), min_size=n_visits, max_size=n_visits)
    )
    times = st.one_of(st.sampled_from(grid.taus[1:]), st.floats(0.01, grid.taus[-1] + 2.0))
    subjects = []
    for _ in range(draw(st.integers(1, 30))):
        t = draw(times)
        p = grid.interval_index(t)
        cov = tuple(draw(st.integers(0, cov_levels[k] - 1)) for k in range(p + 1))
        trt = tuple(draw(st.integers(0, trt_levels[k] - 1)) for k in range(p + 1))
        subjects.append(Trajectory(cov, trt, t))
    return Cohort(tuple(subjects), grid)


# The history (l_0, a_0) = (1, 0) first keys subject 0's terminal interval and
# only later, after the cell (0,), (1,) of subject 1, conditions a visit.
LATE_CELL = Cohort(
    (
        Trajectory((1,), (0,), 0.5),
        Trajectory((0, 1), (1, 0), 1.5),
        Trajectory((1, 0), (0, 1), 2.0),
        Trajectory((0,), (0,), 0.25),
    ),
    TimeGrid((0.0, 1.0)),
)


def _reference_blip_table(cohort):
    """Kinds are the distinct feature rows in order of first appearance, visit
    by visit and subject by subject within a visit (the order of the interned
    prefixes); each subject's sums add its visits in order."""
    grid = cohort.grid
    feats = [[tuple(default_features(m, traj.covariates[: m + 1], traj.treatments[: m + 1]))
              for m in range(traj.n_visits)] for traj in cohort]
    kinds = {}
    for m in range(grid.K + 1):
        for row in feats:
            if m < len(row):
                kinds.setdefault(row[m], len(kinds))
    W, c0 = np.zeros((len(cohort), len(kinds))), np.zeros(len(cohort))
    base, tail = np.empty(len(cohort)), np.empty(len(cohort))
    terminal = np.empty(len(cohort), dtype=np.intp)
    for i, traj in enumerate(cohort):
        p = traj.n_visits - 1
        for m in range(p):
            W[i, kinds[feats[i][m]]] += grid.delta(m)
            c0[i] += -grid.delta(m)
        base[i], tail[i], terminal[i] = grid.tau(p), traj.event_time - grid.tau(p), kinds[feats[i][p]]
    return BlipTable(np.array(list(kinds)), W, c0, base, tail, terminal)


def _reference_gest_rows(cohort, spec):
    rows_f, rows_y, rows_subj = [], [], []
    for i, traj in enumerate(cohort):
        if any(a > 1 for a in traj.treatments):
            raise SnftmError("G-estimation handles binary dosing only")
        for k in range(traj.n_visits):
            feats = {
                "intercept": 1.0,
                "l": float(traj.covariates[k]),
                "l_prev": float(traj.covariates[k - 1]) if k else 0.0,
                "a_prev": float(traj.treatments[k - 1]) if k else 0.0,
                "k": float(k),
            }
            rows_f.append([feats[t] for t in spec.f_terms])
            rows_y.append(float(traj.treatments[k]))
            rows_subj.append(i)
    event_times = np.array([traj.event_time for traj in cohort])
    return np.asarray(rows_f), np.asarray(rows_y), np.asarray(rows_subj, dtype=np.intp), event_times


def _reference_null_scores(data, psi):
    """The score statistic, the per-subject estimating function and the mean
    score at the null fit, as sums over the person-visit rows, each with a
    bound on how far rounding moves it: the size of the terms its sums add,
    ``|x|`` for every ``x``, carried to first order through the statistic."""
    p0 = special.expit(data.F @ data.null_fit.theta)
    w0, r = p0 * (1.0 - p0), data.y - p0
    G = data.g_columns(psi)[data.row_subject]
    i_ff, i_fg = (data.F * w0[:, None]).T @ data.F, (data.F * w0[:, None]).T @ G
    B = np.linalg.solve(i_ff, i_fg)
    U, V = G.T @ r, (G * w0[:, None]).T @ G - i_fg.T @ B
    a = np.linalg.solve(V, U)
    h = np.zeros((data.n_subjects, G.shape[1]))
    np.add.at(h, data.row_subject, r[:, None] * (G - data.F @ B))
    aG, aF, aB = np.abs(G), np.abs(data.F), np.abs(B)
    U_size = aG.T @ np.abs(r)
    V_size = (aG * w0[:, None]).T @ aG + 2.0 * aB.T @ ((aF * w0[:, None]).T @ aG)
    h_size = np.zeros_like(h)
    np.add.at(h_size, data.row_subject, np.abs(r)[:, None] * (aG + aF @ aB))
    stat = float(U @ a)
    stat_size = abs(stat) + 2.0 * np.abs(a) @ U_size + np.abs(a) @ V_size @ np.abs(a)
    n = data.n_subjects
    return (stat, stat_size), (h, h_size), (U / n, U_size / n)


def _reference_profile_cells(cohort):
    cell_ids: dict = {}
    row_cell, row_level, row_subject = [], [], []
    max_level = 1
    for i, traj in enumerate(cohort):
        for k in range(traj.n_visits):
            key = (k, traj.covariates[:k], traj.treatments[:k])
            cid = cell_ids.setdefault(key, len(cell_ids))
            row_cell.append(cid)
            row_level.append(traj.covariates[k])
            row_subject.append(i)
            max_level = max(max_level, traj.covariates[k] + 1)
    return {
        "cells": list(cell_ids),
        "row_cell": np.asarray(row_cell, dtype=np.intp),
        "row_level": np.asarray(row_level, dtype=np.intp),
        "row_subject": np.asarray(row_subject, dtype=np.intp),
        "max_level": max_level,
    }


class _ReferenceProfile:
    """The profile likelihood on person-visit rows, as it stood before the
    per-history counts: the rows from the loop above, ``searchsorted`` piece
    and bin codes, and a person-time loop over the pieces."""

    def __init__(self, cohort, model):
        self.__dict__.update(_reference_profile_cells(cohort))
        self.blip = BlipTable.from_cohort(cohort)
        self.bounds = np.asarray(model.baseline_bounds)
        self.bins = np.asarray(model.bins)
        self.n_bins = len(model.bins) + 1

    def __call__(self, psi):
        t0 = self.blip.t0(psi)
        log_jac = float(self.blip.log_jacobian(psi).sum())

        piece = np.clip(np.searchsorted(self.bounds, t0, side="left") - 1, 0, len(self.bounds) - 1)
        events = np.bincount(piece, minlength=len(self.bounds)).astype(float)
        persontime = np.empty(len(self.bounds))
        for j in range(len(self.bounds)):
            hi = self.bounds[j + 1] if j + 1 < len(self.bounds) else np.inf
            persontime[j] = np.clip(np.minimum(t0, hi) - self.bounds[j], 0.0, None).sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(persontime > 0.0, events / np.maximum(persontime, 1e-300), 0.0)
        ll_base = float(special.xlogy(events, rates).sum()) - float(events.sum())

        bin_idx = np.searchsorted(self.bins, t0, side="left")
        flat = (self.row_cell * self.n_bins + bin_idx[self.row_subject]) * self.max_level + self.row_level
        counts = np.bincount(flat, minlength=len(self.cells) * self.n_bins * self.max_level)
        grouped = counts.reshape(-1, self.max_level).astype(float)
        totals = grouped.sum(axis=1)
        ll_cov = float(special.xlogy(grouped, grouped).sum() - special.xlogy(totals, totals).sum())

        return log_jac + ll_base + ll_cov, rates, grouped


def _reference_profile(cohort, model, psi):
    return _ReferenceProfile(cohort, model)(psi)


def _reference_estimate_laws(cohort):
    grid = cohort.grid
    K = grid.K
    levels = [0] * (K + 1)
    for traj in cohort:
        for m, l in enumerate(traj.covariates):
            levels[m] = max(levels[m], l + 1)
    trans_counts: dict = {}
    for traj in cohort:
        for m in range(traj.n_visits):
            key = (m, traj.covariates[:m], traj.treatments[:m])
            vec = trans_counts.setdefault(key, np.zeros(levels[m]))
            vec[traj.covariates[m]] += 1.0
    transitions = {key: vec / vec.sum() for key, vec in trans_counts.items()}
    events: dict = {}
    persontime: dict = {}
    for traj in cohort:
        for m in range(1, traj.n_visits + 1):
            key = (m, traj.covariates[:m], traj.treatments[:m])
            end = grid.tau(m) if m <= K else np.inf
            persontime[key] = persontime.get(key, 0.0) + (min(traj.event_time, end) - grid.tau(m - 1))
            if traj.event_time <= end:
                events[key] = events.get(key, 0) + 1
    curves = {
        key: SurvivalCurve((grid.tau(key[0] - 1),), (events.get(key, 0) / pt,))
        for key, pt in persontime.items()
    }
    return ConditionalLaws(grid, tuple(levels), transitions, curves)


def _reference_fitted_laws(cohort, psi, thresholds):
    t0s = _reference_blip_table(cohort).t0(psi.as_array())
    bins = np.searchsorted(np.asarray(thresholds), t0s, side="left")
    counts: dict = {}
    levels = [0] * (cohort.grid.K + 1)
    for traj in cohort:
        for k, l in enumerate(traj.covariates):
            levels[k] = max(levels[k], l + 1)
    for i, traj in enumerate(cohort):
        for k in range(traj.n_visits):
            key = (k, int(bins[i]), traj.covariates[:k], traj.treatments[:k])
            vec = counts.setdefault(key, np.zeros(levels[k]))
            vec[traj.covariates[k]] += 1.0
    return {key: vec / vec.sum() for key, vec in counts.items()}, np.sort(t0s)


def assert_same_arrays(got: dict, want: dict):
    """Same keys in the same order, and exactly equal values."""
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def outcome(f, *args):
    """The value of ``f(*args)``, or the class of the package error it raises."""
    try:
        return f(*args)
    except SnftmError as e:
        return type(e)


PSI = st.tuples(*(st.floats(-1.5, 1.5) for _ in range(3)))


@given(cohort=cohorts(), psi=PSI)
@example(cohort=LATE_CELL, psi=(0.3, -0.2, 0.1))
@settings(max_examples=150, deadline=None)
def test_blip_table_matches_reference_loop(cohort, psi):
    got = BlipTable.from_cohort(cohort)
    want = _reference_blip_table(cohort)
    for name in ("features", "W", "c0", "base", "tail", "terminal"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.t0(np.asarray(psi)), want.t0(np.asarray(psi)))
    assert np.array_equal(got.log_jacobian(np.asarray(psi)), want.log_jacobian(np.asarray(psi)))
    # A subject with at most two visits gets the bits of the sum over its
    # visits, tau_p + sum_m (c1_m * s_m + c0_m), one visit at a time.
    grid, t0 = cohort.grid, got.t0(np.asarray(psi))
    kind = {tuple(x): j for j, x in enumerate(got.features.tolist())}
    s = np.exp(got.features @ np.asarray(psi))
    for i, traj in enumerate(cohort):
        if traj.n_visits > 2:
            continue
        p, total = traj.n_visits - 1, 0.0
        for m in range(p + 1):
            s_m = s[kind[tuple(default_features(m, traj.covariates[: m + 1], traj.treatments[: m + 1]))]]
            total += (grid.delta(m) * s_m - grid.delta(m)) if m < p else (traj.event_time - grid.tau(p)) * s_m
        assert t0[i] == grid.tau(p) + total


TERMS = st.lists(st.sampled_from(gest._F_TERMS), min_size=1, max_size=5, unique=True)


@given(cohort=st.one_of(cohorts(binary_treatments=True), cohorts()), terms=TERMS)
@example(cohort=LATE_CELL, terms=["intercept", "l", "l_prev", "a_prev", "k"])
@settings(max_examples=150, deadline=None)
def test_gest_rows_match_reference_loop(cohort, terms):
    spec = gest.TreatmentModelSpec(f_terms=tuple(terms))
    want = outcome(_reference_gest_rows, cohort, spec)
    got = outcome(gest._GestData, cohort, spec)
    if isinstance(want, type):
        assert got is want
        return
    for name, ref in zip(("F", "y", "row_subject", "event_times"), want):
        assert np.array_equal(getattr(got, name), ref), name
    assert got.F.flags.c_contiguous
    assert got.n_subjects == len(cohort)


G_FEATURES = st.sampled_from([gest.GFeature(), gest.GFeature(powers=2), gest.GFeature(knots=(0.8,)),
                               gest.GFeature(clip=(0.2, 1.5), log=True)])


@given(cohort=cohorts(binary_treatments=True), psi=PSI, g=G_FEATURES,
       terms=st.sampled_from([("intercept",), ("intercept", "l"), ("intercept", "l", "a_prev")]))
@settings(max_examples=150, deadline=None)
def test_subject_scores_match_reference_rows(cohort, psi, g, terms):
    """The score test, estimating function and mean score on per-subject sums
    agree with the sums over person-visit rows to 1e-12, relative to the size
    of the terms those sums add."""
    data = gest._GestData(cohort, gest.TreatmentModelSpec(f_terms=terms, g=g, components=(0, 1, 2)))
    psi = np.asarray(psi)
    try:
        data.history.augment(data.g_columns(psi)[data.row_subject])
        data.null_fit
    except SnftmError:  # a rank-deficient [F | G] or a null fit that fails: nothing to compare
        return
    stat, h, mean = _reference_null_scores(data, psi)
    got = gest._score_test(data, psi)[0], gest._h_matrix(data, psi), gest._mean_score(data, psi)
    for name, value, (want, size) in zip(("score test", "h", "mean score"), got, (stat, h, mean)):
        assert np.all(np.abs(value - want) <= 1e-12 * size), name


# At psi = 0 a one-visit subject blips down to its event time and a two-visit
# one rounds as the visit sum does: t0 lands on the bounds 0.9 and 2.0 and on
# the bins 0.8 and 1.5.
ON_BREAKPOINTS = Cohort(
    (
        Trajectory((0,), (1,), 0.9),
        Trajectory((1,), (0,), 0.8),
        Trajectory((0, 1), (1, 0), 2.0),
        Trajectory((1, 0), (0, 1), 1.5),
    ),
    TimeGrid((0.0, 1.0)),
)


@given(cohort=cohorts(), psi=PSI, bins=st.sampled_from([(), (0.8,), (0.5, 1.5)]))
@example(cohort=LATE_CELL, psi=(0.3, -0.2, 0.1), bins=(0.8,))
@example(cohort=ON_BREAKPOINTS, psi=(0.0, 0.0, 0.0), bins=(0.8,))
@example(cohort=ON_BREAKPOINTS, psi=(0.0, 0.0, 0.0), bins=(0.5, 1.5))
@settings(max_examples=150, deadline=None)
def test_profile_tables_match_reference_loop(cohort, psi, bins):
    model = mle.ParametricModel.template(cohort.grid, (0.0, 0.9, 2.0), bins)
    tables = mle._ProfileTables(cohort, model)
    want = _reference_profile_cells(cohort)
    assert tables.cells == want["cells"]
    assert tables.max_level == want["max_level"]
    psi = np.asarray(psi)
    if cohort is ON_BREAKPOINTS:  # the ties this example is for
        t0 = tables.blip.t0(psi)
        assert np.isin(t0, model.baseline_bounds).sum() == 2 and np.isin(t0, bins).sum() == 1
    # the same pieces, bins and cell order as the row-level profile: the same bits
    ll, rates, grouped = tables.profile(psi)
    ll_ref, rates_ref, grouped_ref = _reference_profile(cohort, model, psi)
    assert ll == ll_ref or (np.isnan(ll) and np.isnan(ll_ref))
    assert np.array_equal(rates, rates_ref) and np.array_equal(grouped, grouped_ref)


@given(cohort=cohorts())
@example(cohort=LATE_CELL)
@settings(max_examples=150, deadline=None)
def test_estimate_laws_matches_reference_loop(cohort):
    got = gcomp.estimate_laws(cohort)
    want = _reference_estimate_laws(cohort)
    assert got.grid == want.grid
    assert got.covariate_levels == want.covariate_levels
    assert_same_arrays(got.covariate_transition, want.covariate_transition)
    assert list(got.interval_survival.items()) == list(want.interval_survival.items())


@given(cohort=cohorts(), psi=PSI, thresholds=st.sampled_from([(), (0.8,), (0.5, 1.5)]))
@example(cohort=LATE_CELL, psi=(0.3, -0.2, 0.1), thresholds=(0.8,))
@settings(max_examples=150, deadline=None)
def test_fitted_world_matches_reference_loop(cohort, psi, thresholds):
    psi = ShiftParams(psi)
    world = cfsim.FittedWorld.from_cohort(cohort, psi, thresholds)
    laws, baseline = _reference_fitted_laws(cohort, psi, thresholds)
    assert_same_arrays(world.covariate_laws, laws)
    assert np.array_equal(world.baseline, baseline)


@given(cohort=cohorts())
@example(cohort=LATE_CELL)
@settings(max_examples=150, deadline=None)
def test_index_rows_and_prefixes(cohort):
    ix = cohort.index
    assert len(set(ix.prefixes)) == len(ix.prefixes) and ix.prefixes[0] == (0, (), ())
    rows = [(i, k) for i, traj in enumerate(cohort) for k in range(traj.n_visits)]
    assert list(zip(cohort.subject.tolist(), cohort.k.tolist())) == rows
    for r, (i, k) in enumerate(rows):
        traj = cohort.subjects[i]
        assert (cohort.l[r], cohort.a[r]) == (traj.covariates[k], traj.treatments[k])
        assert cohort.last[r] == (k == traj.n_visits - 1)
        assert ix.prefixes[ix.cell[r]] == (k, traj.covariates[:k], traj.treatments[:k])
        assert ix.prefixes[ix.through[r]] == (k + 1, traj.covariates[: k + 1], traj.treatments[: k + 1])
    for m in range(cohort.grid.K + 1):
        reached = [t for t in cohort if t.n_visits > m]
        assert ix.covariate_levels[m] == max((t.covariates[m] + 1 for t in reached), default=0)
        assert ix.treatment_levels[m] == max((t.treatments[m] + 1 for t in reached), default=0)
    assert np.array_equal(cohort.event_times, [t.event_time for t in cohort])
    with pytest.raises(ValueError):
        cohort.l[0] = 7


def test_first_seen_orders_by_first_appearance():
    values, position = core.first_seen(np.array([5, 3, 5, 9, 3, 1]))
    assert values.tolist() == [5, 3, 9, 1]
    assert position.tolist() == [0, 1, 0, 2, 1, 3]
    rows, position = core.first_seen(np.array([[2, 1], [0, 4], [2, 1], [0, 3]]))
    assert rows.tolist() == [[2, 1], [0, 4], [0, 3]]
    assert position.tolist() == [0, 1, 0, 2]
    empty, position = core.first_seen(np.zeros((0, 3), dtype=np.int64))
    assert empty.shape == (0, 3) and position.shape == (0,)


def test_fit_and_test_null_build_the_index_once(monkeypatch):
    cfg = make_smooth_null_config()
    cohort = dgp.sample_cohort(cfg, 1000, seed=2)
    template = mle.ParametricModel.template(cfg.grid, (0.0, 1.0, 2.0), (1.5,))
    builds = []
    original = core.VisitIndex.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(core.VisitIndex, "__init__", counting)
    fitted = mle.fit(cohort, template)
    mle.test_null(cohort, fitted)
    assert len(builds) == 1
    assert cohort.index is cohort.index


DEFECTS = ("time", "empty", "negative", "count", "lengths")


@st.composite
def records(draw, defect=None):
    """A grid and raw ``(covariates, treatments, event_time)`` records on it
    (2-4 visits, multi-level codes); with ``defect`` set, one record is
    broken in that way."""
    n_visits = draw(st.integers(2, 4))
    grid = TimeGrid((0.0, *np.cumsum(draw(st.lists(st.sampled_from([0.5, 0.7, 1.0]),
                                                       min_size=n_visits - 1, max_size=n_visits - 1))).tolist()))
    recs = []
    for _ in range(draw(st.integers(1, 12))):
        t = draw(st.one_of(st.sampled_from(grid.taus[1:]), st.floats(0.01, grid.taus[-1] + 2.0)))
        codes = st.lists(st.integers(0, 2), min_size=grid.interval_index(t) + 1, max_size=grid.interval_index(t) + 1)
        recs.append((draw(codes), draw(codes), t))
    if defect is not None:
        i = draw(st.integers(0, len(recs) - 1))
        cov, trt, t = recs[i]
        if defect == "time":
            t = draw(st.sampled_from([0.0, -0.5, np.inf, np.nan]))
        elif defect == "empty":
            cov, trt = [], []
        elif defect == "negative":
            (cov if draw(st.booleans()) else trt)[draw(st.integers(0, len(cov) - 1))] = -1
        elif defect == "count":
            cov, trt = (cov + [0], trt + [0]) if draw(st.booleans()) or len(cov) == 1 else (cov[1:], trt[1:])
        else:
            trt = trt + [0]
        recs[i] = (cov, trt, t)
    return grid, recs


def from_trajectories(grid, recs):
    return Cohort(tuple(Trajectory(cov, trt, t) for cov, trt, t in recs), grid)


def from_columns(grid, recs):
    chain = itertools.chain.from_iterable
    return Cohort.from_columns(grid, [t for _, _, t in recs], [len(cov) for cov, _, _ in recs],
                               list(chain(cov for cov, _, _ in recs)), list(chain(trt for _, trt, _ in recs)))


COLUMNS = ("subject", "k", "l", "a", "last", "event_times")
INDEX_ARRAYS = ("cell", "through")


@given(data=records())
@settings(max_examples=150, deadline=None)
def test_trajectory_and_column_constructors_agree(data):
    grid, recs = data
    subjects = tuple(Trajectory(cov, trt, t) for cov, trt, t in recs)
    by_records, by_columns = Cohort(subjects, grid), from_columns(grid, recs)
    assert by_records.subjects == subjects and by_columns.subjects == subjects
    assert by_records == by_columns and len(by_columns) == len(subjects)
    a, b = by_records.index, by_columns.index
    pairs = [(by_columns, by_records, name) for name in COLUMNS] + [(b, a, name) for name in INDEX_ARRAYS]
    for new, old, name in pairs:
        got, want = getattr(new, name), getattr(old, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable
    assert (a.prefixes, a.covariate_levels, a.treatment_levels) == (b.prefixes, b.covariate_levels, b.treatment_levels)


@given(data=st.sampled_from(DEFECTS).flatmap(lambda d: records(defect=d)))
@settings(max_examples=200, deadline=None)
def test_invalid_records_raise_the_same_error_through_both_constructors(data):
    grid, recs = data
    got = outcome(from_columns, grid, recs)
    assert isinstance(got, type) and got is outcome(from_trajectories, grid, recs)


@given(cohort=cohorts(), shuffle=st.randoms(use_true_random=False))
@example(cohort=LATE_CELL, shuffle=random.Random(0))
@settings(max_examples=100, deadline=None)
def test_read_cohort_is_free_of_row_order(cohort, shuffle):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        io.write_cohort(path, cohort)
        header, *rows = path.read_text().splitlines()
        shuffle.shuffle(rows)
        path.write_text("\n".join([header, *rows]) + "\n")
        back, _ = io.read_cohort(path)
    first_seen = list(dict.fromkeys(int(row.split(",")[0]) for row in rows))
    assert back.subjects == tuple(cohort.subjects[i] for i in first_seen)
    assert back == Cohort(back.subjects, cohort.grid)


@st.composite
def near_clones(draw):
    """Copies of one record and of two variants that differ from it in one
    covariate or in one treatment code only."""
    grid, recs = draw(records())
    cov, trt, t = recs[0]
    m = draw(st.integers(0, len(cov) - 1))
    bump = lambda codes: codes[:m] + [codes[m] + 1] + codes[m + 1:]
    variants = [(cov, trt, t), (bump(cov), trt, t), (cov, bump(trt), t)] + recs[1:2]
    return grid, [variants[i] for i in draw(st.lists(st.integers(0, len(variants) - 1), max_size=5))]


@given(data=near_clones())
@settings(max_examples=150, deadline=None)
def test_degeneracy_check_matches_distinct_subjects(data):
    cohort = from_trajectories(*data)
    assert mle._all_identical(cohort) == (len(set(cohort.subjects)) < 2)
