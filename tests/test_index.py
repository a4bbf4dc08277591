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
    grid = cohort.grid
    subj, rows, c1, c0 = [], [], [], []
    base = np.empty(len(cohort))
    term_rows = []
    for i, traj in enumerate(cohort):
        p = traj.n_visits - 1
        base[i] = grid.tau(p)
        for m in range(p + 1):
            x = default_features(m, traj.covariates[: m + 1], traj.treatments[: m + 1])
            subj.append(i)
            rows.append(x)
            if m < p:
                c1.append(grid.delta(m))
                c0.append(-grid.delta(m))
            else:
                c1.append(traj.event_time - grid.tau(p))
                c0.append(0.0)
                term_rows.append(x)
    return BlipTable(
        n_subjects=len(cohort),
        row_subject=np.asarray(subj, dtype=np.intp),
        row_features=np.vstack(rows),
        row_c1=np.asarray(c1),
        row_c0=np.asarray(c0),
        base=base,
        terminal_features=np.vstack(term_rows),
    )


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
    assert got.n_subjects == want.n_subjects
    for name in ("row_subject", "row_features", "row_c1", "row_c0", "base", "terminal_features"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.t0(np.asarray(psi)), want.t0(np.asarray(psi)))


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


@given(cohort=cohorts(), psi=PSI, bins=st.sampled_from([(), (0.8,), (0.5, 1.5)]))
@example(cohort=LATE_CELL, psi=(0.3, -0.2, 0.1), bins=(0.8,))
@settings(max_examples=150, deadline=None)
def test_profile_tables_match_reference_loop(cohort, psi, bins):
    model = mle.ParametricModel.template(cohort.grid, (0.0, 0.9, 2.0), bins)
    tables = mle._ProfileTables(cohort, model)
    want = _reference_profile_cells(cohort)
    assert tables.cells == want["cells"]
    assert tables.max_level == want["max_level"]
    for name in ("row_cell", "row_level", "row_subject"):
        assert np.array_equal(getattr(tables, name), want[name]), name
    # the profile sums over the cells in their order: the same order, the same bits
    ref = object.__new__(mle._ProfileTables)
    ref.__dict__.update(tables.__dict__, **want)
    ll, rates, grouped = tables.profile(np.asarray(psi))
    ll_ref, rates_ref, grouped_ref = ref.profile(np.asarray(psi))
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
