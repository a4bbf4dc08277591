import csv
import itertools
import json
import math
import tempfile
from dataclasses import replace
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlib import Path

from snftm import cfsim, dgp, gest, io
from snftm.core import (
    Cohort,
    CohortFormatError,
    CurveDomainError,
    SnftmError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    apply_regime,
)
from snftm.shift import PSI_DIM, ShiftParams

from conftest import make_config, table_law_config


def test_cohort_round_trip(tmp_path, rich_config):
    cohort = dgp.sample_cohort(rich_config, 200, seed=12)
    path = tmp_path / "c.csv"
    io.write_cohort(path, cohort)
    back, meta = io.read_cohort(path)
    assert back.subjects == cohort.subjects
    assert tuple(meta["taus"]) == rich_config.grid.taus
    assert meta["schema_version"] == io.SCHEMA_VERSION


def test_missing_sidecar(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("id,k,tau_k,L1,A,T_event\n0,0,0.0,0,0,\n0,1,,,,0.5\n")
    with pytest.raises(CohortFormatError, match=r"^missing sidecar config .*x\.csv\.json$"):
        io.read_cohort(p)


@pytest.mark.parametrize("sidecar, message", [
    (b'{"taus": [0.0, 1.0], "note": "\xff"}', r"x\.csv\.json: not UTF-8 text at byte 30"),
    (b'{"taus": [0.0, 1.0]', r"x\.csv\.json: invalid JSON at line 1 column 20"),
])
def test_unreadable_sidecar_names_the_file(tmp_path, capsys, sidecar, message):
    from snftm import cli

    p = tmp_path / "x.csv"
    p.write_text("id,k,tau_k,L1,A,T_event\n0,0,0.0,0,0,\n0,1,,,,0.5\n")
    (tmp_path / "x.csv.json").write_bytes(sidecar)
    with pytest.raises(CohortFormatError, match=message):
        io.read_cohort(p)
    assert cli.main(["gtest", "--cohort", str(p), "--spec", str(CONFIGS / "treatment_model.json")]) == 1
    err = capsys.readouterr().err
    assert "snftm: error:" in err and "Traceback" not in err, err


def test_bad_header_reports_columns(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("id,k,L1,A,T_event\n")
    (tmp_path / "x.csv.json").write_text('{"taus": [0.0, 1.0]}')
    with pytest.raises(CohortFormatError, match="header"):
        io.read_cohort(p)


def test_bad_value_reports_line(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("id,k,tau_k,L1,A,T_event\n0,0,0.0,zero,0,\n0,1,,,,0.5\n")
    (tmp_path / "x.csv.json").write_text('{"taus": [0.0, 1.0]}')
    with pytest.raises(CohortFormatError, match="line 2"):
        io.read_cohort(p)


def test_subject_without_terminal_row(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("id,k,tau_k,L1,A,T_event\n0,0,0.0,1,0,\n")
    (tmp_path / "x.csv.json").write_text('{"taus": [0.0, 1.0]}')
    with pytest.raises(CohortFormatError, match="terminal"):
        io.read_cohort(p)


def test_dgp_config_round_trip(tmp_path, rich_config):
    d = io.dgp_config_to_dict(rich_config)
    p = tmp_path / "w.json"
    p.write_text(json.dumps(d))
    cfg = io.load_dgp_config(p)
    assert cfg.grid == rich_config.grid
    assert cfg.psi0 == rich_config.psi0
    a = dgp.sample_cohort(rich_config, 30, seed=4)
    b = dgp.sample_cohort(cfg, 30, seed=4)
    assert a.subjects == b.subjects


def test_table_law_round_trip(tmp_path):
    cfg = make_config()
    stripped = dgp.CovariateLaw(cfg.covariate_law.levels, dict(cfg.covariate_law.table))
    as_dict = io._law_to_dict(stripped)
    assert as_dict["kind"] == "table"
    back = io._covariate_law_from_dict(as_dict)
    for key, vec in stripped.table.items():
        np.testing.assert_array_equal(back.table[key], vec)


def test_invalid_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"taus": [0.0,]}')
    with pytest.raises(CohortFormatError, match="line 1"):
        io.load_dgp_config(p)


def test_regime_codecs():
    for d, lbar, expect in (
        ({"kind": "never"}, (1, 1), (0, 0)),
        ({"kind": "static", "doses": [1, 0]}, (0, 1), (1, 0)),
        ({"kind": "threshold", "level": 1}, (0, 1), (0, 1)),
        ({"kind": "stopped", "prefix": [1]}, (1, 1), (1, 0)),
        ({"kind": "stopped", "prefix": []}, (1, 1), (0, 0)),
        ({"kind": "stopped", "prefix": [1, 1]}, (0, 0), (1, 1)),
    ):
        g = io.regime_from_dict(d, 2)
        assert apply_regime(g, lbar) == expect
    table = io.regime_from_dict(
        {"kind": "table", "tables": [{"0": 1, "1": 0}, {"0,0": 0, "0,1": 1, "1,0": 0, "1,1": 1}]}, 2
    )
    assert apply_regime(table, (0, 1)) == (1, 1)
    with pytest.raises(CohortFormatError):
        io.regime_from_dict({"kind": "mystery"}, 2)


@pytest.mark.parametrize(
    "d, message",
    [
        ({"kind": "static", "doses": [1]}, "field 'doses' must be a list of 2 non-negative integers"),
        ({"kind": "static", "doses": [1, 1, 0]}, "field 'doses' must be a list of 2 "),
        ({"kind": "stopped", "prefix": [1, 0, 1]}, "field 'prefix' must be a list of at most 2 "),
        ({"kind": "table", "tables": [{"0": 1, "1": 0}]}, "field 'tables' must be a list of 2 objects"),
        ({"kind": "threshold"}, r"missing field\(s\) \['level'\]"),
        ({"kind": "threshold", "level": 1, "dose": "1"}, "'level' and 'dose' must be non-negative integers"),
        ({"kind": "static", "doses": [1, 1], "label": "x"}, r"unknown static regime key\(s\) \['label'\]"),
        ({"doses": [1, 1]}, "unknown regime kind None"),
        ([1, 1], "unknown regime kind None"),
    ],
)
def test_regime_fields_are_checked_against_the_visit_count(d, message):
    with pytest.raises(CohortFormatError, match=message):
        io.regime_from_dict(d, 2)


def test_world_config_keys_are_strict(rich_config):
    d = io.dgp_config_to_dict(rich_config)
    assert "schema_version" in d and io.dgp_config_from_dict(d).psi0 == rich_config.psi0
    assert io.dgp_config_from_dict({key: v for key, v in d.items() if key != "seed"}).seed == 0
    with pytest.raises(CohortFormatError, match=r"unknown world config key\(s\) \['psi'\]"):
        io.dgp_config_from_dict({**d, "psi": [0.0, 0.0, 0.0]})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"psi0": [0.5]}, "field 'psi0' must be a list of 3 finite numbers"),
        ({"psi0": [float("nan"), 0.0, 0.0]}, "field 'psi0' must be a list of 3 finite numbers"),
        ({"baseline": {"bounds": [0.0], "rates": [1.0], "bogus": 1}},
         r"unknown world config 'baseline' key\(s\) \['bogus'\]"),
        ({"baseline": {"bounds": [0.0]}}, r"'baseline' is missing field\(s\) \['rates'\]"),
        ({"baseline": {"bounds": "0", "rates": [1.0]}},
         "'baseline': field 'bounds' must be a list of finite numbers"),
        ({"taus": [0.0, "1"]}, "field 'taus' must be a list of finite numbers"),
        ({"covariate_law": [1]}, "unknown CovariateLaw kind None"),
        ({"seed": "x"}, "field 'seed' must be a non-negative integer"),
        ({"seed": True}, "field 'seed' must be a non-negative integer"),
        ({"seed": 1.5}, "field 'seed' must be a non-negative integer"),
        ({"seed": -1}, "field 'seed' must be a non-negative integer"),
    ],
)
def test_world_config_fields_are_checked(rich_config, change, message):
    with pytest.raises(CohortFormatError, match=message):
        io.dgp_config_from_dict({**io.dgp_config_to_dict(rich_config), **change})


def test_table_law_keys_are_strict():
    d = io.dgp_config_to_dict(table_law_config((2, 3)))
    with pytest.raises(CohortFormatError, match=r"unknown table CovariateLaw key\(s\) \['bogus'\]"):
        io.dgp_config_from_dict({**d, "covariate_law": {**d["covariate_law"], "bogus": 1}})
    treatment = {key: v for key, v in d["treatment_law"].items() if key != "levels"}
    with pytest.raises(CohortFormatError, match=r"table TreatmentLaw is missing field\(s\) \['levels'\]"):
        io.dgp_config_from_dict({**d, "treatment_law": treatment})


@pytest.mark.parametrize(
    "entry",
    [
        ["x"],
        [0, 0, [], [], [0.5, float("nan")]],
        [0, 0, [], [], ["0.5", 0.5]],
        [0, 0, [], [-1], [0.5, 0.5]],
        [0, True, [], [], [0.5, 0.5]],
        [0, 0.0, [], [], [0.5, 0.5]],
        [],
        5,
    ],
)
def test_table_law_entries_are_checked(entry):
    d = io.dgp_config_to_dict(table_law_config((2, 3)))
    entries = d["covariate_law"]["entries"] + [entry]
    with pytest.raises(CohortFormatError, match=rf"table CovariateLaw: field 'entries'\[{len(entries) - 1}\]"):
        io.dgp_config_from_dict({**d, "covariate_law": {**d["covariate_law"], "entries": entries}})


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"f_terms": 5}, "field 'f_terms' must be a list of strings"),
        ({"f_terms": ["l", 1]}, "field 'f_terms' must be a list of strings"),
        ({"psi_dim": "x"}, "field 'psi_dim' must be 3"),
        ({"g": {"clip": "ab"}}, "field 'clip' must be a list of 2 finite numbers"),
        ({"g": {"clip": [0.1]}}, "field 'clip' must be a list of 2 finite numbers"),
        ({"g": {"log": 1}}, "field 'log' must be true or false"),
        ({"g": {"powers": 1.5}}, "field 'powers' must be a non-negative integer"),
        ({"components": [0.5]}, "field 'components' must be a list of non-negative integers"),
        ({"psi_dim": 2}, "field 'psi_dim' must be 3"),
        ({"f_terms": []}, "field 'f_terms' must be a non-empty list"),
        ({"g": {"clip": [1.0, 0.5]}}, "field 'clip' must be"),
        ({"g": {"clip": [0.5, 0.5]}}, "field 'clip' must be"),
        ({"g": {"clip": [0.0, 0.0], "log": True}}, "field 'clip' must be"),
        ({"g": {"clip": [-1.0, -0.5], "log": True}}, "field 'clip' must be"),
        ({"g": {"powers": 0}}, "field 'powers' must be at least 1"),
        ({"g": {"knots": ["1.2"]}}, "field 'knots' must be a list of finite numbers"),
        ({"g": {"knots": [True, 2]}}, "field 'knots' must be a list of finite numbers"),
        ({"g": {"powers": 3, "knots": [1.0]}}, "field 'powers' must be 1 when knots are given"),
        ({"components": [5]}, "field 'components' must be distinct indices below 3"),
        ({"components": [0, 0]}, "field 'components' must be distinct indices below 3"),
        ({"f_terms": ["bogus"]}, "field 'f_terms' must be a non-empty list of terms from"),
    ],
)
def test_treatment_spec_fields_are_typed(spec, message):
    with pytest.raises(CohortFormatError, match=message):
        io.treatment_spec_from_dict(spec)


@pytest.mark.parametrize(
    "template, message",
    [
        ({}, r"mle template is missing field\(s\) \['baseline_bounds'\]"),
        ({"baseline_bounds": [0.0, "x"]}, "field 'baseline_bounds' must be a list of finite numbers"),
        ({"baseline_bounds": [0.0], "bins": 1.5}, "field 'bins' must be a list of finite numbers"),
        ({"baseline_bounds": [0.0], "psi_init": [0.0]}, "field 'psi_init' must be a list of 3 finite numbers"),
        ({"baseline_bounds": []}, "field 'baseline_bounds' must be a strictly increasing list that starts at 0.0"),
        ({"baseline_bounds": [0.5, 1.0, 2.0]}, "field 'baseline_bounds' must be"),
        ({"baseline_bounds": [0.0, 2.0, 1.0]}, "field 'baseline_bounds' must be"),
        ({"baseline_bounds": [0.0, 1.0, 1.0]}, "field 'baseline_bounds' must be"),
        ({"baseline_bounds": [0.0], "bins": [2.0, 1.0]}, "field 'bins' must be positive and strictly increasing"),
        ({"baseline_bounds": [0.0], "bins": [0.0]}, "field 'bins' must be positive and strictly increasing"),
    ],
)
def test_mle_template_fields_are_typed(rich_config, template, message):
    with pytest.raises(CohortFormatError, match=message):
        io.mle_template_from_dict(template, rich_config.grid)


def test_typed_fields_keep_their_defaults():
    spec = io.treatment_spec_from_dict({"g": {"clip": [0.1, 5.0], "log": True, "powers": 2}, "psi_dim": 3})
    assert spec == gest.TreatmentModelSpec(g=gest.GFeature(clip=(0.1, 5.0), log=True, powers=2))
    assert io.treatment_spec_from_dict({"g": {"clip": None}}) == gest.TreatmentModelSpec()


@st.composite
def treatment_specs(draw):
    """Specs the reader accepts: at least one history term and one power,
    more than one power only without knots, and a clip ``lo < hi`` with
    ``hi > 0`` under ``log``."""
    finite = st.floats(-1e6, 1e6)
    log = draw(st.booleans())
    clip = st.tuples(finite, finite).map(sorted).map(tuple).filter(lambda c: c[0] < c[1] and (c[1] > 0.0 or not log))
    knots = tuple(draw(st.lists(st.floats(1e-3, 1e3), max_size=3, unique=True).map(sorted)))
    return gest.TreatmentModelSpec(
        f_terms=tuple(draw(st.lists(st.sampled_from(gest._F_TERMS), min_size=1, max_size=5))),
        g=gest.GFeature(
            clip=draw(st.none() | clip),
            log=log,
            powers=1 if knots else draw(st.integers(1, 4)),
            knots=knots,
        ),
        components=tuple(draw(st.permutations(range(PSI_DIM))))[:draw(st.integers(0, PSI_DIM))],
    )


@given(spec=treatment_specs())
@example(spec=io.load_treatment_spec(Path(__file__).resolve().parent.parent / "configs" / "treatment_model.json"))
@example(spec=gest.TreatmentModelSpec(g=gest.GFeature(clip=(0.1, 5.0), knots=(0.5, 1.2)), components=(0, 2)))
@settings(max_examples=100, deadline=None)
def test_treatment_spec_dict_round_trip(spec):
    assert io.treatment_spec_from_dict(json.loads(json.dumps(io.treatment_spec_to_dict(spec)))) == spec


def test_t_grid_parser():
    np.testing.assert_allclose(io.parse_t_grid("0.5:2.0:0.5"), [0.5, 1.0, 1.5, 2.0])
    with pytest.raises(CohortFormatError):
        io.parse_t_grid("1:2")
    with pytest.raises(CohortFormatError):
        io.parse_t_grid("2:1:0.5")
    for bad in ("nan:1:0.1", "0:inf:0.1", "0:1:nan", "0:1e300:1e-300", "0:1:1e-5"):
        with pytest.raises(CohortFormatError, match=f"'{bad}'"):
            io.parse_t_grid(bad)
    assert len(io.parse_t_grid(f"0:{io.MAX_T_GRID_POINTS - 1}:1")) == io.MAX_T_GRID_POINTS


def test_atomic_write_replaces_not_partial(tmp_path):
    p = tmp_path / "out.txt"
    io.atomic_write_text(p, "first")
    io.atomic_write_text(p, "second")
    assert p.read_text() == "second"
    assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


def test_treatment_spec_knots():
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert io.load_treatment_spec(configs / "treatment_model.json") == gest.TreatmentModelSpec()
    spec = io.treatment_spec_from_dict({"g": {"knots": [1.2]}, "components": [0, 2]})
    assert spec.g == gest.GFeature(knots=(1.2,))
    assert spec.g.dim == 2
    for bad in ([1.2, 1.2], [2.0, 1.0], [0.0], [-1.0], ["soon"], 1.2):
        with pytest.raises(SnftmError, match="'knots'"):
            io.treatment_spec_from_dict({"g": {"knots": bad}})


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, rows, sidecar):
    p = tmp_path / "x.csv"
    p.write_text("id,k,tau_k,L1,A,T_event\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    (tmp_path / "x.csv.json").write_text(json.dumps(sidecar))
    return p


@pytest.mark.parametrize("sidecar", [{"tau": [0, 1]}, [0, 1], {"taus": "0,1"}, {"taus": [0, "1"]},
                                     {"taus": [0, True]}, {"taus": [0.0, float("nan")]}, {"taus": 1.0}])
def test_sidecar_taus_must_be_a_list_of_numbers(tmp_path, sidecar):
    p = _write(tmp_path, ["0,0,0.0,0,0,", "0,1,,,,0.5"], sidecar)
    with pytest.raises(CohortFormatError, match=r"x\.csv\.json.*'taus'"):
        io.read_cohort(p)


def test_cli_reports_a_sidecar_without_taus(tmp_path, capsys):
    from snftm import cli

    p = _write(tmp_path, ["0,0,0.0,0,0,", "0,1,,,,0.5"], {"tau": [0, 1]})
    code = cli.main(["gtest", "--cohort", str(p), "--spec", str(CONFIGS / "treatment_model.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "snftm: error:" in err and "'taus'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "row, column",
    [("0,0,9.5,1,1,", "tau_k"), ("0,0,,1,1,", "tau_k"), ("0,0,0.0,5,1,", "L1"), ("0,0,0.0,1,2,", "A"),
     ("0,0,0.0,-1,0,", "L1"), ("0,3,2.0,0,0,", "k")],
)
def test_visit_rows_checked_against_grid_and_levels(tmp_path, row, column):
    sidecar = {"taus": [0.0, 1.0], "covariate_levels": [2, 2], "treatment_levels": [2, 2]}
    p = _write(tmp_path, ["1,0,0.0,0,0,", "1,1,,,,0.5", row, "0,1,,,,0.7"], sidecar)
    with pytest.raises(CohortFormatError, match=f"line 4: column {column}"):
        io.read_cohort(p)


def test_codes_unchecked_without_declared_levels(tmp_path):
    p = _write(tmp_path, ["0,0,0.0,5,3,", "0,1,,,,0.5"], {"taus": [0.0, 1.0]})
    cohort, _ = io.read_cohort(p)
    assert cohort.subjects[0].covariates == (5,)


@pytest.mark.parametrize("levels", [[2], [2, -1], [2, 2.0], "2,2"])
def test_declared_levels_must_cover_each_visit(tmp_path, levels):
    p = _write(tmp_path, ["0,0,0.0,0,0,", "0,1,,,,0.5"], {"taus": [0.0, 1.0], "covariate_levels": levels})
    with pytest.raises(CohortFormatError, match="'covariate_levels'"):
        io.read_cohort(p)


def test_unknown_spec_and_template_keys_are_rejected(rich_config):
    with pytest.raises(CohortFormatError, match="'component'"):
        io.treatment_spec_from_dict({"g": {"knots": [1.2]}, "component": [1]})
    with pytest.raises(CohortFormatError, match="'knot'"):
        io.treatment_spec_from_dict({"g": {"knot": [1, 2]}})
    with pytest.raises(CohortFormatError, match="JSON object"):
        io.treatment_spec_from_dict({"g": [1]})
    with pytest.raises(CohortFormatError, match="'bin'"):
        io.mle_template_from_dict({"baseline_bounds": [0.0], "bin": [1.5]}, rich_config.grid)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: gest.GFeature(knots=(2.0, 1.0)), "knots"),
        (lambda: gest.GFeature(knots=(0.0,)), "knots"),
        (lambda: gest.GFeature(powers=0), "powers"),
        (lambda: gest.GFeature(clip=(2.0, 1.0)), "clip"),
        (lambda: gest.GFeature(clip=(-1.0, 0.0), log=True), "clip"),
        (lambda: gest.GFeature(powers=3, knots=(1.0,)), "powers"),
        (lambda: gest.TreatmentModelSpec(f_terms=()), "f_terms"),
        (lambda: TimeGrid((0.0, math.nan)), "taus"),
        (lambda: TimeGrid((0.0, 1.0, math.inf)), "taus"),
        (lambda: replace(cfsim.FittedWorld.from_dgp_config(make_config()), thresholds=(1.5, 0.5)), "thresholds"),
        (lambda: replace(cfsim.FittedWorld.from_dgp_config(make_config()), thresholds=(0.0,)), "thresholds"),
        (lambda: replace(make_config(), thresholds=(1.0, math.inf)), "thresholds"),
    ],
)
def test_constructors_reject_what_the_readers_reject(build, field):
    with pytest.raises(SnftmError, match=f"field '{field}' must be"):
        build()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: gest.TreatmentModelSpec(components=(0.5,)), "components"),
        (lambda: gest.TreatmentModelSpec(components=(True,)), "components"),
        (lambda: gest.GFeature(powers=1.5), "powers"),
        (lambda: gest.GFeature(powers=True), "powers"),
        (lambda: gest.GFeature(clip=(1.0,)), "clip"),
        (lambda: gest.GFeature(clip=(1.0, "2")), "clip"),
        (lambda: gest.GFeature(clip=(0.5, math.inf)), "clip"),
        (lambda: gest.GFeature(knots=(1, "2")), "knots"),
    ],
)
def test_constructors_check_python_api_types(build, field):
    """What the JSON reader rejects as a shape error, the constructors reject
    as a field error when the Python API passes it in."""
    with pytest.raises(SnftmError, match=f"field '{field}' must be"):
        build()


def test_sidecar_grid_errors_name_the_sidecar(tmp_path, capsys):
    from snftm import cli

    p = _write(tmp_path, ["0,0,0.0,0,0,", "0,1,,,,0.5"], {"taus": [0.5, 1.0]})
    with pytest.raises(CohortFormatError, match=r"x\.csv\.json: field 'taus' must be 0\.0 then"):
        io.read_cohort(p)
    assert cli.main(["gtest", "--cohort", str(p), "--spec", str(CONFIGS / "treatment_model.json")]) == 1
    err = capsys.readouterr().err
    assert "x.csv.json: field 'taus'" in err and "Traceback" not in err


@pytest.mark.parametrize("change, field", [
    ({"taus": [0.5, 1.0]}, "taus"),
    ({"baseline": {"bounds": [0.0, 2.0, 1.0], "rates": [0.5, 0.4, 0.3]}}, "bounds"),
    ({"baseline": {"bounds": [0.5], "rates": [1.0]}}, "baseline"),
    ({"thresholds": [2.0, 1.0]}, "thresholds"),
])
def test_world_config_value_errors_name_the_document(rich_config, change, field):
    with pytest.raises(CohortFormatError, match=f"^world config: field '{field}' must"):
        io.dgp_config_from_dict({**io.dgp_config_to_dict(rich_config), **change})


@pytest.mark.parametrize("spec, field", [
    (lambda: gest.TreatmentModelSpec(f_terms=()), "f_terms"),
    (lambda: gest.TreatmentModelSpec(g=gest.GFeature(powers=0)), "powers"),
])
def test_g_test_on_a_bad_python_spec_is_a_package_error(spec, field):
    cohort = dgp.sample_cohort(make_config(), 200, seed=3)
    with pytest.raises(SnftmError, match=f"field '{field}' must be"):
        gest.g_test(cohort, spec())


def _load_world(path):
    from snftm import cli

    out = path.parent / "cf.csv"
    assert cli.main(["cfsim", "--world", str(path), "--regime", str(CONFIGS / "regime_never.json"),
                     "--n", "10", "--out", str(out)]) == 0
    out.unlink()


LOADERS = {
    "demo_dgp.json": io.load_dgp_config,
    "demo_dgp_null.json": io.load_dgp_config,
    "regime_always.json": lambda p: io.load_regime(p, 2),
    "regime_never.json": lambda p: io.load_regime(p, 2),
    "regime_treat_if_sick.json": lambda p: io.load_regime(p, 2),
    "treatment_model.json": io.load_treatment_spec,
    "mle_model.json": lambda p: io.load_mle_template(p, io.load_dgp_config(CONFIGS / "demo_dgp.json").grid),
    "world_exact.json": _load_world,
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_every_shipped_config_loads(name):
    assert name in LOADERS, f"configs/{name} has no loader in this test"
    LOADERS[name](CONFIGS / name)


@st.composite
def small_cohorts(draw):
    n_visits = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n_visits - 1, max_size=n_visits - 1))
    taus = [0.0]
    for g in gaps:
        taus.append(taus[-1] + g)
    grid = TimeGrid(tuple(taus))
    cov_levels = draw(st.lists(st.integers(1, 4), min_size=n_visits, max_size=n_visits))
    trt_levels = draw(st.lists(st.integers(1, 4), min_size=n_visits, max_size=n_visits))
    subjects = []
    for _ in range(draw(st.integers(1, 12))):
        t = draw(st.one_of(st.sampled_from(grid.taus[1:]), st.floats(1e-6, 2.0 * grid.taus[-1])))
        p = grid.interval_index(t)
        cov = [draw(st.integers(0, cov_levels[k] - 1)) for k in range(p + 1)]
        trt = [draw(st.integers(0, trt_levels[k] - 1)) for k in range(p + 1)]
        subjects.append(Trajectory(cov, trt, t))
    return Cohort(subjects, grid), cov_levels, trt_levels


@given(data=small_cohorts(), declare=st.booleans())
@settings(max_examples=100, deadline=None)
def test_write_then_read_cohort_is_identity(data, declare):
    cohort, cov_levels, trt_levels = data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        if declare:
            io.write_cohort(path, cohort, cov_levels, trt_levels)
        else:
            io.write_cohort(path, cohort)
        back, meta = io.read_cohort(path)
    assert back == cohort
    assert meta["covariate_levels"] == (cov_levels if declare else list(cohort.index.covariate_levels))
    assert meta["treatment_levels"] == (trt_levels if declare else list(cohort.index.treatment_levels))


@st.composite
def table_configs(draw):
    n_visits = draw(st.integers(1, 3))
    grid = TimeGrid(tuple(0.7 * k for k in range(n_visits + 1)))
    thresholds = tuple(draw(st.lists(st.sampled_from([0.4, 1.1, 2.5]), max_size=2, unique=True).map(sorted)))
    cov_levels = draw(st.lists(st.integers(1, 3), min_size=n_visits + 1, max_size=n_visits + 1))
    trt_levels = draw(st.lists(st.integers(1, 2), min_size=n_visits + 1, max_size=n_visits + 1))

    def law(levels, first_positive=False):
        weights = draw(st.lists(st.integers(1 if first_positive else 0, 9), min_size=levels, max_size=levels))
        weights[-1] += sum(weights) == 0
        return [w / sum(weights) for w in weights]

    cov, trt = {}, {}
    for k in range(n_visits + 1):
        for lprev in itertools.product(*map(range, cov_levels[:k])):
            for aprev in itertools.product(*map(range, trt_levels[:k])):
                for b in range(len(thresholds) + 1):
                    cov[(k, b, lprev, aprev)] = law(cov_levels[k])
                for l_k in range(cov_levels[k]):
                    trt[(k, lprev + (l_k,), aprev)] = law(trt_levels[k], first_positive=True)
    rates = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3))
    return dgp.DgpConfig(
        grid,
        SurvivalCurve(tuple(0.8 * j for j in range(len(rates))), tuple(rates)),
        thresholds,
        dgp.CovariateLaw(tuple(cov_levels), cov),
        dgp.TreatmentLaw(tuple(trt_levels), trt),
        ShiftParams(draw(st.tuples(*(st.floats(-2.0, 2.0) for _ in range(3))))),
        seed=draw(st.integers(0, 2**32)),
    )


@given(cfg=table_configs())
@settings(max_examples=60, deadline=None)
def test_dgp_config_dict_round_trip_for_table_laws(cfg):
    back = io.dgp_config_from_dict(json.loads(json.dumps(io.dgp_config_to_dict(cfg))))
    for name in ("grid", "baseline", "thresholds", "psi0", "seed"):
        assert getattr(back, name) == getattr(cfg, name), name
    for name in ("covariate_law", "treatment_law"):
        got, want = getattr(back, name), getattr(cfg, name)
        assert got.levels == want.levels and set(got.table) == set(want.table)
        for key, vec in want.table.items():
            assert np.array_equal(got.table[key], vec), (name, key)


@pytest.mark.parametrize(
    "rows, where",
    [
        (["0,0,0.0,1,1,", "0,0,0.0,0,0,", "0,1,,,,0.5"], "line 3: column k"),
        (["0,0,0.0,1,1,", "0,1,,,,0.5", "0,1,,,,0.7"], "line 4: column T_event"),
        (["0,0,0.0,1,1,", "0,1,0.0,,,0.5"], "line 3: column tau_k"),
        (["0,0,0.0,1,1,", "0,1,,1,,0.5"], "line 3: column L1"),
        (["0,0,0.0,1,1,", "0,1,,,0,0.5"], "line 3: column A"),
    ],
)
def test_repeated_rows_and_filled_terminal_cells_are_rejected(tmp_path, rows, where):
    p = _write(tmp_path, rows, {"taus": [0.0, 1.0]})
    with pytest.raises(CohortFormatError, match=where):
        io.read_cohort(p)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["7,0,0.0,-1,0,", "7,1,,,,0.5"], r"x\.csv: line 2: column L1: code -1"),
        (["7,0,0.0,0,-2,", "7,1,,,,0.5"], r"x\.csv: line 2: column A: code -2"),
        (["3,0,0.0,0,0,", "3,1,,,,0.5", "7,0,0.0,0,0,", "7,1,,,,1.5"], r"x\.csv: subject 7 .*k = 1.*implies 2"),
        (["7,0,0.0,0,0,", "7,0,,,,0.5"], r"x\.csv: subject 7 .*k = 0"),
        (["7,0,0.0,0,0,", "7,-1,,,,0.5"], r"x\.csv: subject 7 .*k = -1"),
        (["7,0,0.0,0,0,", "7,2,,,,1.5"], r"x\.csv: subject 7 has visit rows"),
        (["7,0,0.0,1_0,0,", "7,1,,,,0.5"], r"x\.csv: line 2: column L1: bad value '1_0'"),
        (["7,0,0.0,\u0663,0,", "7,1,,,,0.5"], r"x\.csv: line 2: column L1: bad value '\u0663'"),
        (["7,0,0.0,0,0,", "7,1,,,,0_0.5"], r"x\.csv: line 3: column T_event: bad value '0_0.5'"),
    ],
)
def test_reader_errors_name_the_line_or_the_csv_id(tmp_path, rows, message):
    p = _write(tmp_path, rows, {"taus": [0.0, 1.0]})
    with pytest.raises(CohortFormatError, match=message):
        io.read_cohort(p)


def test_infinite_event_time_names_the_line(tmp_path):
    p = _write(tmp_path, ["0,0,0.0,0,0,", "0,1,,,,0.5", "1,0,0.0,0,0,", "1,2,,,,inf"], {"taus": [0.0, 1.0]})
    with pytest.raises(SnftmError, match="line 5: column T_event"):
        io.read_cohort(p)


_WIDE_LEVELS = {"taus": [0.0, 1.0], "covariate_levels": [2, 2**70], "treatment_levels": [2, 2]}


@pytest.mark.parametrize(
    "rows, sidecar, message",
    [
        (b"7,0,0.0,0,0,\n7,1,,,,0.5\xff\n", None, r"x\.csv: line 3: not UTF-8 text \(invalid start byte\)"),
        (b"7,0,0.0,0,0,\n7,99999999999999999999,,,,0.5\n", None,
         r"x\.csv: line 3: column k: 99999999999999999999 is beyond int64"),
        (b"7,0,0.0,0,-0,\n7,1,,,,0.5\n8,0,0.0,18446744073709551616,0,\n8,1,,,,0.5\n", None,
         r"x\.csv: line 4: column L1: 18446744073709551616 is beyond int64"),
        (b"7,0,0.0,0,0,\n7,1,,,,1." + b"0" * 140_000 + b"\n", None, r"x\.csv: line 3: field larger than field limit"),
        # A wide k on a visit row and a wide code over its declared level keep their messages; a code under a
        # level beyond int64 is wide; and a failing row comes before any wide cell.
        (b"7,0,0.0,0,0,\n7,99999999999999999999,1.0,0,0,\n", None,
         r"line 3: column k: visit 99999999999999999999 is off"),
        (b"7,0,0.0,0,0,\n7,1,1.0,1180591620717411303424,0,\n7,2,,,,1.5\n", _WIDE_LEVELS,
         r"line 3: column L1: code 1180591620717411303424 is not in 0\.\.1180591620717411303423"),
        (b"7,0,0.0,0,0,\n7,1,1.0,18446744073709551616,0,\n7,2,,,,1.5\n", _WIDE_LEVELS,
         r"line 3: column L1: 18446744073709551616 is beyond int64"),
        (b"7,0,0.0,0,0,\n7,99999999999999999999,,,,0.5\n7,0,1.0,1,0,\n", None,
         r"line 4: column tau_k: '1\.0' is not 0\.0"),
    ],
)
def test_input_the_csv_module_or_int64_cannot_hold_names_the_line(tmp_path, capsys, rows, sidecar, message):
    from snftm import cli

    p = tmp_path / "x.csv"
    p.write_bytes(b"id,k,tau_k,L1,A,T_event\n" + rows)
    (tmp_path / "x.csv.json").write_text(json.dumps(sidecar or {"taus": [0.0, 1.0]}))
    with pytest.raises(CohortFormatError, match=message):
        io.read_cohort(p)
    with mock.patch.object(io, "_lex_loadtxt", lambda data: None):
        with pytest.raises(CohortFormatError, match=message):
            io.read_cohort(p)
    assert cli.main(["gtest", "--cohort", str(p), "--spec", str(CONFIGS / "treatment_model.json")]) == 1
    err = capsys.readouterr().err
    assert "snftm: error:" in err and "Traceback" not in err, err


def _reference_read_rows(path):
    """``read_cohort`` one row at a time: the reader that the two lexers and the
    array checker replaced, kept as their reference.  It parses and checks each
    row in turn, so the first bad row is the error, and then checks subject by
    subject.  It differs from that reader only where the old one let a bare
    exception out: a non-UTF-8 byte and a cell over the ``csv`` field limit are
    errors naming their line before any row is read, and an integer beyond
    int64 is one naming its line and column after every row passed."""
    meta = json.loads(Path(f"{path}.json").read_text())  # the fuzz writes well-formed sidecars
    grid = TimeGrid(tuple(meta["taus"]))
    levels = [meta.get(name, [math.inf] * (grid.K + 1)) for name in ("covariate_levels", "treatment_levels")]
    K, taus = grid.K, grid.taus
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data[:e.start].count(b"\n") + 1
        raise CohortFormatError(f"{path}: line {line}: not UTF-8 text ({e.reason})") from None
    records = []
    try:
        for record in csv.reader(StringIO(text, newline="")):
            records.append(record)
    except csv.Error as e:
        raise CohortFormatError(f"{path}: line {len(records) + 1}: {e}") from None

    def parse(convert, text, lineno, column):
        try:
            if text.isascii() and "_" not in text:
                return convert(text)
        except ValueError:
            pass
        raise CohortFormatError(f"{path}: line {lineno}: column {column}: bad value {text!r}")

    ids: dict[str, int] = {}  # CSV id -> subject position, in order of first appearance
    visits, ends, end_k, end_t = {}, {}, [], []  # visits: (subject, k) -> (l, a, line); ends: subject -> line
    ints = []  # (line, column, value) of each terminal k and visit code, in file order
    header = records[0] if records else None
    if header is None or tuple(h.strip() for h in header) != io.COHORT_COLUMNS:
        raise CohortFormatError(f"{path}: header must be exactly {','.join(io.COHORT_COLUMNS)}, got {header}")
    for lineno, row in enumerate(records[1:], start=2):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(cells) != 6:
            raise CohortFormatError(f"{path}: line {lineno}: expected 6 columns, got {len(row)}")
        sid, k_s, tau_s, l_s, a_s, t_s = cells
        s = ids.setdefault(sid, len(ids))
        k = parse(int, k_s, lineno, "k")
        if t_s:
            for column, text in zip(io.COHORT_COLUMNS[2:5], (tau_s, l_s, a_s)):
                if text:
                    raise CohortFormatError(f"{path}: line {lineno}: column {column}: {text!r} on a "
                                            "terminal row, which carries only id, k and T_event")
            if s in ends:
                raise CohortFormatError(f"{path}: line {lineno}: column T_event: subject {sid} already "
                                        f"has a terminal row, on line {ends[s]}")
            t = parse(float, t_s, lineno, "T_event")
            if not (math.isfinite(t) and t > 0.0):
                raise CurveDomainError(f"{path}: line {lineno}: column T_event: event_time must be "
                                       f"positive and finite, got {t}")
            ends[s] = lineno
            end_k.append(k)
            end_t.append(t)
            ints.append((lineno, "k", k))
            continue
        if not 0 <= k <= K:
            raise CohortFormatError(f"{path}: line {lineno}: column k: visit {k} is off the grid's 0..{K}")
        if parse(float, tau_s, lineno, "tau_k") != taus[k]:
            raise CohortFormatError(f"{path}: line {lineno}: column tau_k: {tau_s!r} is not {taus[k]!r}")
        codes = (parse(int, l_s, lineno, "L1"), parse(int, a_s, lineno, "A"))
        for code, column, level in zip(codes, ("L1", "A"), levels):
            if not 0 <= code < level[k]:
                raise CohortFormatError(
                    f"{path}: line {lineno}: column {column}: code {code} is not in 0..{level[k] - 1}"
                )
        if (s, k) in visits:
            raise CohortFormatError(f"{path}: line {lineno}: column k: subject {sid} repeats visit {k} "
                                    f"of line {visits[s, k][2]}")
        visits[s, k] = (*codes, lineno)
        ints += [(lineno, "L1", codes[0]), (lineno, "A", codes[1])]
    if not ids:
        raise CohortFormatError(f"{path}: no subjects found")
    for lineno, column, v in ints:
        if not -2**63 <= v < 2**63:
            raise CohortFormatError(f"{path}: line {lineno}: column {column}: {v} is beyond int64")
    n_visits, event_times = [1] * len(ids), np.ones(len(ids))
    for s, k, t in zip(ends, end_k, end_t):
        n_visits[s], event_times[s] = k, t
    implied = grid.implied_visits(event_times)
    for bad, message in (
        (lambda s: s not in ends, lambda s: "has no terminal row"),
        (lambda s: n_visits[s] != implied[s], lambda s: f"has terminal k = {n_visits[s]}, but its event time "
                                                        f"{float(event_times[s])!r} implies {implied[s]} visits"),
        (lambda s: sorted(k for i, k in visits if i == s) != list(range(n_visits[s])),
         lambda s: f"has visit rows that are not exactly 0..{n_visits[s] - 1}"),
    ):
        for sid, s in ids.items():
            if bad(s):
                raise CohortFormatError(f"{path}: subject {sid} {message(s)}")
    l, a = (np.array([visits[key][j] for key in sorted(visits)], dtype=np.int64) for j in (0, 1))
    return Cohort.from_columns(grid, event_times, np.array(n_visits, dtype=np.int64), l, a), meta


def _outcome(path, read=io.read_cohort):
    """What ``read`` makes of ``path``: every column of the cohort, bit for bit,
    with its grid and sidecar, or the class and message of the error it raises."""
    try:
        cohort, meta = read(path)
    except Exception as e:
        return type(e), str(e)
    columns = {c: (getattr(cohort, c).dtype.str, getattr(cohort, c).tobytes())
               for c in ("event_times", "subject", "k", "l", "a", "last")}
    return columns, cohort.grid, meta


_CELLS = st.sampled_from([
    b"", b"07", b"+7", b"-7", b"00", b"-0", b"x7", b" 7", b'"7"', b"7 ", b"nan", b"inf", b"-inf", b"Infinity",
    b"1e999", b"1e-400", b"0e0", b"1E0", b"1.0", b"1.", b".5", b"-.5e-3", b"+1", b"1_0", "\u0663".encode(),
    str(2**53 + 1).encode(), str(2**63 - 1).encode(), str(2**63).encode(), str(2**64).encode(),
    str(-2**63 - 1).encode(), b"9" * 40, b"INF", b"-nAn", b"infinit", b"1.e5", "\u0131nf".encode(),
]) | st.text("0123456789+-.eE", max_size=6).map(str.encode) | st.integers(-2, 6).map(lambda v: str(v).encode())


def _respell(cell: bytes, how: int) -> bytes:
    """``cell`` spelled another way that ``int``/``float`` read to the same value, when it has one."""
    try:
        v = float(cell)
    except ValueError:
        return cell
    if how == 0:
        return b"+" + cell
    if how == 1:
        return b"0" + cell
    return (f"{v:.17e}" if how == 2 else f"{v:.17E}").encode() if b"." in cell else cell


_CELL_EDITS = ("quote", "cell", "respell", "non-utf8", "copy cell", "fill a terminal row", "end a visit row",
               "empty a visit row", "k", "tau_k", "code")
_MUTATIONS = ("shuffle", "crlf", "bom", "no final newline", "blank line", "truncate", "repeat row", "drop row",
              *_CELL_EDITS)


@st.composite
def mutated_cohort_files(draw):
    """The bytes of a cohort file that ``write_cohort`` wrote, then mutated at random."""
    cohort, cov_levels, trt_levels = draw(small_cohorts())
    declare = draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        io.write_cohort(path, cohort, *((cov_levels, trt_levels) if declare else ()))
        header, *lines = path.read_bytes().split(b"\n")[:-1]
        sidecar = (Path(tmp) / "c.csv.json").read_bytes()
    newline, bom, tail = b"\n", b"", b"\n"
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=4)):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        cells = lines[at].split(b",")
        other = lines[draw(st.integers(0, len(lines) - 1))].split(b",")
        j = draw(st.integers(0, len(cells) - 1))
        if kind in ("k", "tau_k", "code") and len(cells) < 6:  # a truncated row
            continue
        if kind == "shuffle":
            lines = draw(st.permutations(lines))
        elif kind == "crlf":
            newline = b"\r\n"
        elif kind == "bom":
            bom = b"\xef\xbb\xbf"
        elif kind == "no final newline":
            tail = b""
        elif kind == "blank line":
            lines.insert(at, draw(st.sampled_from([b"", b",,,,,", b" "])))
        elif kind == "quote":
            cells[j] = b'"' + cells[j] + b'"'
        elif kind == "truncate":
            lines[at] = lines[at][:draw(st.integers(0, max(len(lines[at]) - 1, 0)))]
        elif kind == "cell":
            cells[j] = draw(_CELLS)
        elif kind == "respell":
            cells[j] = _respell(cells[j], draw(st.integers(0, 3)))
        elif kind == "repeat row":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif kind == "drop row":
            del lines[at]
        elif kind == "non-utf8":
            cells[j] += draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"]))
        elif kind == "copy cell":
            cells[j] = other[min(j, len(other) - 1)]
        elif kind == "fill a terminal row":  # tau_k, L1 and A of some row, maybe a visit row's
            cells[2:5] = other[2:5]
        elif kind == "end a visit row":
            cells[5:] = [draw(st.sampled_from([b"0.5", b"1.5", b"9.0", b"0", b"-1.0", b"nan", b"inf"]))]
        elif kind == "empty a visit row":
            cells[2:5] = [b"", b"", b""]
        elif kind == "k":
            cells[1] = str(draw(st.sampled_from([-1, 0, cohort.grid.K, cohort.grid.K + 1]))).encode()
        elif kind == "tau_k":
            cells[2] = repr(draw(st.sampled_from(cohort.grid.taus))).encode()
        elif kind == "code":
            cells[draw(st.sampled_from([3, 4]))] = str(draw(st.integers(-2, 4))).encode()
        if kind in _CELL_EDITS:
            lines[at] = b",".join(cells)
    body = newline.join([header, *lines])
    return bom + body + (tail and newline), sidecar


def _against_the_reference(test):
    """``test(files)`` on 500 mutated cohort files and on examples that pin edges of the readers."""
    taus = b'{"taus": [0.0, 1.0]}'
    for data in (
        b"id,k,tau_k,L1,A,T_event\n07,0,0.0,0,0,\n7,1,,,,0.5\n07,1,,,,0.5\n",
        b"id,k,tau_k,L1,A,T_event\n" + str(2**53).encode() + b",0,0.0,0,0,\n" + str(2**53 + 1).encode()
        + b",0,0.0,0,0,\n" + str(2**53).encode() + b",1,,,,0.5\n" + str(2**53 + 1).encode() + b",1,,,,0.5\n",
        b"id,k,tau_k,L1,A,T_event\n7,0,0.0,0,0,\n7,-1,1.0,0,0,\n7,2,,,,1.5\n",
        b"id,k,tau_k,L1,A,T_event\n7,0,0.0,0,0,nan\n7,1,,,,0.5\n",
        b"id,k,tau_k,L1,A,T_event\n7,0,0.0,0,0,\n7,1,,,,1." + b"0" * 140_000 + b"\n",
        b"id,k,tau_k,L1,A,T_event\n7,0,0.0,0,0,\n7,1,1.0,,,x\n",  # a filled tau_k before a bad T_event
        b"id,k,tau_k,L1,A,T_event\n7,0,x,-1,0,\n7,1,,,,0.5\n",  # a bad tau_k before a code out of range
        b"id,k,tau_k,L1,A,T_event\n7,0,0.0,0,0,\n7,1,,,,0.5\xff\n",
        b"id,k,tau_k,L1,A,T_event\n7,0,0.0,0,99999999999999999999,\n7,99999999999999999999,,,,0.5\n",
    ):
        test = example(files=(data, taus))(test)
    return given(files=mutated_cohort_files())(settings(max_examples=500, deadline=None)(test))


def _agrees_with_the_reference(files):
    data, sidecar = files
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        path.write_bytes(data)
        (Path(tmp) / "c.csv.json").write_bytes(sidecar)
        assert _outcome(path) == _outcome(path, _reference_read_rows)


@_against_the_reference
def test_array_parse_agrees_with_the_row_by_row_reader(files):
    _agrees_with_the_reference(files)


@_against_the_reference
def test_csv_lexer_agrees_with_the_row_by_row_reader(files):
    with mock.patch.object(io, "_lex_loadtxt", lambda data: None):
        _agrees_with_the_reference(files)


def test_well_formed_files_never_reach_the_row_by_row_reader(tmp_path, monkeypatch):
    """Files that np.loadtxt reads, shuffled or with a byte-order mark and CRLF, never reach the csv lexer."""
    cohort = dgp.sample_cohort(io.load_dgp_config(CONFIGS / "demo_dgp.json"), 2000, seed=5)
    path = tmp_path / "c.csv"
    io.write_cohort(path, cohort)
    header, *lines = path.read_bytes().splitlines()
    lines = [lines[i] for i in np.random.default_rng(0).permutation(len(lines))]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join([header, *lines]))
    shuffled.with_name("shuffled.csv.json").write_bytes(path.with_name("c.csv.json").read_bytes())

    def fail(*args):
        raise AssertionError("the csv lexer ran")

    monkeypatch.setattr(io, "_lex_csv", fail)
    assert io.read_cohort(path)[0] == cohort
    seen = list(dict.fromkeys(int(line.split(b",")[0]) for line in lines))  # subjects by first appearance
    assert io.read_cohort(shuffled)[0].subjects == tuple(cohort.subjects[i] for i in seen)


@pytest.mark.parametrize("row", ["0,0,0.0,1,1,", " 0 , 0 , 0.0 , 1 , 1 , "])  # the array parse, then row by row
def test_a_byte_order_mark_before_the_header_is_skipped(tmp_path, row):
    p = _write(tmp_path, [row, "0,1,,,,0.5"], {"taus": [0.0, 1.0]})
    with_bom = tmp_path / "bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    with_bom.with_name("bom.csv.json").write_bytes(p.with_name("x.csv.json").read_bytes())
    assert isinstance(_outcome(p)[0], dict)
    assert _outcome(with_bom) == _outcome(p)
