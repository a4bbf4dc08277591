import json

import numpy as np
import pytest

from pathlib import Path

from snftm import dgp, gest, io
from snftm.core import CohortFormatError, SnftmError, apply_regime

from conftest import make_config


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
    with pytest.raises(CohortFormatError, match="sidecar"):
        io.read_cohort(p)


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
    ):
        g = io.regime_from_dict(d, 2)
        assert apply_regime(g, lbar) == expect
    table = io.regime_from_dict(
        {"kind": "table", "tables": [{"0": 1, "1": 0}, {"0,0": 0, "0,1": 1, "1,0": 0, "1,1": 1}]}, 2
    )
    assert apply_regime(table, (0, 1)) == (1, 1)
    with pytest.raises(CohortFormatError):
        io.regime_from_dict({"kind": "mystery"}, 2)


def test_t_grid_parser():
    np.testing.assert_allclose(io.parse_t_grid("0.5:2.0:0.5"), [0.5, 1.0, 1.5, 2.0])
    with pytest.raises(CohortFormatError):
        io.parse_t_grid("1:2")
    with pytest.raises(CohortFormatError):
        io.parse_t_grid("2:1:0.5")


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
        with pytest.raises(SnftmError, match="g.knots"):
            io.treatment_spec_from_dict({"g": {"knots": bad}})
