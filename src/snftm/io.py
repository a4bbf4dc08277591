"""File formats: the long cohort CSV with its JSON sidecar, and JSON codecs
for world configs, regimes and model specs.

Cohort CSV: one row per subject-visit plus one terminal row per subject.
Columns, in fixed order: ``id, k, tau_k, L1, A, T_event``.  Visit rows leave
``T_event`` empty; the terminal row carries only ``id``, ``k`` (one past the
last visit) and ``T_event``.  UTF-8 with a header.  The grid and alphabets
live in a sidecar JSON next to the CSV (``<name>.json``).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import (
    Cohort,
    CohortFormatError,
    SurvivalCurve,
    TimeGrid,
    Trajectory,
    TreatmentRegime,
)
from .dgp import CovariateLaw, DgpConfig, TreatmentLaw
from .gest import GFeature, TreatmentModelSpec
from .mle import ParametricModel
from .shift import ShiftParams

__all__ = [
    "write_cohort",
    "read_cohort",
    "dgp_config_to_dict",
    "dgp_config_from_dict",
    "load_dgp_config",
    "regime_from_dict",
    "load_regime",
    "treatment_spec_from_dict",
    "load_treatment_spec",
    "mle_template_from_dict",
    "load_mle_template",
    "atomic_write_text",
]

SCHEMA_VERSION = 1

COHORT_COLUMNS = ("id", "k", "tau_k", "L1", "A", "T_event")


def atomic_write_text(path, text: str):
    """Write via a temp file in the target directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".json")


def write_cohort(path, cohort: Cohort, covariate_levels=None, treatment_levels=None):
    """Emit the cohort CSV and its sidecar; returns the sidecar path."""
    rows = [",".join(COHORT_COLUMNS)]
    for i, traj in enumerate(cohort):
        for k in range(traj.n_visits):
            rows.append(
                f"{i},{k},{cohort.grid.tau(k)!r},{traj.covariates[k]},{traj.treatments[k]},"
            )
        rows.append(f"{i},{traj.n_visits},,,,{traj.event_time!r}")
    atomic_write_text(path, "\n".join(rows) + "\n")
    if covariate_levels is None:
        covariate_levels = [
            max((t.covariates[k] for t in cohort if t.n_visits > k), default=-1) + 1
            for k in range(cohort.grid.K + 1)
        ]
    if treatment_levels is None:
        treatment_levels = [
            max((t.treatments[k] for t in cohort if t.n_visits > k), default=-1) + 1
            for k in range(cohort.grid.K + 1)
        ]
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "taus": list(cohort.grid.taus),
        "covariate_levels": [int(v) for v in covariate_levels],
        "treatment_levels": [int(v) for v in treatment_levels],
    }
    side_path = _sidecar_path(path)
    atomic_write_text(side_path, json.dumps(sidecar, indent=2) + "\n")
    return side_path


def read_cohort(path, sidecar=None) -> tuple[Cohort, dict]:
    """Parse the cohort CSV (+ sidecar); returns ``(cohort, sidecar_dict)``."""
    side_path = Path(sidecar) if sidecar is not None else _sidecar_path(path)
    try:
        meta = json.loads(Path(side_path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CohortFormatError(f"missing sidecar config {side_path}") from None
    except json.JSONDecodeError as e:
        raise CohortFormatError(f"{side_path}: invalid JSON at line {e.lineno} column {e.colno}") from None
    grid = TimeGrid(tuple(meta["taus"]))

    subjects: dict[str, dict] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != COHORT_COLUMNS:
            raise CohortFormatError(
                f"{path}: header must be exactly {','.join(COHORT_COLUMNS)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(COHORT_COLUMNS):
                raise CohortFormatError(
                    f"{path}: line {lineno}: expected {len(COHORT_COLUMNS)} columns, got {len(row)}"
                )
            sid, k_s, _tau, l_s, a_s, t_s = (c.strip() for c in row)
            rec = subjects.setdefault(sid, {"visits": {}, "event": None, "line": lineno})
            try:
                k = int(k_s)
            except ValueError:
                raise CohortFormatError(f"{path}: line {lineno}: bad visit index {k_s!r}") from None
            if t_s:
                try:
                    rec["event"] = float(t_s)
                except ValueError:
                    raise CohortFormatError(f"{path}: line {lineno}: bad event time {t_s!r}") from None
                rec["n_visits"] = k
            else:
                try:
                    rec["visits"][k] = (int(l_s), int(a_s))
                except ValueError:
                    raise CohortFormatError(
                        f"{path}: line {lineno}: bad covariate/treatment codes {l_s!r}, {a_s!r}"
                    ) from None

    trajs = []
    for sid, rec in subjects.items():
        if rec["event"] is None:
            raise CohortFormatError(f"{path}: subject {sid} has no terminal row")
        n = rec.get("n_visits", len(rec["visits"]))
        if sorted(rec["visits"]) != list(range(n)):
            raise CohortFormatError(
                f"{path}: subject {sid}: visit rows are not exactly 0..{n - 1}"
            )
        cov = tuple(rec["visits"][k][0] for k in range(n))
        trt = tuple(rec["visits"][k][1] for k in range(n))
        trajs.append(Trajectory(cov, trt, rec["event"]))
    if not trajs:
        raise CohortFormatError(f"{path}: no subjects found")
    return Cohort(tuple(trajs), grid), meta


# ---------------------------------------------------------------------------
# World configs


def _law_to_dict(law) -> dict:
    if law.spec is not None:
        return dict(law.spec)
    entries = [
        [list(key[:1])[0], *_key_rest(key), [float(p) for p in vec]]
        for key, vec in sorted(law.table.items())
    ]
    return {"kind": "table", "levels": list(law.levels), "entries": entries}


def _key_rest(key):
    out = []
    for part in key[1:]:
        out.append(list(part) if isinstance(part, tuple) else part)
    return out


def dgp_config_to_dict(cfg: DgpConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "taus": list(cfg.grid.taus),
        "baseline": {"bounds": list(cfg.baseline.bounds), "rates": list(cfg.baseline.rates)},
        "thresholds": list(cfg.thresholds),
        "covariate_law": _law_to_dict(cfg.covariate_law),
        "treatment_law": _law_to_dict(cfg.treatment_law),
        "psi0": list(cfg.psi0.psi),
        "seed": cfg.seed,
    }


def _covariate_law_from_dict(d: dict) -> CovariateLaw:
    kind = d.get("kind")
    if kind == "logistic":
        return CovariateLaw.from_logistic(
            d["n_visits"],
            d["n_bins"],
            intercept=d["intercept"],
            bin_coef=d.get("bin_coef", 0.0),
            l_prev_coef=d.get("l_prev_coef", 0.0),
            a_prev_coef=d.get("a_prev_coef", 0.0),
            treatment_levels=tuple(d.get("treatment_levels", ())) or None,
        )
    if kind == "table":
        table = {
            (int(k), int(b), tuple(lp), tuple(ap)): np.asarray(vec)
            for k, b, lp, ap, vec in d["entries"]
        }
        return CovariateLaw(tuple(d["levels"]), table)
    raise CohortFormatError(f"unknown covariate law kind {kind!r}")


def _treatment_law_from_dict(d: dict) -> TreatmentLaw:
    kind = d.get("kind")
    if kind == "logistic":
        return TreatmentLaw.from_logistic(
            d["n_visits"],
            intercept=d["intercept"],
            l_coef=d.get("l_coef", 0.0),
            a_prev_coef=d.get("a_prev_coef", 0.0),
            covariate_levels=tuple(d.get("covariate_levels", ())) or None,
        )
    if kind == "table":
        table = {
            (int(k), tuple(lb), tuple(ap)): np.asarray(vec)
            for k, lb, ap, vec in d["entries"]
        }
        return TreatmentLaw(tuple(d["levels"]), table)
    raise CohortFormatError(f"unknown treatment law kind {kind!r}")


def dgp_config_from_dict(d: dict) -> DgpConfig:
    try:
        return DgpConfig(
            grid=TimeGrid(tuple(d["taus"])),
            baseline=SurvivalCurve(tuple(d["baseline"]["bounds"]), tuple(d["baseline"]["rates"])),
            thresholds=tuple(d["thresholds"]),
            covariate_law=_covariate_law_from_dict(d["covariate_law"]),
            treatment_law=_treatment_law_from_dict(d["treatment_law"]),
            psi0=ShiftParams(tuple(d["psi0"])),
            seed=int(d.get("seed", 0)),
        )
    except KeyError as e:
        raise CohortFormatError(f"world config is missing field {e}") from None


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CohortFormatError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise CohortFormatError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from None


def load_dgp_config(path) -> DgpConfig:
    return dgp_config_from_dict(_load_json(path))


def regime_from_dict(d: dict, n_visits: int) -> TreatmentRegime:
    kind = d.get("kind")
    if kind == "static":
        return TreatmentRegime.static(d["doses"])
    if kind == "threshold":
        return TreatmentRegime.threshold(n_visits, level=int(d["level"]), dose=int(d.get("dose", 1)))
    if kind == "never":
        return TreatmentRegime.baseline(n_visits)
    if kind == "stopped":
        return TreatmentRegime.stopped(d["prefix"], n_visits)
    if kind == "table":
        tables = [
            {tuple(int(v) for v in key.split(",") if v != ""): int(a) for key, a in t.items()}
            for t in d["tables"]
        ]
        return TreatmentRegime.from_tables(tables, label=d.get("label", "table"))
    raise CohortFormatError(f"unknown regime kind {kind!r}")


def load_regime(path, n_visits: int) -> TreatmentRegime:
    return regime_from_dict(_load_json(path), n_visits)


def _knots_from_list(raw) -> tuple[float, ...]:
    try:
        knots = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        raise CohortFormatError(f"g.knots must be a list of numbers, got {raw!r}") from None
    if any(not (math.isfinite(k) and k > 0.0) for k in knots) or any(
        b <= a for a, b in zip(knots, knots[1:])
    ):
        raise CohortFormatError(f"g.knots must be positive and strictly increasing, got {list(knots)}")
    return knots


def treatment_spec_from_dict(d: dict) -> TreatmentModelSpec:
    g = d.get("g", {})
    clip = g.get("clip")
    return TreatmentModelSpec(
        f_terms=tuple(d.get("f_terms", ("intercept", "l", "a_prev"))),
        g=GFeature(
            clip=tuple(clip) if clip else None,
            log=bool(g.get("log", False)),
            powers=int(g.get("powers", 1)),
            knots=_knots_from_list(g.get("knots") or ()),
        ),
        components=tuple(d.get("components", (0,))),
        psi_dim=int(d.get("psi_dim", 3)),
    )


def load_treatment_spec(path) -> TreatmentModelSpec:
    return treatment_spec_from_dict(_load_json(path))


def mle_template_from_dict(d: dict, grid: TimeGrid) -> ParametricModel:
    psi_init = d.get("psi_init")
    return ParametricModel.template(
        grid,
        tuple(d["baseline_bounds"]),
        tuple(d.get("bins", ())),
        psi_init=ShiftParams(tuple(psi_init)) if psi_init else None,
    )


def load_mle_template(path, grid: TimeGrid) -> ParametricModel:
    return mle_template_from_dict(_load_json(path), grid)


def parse_t_grid(text: str) -> np.ndarray:
    """``a:b:step`` inclusive grid."""
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise CohortFormatError(f"t-grid must be a:b:step, got {text!r}") from None
    if step <= 0 or b < a:
        raise CohortFormatError(f"bad t-grid {text!r}")
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    return a + step * np.arange(n)
