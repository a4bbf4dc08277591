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
import functools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    Cohort,
    CohortFormatError,
    CurveDomainError,
    SurvivalCurve,
    TimeGrid,
    TreatmentRegime,
)
from .cfsim import FittedWorld
from .dgp import CovariateLaw, DgpConfig, TreatmentLaw
from .shift import PSI_DIM, ShiftParams

if TYPE_CHECKING:  # gest and mle load scipy; their codecs import them when called
    from .gest import TreatmentModelSpec
    from .mle import ParametricModel

__all__ = [
    "write_cohort",
    "read_cohort",
    "dgp_config_to_dict",
    "dgp_config_from_dict",
    "load_dgp_config",
    "regime_from_dict",
    "load_regime",
    "treatment_spec_from_dict",
    "treatment_spec_to_dict",
    "load_treatment_spec",
    "mle_template_from_dict",
    "load_mle_template",
    "load_fitted_world",
    "atomic_write_text",
]

SCHEMA_VERSION = 1

COHORT_COLUMNS = ("id", "k", "tau_k", "L1", "A", "T_event")

MAX_T_GRID_POINTS = 100_000


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
    taus = [repr(t) for t in cohort.grid.taus]
    times = cohort.event_times.tolist()
    columns = (cohort.subject, cohort.k, cohort.l, cohort.a, cohort.last)
    for i, k, l, a, last in zip(*(c.tolist() for c in columns)):
        rows.append(f"{i},{k},{taus[k]},{l},{a},")
        if last:
            rows.append(f"{i},{k + 1},,,,{times[i]!r}")
    atomic_write_text(path, "\n".join(rows) + "\n")
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "taus": list(cohort.grid.taus),
        "covariate_levels": [int(v) for v in (
            cohort.index.covariate_levels if covariate_levels is None else covariate_levels)],
        "treatment_levels": [int(v) for v in (
            cohort.index.treatment_levels if treatment_levels is None else treatment_levels)],
    }
    side_path = _sidecar_path(path)
    atomic_write_text(side_path, json.dumps(sidecar, indent=2) + "\n")
    return side_path


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _is_finite(v) -> bool:
    return type(v) in (int, float) and -math.inf < v < math.inf


def _list_field(d: dict, name: str, where, length: int | None = None, ints: bool = False,
                at_most: bool = False) -> list:
    """Field ``name`` of ``d``: finite numbers or, with ``ints``, non-negative
    integers; with ``length``, exactly (or ``at_most``) that many."""
    raw = d[name]
    ok, what = (_is_count, "non-negative integers") if ints else (_is_finite, "finite numbers")
    size = "" if length is None else f"{'at most ' if at_most else ''}{length} "
    if not isinstance(raw, list) or not all(map(ok, raw)) or (
        length not in (None, len(raw)) and not (at_most and len(raw) < length)
    ):
        raise CohortFormatError(f"{where}: field {name!r} must be a list of {size}{what}, got {raw!r}")
    return raw


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _require(ok: bool, where, name: str, rule: str, got):
    """A well-typed field ``name`` whose value breaks ``rule`` is a format error naming it."""
    if not ok:
        raise CohortFormatError(f"{where}: field {name!r} must be {rule}, got {got!r}")


def _parse(convert, text: str, path, lineno: int, column: str):
    try:
        return convert(text)
    except ValueError:
        raise CohortFormatError(f"{path}: line {lineno}: column {column}: bad value {text!r}") from None


def read_cohort(path) -> tuple[Cohort, dict]:
    """Parse the cohort CSV and its sidecar; returns ``(cohort, sidecar_dict)``.

    Rows may come in any order.  Each subject has one terminal row, which
    carries only ``id``, ``k`` and ``T_event``, with ``k`` the visit count
    that ``T_event`` implies, and one visit row for each of ``0 .. k - 1``.
    Every visit row's ``tau_k`` must be the grid's time of visit ``k`` and
    its codes non-negative; when the sidecar declares
    ``covariate_levels``/``treatment_levels`` (one per visit), each code
    must lie in ``0 .. level - 1``.
    """
    side_path = _sidecar_path(path)
    try:
        meta = json.loads(side_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CohortFormatError(f"missing sidecar config {side_path}") from None
    except json.JSONDecodeError as e:
        raise CohortFormatError(f"{side_path}: invalid JSON at line {e.lineno} column {e.colno}") from None
    if not isinstance(meta, dict) or "taus" not in meta:
        raise CohortFormatError(f"{side_path}: missing field 'taus'")
    grid = TimeGrid(tuple(_list_field(meta, "taus", side_path)))
    K, taus = grid.K, grid.taus
    declared = [(j, column, _list_field(meta, name, side_path, K + 1, ints=True)
                 if name in meta else [math.inf] * (K + 1))
                for j, (column, name) in enumerate((("L1", "covariate_levels"), ("A", "treatment_levels")))]

    ids: dict[str, int] = {}  # CSV id -> subject position, in order of first appearance
    visits, ends, end_k, end_t = {}, {}, [], []  # visits: (subject, k) -> (l, a, line); ends: subject -> line
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != COHORT_COLUMNS:
            raise CohortFormatError(
                f"{path}: header must be exactly {','.join(COHORT_COLUMNS)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if len(cells) != len(COHORT_COLUMNS):
                raise CohortFormatError(
                    f"{path}: line {lineno}: expected {len(COHORT_COLUMNS)} columns, got {len(row)}"
                )
            sid, k_s, tau_s, l_s, a_s, t_s = cells
            s = ids.setdefault(sid, len(ids))
            k = _parse(int, k_s, path, lineno, "k")
            if t_s:
                for column, text in zip(COHORT_COLUMNS[2:5], (tau_s, l_s, a_s)):
                    if text:
                        raise CohortFormatError(f"{path}: line {lineno}: column {column}: {text!r} on a "
                                                "terminal row, which carries only id, k and T_event")
                if s in ends:
                    raise CohortFormatError(f"{path}: line {lineno}: column T_event: subject {sid} already "
                                            f"has a terminal row, on line {ends[s]}")
                t = _parse(float, t_s, path, lineno, "T_event")
                if not (math.isfinite(t) and t > 0.0):
                    raise CurveDomainError(f"{path}: line {lineno}: column T_event: event_time must be "
                                           f"positive and finite, got {t}")
                ends[s] = lineno
                end_k.append(k)
                end_t.append(t)
                continue
            if not 0 <= k <= K:
                raise CohortFormatError(f"{path}: line {lineno}: column k: visit {k} is off the grid's 0..{K}")
            if _parse(float, tau_s, path, lineno, "tau_k") != taus[k]:
                raise CohortFormatError(f"{path}: line {lineno}: column tau_k: {tau_s!r} is not {taus[k]!r}")
            codes = (_parse(int, l_s, path, lineno, "L1"), _parse(int, a_s, path, lineno, "A"))
            for j, column, levels in declared:
                if not 0 <= codes[j] < levels[k]:
                    raise CohortFormatError(
                        f"{path}: line {lineno}: column {column}: code {codes[j]} is not in 0..{levels[k] - 1}"
                    )
            if (s, k) in visits:
                raise CohortFormatError(f"{path}: line {lineno}: column k: subject {sid} repeats visit {k} "
                                        f"of line {visits[s, k][2]}")
            visits[s, k] = (*codes, lineno)
    if not ids:
        raise CohortFormatError(f"{path}: no subjects found")

    # Per-subject checks, for the first subject that fails one.
    n = len(ids)
    subj, k = np.array(list(visits), dtype=np.int64).reshape(-1, 2).T
    ended, n_visits, event_times = np.zeros(n, dtype=bool), np.ones(n, dtype=np.int64), np.ones(n)
    ended[list(ends)], n_visits[list(ends)], event_times[list(ends)] = True, end_k, end_t
    implied = grid.implied_visits(event_times)
    # A subject's visits are distinct and >= 0: exactly 0 .. m - 1 when there are m and the largest is m - 1.
    counts, largest = np.bincount(subj, minlength=n), np.full(n, -1)
    np.maximum.at(largest, subj, k)
    for bad, message in (
        (~ended, lambda i: "has no terminal row"),
        (n_visits != implied, lambda i: f"has terminal k = {n_visits[i]}, but its event time "
                                        f"{float(event_times[i])!r} implies {implied[i]} visits"),
        ((counts != n_visits) | (largest != n_visits - 1),
         lambda i: f"has visit rows that are not exactly 0..{n_visits[i] - 1}"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise CohortFormatError(f"{path}: subject {list(ids)[i]} {message(i)}")
    order = np.lexsort((k, subj))  # subject-major, then by visit
    l, a, _ = np.array(list(visits.values()), dtype=np.int64).reshape(-1, 3)[order].T
    return Cohort.from_columns(grid, event_times, n_visits, l, a), meta


# ---------------------------------------------------------------------------
# World configs


def _law_to_dict(law) -> dict:
    if law.spec is not None:
        return dict(law.spec)
    entries = [
        [*(list(part) if isinstance(part, tuple) else part for part in key), [float(p) for p in vec]]
        for key, vec in sorted(law.table.items())
    ]
    return {"kind": "table", "levels": list(law.levels), "entries": entries}


_WORLD_KEYS = ("schema_version", "taus", "baseline", "thresholds", "covariate_law", "treatment_law", "psi0", "seed")


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


def _law_from_dict(law_cls, d: dict):
    """The inverse of :func:`_law_to_dict` for ``CovariateLaw`` or ``TreatmentLaw``."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind == "logistic":
        try:
            return law_cls.from_logistic(**{key: v for key, v in d.items() if key != "kind"})
        except TypeError as e:
            raise CohortFormatError(f"bad logistic {law_cls.__name__}: {e}") from None
    if kind == "table":
        what = f"table {law_cls.__name__}"
        _known_keys(d, ("kind", "levels", "entries"), what, ("levels", "entries"))
        if not isinstance(d["entries"], list):
            raise CohortFormatError(f"{what}: field 'entries' must be a list, got {d['entries']!r}")
        part = lambda p: _is_count(p) or (isinstance(p, list) and all(map(_is_count, p)))
        table = {}
        for i, entry in enumerate(d["entries"]):
            if not (isinstance(entry, list) and entry and isinstance(entry[-1], list)
                    and all(map(_is_finite, entry[-1])) and all(map(part, entry[:-1]))):
                raise CohortFormatError(f"{what}: field 'entries'[{i}] must be [*key, probs] with non-negative integer "
                                        f"(or integer list) key parts and finite probabilities, got {entry!r}")
            table[tuple(tuple(p) if isinstance(p, list) else p for p in entry[:-1])] = np.asarray(entry[-1], dtype=float)
        return law_cls(tuple(_list_field(d, "levels", what, ints=True)), table)
    raise CohortFormatError(f"unknown {law_cls.__name__} kind {kind!r}")


_covariate_law_from_dict = functools.partial(_law_from_dict, CovariateLaw)
_treatment_law_from_dict = functools.partial(_law_from_dict, TreatmentLaw)


def dgp_config_from_dict(d: dict) -> DgpConfig:
    what = "world config"
    _known_keys(d, _WORLD_KEYS, what)
    try:
        where = f"{what} 'baseline'"
        base = _known_keys(d["baseline"], ("bounds", "rates"), where, ("bounds", "rates"))
        return DgpConfig(
            grid=TimeGrid(tuple(_list_field(d, "taus", what))),
            baseline=SurvivalCurve(*(tuple(_list_field(base, key, where)) for key in ("bounds", "rates"))),
            thresholds=tuple(_list_field(d, "thresholds", what)),
            covariate_law=_covariate_law_from_dict(d["covariate_law"]),
            treatment_law=_treatment_law_from_dict(d["treatment_law"]),
            psi0=ShiftParams(tuple(_list_field(d, "psi0", what, PSI_DIM))),
            seed=_field(d, "seed", what, 0, _is_count, "a non-negative integer"),
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


_REGIME_KEYS = {  # kind -> (required keys, optional keys)
    "static": (("doses",), ()),
    "threshold": (("level",), ("dose",)),
    "never": ((), ()),
    "stopped": (("prefix",), ()),
    "table": (("tables",), ("label",)),
}


def regime_from_dict(d: dict, n_visits: int) -> TreatmentRegime:
    """A regime for a world of ``n_visits`` visits: ``static`` doses and
    ``table`` tables give exactly one entry per visit, a ``stopped`` prefix
    at most that many."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _REGIME_KEYS:
        raise CohortFormatError(f"unknown regime kind {kind!r}; expected one of {list(_REGIME_KEYS)}")
    required, optional = _REGIME_KEYS[kind]
    what = f"{kind} regime"
    _known_keys(d, ("kind", *required, *optional), what, required)
    if kind == "static":
        return TreatmentRegime.static(_list_field(d, "doses", what, n_visits, ints=True))
    if kind == "threshold":
        level, dose = d["level"], d.get("dose", 1)
        if not all(type(v) is int and v >= 0 for v in (level, dose)):
            raise CohortFormatError(f"{what}: fields 'level' and 'dose' must be non-negative integers, "
                                    f"got {level!r} and {dose!r}")
        return TreatmentRegime.threshold(n_visits, level=level, dose=dose)
    if kind == "never":
        return TreatmentRegime.baseline(n_visits)
    if kind == "stopped":
        return TreatmentRegime.stopped(_list_field(d, "prefix", what, n_visits, ints=True, at_most=True), n_visits)
    try:
        tables = [
            {tuple(int(v) for v in key.split(",") if v != ""): int(a) for key, a in t.items()}
            for t in d["tables"]
        ]
    except (AttributeError, TypeError, ValueError):
        tables = None
    if not isinstance(d["tables"], list) or tables is None or len(tables) != n_visits:
        raise CohortFormatError(f"{what}: field 'tables' must be a list of {n_visits} objects mapping "
                                f"'l_0,...,l_k' to a dose, got {d['tables']!r}")
    return TreatmentRegime.from_tables(tables, label=d.get("label", "table"))


def load_regime(path, n_visits: int) -> TreatmentRegime:
    return regime_from_dict(_load_json(path), n_visits)


def _known_keys(d, allowed: tuple[str, ...], what: str, required: tuple[str, ...] = ()) -> dict:
    if not isinstance(d, dict):
        raise CohortFormatError(f"{what} must be a JSON object, got {d!r}")
    unknown = [key for key in d if key not in allowed]
    if unknown:
        raise CohortFormatError(f"unknown {what} key(s) {unknown}; expected some of {list(allowed)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise CohortFormatError(f"{what} is missing field(s) {missing}")
    return d


def _field(d: dict, name: str, where, default, ok, what: str):
    """Optional field ``name`` of ``d`` (``default`` when absent), which ``ok`` must accept."""
    v = d.get(name, default)
    if not ok(v):
        raise CohortFormatError(f"{where}: field {name!r} must be {what}, got {v!r}")
    return v


def treatment_spec_from_dict(d: dict) -> TreatmentModelSpec:
    """The treatment spec of ``d``.  ``psi_dim``, which older files carry,
    is accepted only as the model's ``PSI_DIM``."""
    from .gest import _F_TERMS, GFeature, TreatmentModelSpec

    what, where_g = "treatment spec", "treatment spec 'g'"
    _known_keys(d, ("f_terms", "g", "components", "psi_dim"), what)
    _field(d, "psi_dim", what, PSI_DIM, lambda v: type(v) is int and v == PSI_DIM, f"{PSI_DIM}")
    g = _known_keys(d.get("g", {}), ("clip", "log", "powers", "knots"), where_g)
    names = lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v)
    f_terms = _field(d, "f_terms", what, ["intercept", "l", "a_prev"], names, "a list of strings")
    _require(len(f_terms) > 0 and set(f_terms) <= set(_F_TERMS), what, "f_terms",
             f"a non-empty list of terms from {list(_F_TERMS)}", f_terms)
    log = _field(g, "log", where_g, False, lambda v: type(v) is bool, "true or false")
    clip = None if g.get("clip") is None else _list_field(g, "clip", where_g, 2)
    _require(clip is None or clip[0] < clip[1] and (clip[1] > 0.0 or not log), where_g, "clip",
             "[lo, hi] with lo < hi, and hi > 0 under log", clip)
    powers = _field(g, "powers", where_g, 1, _is_count, "a non-negative integer")
    _require(powers >= 1, where_g, "powers", "at least 1", powers)
    knots = [] if g.get("knots") is None else _list_field(g, "knots", where_g)
    _require(all(k > 0.0 for k in knots) and _increasing(knots), where_g, "knots",
             "positive and strictly increasing", knots)
    _require(powers == 1 or not knots, where_g, "powers", "1 when knots are given (knots set the columns)", powers)
    components = _list_field(d, "components", what, ints=True) if "components" in d else [0]
    _require(len(set(components)) == len(components) and all(c < PSI_DIM for c in components), what,
             "components", f"distinct indices below {PSI_DIM}", components)
    return TreatmentModelSpec(
        f_terms=tuple(f_terms),
        g=GFeature(clip=tuple(clip) if clip else None, log=log, powers=powers, knots=tuple(knots)),
        components=tuple(components),
    )


def treatment_spec_to_dict(spec: TreatmentModelSpec) -> dict:
    """The JSON form of ``spec`` that ``treatment_spec_from_dict`` reads back."""
    g = spec.g
    return {
        "f_terms": list(spec.f_terms),
        "g": {
            "clip": None if g.clip is None else [float(c) for c in g.clip],
            "log": g.log,
            "powers": g.powers,
            "knots": [float(k) for k in g.knots],
        },
        "components": list(spec.components),
    }


def load_treatment_spec(path) -> TreatmentModelSpec:
    return treatment_spec_from_dict(_load_json(path))


def mle_template_from_dict(d: dict, grid: TimeGrid) -> ParametricModel:
    from .mle import ParametricModel

    what = "mle template"
    _known_keys(d, ("baseline_bounds", "bins", "psi_init"), what, ("baseline_bounds",))
    bounds = _list_field(d, "baseline_bounds", what)
    _require(bounds[:1] == [0.0] and _increasing(bounds), what, "baseline_bounds",
             "a strictly increasing list that starts at 0.0", bounds)
    bins = _list_field(d, "bins", what) if "bins" in d else []
    _require(all(c > 0.0 for c in bins) and _increasing(bins), what, "bins", "positive and strictly increasing", bins)
    return ParametricModel.template(
        grid,
        tuple(bounds),
        tuple(bins),
        psi_init=None if d.get("psi_init") is None else ShiftParams(tuple(_list_field(d, "psi_init", what, PSI_DIM))),
    )


def load_mle_template(path, grid: TimeGrid) -> ParametricModel:
    return mle_template_from_dict(_load_json(path), grid)


def load_fitted_world(path) -> FittedWorld:
    """A ``cfsim`` world file: ``{"dgp": file}`` with an optional ``psi``
    (the exact world), or ``{"cohort": file, "psi": [...]}`` with optional
    ``thresholds`` (the estimated world).  Files are relative to ``path``;
    ``psi`` holds ``PSI_DIM`` finite numbers, ``thresholds`` positive
    increasing ones."""
    spec = _load_json(path)
    kind = next((key for key in ("dgp", "cohort") if isinstance(spec, dict) and key in spec), None)
    if kind is None:
        raise CohortFormatError(f"{path}: world file needs a 'dgp' or 'cohort' entry")
    what = f"{kind} world file {path}"
    _known_keys(spec, ("dgp", "psi") if kind == "dgp" else ("cohort", "psi", "thresholds"), what,
                () if kind == "dgp" else ("psi",))
    if not isinstance(spec[kind], str):
        raise CohortFormatError(f"{what}: field {kind!r} must be a file name, got {spec[kind]!r}")
    psi = ShiftParams(tuple(_list_field(spec, "psi", what, PSI_DIM))) if "psi" in spec else None
    if kind == "dgp":
        return FittedWorld.from_dgp_config(load_dgp_config(Path(path).parent / spec["dgp"]), psi)
    thresholds = tuple(_list_field(spec, "thresholds", what)) if "thresholds" in spec else ()
    _require(all(c > 0.0 for c in thresholds) and _increasing(thresholds), what, "thresholds",
             "positive and strictly increasing", list(thresholds))
    cohort, _ = read_cohort(Path(path).parent / spec["cohort"])
    return FittedWorld.from_cohort(cohort, psi, thresholds)


def parse_t_grid(text: str) -> np.ndarray:
    """``a:b:step`` inclusive grid of at most ``MAX_T_GRID_POINTS`` points."""
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise CohortFormatError(f"t-grid must be a:b:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (a, b, step)) or step <= 0 or b < a:
        raise CohortFormatError(f"bad t-grid {text!r}: need finite a <= b and step > 0")
    span = (b - a) / step + 1e-9  # may overflow to inf
    if not span < MAX_T_GRID_POINTS:
        raise CohortFormatError(f"t-grid {text!r} has more than {MAX_T_GRID_POINTS} points")
    return a + step * np.arange(int(math.floor(span)) + 1)
