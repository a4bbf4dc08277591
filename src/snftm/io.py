"""File formats: the long cohort CSV with its JSON sidecar, and JSON codecs
for world configs, regimes and model specs.

Cohort CSV: one row per subject-visit plus one terminal row per subject.
Columns, in fixed order: ``id, k, tau_k, L1, A, T_event``.  Visit rows leave
``T_event`` empty; the terminal row carries only ``id``, ``k`` (one past the
last visit) and ``T_event``.  UTF-8 with a header; a byte-order mark before
it is skipped.  The grid and alphabets live in a sidecar JSON next to the
CSV (``<name>.json``).  :func:`read_cohort` splits a file into columns with
one of two lexers and makes every check in one checker.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import re
import tempfile
import warnings
from io import BytesIO, StringIO
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    Cohort,
    CohortFormatError,
    CurveDomainError,
    SnftmError,
    SurvivalCurve,
    TimeGrid,
    TreatmentRegime,
)
from .cfsim import FittedWorld
from .dgp import CovariateLaw, DgpConfig, TreatmentLaw, prognosis_thresholds
from .shift import PSI_DIM, ShiftParams

if TYPE_CHECKING:  # the codecs import gest and mle when called: only a command that fits loads them
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


def _prefixed(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a constructor, with a value rule it breaks turned into one
    ``CohortFormatError`` prefixed with ``where``; errors in reading the arguments keep their own."""
    try:
        return make(*args, **kwargs)
    except (SnftmError, ValueError) as e:
        raise CohortFormatError(f"{where}: {e}") from None


def read_cohort(path) -> tuple[Cohort, dict]:
    """Parse the cohort CSV and its sidecar; returns ``(cohort, sidecar_dict)``.

    Rows may come in any order.  Each subject has one terminal row, which
    carries only ``id``, ``k`` and ``T_event``, with ``k`` the visit count
    that ``T_event`` implies, and one visit row for each of ``0 .. k - 1``.
    Every visit row's ``tau_k`` must be the grid's time of visit ``k`` and
    its codes non-negative; when the sidecar declares
    ``covariate_levels``/``treatment_levels`` (one per visit), each code
    must lie in ``0 .. level - 1``.  A lexer splits the file into columns,
    :func:`_lex_loadtxt` for plain bytes and :func:`_lex_csv` for any other,
    and :func:`_check` makes every check on them.  Bytes that are not UTF-8
    and a cell longer than ``csv.field_size_limit()`` are errors naming their
    line, and an integer beyond int64 one naming its line and column.
    """
    side_path = _sidecar_path(path)
    meta = _load_json(side_path, missing=f"missing sidecar config {side_path}")
    if not isinstance(meta, dict) or "taus" not in meta:
        raise CohortFormatError(f"{side_path}: missing field 'taus'")
    grid = _prefixed(side_path, TimeGrid, tuple(_list_field(meta, "taus", side_path)))
    levels = [_list_field(meta, name, side_path, grid.K + 1, ints=True) if name in meta else [math.inf] * (grid.K + 1)
              for name in ("covariate_levels", "treatment_levels")]
    data = Path(path).read_bytes()
    return _check(path, grid, levels, _lex_loadtxt(data) or _lex_csv(path, data)), meta


_BOM = b"\xef\xbb\xbf"
_CELL_BYTES = b"0123456789+-.eE,\n"
_COLUMN_DTYPE = np.dtype([(c, float if c in ("tau_k", "T_event") else np.int64) for c in COHORT_COLUMNS])
_INT64 = np.iinfo(np.int64)
# ASCII decimal: the text that ``int`` and ``float`` read, less underscores and non-ASCII digits (re.I | re.A).
_DECIMAL = {int: r"[+-]?[0-9]+", float: r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)"}
_OK, _WIDE, _EMPTY, _BAD = range(4)  # a cell's state: _WIDE is an integer beyond int64; _EMPTY and _BAD have no value


def _lex_loadtxt(data: bytes):
    """The rows of cohort CSV bytes for :func:`_check`, parsed by ``np.loadtxt``,
    or ``None`` unless after an exact header each line is ASCII digits, signs,
    ``.``, ``e``/``E`` and commas, none blank or over ``csv.field_size_limit()``,
    no id has a sign or a leading zero, and each cell reads as its column's type.
    Empty cells are filled first: ``,,,,`` with ``,nan,0,0,`` and a last ``,``
    with ``,nan``.  No cell reads ``nan`` otherwise, so ``tau_k`` is ``nan``
    exactly where ``tau_k``, ``L1`` and ``A`` were empty, and ``T_event`` too."""
    head, _, body = (data.replace(b"\r\n", b"\n") if b"\r" in data else data).removeprefix(_BOM).partition(b"\n")
    body += b"" if body.endswith(b"\n") else b"\n"
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    widths = np.diff(ends, prepend=-1)  # line lengths plus one
    if (head != ",".join(COHORT_COLUMNS).encode() or body.translate(None, _CELL_BYTES)
            or not 1 < widths.min() <= widths.max() <= csv.field_size_limit()):
        return None
    first, second = buf[ends - widths + 1], buf[ends - widths + 2]  # each line's first two bytes
    if np.any((first == ord("+")) | (first == ord("-")) | ((first == ord("0")) & (second != ord(",")))):
        return None
    filled = BytesIO(body.replace(b",,,,", b",nan,0,0,").replace(b",\n", b",nan\n"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy reads "1.0" as an integer, with a DeprecationWarning
            rows = np.loadtxt(filled, dtype=_COLUMN_DTYPE, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    n = len(rows)
    uniq, first_row, inverse = np.unique(rows["id"], return_index=True, return_inverse=True)
    seen = np.argsort(first_row)  # subjects in order of first appearance
    state = np.full((len(COHORT_COLUMNS), n), _OK, dtype=np.uint8)
    state[2:5, np.isnan(rows["tau_k"])], state[5, np.isnan(rows["T_event"])] = _EMPTY, _EMPTY
    return (uniq[seen], np.argsort(seen)[inverse], np.arange(2, n + 2), np.full(n, len(COHORT_COLUMNS)), state,
            *(rows[c] for c in COHORT_COLUMNS[1:]), lambda i: body.split(b"\n")[i].decode().split(","))


def _lex_csv(path, data: bytes):
    """The rows of cohort CSV bytes for :func:`_check`, split by the ``csv`` module:
    quoted or padded cells, and blank rows left out but counted in the line numbers."""
    data = data.removeprefix(_BOM)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise CohortFormatError(f"{path}: line {line}: not UTF-8 text ({e.reason})") from None
    records = []
    try:
        records.extend(csv.reader(StringIO(text, newline="")))
    except csv.Error as e:
        raise CohortFormatError(f"{path}: line {len(records) + 1}: {e}") from None
    header, *records = records or [None]
    if header is None or tuple(h.strip() for h in header) != COHORT_COLUMNS:
        raise CohortFormatError(f"{path}: header must be exactly {','.join(COHORT_COLUMNS)}, got {header}")
    kept = np.fromiter(map(bool, map(str.strip, map("".join, records))), dtype=bool, count=len(records))
    rows = list(itertools.compress(records, kept))
    columns = [list(map(str.strip, c)) for c in itertools.islice(itertools.zip_longest(*rows, fillvalue=""), 6)]
    columns += [[""] * len(rows)] * (len(COHORT_COLUMNS) - len(columns))
    codes = dict(zip(dict.fromkeys(columns[0]), itertools.count()))  # each id's subject, by first appearance
    values, states = zip(*map(_lex_cells, columns[1:], (int, float, int, int, float)))
    return (list(codes), np.fromiter(map(codes.get, columns[0]), np.int64, len(rows)), np.flatnonzero(kept) + 2,
            np.fromiter(map(len, rows), np.int64, len(rows)), np.stack([np.full(len(rows), _OK, np.uint8), *states]),
            *values, lambda i: [c.strip() for c in rows[i]])


def _lex_cells(cells, convert):
    """Values (0 where none) and states of stripped cells that ``convert`` reads as ASCII decimal."""
    ok = filled = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    try:  # every filled cell at once
        joined = "".join(cells)
        if not joined.isascii() or "_" in joined:
            raise ValueError
        values = list(map(convert, itertools.compress(cells, ok)))
    except ValueError:  # some cell does not read: match each one (the pattern compiles only here)
        ok = np.fromiter(map(bool, map(re.compile(_DECIMAL[convert], re.I | re.A).fullmatch, cells)), bool, len(cells))
        values = list(map(convert, itertools.compress(cells, ok)))
    state = np.where(ok, _OK, np.where(filled, _BAD, _EMPTY)).astype(np.uint8)
    column = np.zeros(len(cells), dtype=np.int64 if convert is int else float)
    try:
        column[ok] = values
    except OverflowError:
        wide = np.array([not _INT64.min <= v <= _INT64.max for v in values])
        state[np.flatnonzero(ok)[wide]] = _WIDE
        column[ok] = np.where(wide, 0, np.array(values, dtype=object))
    return column, state


def _check(path, grid: TimeGrid, levels, rows) -> Cohort:
    """The cohort of lexed ``rows``: each subject's CSV id by first appearance, then per row its subject, line (the
    header's is 1), cell count, cell states (a row per ``COHORT_COLUMNS``), ``k`` to ``T_event`` and ``cells(i)``,
    row ``i``'s stripped cells.  The first row to fail a check is an error naming its line and the column of its first
    failing check below; then the first integer beyond int64; then the first subject to fail a check, naming its id."""
    ids, subject, line, width, state, k, tau, l, a, t, cells = rows
    n, K, end = len(line), grid.K, state[5] != _EMPTY  # terminal rows fill T_event
    visit, on_grid = ~end, np.clip(k, 0, K)
    # A visit row's key is its subject and visit, a terminal row's its subject and K + 1: equal keys repeat a row.
    key = subject * (K + 2) + np.where(end, K + 1, on_grid)
    order = np.argsort(key, kind="stable")
    repeat = np.bincount(order[1:][np.diff(key[order]) == 0], minlength=n) > 0

    def bad_value(kind, j):
        return kind & (state[j] >= _EMPTY), j, lambda i: f"bad value {cells(i)[j]!r}"

    def out_of_range(j, code, level):
        out = (code < 0) | (code > np.array([min(v - 1, _INT64.max) for v in level])[on_grid])
        for i in np.flatnonzero(state[j] == _WIDE):
            out[i] = not 0 <= int(cells(i)[j]) < level[on_grid[i]]
        return visit & out, j, lambda i: f"code {int(cells(i)[j])} is not in 0..{level[k[i]] - 1}"

    checks = (  # (failing rows, column, message[, error class]), in the order each row is checked
        (width != len(COHORT_COLUMNS), None, lambda i: f"expected {len(COHORT_COLUMNS)} columns, got {width[i]}"),
        bad_value(True, 1),
        *((end & (state[j] != _EMPTY), j, lambda i, j=j: f"{cells(i)[j]!r} on a terminal row, which carries "
           "only id, k and T_event") for j in (2, 3, 4)),
        (end & repeat, 5,
         lambda i: f"subject {ids[subject[i]]} already has a terminal row, on line {line[np.argmax(key == key[i])]}"),
        bad_value(end, 5),
        (end & ~((t > 0.0) & (t < np.inf)), 5,
         lambda i: f"event_time must be positive and finite, got {float(t[i])}", CurveDomainError),
        (visit & ((state[1] == _WIDE) | (k < 0) | (k > K)), 1,
         lambda i: f"visit {int(cells(i)[1])} is off the grid's 0..{K}"),
        bad_value(visit, 2),
        (visit & (tau != np.asarray(grid.taus, dtype=float)[on_grid]), 2,
         lambda i: f"{cells(i)[2]!r} is not {grid.taus[k[i]]!r}"),
        bad_value(visit, 3), bad_value(visit, 4),
        out_of_range(3, l, levels[0]), out_of_range(4, a, levels[1]),
        (visit & repeat, 1,
         lambda i: f"subject {ids[subject[i]]} repeats visit {k[i]} of line {line[np.argmax(key == key[i])]}"),
    )
    wide = [(state[j] == _WIDE, j, lambda i, j=j: f"{int(cells(i)[j])} is beyond int64") for j in (1, 3, 4)]
    for table in (checks, wide):  # once every row passes, only a terminal k or a visit code can be wide
        failing = functools.reduce(np.logical_or, [check[0] for check in table])
        if failing.any():
            i = int(np.argmax(failing))
            _, j, message, *error = next(check for check in table if check[0][i])
            column = "" if j is None else f"column {COHORT_COLUMNS[j]}: "
            raise (error or [CohortFormatError])[0](f"{path}: line {line[i]}: {column}{message(i)}")
    if not n:
        raise CohortFormatError(f"{path}: no subjects found")
    visits, ends = order[visit[order]], order[end[order]]  # with no repeat, ``order`` sorts rows by subject, then k
    ended, n_visits, event_times = np.zeros(len(ids), dtype=bool), np.ones(len(ids), dtype=np.int64), np.ones(len(ids))
    ended[subject[ends]], n_visits[subject[ends]], event_times[subject[ends]] = True, k[ends], t[ends]
    implied = grid.implied_visits(event_times)
    # A subject's m visits are distinct and >= 0: exactly 0 .. m - 1 when there are m and none is m or more.
    for bad, message in (
        (~ended, lambda i: "has no terminal row"),
        (n_visits != implied, lambda i: f"has terminal k = {n_visits[i]}, but its event time "
                                        f"{float(event_times[i])!r} implies {implied[i]} visits"),
        ((np.bincount(subject[visits], minlength=len(ids)) != n_visits)
         | (np.bincount(subject[visits], k[visits] >= n_visits[subject[visits]], len(ids)) > 0),
         lambda i: f"has visit rows that are not exactly 0..{n_visits[i] - 1}"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise CohortFormatError(f"{path}: subject {ids[i]} {message(i)}")
    return Cohort.from_columns(grid, event_times, n_visits, l[visits], a[visits])


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
        curve = (tuple(_list_field(base, key, where)) for key in ("bounds", "rates"))
        return _prefixed(
            what, DgpConfig,
            grid=_prefixed(what, TimeGrid, tuple(_list_field(d, "taus", what))),
            baseline=_prefixed(what, SurvivalCurve, *curve),
            thresholds=tuple(_list_field(d, "thresholds", what)),
            covariate_law=_covariate_law_from_dict(d["covariate_law"]),
            treatment_law=_treatment_law_from_dict(d["treatment_law"]),
            psi0=ShiftParams(tuple(_list_field(d, "psi0", what, PSI_DIM))),
            seed=_field(d, "seed", what, 0, _is_count, "a non-negative integer"),
        )
    except KeyError as e:
        raise CohortFormatError(f"world config is missing field {e}") from None


def _load_json(path, missing: str | None = None) -> dict:
    """The JSON document in UTF-8 file ``path``; a missing file (reported as
    ``missing`` when given), bytes that are not UTF-8 and invalid JSON are
    ``CohortFormatError``s naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CohortFormatError(missing or f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        raise CohortFormatError(f"{path}: not UTF-8 text at byte {e.start} ({e.reason})") from None
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
    from .gest import GFeature, TreatmentModelSpec

    what, where_g = "treatment spec", "treatment spec 'g'"
    _known_keys(d, ("f_terms", "g", "components", "psi_dim"), what)
    _field(d, "psi_dim", what, PSI_DIM, lambda v: type(v) is int and v == PSI_DIM, f"{PSI_DIM}")
    g = _known_keys(d.get("g", {}), ("clip", "log", "powers", "knots"), where_g)
    names = lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v)
    f_terms = _field(d, "f_terms", what, ["intercept", "l", "a_prev"], names, "a list of strings")
    log = _field(g, "log", where_g, False, lambda v: type(v) is bool, "true or false")
    clip = None if g.get("clip") is None else tuple(_list_field(g, "clip", where_g, 2))
    powers = _field(g, "powers", where_g, 1, _is_count, "a non-negative integer")
    knots = [] if g.get("knots") is None else _list_field(g, "knots", where_g)
    components = _list_field(d, "components", what, ints=True) if "components" in d else [0]
    feature = _prefixed(where_g, GFeature, clip=clip, log=log, powers=powers, knots=tuple(knots))
    return _prefixed(what, TreatmentModelSpec, f_terms=tuple(f_terms), g=feature, components=tuple(components))


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
    bins = _list_field(d, "bins", what) if "bins" in d else []
    psi_init = None if d.get("psi_init") is None else ShiftParams(tuple(_list_field(d, "psi_init", what, PSI_DIM)))
    return _prefixed(what, ParametricModel.template, grid, bounds, bins, psi_init=psi_init)


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
    thresholds = _list_field(spec, "thresholds", what) if "thresholds" in spec else []
    thresholds = _prefixed(what, prognosis_thresholds, thresholds)  # the world's own rule, before the cohort is read
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
