"""JSON wire formats: algebras, maps, extensions, idempotent sets, reports.

Rationals travel as strings "p/q" (or "p") in lowest terms; JSON integers
and decimals are read exactly as well.  Algebra files
are sparse: {"dim": n, "labels": [...], "unit": [...], "sc": [[i, j, k,
"p/q"], ...]} with omitted entries zero and 0-based indices.  Maps are
{"matrix": [["p/q", ...], ...], "role": "..."} acting on coordinates with
rows as outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from ._extension import ExtensionResult
from .algebra import Algebra, _validated
from .errors import ParseError, SkewexError, ValidationError
from .idempotents import IdempotentSet
from .linalg import Mat, Poly, Vec
from .maps import AlgebraEndo, Derivation, EDerivation, LinearEndo

ROLES = ("derivation", "endomorphism", "ederivation")


def _format_ratio(numerator: int, denominator: int) -> str:
    """numerator / denominator, in lowest terms with a positive denominator."""
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def format_fraction(x: Fraction) -> str:
    return _format_ratio(x.numerator, x.denominator)


def parse_fraction(text, where: str = "") -> Fraction:
    """A rational from a string, an integer or a Fraction.  A bool is not a
    number, and a float is not exact: _read_json reads JSON decimals as
    Fractions, so the only floats left are NaN and the infinities."""
    try:
        if isinstance(text, (bool, float)):
            raise TypeError(type(text).__name__)
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"bad rational {text!r}{' at ' + where if where else ''}") from exc


def vector_to_json(v: Vec) -> list[str]:
    return [format_fraction(x) for x in v]


def vector_from_json(data, length: int, where: str) -> Vec:
    if not isinstance(data, list) or len(data) != length:
        raise ParseError(f"expected a vector of length {length} at {where}")
    return tuple(parse_fraction(x, where) for x in data)


def matrix_to_json(m: Mat) -> list[list[str]]:
    return [[format_fraction(x) for x in row] for row in m.entries]


def matrix_from_json(data, where: str) -> Mat:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError(f"expected a matrix (list of rows) at {where}")
    width = len(data[0])
    rows = []
    for i, row in enumerate(data):
        if len(row) != width:
            raise ParseError(f"ragged matrix row {i} at {where}")
        rows.append([parse_fraction(x, f"{where} row {i}") for x in row])
    return Mat.from_rows(rows)


def poly_to_json(p: Poly) -> list[str]:
    return [format_fraction(c) for c in p.coeffs]


def poly_from_json(data, where: str) -> Poly:
    if not isinstance(data, list):
        raise ParseError(f"expected polynomial coefficients at {where}")
    return Poly.of([parse_fraction(c, where) for c in data])


def algebra_to_json(algebra: Algebra) -> dict:
    """The sparse algebra file, read off the integer table: each nonzero
    x / L is reduced by gcd(x, L) and written as format_fraction writes it."""
    scale, table = algebra.integer_sc
    sc = []
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            for k, x in cell:
                common = gcd(x, scale)
                sc.append([i, j, k, _format_ratio(x // common, scale // common)])
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "unit": vector_to_json(algebra.unit),
        "sc": sc,
    }


def _is_index(x) -> bool:
    """Whether x is a JSON integer: an int, and not a bool (true is 1 to isinstance)."""
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_json(data, where: str = "algebra") -> Algebra:
    if not isinstance(data, dict):
        raise ParseError(f"expected an object at {where}")
    dim = data.get("dim")
    if not _is_index(dim):
        raise ParseError(f"missing or bad 'dim' at {where}")
    if dim < 1:
        raise ParseError(f"'dim' must be >= 1 at {where}")
    labels = data.get("labels", [f"e{i}" for i in range(dim)])
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ParseError(f"'labels' must be a list of strings at {where}")
    if len(labels) != dim:
        raise ParseError(f"'labels' length differs from dim at {where}")
    unit = vector_from_json(data.get("unit"), dim, f"{where}.unit")
    entries = data.get("sc", [])
    if not isinstance(entries, list):
        raise ParseError(f"'sc' must be a list at {where}")
    first = {}  # the position of the entry that set each cell
    values = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(f"'sc' entry {pos} must be [i, j, k, value] at {where}")
        i, j, k, value = entry
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_index(idx) or not 0 <= idx < dim:
                raise ParseError(f"'sc' entry {pos}: index {name}={idx} out of range at {where}")
        if first.setdefault((i, j, k), pos) != pos:
            raise ParseError(f"'sc' entries {first[i, j, k]} and {pos} both set ({i}, {j}, {k}) "
                             f"at {where}")
        values[i, j, k] = parse_fraction(value, f"{where}.sc[{pos}]")
    # sparse integer cells over the lcm of the denominators, ascending in k
    scale = lcm(*(x.denominator for x in values.values()))
    cells = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), x in sorted(values.items()):
        if x:
            cells[i][j].append((k, x.numerator * (scale // x.denominator)))
    try:
        return _validated(Algebra._from_cells(scale, cells, unit, labels))
    except SkewexError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def certified_map_from_json(algebra: Algebra, data, role: Optional[str], where: str) -> LinearEndo:
    if not isinstance(data, dict):
        raise ParseError(f"expected an object at {where}")
    role = role or data.get("role")
    if role not in ROLES:
        raise ParseError(f"{where}: role must be one of {ROLES}, got {role!r}")
    matrix = matrix_from_json(data.get("matrix"), f"{where}.matrix")
    if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
        raise ParseError(f"{where}: matrix shape differs from algebra dimension {algebra.dim}")
    try:
        if role == "derivation":
            return Derivation.certify(algebra, matrix)
        if role == "endomorphism":
            return AlgebraEndo.certify(algebra, matrix)
        return EDerivation.certify(algebra, matrix)
    except SkewexError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def map_to_json(endo: LinearEndo, role: str) -> dict:
    return {"matrix": matrix_to_json(endo.matrix), "role": role}


def load_algebra(path: str) -> Algebra:
    return algebra_from_json(_read_json(path), where=path)


def load_map(algebra: Algebra, path: str, role: Optional[str] = None) -> LinearEndo:
    return certified_map_from_json(algebra, _read_json(path), role, where=path)


def parse_definitions(algebra_path: str, map_specs: list[str]) -> tuple[Algebra, list[LinearEndo]]:
    """Load an algebra file plus maps given as 'path' or 'path:role'.

    Validation is atomic: the first violation aborts the load with its
    location.
    """
    algebra = load_algebra(algebra_path)
    maps = []
    for spec in map_specs:
        path, _, role = spec.rpartition(":")
        if not path:
            path, role = role, None
        elif role not in ROLES:
            # a colon inside the path, not a role suffix
            path, role = spec, None
        maps.append(load_map(algebra, path, role))
    return algebra, maps


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=Fraction)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def extension_to_json(result: ExtensionResult) -> dict:
    out = algebra_to_json(result.algebra)
    out["mode"] = result.mode
    out["embed"] = matrix_to_json(result.embed)
    out["u"] = vector_to_json(result.u)
    out["u_inverse"] = vector_to_json(result.u_inverse) if result.u_inverse else None
    out["p"] = poly_to_json(result.p)
    out["free_module"] = result.free_module
    out["defect_dim"] = result.defect_dim
    return out


def idempotent_set_to_json(idems: IdempotentSet) -> dict:
    return {
        "items": [
            {"coords": vector_to_json(e), "provenance": prov}
            for e, prov in zip(idems.items, idems.provenance)
        ],
        "complete": idems.complete,
        "inconclusive_reason": idems.inconclusive_reason,
    }
