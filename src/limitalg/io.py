"""JSON codecs for algebras, maps, systems, diagrams, and workspaces.

Parsing tracks a JSON-pointer so the first structural problem is reported
with its location. Canonical serialization is deterministic (sorted keys,
two-space indent, trailing newline) and expands all sugar, so
parse o serialize o parse = parse and canonical files round-trip
byte-identically. Complex scalars travel as [re, im]; integers stay exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from .core import (DigraphAlgebra, build_digraph_algebra, diagonal_algebra,
                   direct_sum_algebra, full_matrix_algebra, tensor_model,
                   tr_algebra)
from .errors import DanglingReference, SchemaError, UsageError
from .homs import (DEFAULT_TOL, NumericStarMap, StandardPartialIsometry,
                   StandardRegularMap, Unitary, assemble_regular,
                   validate_multiplicity_one, validate_numeric)
from .intertwine import CrossoverDiagram, DirectSystem


# nesting deeper than this goes to json.dumps, so recursion limits hit
# exactly where they always did
_MAX_INDENT = 2 * 256
_INT = {int}
_STR = {str}


class _Unhandled(Exception):
    """A value the fast encoder leaves to json.dumps."""


def _encode(v, nl: str) -> str:
    """v as json.dumps(sort_keys=True, indent=2) writes it, nl being the
    newline and indent of v's own line."""
    t = type(v)
    if t is dict:
        if not v:
            return "{}"
        inner = nl + "  "
        if len(inner) > _MAX_INDENT or set(map(type, v)) != _STR:
            raise _Unhandled
        body = [encode_basestring(k) + ": " + _encode(v[k], inner)
                for k in sorted(v)]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = nl + "  "
        if len(inner) > _MAX_INDENT:
            raise _Unhandled
        if set(map(type, v)) == _INT:
            body = map(int.__repr__, v)
        else:
            body = [_encode(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if t is str:
        return encode_basestring(v)
    if t is int:
        return int.__repr__(v)
    if t is float and math.isfinite(v):
        return float.__repr__(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    raise _Unhandled


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, indent 2, trailing newline.

    The text is exactly json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False, allow_nan=False) + "\n". A small recursive encoder
    writes it for dicts with str keys, lists, tuples, str, int, finite
    float, bool and None (exact types, not subclasses), joining lists of
    plain ints in one step; anything else (a non-str key, NaN or inf,
    another type, nesting deeper than 256) goes to that json.dumps call,
    which then gives the text or raises its usual exception.
    """
    try:
        return _encode(obj, "\n") + "\n"
    except (_Unhandled, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2,
                          ensure_ascii=False, allow_nan=False) + "\n"


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _fail(pointer: str, message: str):
    raise SchemaError(pointer, message)


def _as_dict(doc, pointer: str) -> dict:
    if not isinstance(doc, dict):
        _fail(pointer, f"expected an object, got {type(doc).__name__}")
    return doc


def _as_list(doc, pointer: str) -> list:
    if not isinstance(doc, list):
        _fail(pointer, f"expected an array, got {type(doc).__name__}")
    return doc


def _as_int(doc, pointer: str) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        _fail(pointer, f"expected an integer, got {doc!r}")
    return doc


def _finite(v, pointer: str) -> float:
    # json reads NaN, Infinity and integers too large for a float
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        _fail(pointer, f"expected a finite number, got {v!r}")
    return x


def _as_real(doc, pointer: str) -> float:
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        _fail(pointer, f"expected a number, got {doc!r}")
    return _finite(doc, pointer)


def _as_complex(doc, pointer: str) -> complex:
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return complex(_finite(doc, pointer))
    if (isinstance(doc, list) and len(doc) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in doc)):
        return complex(_finite(doc[0], pointer + "/0"),
                       _finite(doc[1], pointer + "/1"))
    _fail(pointer, f"expected a number or [re, im] pair, got {doc!r}")


def _pair(doc, pointer: str) -> tuple:
    row = _as_list(doc, pointer)
    if len(row) != 2:
        _fail(pointer, "expected a pair [i, j]")
    return (_as_int(row[0], pointer + "/0"), _as_int(row[1], pointer + "/1"))


# algebras

def parse_algebra(doc, pointer: str, registry=None) -> DigraphAlgebra:
    """Named reference, explicit n/edges form, or one of the sugar forms."""
    if isinstance(doc, str):
        if registry is None or doc not in registry:
            raise DanglingReference(doc)
        return registry[doc]
    d = _as_dict(doc, pointer)
    if "n" in d:
        n = _as_int(d["n"], pointer + "/n")
        rows = _as_list(d.get("edges", []), pointer + "/edges")
        if all(type(r) is list and len(r) == 2 and type(r[0]) is int
               and type(r[1]) is int for r in rows):
            edges = set(map(tuple, rows))
        else:
            # the per-row check names the first bad row
            edges = {_pair(r, f"{pointer}/edges/{k}")
                     for k, r in enumerate(rows)}
        edges |= {(i, i) for i in range(1, n + 1)}
        return build_digraph_algebra(n, edges)
    if "tr" in d:
        t = _as_dict(d["tr"], pointer + "/tr")
        r = _as_int(t.get("r"), pointer + "/tr/r")
        size = _as_int(t.get("size", 1), pointer + "/tr/size")
        return tr_algebra(r, size)
    if "full" in d:
        return full_matrix_algebra(_as_int(d["full"], pointer + "/full"))
    if "diagonal" in d:
        return diagonal_algebra(_as_int(d["diagonal"], pointer + "/diagonal"))
    if "summands" in d:
        rows = _as_list(d["summands"], pointer + "/summands")
        if not rows:
            _fail(pointer + "/summands", "need at least one summand")
        parts = [parse_algebra(r, f"{pointer}/summands/{k}", registry)
                 for k, r in enumerate(rows)]
        out = parts[0]
        for p in parts[1:]:
            out = direct_sum_algebra(out, p)
        return out
    if "tensor" in d:
        t = _as_dict(d["tensor"], pointer + "/tensor")
        base = parse_algebra(t.get("base"), pointer + "/tensor/base", registry)
        return tensor_model(base, _as_int(t.get("m"), pointer + "/tensor/m"))
    _fail(pointer, "unrecognized algebra form")


def encode_algebra(a: DigraphAlgebra) -> dict:
    return {"n": a.n, "edges": sorted([i, j] for (i, j) in a.edges if i != j)}


# maps

def _parse_weights(doc, pointer: str) -> dict:
    rows = _as_list(doc, pointer)
    out = {}
    for k, row in enumerate(rows):
        at = f"{pointer}/{k}"
        entry = _as_list(row, at)
        if len(entry) != 2:
            _fail(at, "expected [index, value] with value a number or [re, im]")
        i = _as_int(entry[0], at + "/0")
        out[i] = _as_complex(entry[1], at + "/1")
    return out


def parse_standard_map(doc, pointer: str, registry=None,
                       algebras=None) -> StandardRegularMap:
    d = _as_dict(doc, pointer)
    source = parse_algebra(d.get("source"), pointer + "/source", algebras)
    target = parse_algebra(d.get("target"), pointer + "/target", algebras)
    rows = _as_list(d.get("summands"), pointer + "/summands")
    summands = []
    for k, row in enumerate(rows):
        at = f"{pointer}/summands/{k}"
        r = _as_dict(row, at)
        pairs = _as_list(r.get("pairs"), at + "/pairs")
        iota = {}
        for q, p in enumerate(pairs):
            i, j = _pair(p, f"{at}/pairs/{q}")
            iota[i] = j
        weights = None
        if "weights" in r:
            weights = _parse_weights(r["weights"], at + "/weights")
        summands.append(validate_multiplicity_one(iota, source, target,
                                                  phases=weights))
    return assemble_regular(summands, source=source, target=target)


def parse_numeric_map(doc, pointer: str, registry=None, algebras=None,
                      default_tol: float = DEFAULT_TOL) -> NumericStarMap:
    d = _as_dict(doc, pointer)
    source = parse_algebra(d.get("source"), pointer + "/source", algebras)
    target = parse_algebra(d.get("target"), pointer + "/target", algebras)
    tol = _as_real(d.get("tolerance", default_tol), pointer + "/tolerance")
    rows = _as_list(d.get("images"), pointer + "/images")
    images = {}
    for k, row in enumerate(rows):
        at = f"{pointer}/images/{k}"
        r = _as_dict(row, at)
        i = _as_int(r.get("i"), at + "/i")
        j = _as_int(r.get("j"), at + "/j")
        mat = _as_list(r.get("matrix"), at + "/matrix")
        m = np.zeros((target.n, target.n), dtype=complex)
        if len(mat) != target.n:
            _fail(at + "/matrix", f"expected {target.n} rows, got {len(mat)}")
        for p, mrow in enumerate(mat):
            cells = _as_list(mrow, f"{at}/matrix/{p}")
            if len(cells) != target.n:
                _fail(f"{at}/matrix/{p}",
                      f"expected {target.n} columns, got {len(cells)}")
            for q, cell in enumerate(cells):
                m[p, q] = _as_complex(cell, f"{at}/matrix/{p}/{q}")
        images[(i, j)] = m
    return validate_numeric(images, source, target, tol=tol)


def parse_map(doc, pointer: str, registry=None, algebras=None,
              default_tol: float = DEFAULT_TOL):
    """Dispatch on declared type, else on which payload key is present."""
    if isinstance(doc, str):
        if registry is None or doc not in registry:
            raise DanglingReference(doc)
        return registry[doc]
    d = _as_dict(doc, pointer)
    kind = d.get("type")
    if kind == "standard" or (kind is None and "summands" in d):
        return parse_standard_map(d, pointer, registry, algebras)
    if kind == "numeric" or (kind is None and "images" in d):
        return parse_numeric_map(d, pointer, registry, algebras, default_tol)
    _fail(pointer, "map needs type standard (summands) or numeric (images)")


def _encode_weight_rows(s) -> list:
    return [[i, encode_complex(s.weight(i))] for i in sorted(s.domain())]


def encode_standard_map(phi: StandardRegularMap, algebras=None) -> dict:
    out = {"type": "standard",
           "source": _algebra_ref(phi.source, algebras),
           "target": _algebra_ref(phi.target, algebras),
           "summands": []}
    for s in phi.canonical_summands():
        row = {"pairs": [[i, s(i)] for i in sorted(s.domain())]}
        if s.weighted:
            row["weights"] = _encode_weight_rows(s)
        out["summands"].append(row)
    return out


def encode_numeric_map(phi: NumericStarMap, algebras=None) -> dict:
    rows = []
    for (i, j) in sorted(phi.images):
        m = phi.images[(i, j)]
        rows.append({"i": i, "j": j,
                     "matrix": [[encode_complex(m[p, q])
                                 for q in range(m.shape[1])]
                                for p in range(m.shape[0])]})
    return {"type": "numeric",
            "source": _algebra_ref(phi.source, algebras),
            "target": _algebra_ref(phi.target, algebras),
            "tolerance": phi.tolerance, "images": rows}


def encode_map(phi, algebras=None) -> dict:
    if isinstance(phi, StandardRegularMap):
        return encode_standard_map(phi, algebras)
    return encode_numeric_map(phi, algebras)


def encode_unitary(u: Unitary) -> dict:
    rows = []
    for f in u.factors:
        if isinstance(f, StandardPartialIsometry):
            rows.append({"type": "monomial",
                         "pairs": [[i, f(i)] for i in sorted(f.domain())],
                         "phases": [[i, encode_complex(f.phase(i))]
                                    for i in sorted(f.domain())]})
        else:
            m = np.asarray(f)
            rows.append({"type": "dense",
                         "matrix": [[encode_complex(m[p, q])
                                     for q in range(m.shape[1])]
                                    for p in range(m.shape[0])]})
    return {"n": u.n, "factors": rows}


# systems and diagrams

def parse_system(doc, pointer: str, registry=None, algebras=None,
                 maps=None) -> DirectSystem:
    if isinstance(doc, str):
        if registry is None or doc not in registry:
            raise DanglingReference(doc)
        return registry[doc]
    d = _as_dict(doc, pointer)
    stage_rows = _as_list(d.get("stages"), pointer + "/stages")
    stages = [parse_algebra(r, f"{pointer}/stages/{k}", algebras)
              for k, r in enumerate(stage_rows)]
    conn_rows = _as_list(d.get("connectors", []), pointer + "/connectors")
    conns = [parse_map(r, f"{pointer}/connectors/{k}", maps, algebras)
             for k, r in enumerate(conn_rows)]
    periodic = d.get("periodic", False)
    if not isinstance(periodic, bool):
        _fail(pointer + "/periodic", "expected true or false")
    return DirectSystem(tuple(stages), tuple(conns), periodic=periodic)


def encode_system(sys: DirectSystem, algebras=None, maps=None) -> dict:
    return {"stages": [_algebra_ref(a, algebras) for a in sys.stages],
            "connectors": [_map_ref(c, maps, algebras)
                           for c in sys.connectors],
            "periodic": sys.periodic}


def parse_diagram(doc, pointer: str, registry=None, algebras=None, maps=None,
                  systems=None, default_tol: float = DEFAULT_TOL
                  ) -> CrossoverDiagram:
    if isinstance(doc, str):
        if registry is None or doc not in registry:
            raise DanglingReference(doc)
        return registry[doc]
    d = _as_dict(doc, pointer)
    top = parse_system(d.get("top"), pointer + "/top", systems, algebras, maps)
    bottom = parse_system(d.get("bottom"), pointer + "/bottom", systems,
                          algebras, maps)
    alphas = [parse_map(r, f"{pointer}/alphas/{k}", maps, algebras, default_tol)
              for k, r in enumerate(_as_list(d.get("alphas"),
                                             pointer + "/alphas"))]
    betas = [parse_map(r, f"{pointer}/betas/{k}", maps, algebras, default_tol)
             for k, r in enumerate(_as_list(d.get("betas", []),
                                            pointer + "/betas"))]
    mode = d.get("mode", "exact")
    if mode not in ("exact", "approximate"):
        _fail(pointer + "/mode", f"expected exact or approximate, got {mode!r}")
    budgets = None
    if "budgets" in d:
        b = _as_dict(d["budgets"], pointer + "/budgets")
        budgets = {}
        for kind in ("top", "bottom"):
            if kind in b:
                rows = _as_list(b[kind], f"{pointer}/budgets/{kind}")
                budgets[kind] = tuple(
                    _as_real(v, f"{pointer}/budgets/{kind}/{q}")
                    for q, v in enumerate(rows))
    return CrossoverDiagram(top, bottom, tuple(alphas), tuple(betas),
                            mode=mode, budgets=budgets)


def encode_diagram(d: CrossoverDiagram, algebras=None, maps=None,
                   systems=None) -> dict:
    out = {"top": _system_ref(d.top, systems, algebras, maps),
           "bottom": _system_ref(d.bottom, systems, algebras, maps),
           "alphas": [_map_ref(a, maps, algebras) for a in d.alphas],
           "betas": [_map_ref(b, maps, algebras) for b in d.betas],
           "mode": d.mode}
    if d.budgets:
        out["budgets"] = {k: list(v) for k, v in d.budgets.items()}
    return out


# named-reference helpers: prefer a registry name, else inline-expand

def _algebra_ref(a, algebras):
    if algebras:
        for name in sorted(algebras):
            if algebras[name] == a:
                return name
    return encode_algebra(a)


def _map_ref(m, maps, algebras):
    if maps:
        for name in sorted(maps):
            if maps[name] is m:
                return name
    return encode_map(m, algebras)


def _system_ref(s, systems, algebras, maps):
    if systems:
        for name in sorted(systems):
            if systems[name] is s:
                return name
    return encode_system(s, algebras, maps)


# workspace

@dataclass
class Workspace:
    version: int = 1
    algebras: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    systems: dict = field(default_factory=dict)
    diagrams: dict = field(default_factory=dict)


def parse_workspace(doc, default_tol: float = DEFAULT_TOL) -> Workspace:
    d = _as_dict(doc, "")
    version = d.get("version", 1)
    if version != 1:
        _fail("/version", f"unsupported version {version!r}")
    ws = Workspace(version=version)
    for name, row in sorted(_as_dict(d.get("algebras", {}),
                                     "/algebras").items()):
        ws.algebras[name] = parse_algebra(row, f"/algebras/{name}",
                                          ws.algebras)
    for name, row in sorted(_as_dict(d.get("maps", {}), "/maps").items()):
        ws.maps[name] = parse_map(row, f"/maps/{name}", ws.maps, ws.algebras,
                                  default_tol)
    for name, row in sorted(_as_dict(d.get("systems", {}),
                                     "/systems").items()):
        ws.systems[name] = parse_system(row, f"/systems/{name}", ws.systems,
                                        ws.algebras, ws.maps)
    for name, row in sorted(_as_dict(d.get("diagrams", {}),
                                     "/diagrams").items()):
        ws.diagrams[name] = parse_diagram(row, f"/diagrams/{name}",
                                          ws.diagrams, ws.algebras, ws.maps,
                                          ws.systems, default_tol)
    return ws


def parse_workspace_text(text: str, default_tol: float = DEFAULT_TOL
                         ) -> Workspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None
    return parse_workspace(doc, default_tol)


def encode_workspace(ws: Workspace) -> dict:
    return {"version": ws.version,
            "algebras": {k: encode_algebra(v)
                         for k, v in ws.algebras.items()},
            "maps": {k: encode_map(v, ws.algebras)
                     for k, v in ws.maps.items()},
            "systems": {k: encode_system(v, ws.algebras, ws.maps)
                        for k, v in ws.systems.items()},
            "diagrams": {k: encode_diagram(v, ws.algebras, ws.maps,
                                           ws.systems)
                         for k, v in ws.diagrams.items()}}


# dimension-module elements

def parse_semiring_element(doc, pointer: str, r: int):
    from .dimmod import MonotoneMap, SemiringElement
    d = _as_dict(doc, pointer)
    terms = {}
    for k, row in enumerate(_as_list(d.get("terms", []), pointer + "/terms")):
        at = f"{pointer}/terms/{k}"
        t = _as_dict(row, at)
        vals = [_as_int(v, f"{at}/map/{q}")
                for q, v in enumerate(_as_list(t.get("map"), at + "/map"))]
        coeff = _as_int(t.get("coeff", 1), at + "/coeff")
        try:
            theta = MonotoneMap(r, tuple(vals))
        except ValueError as exc:
            _fail(at + "/map", str(exc))
        terms[theta] = terms.get(theta, 0) + coeff
    return SemiringElement(r, terms)


def parse_stage_element(doc, pointer: str, r: int):
    """{"stage": k, "entries": [{"terms": [...]}, ...]} -> (stage, StageModule)."""
    from .dimmod import StageModule
    d = _as_dict(doc, pointer)
    stage = _as_int(d.get("stage", 0), pointer + "/stage")
    entries = [parse_semiring_element(row, f"{pointer}/entries/{k}", r)
               for k, row in enumerate(_as_list(d.get("entries"),
                                                pointer + "/entries"))]
    return stage, StageModule(r, tuple(entries))


# standalone object files: either the bare object or a workspace to pick from

_KIND_KEYS = {"algebra": "algebras", "map": "maps", "system": "systems",
              "diagram": "diagrams"}

_BARE_PARSERS = {
    "algebra": lambda doc, tol: parse_algebra(doc, ""),
    "map": lambda doc, tol: parse_map(doc, "", default_tol=tol),
    "system": lambda doc, tol: parse_system(doc, ""),
    "diagram": lambda doc, tol: parse_diagram(doc, "", default_tol=tol),
}


def load_object(path: str, kind: str, name: str = None,
                default_tol: float = DEFAULT_TOL):
    """Read one object of the given kind from a JSON file.

    The file may hold the object itself, or a workspace; in the latter case
    name selects the entry, defaulting to the only one of that kind.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"{path}: not valid JSON: {exc}") from None
    d = _as_dict(doc, "")
    plural = _KIND_KEYS[kind]
    if any(k in d for k in _KIND_KEYS.values()) and "source" not in d:
        ws = parse_workspace(d, default_tol)
        table = getattr(ws, plural)
        if name is not None:
            if name not in table:
                raise DanglingReference(name)
            return table[name]
        if len(table) != 1:
            raise UsageError(
                f"{path} holds {len(table)} {plural}; pick one with --name")
        return next(iter(table.values()))
    if name is not None:
        raise UsageError(f"--name given but {path} is not a workspace")
    return _BARE_PARSERS[kind](d, default_tol)
