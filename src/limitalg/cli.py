"""Command-line surface: nine verbs over JSON object files.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict,
2 for input or usage problems, 3 when an internal self-check fails (a bug
in limitalg, not bad input); 2 and 3 both print an error payload.
LIMITALG_TOL replaces the default map tolerance 1e-9 when files are read;
that is its one way to a verdict, which is decided at the map's own
tolerance floored at DENSE_FLOOR (map_tolerance; for intertwine, each
crossover's). Every other cut-off is a fixed constant of
limitalg.tolerance. --output also writes the report to a file. Reports are
canonical JSON on standard output, deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import io as iolib
from .conjugacy import conjugacy_class, standard_witness
from .core import cycle_flagged_classes
from .detect import (close_conjugacy, is_regular, standard_census,
                     summand_census, test_product, threshold_constant)
from .dimmod import EQUAL, equal_up_to_stage, limit_presentation
from .errors import (CensusMismatch, InconsistentRanks, InternalError,
                     LimitalgError, NotInnerEquivalent, NotRegular,
                     ResidualTooLarge, TooFarApart, TriangleNotCommuting,
                     UsageError)
from .homs import StandardRegularMap, Unitary, to_numeric
from .intertwine import approx_intertwine, exact_intertwine
from .spectrum import compare_relations, cylinder_relation
from .tolerance import DEFAULT_TOL, map_tolerance

_VERDICT_ERRORS = (NotInnerEquivalent, NotRegular, CensusMismatch,
                   TooFarApart, TriangleNotCommuting, ResidualTooLarge,
                   InconsistentRanks)


def _tolerance() -> float:
    raw = os.environ.get("LIMITALG_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        v = float(raw)
    except ValueError:
        raise UsageError(f"LIMITALG_TOL must be a number, got {raw!r}")
    if not v > 0:
        raise UsageError(f"LIMITALG_TOL must be positive, got {raw!r}")
    if v == math.inf:
        raise UsageError(f"LIMITALG_TOL must be finite, got {raw!r}")
    return v


def _jsonable(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return float(v)
    if isinstance(v, complex):
        return iolib.encode_complex(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.complexfloating):
        return iolib.encode_complex(complex(v))
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (set, frozenset)):
        return sorted(_jsonable(x) for x in v)
    if hasattr(v, "as_payload"):
        return _jsonable(v.as_payload())
    return repr(v)


def _error_payload(exc: Exception) -> dict:
    out = {"type": type(exc).__name__, "message": str(exc)}
    data = getattr(exc, "data", None)
    if data:
        out["data"] = _jsonable(data)
    return out


def _load_map(path: str, name, tol: float):
    return iolib.load_object(path, "map", name=name, default_tol=tol)


def _census(m):
    """Exact census for a standard map, test products for a numeric one."""
    if isinstance(m, StandardRegularMap):
        return standard_census(m)
    return summand_census(m)


def _require_standard(m, what: str) -> StandardRegularMap:
    if not isinstance(m, StandardRegularMap):
        raise UsageError(f"{what} needs a standard map; "
                         "run standardize on numeric input first")
    return m


# verbs

def _cmd_validate(ns, tol: float):
    with open(ns.workspace, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        ws = iolib.parse_workspace_text(text, default_tol=tol)
    except LimitalgError as exc:
        return 1, {"valid": False, "error": _error_payload(exc),
                   "tolerance": tol}
    return 0, {"valid": True, "tolerance": tol,
               "counts": {"algebras": len(ws.algebras), "maps": len(ws.maps),
                          "systems": len(ws.systems),
                          "diagrams": len(ws.diagrams)}}


def _cmd_decompose(ns, tol: float):
    phi = _require_standard(_load_map(ns.map, ns.name, tol), "decompose")
    report = {
        "summands": iolib.encode_standard_map(phi)["summands"],
        "class_multiset": [[list(p) for p in key]
                           for key in phi.class_multiset()],
        "rank_matrix": phi.rank_matrix().as_lists(),
        "cycle_flagged_classes": list(cycle_flagged_classes(phi.source)),
        "tolerance": tol,
    }
    return 0, report


def _cmd_conjugacy(ns, tol: float):
    lhs = _load_map(ns.lhs, None, tol)
    rhs = _load_map(ns.rhs, None, tol)
    report = {"tolerance": tol}
    if isinstance(lhs, StandardRegularMap) and isinstance(rhs,
                                                          StandardRegularMap):
        k1, k2 = conjugacy_class(lhs), conjugacy_class(rhs)
        report["lhs_class"] = k1.as_payload()
        report["rhs_class"] = k2.as_payload()
        try:
            w = standard_witness(lhs, rhs)
        except NotInnerEquivalent as exc:
            report["verdict"] = "not_equivalent"
            report["reason"] = _error_payload(exc)
            return 1, report
        report["verdict"] = "equivalent"
        report["witness"] = iolib.encode_unitary(
            Unitary(lhs.target.n, [w]))
        return 0, report
    for side, m in (("lhs", lhs), ("rhs", rhs)):
        try:
            report[f"{side}_census"] = _census(m).as_payload()
        except LimitalgError as exc:
            report[f"{side}_census"] = {"error": _error_payload(exc)}
    try:
        u = close_conjugacy(to_numeric(lhs), to_numeric(rhs))
    except _VERDICT_ERRORS as exc:
        report["verdict"] = "not_equivalent"
        report["reason"] = _error_payload(exc)
        return 1, report
    report["verdict"] = "equivalent"
    report["witness"] = iolib.encode_unitary(u)
    return 0, report


def _cmd_standardize(ns, tol: float):
    m = _load_map(ns.map, ns.name, tol)
    if isinstance(m, StandardRegularMap):
        return 0, {"regular": True, "residual": 0.0, "tolerance": tol,
                   "census": _census(m).as_payload(),
                   "standard_form": iolib.encode_standard_map(m),
                   "unitary": iolib.encode_unitary(Unitary(m.target.n, []))}
    cert = is_regular(m)
    report = cert.as_payload()
    if cert.regular:
        report["standard_form"] = iolib.encode_standard_map(cert.standard_form)
        report["unitary"] = iolib.encode_unitary(cert.unitary)
        return 0, report
    return 1, report


def _cmd_intertwine(ns, tol: float):
    d = iolib.load_object(ns.diagram, "diagram", name=ns.name,
                          default_tol=tol)
    if ns.mode:
        mode = {"approx": "approximate"}.get(ns.mode, ns.mode)
        if mode != d.mode:
            d = dataclasses.replace(d, mode=mode)
    try:
        out = exact_intertwine(d) if d.mode == "exact" else approx_intertwine(d)
    except _VERDICT_ERRORS as exc:
        return 1, {"corrected": None, "reason": _error_payload(exc),
                   "tolerance": tol}
    report = {
        "mode": d.mode,
        "corrected": {
            "alphas": [iolib.encode_standard_map(a) for a in out.alphas_hat],
            "betas": [iolib.encode_standard_map(b) for b in out.betas_hat],
        },
        "v_unitaries": [iolib.encode_unitary(u) for u in out.v_unitaries],
        "u_unitaries": [iolib.encode_unitary(u) for u in out.u_unitaries],
        "report": out.report.as_payload(),
        "tolerance": tol,
    }
    wr = out.witness_residuals or {}
    if wr:
        report["witness_residuals"] = _jsonable(wr)
    gates = [(r, map_tolerance(m)) for role, rs in wr.items()
             for r, m in zip(rs, getattr(d, role))]
    report["max_residual"] = max([r for r, _ in gates], default=0.0)
    return (0 if all(r <= t for r, t in gates) else 1), report


def _cmd_detect(ns, tol: float):
    phi = _load_map(ns.map, ns.name, tol)
    c = threshold_constant(phi.source)
    if ns.against:
        phi_n = to_numeric(phi)
        alpha_map = _require_standard(_load_map(ns.against, None, tol),
                                      "detect --against")
        if (alpha_map.source != phi_n.source
                or alpha_map.target != phi_n.target):
            raise UsageError("--against map must join the same algebras")
        if len(alpha_map.summands) != 1:
            raise UsageError("--against map must have exactly one summand")
        result = test_product(phi_n, alpha_map.summands[0])
        report = result.as_payload()
        report.update({"threshold": c, "tolerance": tol})
        return (0 if result.present else 1), report
    try:
        census = _census(phi)
    except InconsistentRanks as exc:
        return 1, {"census": None, "reason": _error_payload(exc),
                   "threshold": c, "tolerance": tol}
    report = census.as_payload()
    report.update({"threshold": c, "tolerance": tol})
    return 0, report


def _cmd_regular_test(ns, tol: float):
    phi = _load_map(ns.map, ns.name, tol)
    c = threshold_constant(phi.source)
    if isinstance(phi, StandardRegularMap):
        census = _census(phi)
        return 0, {"regular": True, "threshold": c, "tolerance": tol,
                   "class_multiset": [[list(p) for p in key]
                                      for key in census.multiset()],
                   "census": census.as_payload()}
    cert = is_regular(phi)
    report = cert.as_payload()
    report["threshold"] = c
    if cert.census is not None:
        report["class_multiset"] = [[list(p) for p in key]
                                    for key in cert.census.multiset()]
    return (0 if cert.regular else 1), report


def _cmd_spectrum(ns, tol: float):
    system = iolib.load_object(ns.system, "system", name=ns.name,
                               default_tol=tol)
    if ns.depth < 1:
        raise UsageError("--depth must be at least 1")
    rel = cylinder_relation(system, ns.depth)
    report = {"depth": ns.depth, "path_count": len(rel.paths),
              "paths": rel.paths.tolist(),
              "relation": rel.as_payload(),
              "statistics": rel.statistics().as_payload(),
              "tolerance": tol}
    if ns.compare:
        # the --system file read without a name is the system loaded above
        same = os.path.realpath(ns.compare) == os.path.realpath(ns.system)
        if same and ns.name is None:
            other = rel
        else:
            other = cylinder_relation(iolib.load_object(
                ns.compare, "system", default_tol=tol), ns.depth)
        comp = compare_relations(rel, other)
        report["comparison"] = comp.as_payload()
        return (0 if comp.verdict == "compatible" else 1), report
    return 0, report


def _cmd_dimmod(ns, tol: float):
    system = iolib.load_object(ns.system, "system", name=ns.name,
                               default_tol=tol)
    pres = limit_presentation(system)
    if ns.r is not None and ns.r != pres.r:
        raise UsageError(f"system has r={pres.r}, not r={ns.r}")
    report = {
        "r": pres.r,
        "stage_count": pres.stage_count(),
        "periodic": system.periodic,
        "widths": [s.width for s in pres.shapes],
        "capacities": [[t.size for t in s.summands] for s in pres.shapes],
        "matrices": [m.as_payload() for m in pres.matrices],
        "injective": list(pres.injective),
        "tolerance": tol,
    }
    element = None
    if ns.element:
        with open(ns.element, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        stage, value = iolib.parse_stage_element(doc, "", pres.r)
        element = pres.element(stage, value.entries)
    if ns.push_to is not None:
        if element is None:
            raise UsageError("--push-to needs --element")
        pushed = pres.push(element, ns.push_to)
        report["push"] = {"from": element.stage, "to": ns.push_to,
                          "value": pushed.as_payload()}
    if ns.element_b:
        if element is None:
            raise UsageError("--element-b needs --element")
        if ns.equal_at is None:
            raise UsageError("--element-b needs --equal-at")
        with open(ns.element_b, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        stage_b, value_b = iolib.parse_stage_element(doc, "", pres.r)
        other = pres.element(stage_b, value_b.entries)
        verdict = equal_up_to_stage(element, other, ns.equal_at)
        report["verdict"] = verdict
        report["injective_from"] = pres.injective_from(ns.equal_at)
        return (0 if verdict == EQUAL else 1), report
    return 0, report


_HANDLERS = {
    "validate": _cmd_validate,
    "decompose": _cmd_decompose,
    "conjugacy": _cmd_conjugacy,
    "standardize": _cmd_standardize,
    "intertwine": _cmd_intertwine,
    "detect": _cmd_detect,
    "regular-test": _cmd_regular_test,
    "spectrum": _cmd_spectrum,
    "dimmod": _cmd_dimmod,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitalg",
        description="Digraph algebras, regular maps, and direct systems.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--output", help="also write the report to this path")
        return p

    p = add("validate", help="validate a workspace file")
    p.add_argument("workspace", help="workspace JSON path")

    p = add("decompose", help="maximal summand decomposition of a standard map")
    p.add_argument("--map", required=True, help="map JSON path")
    p.add_argument("--name", help="entry name when the file is a workspace")

    p = add("conjugacy", help="inner-conjugacy verdict and witness")
    p.add_argument("--lhs", required=True, help="first map JSON path")
    p.add_argument("--rhs", required=True, help="second map JSON path")

    p = add("standardize", help="regularity certificate with standard form")
    p.add_argument("--map", required=True)
    p.add_argument("--name")

    p = add("intertwine", help="correct a crossover diagram to exact form")
    p.add_argument("--diagram", required=True)
    p.add_argument("--name")
    p.add_argument("--mode", choices=("exact", "approx", "approximate"))

    p = add("detect", help="summand census or a single test product")
    p.add_argument("--map", required=True)
    p.add_argument("--name")
    p.add_argument("--against", help="multiplicity-one map to test for")

    p = add("regular-test", help="regularity verdict with class multiset")
    p.add_argument("--map", required=True)
    p.add_argument("--name")

    p = add("spectrum", help="finite-depth path space and cylinder relation")
    p.add_argument("--system", required=True)
    p.add_argument("--name")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--compare", help="second system to compare against")

    p = add("dimmod", help="dimension-module presentation of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--name")
    p.add_argument("--r", type=int, help="assert the band count")
    p.add_argument("--element", help="stage element JSON path")
    p.add_argument("--push-to", dest="push_to", type=int,
                   help="push --element to this stage")
    p.add_argument("--element-b", dest="element_b",
                   help="second element for equality testing")
    p.add_argument("--equal-at", dest="equal_at", type=int,
                   help="stage at which to compare --element and --element-b")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _dispatch(ns) -> tuple:
    try:
        tol = _tolerance()
        return _HANDLERS[ns.verb](ns, tol)
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        return 2, {"error": _error_payload(exc)}
    except InternalError as exc:
        return 3, {"error": _error_payload(exc)}
    except LimitalgError as exc:
        # anything not already converted to a verdict by the handler is an
        # input problem at this surface
        return 2, {"error": _error_payload(exc)}


def run_command(verb: str, args: list) -> tuple:
    """Run one verb with its own arguments; returns (exit code, report)."""
    if verb not in _HANDLERS:
        raise UsageError(f"unknown verb {verb!r}")
    ns = _parser().parse_args([verb] + list(args))
    return _dispatch(ns)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = _parser().parse_args(argv)
    code, report = _dispatch(ns)
    text = iolib.canonical_dumps(report)
    sys.stdout.write(text)
    if getattr(ns, "output", None):
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
