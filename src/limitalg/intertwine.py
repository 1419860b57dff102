"""Two-system crossover diagrams and the intertwining correction engine.

The exact engine walks the zigzag once, standardizing each crossover by a
monomial unitary chosen so every already-corrected triangle stays exactly
commuting. The approximate engine first certifies each numeric crossover as
regular, gates the original triangle residuals against the word-length
thresholds, aligns the resulting standard forms combinatorially, and then
defers to the exact engine; witnesses against the original numeric maps are
returned in factored form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DigraphAlgebra
from .detect import is_regular, threshold_constant
from .errors import (CensusMismatch, NotRegular, ResidualTooLarge,
                     SourceTargetMismatch, TriangleNotCommuting, UsageError)
from .homs import (StandardRegularMap, Unitary, _compose_columns,
                   apply_to_unitary, compose, conjugate_standard, map_distance,
                   numeric_compose, operator_norm, same_action, strictify,
                   to_numeric)
from .conjugacy import _restandardize, standard_witness
from .tolerance import DENSE_FLOOR, map_tolerance


@dataclass(frozen=True)
class DirectSystem:
    """Stages joined by standard regular connectors.

    periodic declares that the final connector repeats forever; it must then
    be an endomorphism (equal source and target), which is what makes the
    repetition well formed.
    """

    stages: tuple
    connectors: tuple
    periodic: bool = False

    def __post_init__(self):
        stages = tuple(self.stages)
        connectors = tuple(self.connectors)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "connectors", connectors)
        if not stages:
            raise ValueError("a system needs at least one stage")
        if len(connectors) != len(stages) - 1:
            raise ValueError("need exactly one connector between stages")
        for k, c in enumerate(connectors):
            if not isinstance(c, StandardRegularMap):
                raise UsageError(f"connector {k} is not standard regular")
            if c.source != stages[k] or c.target != stages[k + 1]:
                raise SourceTargetMismatch(
                    f"connector {k} does not join stages {k} and {k + 1}")
        if self.periodic:
            if not connectors:
                raise ValueError("a periodic system needs a connector")
            last = connectors[-1]
            if last.source != last.target:
                raise ValueError(
                    "periodic repetition needs an endomorphic final connector")

    def stage_algebra(self, k: int) -> DigraphAlgebra:
        if k < len(self.stages):
            return self.stages[k]
        if self.periodic:
            return self.stages[-1]
        raise IndexError(k)

    def connector(self, k: int) -> StandardRegularMap:
        if k < len(self.connectors):
            return self.connectors[k]
        if self.periodic and self.connectors:
            return self.connectors[-1]
        raise IndexError(k)

    def available_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class CrossoverDiagram:
    """Zigzag between two systems: alphas go down, betas come back up.

    alphas[k] maps top stage k to bottom stage k; betas[k] maps bottom stage
    k to top stage k+1. Top triangle k states beta_k after alpha_k equals
    the top connector k; bottom triangle k states alpha_{k+1} after beta_k
    equals the bottom connector k. budgets, when given, carries declared
    per-triangle bounds as {"top": (...), "bottom": (...)}.
    """

    top: DirectSystem
    bottom: DirectSystem
    alphas: tuple
    betas: tuple
    mode: str = "exact"
    budgets: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "betas", tuple(self.betas))
        if self.mode not in ("exact", "approximate"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if not self.alphas:
            raise ValueError("diagram needs at least one crossover")
        if len(self.betas) not in (len(self.alphas) - 1, len(self.alphas)):
            raise ValueError("betas must number alphas or one fewer")
        for k, a in enumerate(self.alphas):
            if (a.source != self.top.stage_algebra(k)
                    or a.target != self.bottom.stage_algebra(k)):
                raise SourceTargetMismatch(f"alpha {k} joins wrong stages")
        for k, b in enumerate(self.betas):
            if (b.source != self.bottom.stage_algebra(k)
                    or b.target != self.top.stage_algebra(k + 1)):
                raise SourceTargetMismatch(f"beta {k} joins wrong stages")

    def top_triangles(self) -> int:
        return len(self.betas)

    def bottom_triangles(self) -> int:
        return min(len(self.betas), len(self.alphas) - 1)

    def triangles(self):
        """Yield (kind, stage, inner, outer, connector) per triangle, each
        stating outer after inner = connector; top triangles come first."""
        for k in range(self.top_triangles()):
            yield ("top", k, self.alphas[k], self.betas[k],
                   self.top.connector(k))
        for k in range(self.bottom_triangles()):
            yield ("bottom", k, self.betas[k], self.alphas[k + 1],
                   self.bottom.connector(k))

    def budget_for(self, kind: str, k: int) -> Optional[float]:
        if not self.budgets:
            return None
        row = self.budgets.get(kind)
        if row is None or k >= len(row):
            return None
        return float(row[k])


@dataclass
class DiagramReport:
    triangles: tuple   # dicts: stage, kind, residual, budget, within_budget
    masa_flags: tuple  # dicts: role, stage, preserved, witness
    total_residual: float
    exact: bool

    def as_payload(self) -> dict:
        return {"triangles": list(self.triangles),
                "masa_flags": list(self.masa_flags),
                "total_residual": self.total_residual,
                "exact": self.exact}


@dataclass
class CorrectedDiagram:
    alphas_hat: tuple
    betas_hat: tuple
    v_unitaries: tuple
    u_unitaries: tuple
    report: DiagramReport
    diagram: CrossoverDiagram
    witness_residuals: Optional[dict] = None


def _masa_flag(m, role: str, stage: int) -> dict:
    if isinstance(m, StandardRegularMap):
        return {"role": role, "stage": stage, "preserved": True}
    tol = map_tolerance(m)
    for i in range(1, m.source.n + 1):
        img = m.unit_image(i, i)
        off = img - np.diag(np.diag(img))
        v = operator_norm(off)
        if v > tol:
            return {"role": role, "stage": stage, "preserved": False,
                    "witness_unit": i, "off_diagonal": v}
    return {"role": role, "stage": stage, "preserved": True}


def _triangle_residual(inner, outer, connector) -> float:
    lhs = numeric_compose(to_numeric(outer), to_numeric(inner))
    return map_distance(lhs, to_numeric(connector))


def _report(d: CrossoverDiagram, residuals: list) -> DiagramReport:
    rows = []
    total = 0.0
    for (kind, k, *_), r in zip(d.triangles(), residuals):
        b = d.budget_for(kind, k)
        rows.append({"stage": k, "kind": kind, "residual": r, "budget": b,
                     "within_budget": None if b is None else r <= b})
        total += r
    flags = ([_masa_flag(a, "alpha", k) for k, a in enumerate(d.alphas)]
             + [_masa_flag(b, "beta", k) for k, b in enumerate(d.betas)])
    exact = all(r <= DENSE_FLOOR for r in residuals)
    return DiagramReport(tuple(rows), tuple(flags), total, exact)


def verify_diagram(d: CrossoverDiagram) -> DiagramReport:
    """Numeric residuals and masa flags for every triangle and crossover."""
    return _report(d, [_triangle_residual(inner, outer, conn)
                       for _, _, inner, outer, conn in d.triangles()])


def _zigzag(d: CrossoverDiagram) -> list:
    """Triangles in walking order alpha_0, beta_0, alpha_1, ...: stage by
    stage, top before bottom, so each closes over the map walked before."""
    return sorted(d.triangles(), key=lambda t: (t[1], t[0] != "top"))


def exact_intertwine(d: CrossoverDiagram) -> CorrectedDiagram:
    """Correct an exactly commuting combinatorial diagram stage by stage.

    Every crossover must be a StandardRegularMap (weights allowed) and every
    triangle must commute exactly; numeric crossovers belong to the
    approximate mode. Outputs are strict standard with monomial witnesses:
    alphas_hat[k] = Ad(v[k]) alphas[k] and betas_hat[k] = Ad(u[k]) betas[k].
    Each triangle is checked twice, as given (TriangleNotCommuting) and
    once corrected (InternalError), so the report has residual 0.0 on every
    triangle; the input check restandardize_triangle adds in between (the
    moved triangle) follows from these and is skipped, and the witness is
    certified by the corrected triangle's check alone. Both compare columns
    (same_action), so a triangle builds three tables: the outer map
    conjugated, its standard form, and that form after the last hat.
    """
    if d.mode != "exact":
        raise UsageError("diagram is not in exact mode")
    for m in list(d.alphas) + list(d.betas):
        if not isinstance(m, StandardRegularMap):
            raise UsageError(
                "exact mode needs combinatorial crossovers; "
                "use approximate mode for numeric maps")
    for _, k, inner, outer, conn in d.triangles():
        if not same_action(_compose_columns(outer, inner), conn):
            raise TriangleNotCommuting(
                map_distance(compose(outer, inner), conn), stage=k)

    first, d1 = strictify(d.alphas[0])
    hats = [first]
    wits = [Unitary(first.target.n, [d1])]
    for _, _, _, outer, conn in _zigzag(d):
        mono = wits[-1].as_monomial(outer.source)
        t = apply_to_unitary(outer, mono.adjoint())
        b0, strip = strictify(conjugate_standard(outer, t))
        corr, std = _restandardize(conn, hats[-1], b0, [strip])
        hats.append(std)
        wits.append(Unitary(outer.target.n, list(corr.factors) + [t]))

    a_hat, b_hat = tuple(hats[0::2]), tuple(hats[1::2])
    corrected = CrossoverDiagram(d.top, d.bottom, a_hat, b_hat,
                                 mode="exact", budgets=None)
    return CorrectedDiagram(a_hat, b_hat, tuple(wits[0::2]),
                            tuple(wits[1::2]),
                            _report(corrected, [0.0] * (len(hats) - 1)),
                            corrected)


def _certify(maps: tuple, role: str) -> tuple:
    """Standard forms and witnesses of the crossovers, certifying numeric
    ones through the regularity decision."""
    forms, wits = [], []
    for k, m in enumerate(maps):
        if isinstance(m, StandardRegularMap):
            forms.append(m)
            wits.append(Unitary(m.target.n))
            continue
        cert = is_regular(m)
        if not cert.regular:
            raise NotRegular(reason=f"{role} is not regular", stage=k)
        forms.append(cert.standard_form)
        wits.append(cert.unitary)
    return forms, wits


def approx_intertwine(d: CrossoverDiagram) -> CorrectedDiagram:
    """Correct an approximately commuting diagram with numeric crossovers.

    Pipeline: certify each crossover regular; gate every original triangle
    residual by the word-length constant of its source algebra (and any
    declared budget); align the certified standard forms so all triangles
    commute exactly; then run the exact engine. The returned witnesses
    conjugate the original crossovers onto the corrected strict forms, up
    to the certification residuals.
    """
    if d.mode != "approximate":
        raise UsageError("diagram is not in approximate mode")
    a_std, a_wit = _certify(d.alphas, "alpha")
    b_std, b_wit = _certify(d.betas, "beta")

    for kind, k, inner, outer, conn in d.triangles():
        gate = threshold_constant(inner.source)
        budget = d.budget_for(kind, k)
        if budget is not None:
            gate = min(gate, budget)
        r = _triangle_residual(inner, outer, conn)
        if r >= gate:
            raise ResidualTooLarge(r, gate, stage=k)

    # align the standard forms so every triangle holds exactly; the gates
    # above force the class multisets to agree, so witnesses always exist
    walk = [a_std[0]]
    fixes = [None]
    for kind, k, _, _, conn in _zigzag(d):
        std = b_std[k] if kind == "top" else a_std[k + 1]
        got = compose(std, walk[-1])
        if got.class_multiset() != conn.class_multiset():
            raise CensusMismatch(stage=k, kind=kind)
        fixes.append(standard_witness(got, conn))
        walk.append(conjugate_standard(std, fixes[-1]))
    a_fix, b_fix = walk[0::2], walk[1::2]

    exact = CrossoverDiagram(d.top, d.bottom, tuple(a_fix), tuple(b_fix),
                             mode="exact", budgets=None)
    out = exact_intertwine(exact)

    # witness against each original crossover: exact correction, then the
    # alignment, then the certificate
    totals, wr = {}, {}
    for role, maps, hats, corrections, fix, certs in (
            ("alphas", d.alphas, out.alphas_hat, out.v_unitaries,
             fixes[0::2], a_wit),
            ("betas", d.betas, out.betas_hat, out.u_unitaries,
             fixes[1::2], b_wit)):
        totals[role] = [Unitary(c.n, [x for x in (c, f, w) if x is not None])
                        for c, f, w in zip(corrections, fix, certs)]
        wr[role] = [map_distance(u.then_ad(to_numeric(m)), to_numeric(h))
                    for u, m, h in zip(totals[role], maps, hats)]

    return CorrectedDiagram(out.alphas_hat, out.betas_hat,
                            tuple(totals["alphas"]), tuple(totals["betas"]),
                            out.report, out.diagram, witness_residuals=wr)
