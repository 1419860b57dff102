"""Crossover diagrams: exact zigzag correction and the approximate
certify-gate-align pipeline."""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg.errors import (ResidualTooLarge, SourceTargetMismatch,
                             TriangleNotCommuting, UsageError)

from conftest import random_block_hermitian, random_monomial_unitary, unitary_exp


def identity_map(a):
    return la.assemble_regular(
        [la.validate_multiplicity_one({i: i for i in range(1, a.n + 1)}, a, a)])


def inner_automorphism(a, w):
    return la.conjugate_standard(identity_map(a), w)


def twisted_refinement_diagram(rng, stages=3, phases=False, exact=True):
    """Both rows are the dyadic refinement tower; the crossovers carry a
    monomial twist per stage so nothing is trivially aligned.

    Phase-free twists keep the bottom connectors strict, which is what the
    strictness guarantee of the exact engine is conditioned on. Phased
    twists draw fourth roots of unity, or any unimodular phase when exact
    is False.
    """
    from conftest import random_block_permutation
    tops = [la.tr_algebra(2, 2 ** k) for k in range(stages)]
    conns = [la.refinement_map(2, 2 ** k, 2) for k in range(stages - 1)]
    top = la.DirectSystem(tuple(tops), tuple(conns))
    if phases:
        twists = [random_monomial_unitary(rng, a, exact=exact)
                  for a in tops]
    else:
        twists = [la.PermutationUnitary(
            a, random_block_permutation(rng, a)).as_partial_isometry()
            for a in tops]
    alphas = [inner_automorphism(a, w) for a, w in zip(tops, twists)]
    betas = [la.compose(conns[k], inner_automorphism(tops[k],
                                                     twists[k].adjoint()))
             for k in range(stages - 1)]
    bconns = [la.compose(alphas[k + 1], betas[k]) for k in range(stages - 1)]
    bottom = la.DirectSystem(tuple(tops), tuple(bconns))
    return la.CrossoverDiagram(top, bottom, tuple(alphas), tuple(betas))


def test_direct_system_validation():
    t2 = la.tr_algebra(2)
    t4 = la.tr_algebra(2, 2)
    conn = la.refinement_map(2, 1, 2)
    sys = la.DirectSystem((t2, t4), (conn,))
    assert sys.available_stages() == 2
    assert sys.stage_algebra(1) == t4
    with pytest.raises(SourceTargetMismatch):
        la.DirectSystem((t4, t2), (conn,))
    with pytest.raises(ValueError):
        la.DirectSystem((t2, t4), (conn,), periodic=True)
    with pytest.raises(ValueError):
        la.DirectSystem((t2, t4), ())
    assert sys.connector(0) is conn
    with pytest.raises(IndexError):
        sys.connector(1)


def test_periodic_system_repeats_connector():
    t2 = la.tr_algebra(2)
    endo = inner_automorphism(t2, la.identity_unitary(t2))
    sys = la.DirectSystem((t2, t2), (endo,), periodic=True)
    assert sys.connector(7) is endo
    assert sys.stage_algebra(100) == t2


def test_exact_intertwine_refinement_tower():
    rng = np.random.default_rng(61)
    for _ in range(5):
        d = twisted_refinement_diagram(rng, stages=3)
        out = la.exact_intertwine(d)
        assert out.report.exact
        assert all(a.is_strict for a in out.alphas_hat)
        assert all(b.is_strict for b in out.betas_hat)
        # witnesses really conjugate the inputs onto the outputs
        for k, a in enumerate(out.alphas_hat):
            moved = out.v_unitaries[k].then_ad(la.to_numeric(d.alphas[k]))
            assert la.map_distance(moved, la.to_numeric(a)) <= 1e-12
        for k, b in enumerate(out.betas_hat):
            moved = out.u_unitaries[k].then_ad(la.to_numeric(d.betas[k]))
            assert la.map_distance(moved, la.to_numeric(b)) <= 1e-12


def test_exact_intertwine_idempotent():
    rng = np.random.default_rng(67)
    d = twisted_refinement_diagram(rng, stages=3)
    out = la.exact_intertwine(d)
    again = la.exact_intertwine(out.diagram)
    for a1, a2 in zip(out.alphas_hat, again.alphas_hat):
        assert la.same_action(a1, a2)
    for b1, b2 in zip(out.betas_hat, again.betas_hat):
        assert la.same_action(b1, b2)


def test_exact_intertwine_weighted_twists():
    # phase twists make the bottom connectors weighted; the engine still
    # corrects exactly, it just cannot promise strict outputs
    rng = np.random.default_rng(101)
    d = twisted_refinement_diagram(rng, stages=3, phases=True)
    out = la.exact_intertwine(d)
    assert out.report.exact
    for k, a in enumerate(out.alphas_hat):
        moved = out.v_unitaries[k].then_ad(la.to_numeric(d.alphas[k]))
        assert la.map_distance(moved, la.to_numeric(a)) <= 1e-12


def test_exact_report_matches_dense_verification():
    # the exact engine reports without a dense pass; verify_diagram is the
    # oracle on the corrected diagram
    rng = np.random.default_rng(103)
    for stages in (2, 3, 4):
        for phases in (False, True):
            d = twisted_refinement_diagram(rng, stages=stages, phases=phases)
            out = la.exact_intertwine(d)
            assert (out.report.as_payload()
                    == la.verify_diagram(out.diagram).as_payload())


def test_exact_intertwine_rejects_numeric():
    rng = np.random.default_rng(71)
    d = twisted_refinement_diagram(rng, stages=2)
    broken = la.CrossoverDiagram(
        d.top, d.bottom,
        (la.to_numeric(d.alphas[0]), d.alphas[1]), d.betas)
    with pytest.raises(UsageError):
        la.exact_intertwine(broken)


def test_exact_intertwine_rejects_broken_triangle():
    rng = np.random.default_rng(73)
    d = twisted_refinement_diagram(rng, stages=2)
    w = random_monomial_unitary(rng, d.betas[0].target)
    crooked = la.CrossoverDiagram(
        d.top, d.bottom, d.alphas,
        (la.conjugate_standard(d.betas[0], w),))
    try:
        la.exact_intertwine(crooked)
    except TriangleNotCommuting as err:
        assert err.data["stage"] == 0
    else:
        # the random twist may happen to fix the composite; force one
        flip = la.PermutationUnitary(
            d.betas[0].target, (2, 1)).as_partial_isometry()
        crooked = la.CrossoverDiagram(
            d.top, d.bottom,
            (la.conjugate_standard(d.alphas[0], flip), d.alphas[1]),
            d.betas)
        with pytest.raises(TriangleNotCommuting):
            la.exact_intertwine(crooked)


def test_verify_diagram_budgets_and_masa():
    rng = np.random.default_rng(79)
    d = twisted_refinement_diagram(rng, stages=2)
    moved = []
    for a in d.alphas:
        h = random_block_hermitian(rng, a.target)
        moved.append(la.conjugate_numeric(unitary_exp(h, 1e-4),
                                          la.to_numeric(a)))
    approx = la.CrossoverDiagram(
        d.top, d.bottom, tuple(moved), d.betas,
        mode="approximate", budgets={"top": (1e-2,), "bottom": (1e-12,)})
    report = la.verify_diagram(approx)
    by_kind = {(r["kind"], r["stage"]): r for r in report.triangles}
    assert by_kind[("top", 0)]["within_budget"] is True
    assert by_kind[("bottom", 0)]["within_budget"] is False
    assert not report.exact
    flags = {(f["role"], f["stage"]): f for f in report.masa_flags}
    # blocks of T2 are singletons, so the stage-0 perturbation is diagonal
    assert flags[("alpha", 0)]["preserved"] is True
    assert flags[("alpha", 1)]["preserved"] is False
    assert flags[("beta", 0)]["preserved"] is True


def test_approx_intertwine_recovers_class_data():
    rng = np.random.default_rng(83)
    for _ in range(3):
        d = twisted_refinement_diagram(rng, stages=3)
        exact_out = la.exact_intertwine(d)
        alphas = []
        for k, a in enumerate(d.alphas):
            h = random_block_hermitian(rng, a.target)
            alphas.append(la.conjugate_numeric(
                unitary_exp(h, 1e-4), la.to_numeric(a)))
        approx = la.CrossoverDiagram(d.top, d.bottom, tuple(alphas), d.betas,
                                     mode="approximate")
        out = la.approx_intertwine(approx)
        assert out.report.exact
        for a1, a2 in zip(exact_out.alphas_hat, out.alphas_hat):
            assert a1.class_multiset() == a2.class_multiset()
        assert out.witness_residuals is not None
        for r in out.witness_residuals["alphas"]:
            assert r <= 1e-8
        for r in out.witness_residuals["betas"]:
            assert r <= 1e-8
        # witnessed conjugation against the originals, spelled out
        for k, a_hat in enumerate(out.alphas_hat):
            moved = out.v_unitaries[k].then_ad(alphas[k])
            assert la.map_distance(moved, la.to_numeric(a_hat)) <= 1e-8


def test_approx_intertwine_gates_large_residuals():
    rng = np.random.default_rng(89)
    d = twisted_refinement_diagram(rng, stages=2)
    h = random_block_hermitian(rng, d.alphas[0].target)
    far = la.conjugate_numeric(unitary_exp(h, 0.9), la.to_numeric(d.alphas[0]))
    approx = la.CrossoverDiagram(d.top, d.bottom, (far, d.alphas[1]),
                                 d.betas, mode="approximate")
    if la.verify_diagram(approx).total_residual < 1 / 3:
        pytest.skip("perturbation landed too close to commuting")
    with pytest.raises(ResidualTooLarge):
        la.approx_intertwine(approx)


def test_approx_intertwine_mode_check():
    rng = np.random.default_rng(97)
    d = twisted_refinement_diagram(rng, stages=2)
    with pytest.raises(UsageError):
        la.approx_intertwine(d)
    with pytest.raises(UsageError):
        la.CrossoverDiagram(d.top, d.bottom, d.alphas, d.betas,
                            mode="sloppy")


def test_exact_intertwine_rejects_a_wrong_witness(monkeypatch):
    # a block-preserving witness that does not carry its map onto the
    # connector fails the one exact check of the corrected triangle
    from limitalg import conjugacy
    from limitalg.errors import InternalError

    def reversing(phi1, phi2, u=None):
        a = phi2.target
        return la.StandardPartialIsometry(
            a, {i: j for blk in a.blocks for i, j in zip(blk, blk[::-1])})

    d = twisted_refinement_diagram(np.random.default_rng(5), stages=3)
    monkeypatch.setattr(conjugacy, "_witness", reversing)
    with pytest.raises(InternalError, match="restandardization"):
        la.exact_intertwine(d)
    # standard_witness checks the witness itself; restandardize_triangle
    # fails at the check of its result, which certifies the witness
    phi = d.top.connector(1)
    with pytest.raises(InternalError,
                       match="witness construction failed to verify"):
        la.standard_witness(phi, phi)
    with pytest.raises(InternalError, match="restandardization"):
        la.restandardize_triangle(phi, la.identity_map(phi.source), phi)


def test_restandardize_triangle_checks_the_triangle_as_given():
    d = twisted_refinement_diagram(np.random.default_rng(11), stages=3)
    phi1, phi2 = d.top.connector(0), d.top.connector(1)
    flip = la.PermutationUnitary(
        phi2.target, (2, 1, 3, 4, 5, 6, 7, 8)).as_partial_isometry()
    with pytest.raises(TriangleNotCommuting):
        la.restandardize_triangle(la.compose(phi2, phi1), phi1,
                                  la.conjugate_standard(phi2, flip))


def _spy(monkeypatch, names) -> Counter:
    """Count the calls of homs functions from every limitalg namespace."""
    calls = Counter()
    for name in names:
        orig = getattr(la.homs, name)

        def spy(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("limitalg")
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, spy)
    return calls


def test_exact_intertwine_calls_per_triangle(monkeypatch):
    # per triangle: the input check, the standard form after the previous
    # hat and the final check compose; the outer map and its standard form
    # are conjugated once each
    d = twisted_refinement_diagram(np.random.default_rng(13), stages=4,
                                   phases=True)
    n = len(list(d.triangles()))
    calls = _spy(monkeypatch, ("compose", "conjugate_standard"))
    la.exact_intertwine(d)
    assert calls == {"compose": 3 * n, "conjugate_standard": 2 * n}


def _reference_intertwine(d) -> tuple:
    """exact_intertwine's walk through the public, fully checked
    restandardize_triangle: (hats, witnesses) in walking order."""
    first, d1 = la.strictify(d.alphas[0])
    hats, wits = [first], [la.Unitary(first.target.n, [d1])]
    for _, _, _, outer, conn in sorted(
            d.triangles(), key=lambda t: (t[1], t[0] != "top")):
        t = la.apply_to_unitary(
            outer, wits[-1].as_monomial(outer.source).adjoint())
        corr, std = la.restandardize_triangle(
            conn, hats[-1], la.conjugate_standard(outer, t))
        hats.append(std)
        wits.append(la.Unitary(outer.target.n, list(corr.factors) + [t]))
    return hats, wits


def _bits(m) -> tuple:
    if isinstance(m, la.Unitary):
        return tuple((f.pairs, tuple(f.phases.items())) for f in m.factors)
    return m.src, m.tgt, m.piece, m.weight, m.pieces


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 5))
def test_unchecked_chain_matches_the_checked_one(seed, stages):
    # any unimodular phases round at every product along the chain; the
    # checks exact_intertwine skips still pass on the walk the public
    # functions take, and both give the same bits
    d = twisted_refinement_diagram(np.random.default_rng(seed),
                                   stages=stages, phases=True, exact=False)
    out = la.exact_intertwine(d)
    hats, wits = _reference_intertwine(d)
    assert [_bits(m) for m in out.alphas_hat + out.betas_hat] == [
        _bits(m) for m in hats[0::2] + hats[1::2]]
    assert [_bits(u) for u in out.v_unitaries + out.u_unitaries] == [
        _bits(u) for u in wits[0::2] + wits[1::2]]
