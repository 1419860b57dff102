"""The tolerance policy: every cut-off lives in limitalg.tolerance, and each
one is tested just inside and just outside through a public function that
uses it."""

import ast
import pathlib

import numpy as np
import pytest

import limitalg as la
from limitalg import homs, tolerance
from limitalg.errors import NotStarConsistent


def test_no_float_cut_off_outside_the_policy_module():
    root = pathlib.Path(la.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "tolerance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0 < node.value < 1):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_default_tolerance_is_one_name():
    assert la.DEFAULT_TOL is homs.DEFAULT_TOL is tolerance.DEFAULT_TOL


def test_map_tolerance_floors_at_the_dense_floor():
    a, t2 = la.full_matrix_algebra(1), la.full_matrix_algebra(2)
    ident = la.to_numeric(la.identity_map(a))
    floor = tolerance.DENSE_FLOOR
    for tol, want in ((0.9e-12, floor), (1.1e-12, 1.1e-12)):
        phi = la.validate_numeric(ident.images, a, a, tol=tol)
        assert la.is_regular(phi).tolerance == want
    # a standard map is exact: it gets the floor
    assert tolerance.map_tolerance(la.identity_map(a)) == floor
    # the masa flag of a crossover compares at the floored tolerance
    for off, preserved in ((0.9e-12, True), (1.1e-12, False)):
        img = np.array([[[1.0, off], [0.0, 0.0]]], dtype=complex)
        alpha = la.NumericStarMap(a, t2, img, 0.0)
        d = la.CrossoverDiagram(la.DirectSystem((a,), ()),
                                la.DirectSystem((t2,), ()), (alpha,), ())
        assert la.verify_diagram(d).masa_flags[0]["preserved"] is preserved


def test_exact_slack_on_phases_and_weights():
    t2 = la.tr_algebra(2)
    ident = la.identity_map(t2)
    for d, inside in ((0.9e-12, True), (1.1e-12, False)):
        if inside:
            la.validate_multiplicity_one({1: 1, 2: 2}, t2, t2, {2: 1 + d})
            la.StandardPartialIsometry(t2, {1: 1, 2: 2}, {2: 1 + d})
        else:
            with pytest.raises(ValueError, match="not unimodular"):
                la.validate_multiplicity_one({1: 1, 2: 2}, t2, t2, {2: 1 + d})
            with pytest.raises(ValueError, match="not unimodular"):
                la.StandardPartialIsometry(t2, {1: 1, 2: 2}, {2: 1 + d})
        w = {2: np.exp(1j * d)}
        s = la.validate_multiplicity_one({1: 1, 2: 2}, t2, t2, w)
        assert s.weighted is not inside
        assert la.same_action(la.assemble_regular([s]), ident) is inside
        v = la.StandardPartialIsometry(t2, {1: 1, 2: 2}, w)
        assert (v == la.identity_unitary(t2)) is inside


def test_dense_floor_on_tolerances_and_exact_triangles():
    a = la.full_matrix_algebra(2)
    ident = la.identity_map(a)
    exact = la.to_numeric(ident)
    for tol, want in ((0.9e-12, tolerance.DENSE_FLOOR), (1.1e-12, 1.1e-12)):
        phi = la.NumericStarMap(a, a, exact.stack, tol)
        assert la.conjugate_numeric(np.eye(2), phi).tolerance == want
        assert la.numeric_compose(phi, exact).tolerance == want
    for theta, inside in ((0.9e-12, True), (1.1e-12, False)):
        alpha = la.conjugate_numeric(np.diag([1, np.exp(1j * theta)]), exact)
        d = la.CrossoverDiagram(la.DirectSystem((a, a), (ident,)),
                                la.DirectSystem((a,), ()), (alpha,), (ident,))
        report = la.verify_diagram(d)
        assert report.triangles[0]["residual"] == pytest.approx(theta)
        assert report.exact is inside


def test_rounding_margin_gates_the_spectral_recheck(monkeypatch):
    """A residual within tol ROUNDING_MARGIN passes on its Frobenius norm;
    one between that and tol gets an SVD and passes; above tol it fails."""
    a = la.full_matrix_algebra(2)
    tol = 1e-3
    calls = []

    def counting(x):
        calls.append(1)
        return la.operator_norm(x)

    monkeypatch.setattr(homs, "operator_norm", counting)
    ident = la.to_numeric(la.identity_map(a)).images
    for rel, outcome in ((-2e-9, "frobenius"), (-0.5e-9, "svd"),
                         (1e-9, "rejected")):
        images = dict(ident)
        images[(2, 1)] = ident[(2, 1)] * (1 + tol * (1 + rel))
        calls.clear()
        if outcome == "rejected":
            with pytest.raises(NotStarConsistent) as err:
                la.validate_numeric(images, a, a, tol=tol)
            assert err.value.data["residual"] > tol
        else:
            la.validate_numeric(images, a, a, tol=tol)
            assert bool(calls) is (outcome == "svd")


def test_singular_value_cut_is_one_predicate():
    """present is rank >= 1 on every covered class: at a singular value of
    exactly 1/2 the candidate is absent, as the census counts it."""
    a, t2 = la.full_matrix_algebra(1), la.full_matrix_algebra(2)
    alpha = la.validate_multiplicity_one({1: 1}, a, t2)
    cut = tolerance.SV_CUT
    for x, present in ((np.nextafter(cut, 0), False), (cut, False),
                       (np.nextafter(cut, 1), True)):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = x
        phi = la.validate_numeric({(1, 1): m}, a, t2, tol=0.3)
        res = la.test_product(phi, alpha)
        assert res.norm == x
        assert res.present is present
        assert res.per_class[0][2] == int(present)
        assert len(la.summand_census(phi).multiset()) == int(present)
