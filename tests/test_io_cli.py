"""JSON serialization and the command line surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg import conjugacy, detect, io as iolib
from limitalg.cli import main, run_command
from limitalg.dimmod import MonotoneMap
from limitalg.errors import DanglingReference, SchemaError, UsageError

from conftest import assemble_band_map, uhf_system


# document builders

def tower_workspace():
    """Two-stage dyadic tower with one twisted crossover diagram."""
    t2 = la.tr_algebra(2)
    t4 = la.tr_algebra(2, 2)
    conn = la.refinement_map(2, 1, 2)
    ident2 = la.assemble_regular(
        [la.validate_multiplicity_one({1: 1, 2: 2}, t2, t2)])
    swap4 = la.PermutationUnitary(t4, (2, 1, 4, 3)).as_partial_isometry()
    alpha0 = ident2
    alpha1 = la.conjugate_standard(
        la.assemble_regular(
            [la.validate_multiplicity_one({i: i for i in range(1, 5)},
                                          t4, t4)]), swap4)
    beta0 = la.compose(alpha1, conn)  # beta after alpha0 = alpha1 conn
    top = la.DirectSystem((t2, t4), (la.compose(beta0, alpha0),))
    bottom = la.DirectSystem((t2, t4), (la.compose(alpha1, beta0),))
    diagram = la.CrossoverDiagram(top, bottom, (alpha0, alpha1), (beta0,))
    ws = iolib.Workspace()
    ws.algebras = {"t2": t2, "t4": t4}
    ws.maps = {"alpha0": alpha0, "alpha1": alpha1, "beta0": beta0,
               "top0": top.connectors[0], "bot0": bottom.connectors[0]}
    ws.systems = {"top": top, "bottom": bottom}
    ws.diagrams = {"demo": diagram}
    return ws


def write_json(path, doc):
    path.write_text(iolib.canonical_dumps(doc), encoding="utf-8")
    return str(path)


def test_canonical_dumps_stable():
    doc = {"b": [1.5, {"z": 1, "a": 2}], "a": None}
    text = iolib.canonical_dumps(doc)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert iolib.canonical_dumps(doc) == text


def test_algebra_encode_parse_round_trip():
    t2 = la.tr_algebra(2)
    doc = iolib.encode_algebra(t2)
    assert doc == {"n": 2, "edges": [[1, 2]]}  # loops are implicit
    assert iolib.parse_algebra(doc, "") == t2
    assert iolib.parse_algebra({"n": 2, "edges": [[1, 2]]}, "") == t2


def test_algebra_sugar_forms():
    assert iolib.parse_algebra({"tr": {"r": 2, "size": 2}}, "") == \
        la.tr_algebra(2, 2)
    assert iolib.parse_algebra({"full": 3}, "") == la.full_matrix_algebra(3)
    assert iolib.parse_algebra({"diagonal": 2}, "") == la.diagonal_algebra(2)
    assert iolib.parse_algebra(
        {"summands": [{"tr": {"r": 2}}, {"full": 2}]}, "") == \
        la.direct_sum_algebra(la.tr_algebra(2), la.full_matrix_algebra(2))
    assert iolib.parse_algebra(
        {"tensor": {"base": {"tr": {"r": 2}}, "m": 2}}, "") == \
        la.tensor_model(la.tr_algebra(2), 2)


def test_workspace_round_trip_bytes():
    ws = tower_workspace()
    doc = iolib.encode_workspace(ws)
    text = iolib.canonical_dumps(doc)
    ws2 = iolib.parse_workspace_text(text)
    text2 = iolib.canonical_dumps(iolib.encode_workspace(ws2))
    assert text2 == text
    assert ws2.algebras["t4"] == ws.algebras["t4"]
    assert la.same_action(ws2.maps["alpha1"], ws.maps["alpha1"])
    assert ws2.diagrams["demo"].mode == "exact"


def test_numeric_map_round_trip():
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    doc = iolib.encode_map(phi)
    back = iolib.parse_map(doc, "")
    assert la.map_distance(phi, back) == 0.0
    assert back.tolerance == phi.tolerance


def test_conjugated_numeric_map_round_trip():
    # dense conjugation rounds, so its tolerance must survive re-parsing
    from conftest import random_block_hermitian, unitary_exp
    rng = np.random.default_rng(131)
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    u = unitary_exp(random_block_hermitian(rng, phi.target), 0.7)
    moved = la.conjugate_numeric(u, phi)
    back = iolib.parse_map(iolib.encode_map(moved), "")
    assert la.map_distance(moved, back) == 0.0
    assert back.tolerance == moved.tolerance > 0.0


def test_schema_error_pointers():
    with pytest.raises(SchemaError) as err:
        iolib.parse_workspace_text('{"version": 3}')
    assert err.value.data["pointer"] == "/version"
    with pytest.raises(SchemaError) as err:
        iolib.parse_algebra({"n": 2, "edges": [[1, 2, 3]]}, "")
    assert err.value.data["pointer"] == "/edges/0"
    with pytest.raises(SchemaError) as err:
        iolib.parse_workspace_text('{"maps": {"m": {"type": "nope"}}}')
    assert err.value.data["pointer"] == "/maps/m"
    with pytest.raises(SchemaError):
        iolib.parse_workspace_text("not json at all")


def test_dangling_references():
    with pytest.raises(DanglingReference):
        iolib.parse_workspace_text(
            '{"systems": {"s": {"stages": ["ghost"], "connectors": []}}}')
    with pytest.raises(DanglingReference):
        iolib.parse_map("ghost", "", registry={})


def test_load_object_selection(tmp_path):
    bare = write_json(tmp_path / "alg.json", iolib.encode_algebra(
        la.tr_algebra(2)))
    assert iolib.load_object(bare, "algebra") == la.tr_algebra(2)
    with pytest.raises(UsageError):
        iolib.load_object(bare, "algebra", name="x")

    ws = tower_workspace()
    wsp = write_json(tmp_path / "ws.json",
                     iolib.encode_workspace(ws))
    got = iolib.load_object(wsp, "map", name="alpha1")
    assert la.same_action(got, ws.maps["alpha1"])
    with pytest.raises(UsageError):
        iolib.load_object(wsp, "map")  # five maps, no name
    with pytest.raises(DanglingReference):
        iolib.load_object(wsp, "map", name="ghost")
    sole = iolib.load_object(wsp, "diagram")
    assert sole.mode == "exact"


# command line

def test_cli_validate(tmp_path):
    ws = write_json(tmp_path / "ws.json",
                    iolib.encode_workspace(tower_workspace()))
    code, report = run_command("validate", [ws])
    assert code == 0
    assert report["valid"] is True
    assert report["counts"]["maps"] == 5

    bad = write_json(tmp_path / "bad.json", {"version": 9})
    code, report = run_command("validate", [bad])
    assert code == 1
    assert report["valid"] is False

    code, report = run_command("validate", [str(tmp_path / "missing.json")])
    assert code == 2

    notjson = tmp_path / "nj.json"
    notjson.write_text("{{{{", encoding="utf-8")
    code, report = run_command("validate", [str(notjson)])
    assert code == 1  # schema problem inside an existing file


def test_cli_decompose(tmp_path):
    p = write_json(tmp_path / "m.json",
                   iolib.encode_map(la.refinement_map(2, 1, 2)))
    code, report = run_command("decompose", ["--map", p])
    assert code == 0
    assert len(report["summands"]) == 2
    assert report["rank_matrix"] == [[2, 0], [0, 2]]


def test_cli_conjugacy(tmp_path):
    t2 = la.tr_algebra(2)
    t4 = la.tr_algebra(2, 2)
    phi = la.refinement_map(2, 1, 2)
    u = la.PermutationUnitary(t4, (2, 1, 4, 3)).as_partial_isometry()
    psi = la.conjugate_standard(phi, u)
    lhs = write_json(tmp_path / "lhs.json", iolib.encode_map(phi))
    rhs = write_json(tmp_path / "rhs.json", iolib.encode_map(psi))
    code, report = run_command("conjugacy", ["--lhs", lhs, "--rhs", rhs])
    assert code == 0
    assert report["verdict"] == "equivalent"
    assert "witness" in report

    other = la.assemble_regular(
        [la.validate_multiplicity_one({1: 1, 2: 3}, t2, t4)])
    rhs2 = write_json(tmp_path / "rhs2.json", iolib.encode_map(other))
    code, report = run_command("conjugacy", ["--lhs", lhs, "--rhs", rhs2])
    assert code == 1
    assert report["verdict"] == "not_equivalent"


def test_cli_standardize(tmp_path):
    from conftest import random_block_hermitian, unitary_exp
    rng = np.random.default_rng(127)
    phi = la.refinement_map(2, 1, 2)
    h = random_block_hermitian(rng, phi.target)
    moved = la.conjugate_numeric(unitary_exp(h, 0.3), la.to_numeric(phi))
    moved = la.validate_numeric(moved.images, moved.source, moved.target,
                                tol=1e-9)
    p = write_json(tmp_path / "num.json", iolib.encode_map(moved))
    code, report = run_command("standardize", ["--map", p])
    assert code == 0
    assert report["regular"] is True
    assert "standard_form" in report and "unitary" in report

    from test_detect import rotated_specimen
    bad = write_json(tmp_path / "rot.json", iolib.encode_map(rotated_specimen()))
    code, report = run_command("standardize", ["--map", bad])
    assert code == 1
    assert report["regular"] is False


def test_cli_intertwine(tmp_path):
    ws = write_json(tmp_path / "ws.json",
                    iolib.encode_workspace(tower_workspace()))
    code, report = run_command("intertwine", ["--diagram", ws])
    assert code == 0
    assert report["max_residual"] == 0.0
    assert report["report"]["exact"] is True
    assert len(report["corrected"]["alphas"]) == 2
    code2, report2 = run_command("intertwine",
                                 ["--diagram", ws, "--name", "demo"])
    assert (code2, report2) == (code, report)


def test_cli_detect(tmp_path):
    phi = la.refinement_map(2, 1, 2)
    p = write_json(tmp_path / "m.json", iolib.encode_map(phi))
    code, report = run_command("detect", ["--map", p])
    assert code == 0
    assert report["residual_rank"] == 0
    assert report["classes"][0]["multiplicity"] == 2

    alpha = la.assemble_regular([la.refinement_summand(2, 1, 2, 1)])
    ap = write_json(tmp_path / "a.json", iolib.encode_map(alpha))
    code, report = run_command("detect", ["--map", p, "--against", ap])
    assert code == 0
    assert report["present"] is True

    t2, t4 = la.tr_algebra(2), la.tr_algebra(3, 2)
    phi2 = la.assemble_regular(
        [la.validate_multiplicity_one({1: 1, 2: 3}, t2, t4)])
    absent = la.assemble_regular(
        [la.validate_multiplicity_one({1: 3, 2: 5}, t2, t4)])
    p2 = write_json(tmp_path / "m2.json", iolib.encode_map(phi2))
    ap2 = write_json(tmp_path / "a2.json", iolib.encode_map(absent))
    code, report = run_command("detect", ["--map", p2, "--against", ap2])
    assert code == 1
    assert report["present"] is False


def test_cli_regular_test(tmp_path):
    p = write_json(tmp_path / "m.json",
                   iolib.encode_map(la.refinement_map(2, 1, 2)))
    code, report = run_command("regular-test", ["--map", p])
    assert code == 0
    assert report["regular"] is True

    from test_detect import rotated_specimen
    bad = write_json(tmp_path / "rot.json",
                     iolib.encode_map(rotated_specimen()))
    code, report = run_command("regular-test", ["--map", bad])
    assert code == 1
    assert report["regular"] is False
    assert report["residual_rank"] == 6


def test_cli_spectrum(tmp_path):
    s2 = write_json(tmp_path / "s2.json", iolib.encode_system(uhf_system(2, 2)))
    s3 = write_json(tmp_path / "s3.json", iolib.encode_system(uhf_system(3, 2)))
    code, report = run_command("spectrum", ["--system", s2, "--depth", "2"])
    assert code == 0
    assert report["path_count"] == 4

    code, report = run_command(
        "spectrum", ["--system", s2, "--depth", "2", "--compare", s3])
    assert code == 1
    assert report["comparison"]["verdict"] == "distinguished"

    code, report = run_command(
        "spectrum", ["--system", s2, "--depth", "2", "--compare", s2])
    assert code == 0
    assert report["comparison"]["verdict"] == "compatible"

    code, report = run_command("spectrum", ["--system", s2, "--depth", "9"])
    assert code == 2


def test_cli_spectrum_compare_loads_one_file_once(tmp_path, capsys,
                                                  monkeypatch):
    s2 = write_json(tmp_path / "s2.json", iolib.encode_system(uhf_system(2, 3)))
    copy = tmp_path / "copy.json"
    copy.write_bytes((tmp_path / "s2.json").read_bytes())
    loads = []
    load = iolib.load_object
    monkeypatch.setattr(iolib, "load_object",
                        lambda *a, **k: loads.append(a[0]) or load(*a, **k))
    outputs = []
    for other, read in ((s2, [s2]), (str(copy), [s2, str(copy)])):
        loads.clear()
        code = main(["spectrum", "--system", s2, "--depth", "3",
                     "--compare", other])
        outputs.append((code, capsys.readouterr().out))
        assert loads == read
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def fib_files(tmp_path):
    one = MonotoneMap.identity(1)
    f = [1, 1, 2, 3, 5, 8]
    algs = [la.direct_sum_algebra(la.full_matrix_algebra(f[k + 1]),
                                  la.full_matrix_algebra(f[k]))
            for k in range(4)]
    conns = [assemble_band_map(algs[k], algs[k + 1],
                               [(0, 0, one), (1, 0, one), (0, 1, one)])
             for k in range(3)]
    sys_doc = iolib.encode_system(la.DirectSystem(tuple(algs), tuple(conns)))
    sp = write_json(tmp_path / "fib.json", sys_doc)
    e1 = write_json(tmp_path / "e1.json", {
        "stage": 0, "entries": [{"terms": [{"map": [1], "coeff": 1}]},
                                {"terms": []}]})
    e2 = write_json(tmp_path / "e2.json", {
        "stage": 0, "entries": [{"terms": []},
                                {"terms": [{"map": [1], "coeff": 1}]}]})
    return sp, e1, e2


def test_cli_dimmod(tmp_path):
    sp, e1, e2 = fib_files(tmp_path)
    code, report = run_command("dimmod", ["--system", sp, "--r", "1"])
    assert code == 0
    assert report["r"] == 1
    assert report["stage_count"] == 4
    assert report["injective"] == [True, True, True]

    code, report = run_command(
        "dimmod", ["--system", sp, "--element", e1, "--push-to", "3"])
    assert code == 0
    pushed = report["push"]["value"]
    assert pushed["entries"][0]["terms"][0]["coeff"] == 3
    assert pushed["entries"][1]["terms"][0]["coeff"] == 2

    code, report = run_command(
        "dimmod", ["--system", sp, "--element", e1,
                   "--element-b", e2, "--equal-at", "0"])
    assert code == 1
    assert report["verdict"] == "Distinct"

    code, report = run_command(
        "dimmod", ["--system", sp, "--element", e1,
                   "--element-b", e1, "--equal-at", "2"])
    assert code == 0
    assert report["verdict"] == "Equal"

    code, report = run_command("dimmod", ["--system", sp, "--r", "2"])
    assert code == 2


def test_exact_census_matches_numeric_census():
    ws = tower_workspace()
    t2, t4 = la.tr_algebra(2), la.tr_algebra(3, 2)
    maps = list(ws.maps.values()) + [
        la.refinement_map(2, 1, 2),
        la.assemble_regular([la.refinement_summand(2, 1, 2, 1)]),
        la.assemble_regular(
            [la.validate_multiplicity_one({1: 1, 2: 3}, t2, t4)]),
        la.assemble_regular(
            [la.validate_multiplicity_one({1: 3, 2: 5}, t2, t4)]),
        la.conjugate_standard(
            la.refinement_map(2, 1, 2),
            la.PermutationUnitary(la.tr_algebra(2, 2),
                                  (2, 1, 4, 3)).as_partial_isometry())]
    for phi in maps:
        exact = detect.standard_census(phi)
        oracle = la.summand_census(la.to_numeric(phi))
        assert exact == oracle
        assert exact.as_payload() == oracle.as_payload()


def test_cli_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    phi = la.refinement_map(2, 1, 2)
    lhs = write_json(tmp_path / "lhs.json", iolib.encode_map(phi))
    monkeypatch.setattr(conjugacy, "same_action", lambda f, g: False)
    code = main(["conjugacy", "--lhs", lhs, "--rhs", lhs])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {"error": {
        "type": "InternalError",
        "message": "witness construction failed to verify"}}
    assert out.err == ""


def test_cli_tolerance_env(tmp_path, monkeypatch):
    p = write_json(tmp_path / "m.json",
                   iolib.encode_map(la.refinement_map(2, 1, 2)))
    monkeypatch.setenv("LIMITALG_TOL", "0.5")
    code, report = run_command("regular-test", ["--map", p])
    assert code == 0
    assert report["tolerance"] == 0.5
    monkeypatch.setenv("LIMITALG_TOL", "garbage")
    code, report = run_command("regular-test", ["--map", p])
    assert code == 2
    monkeypatch.setenv("LIMITALG_TOL", "-1")
    code, report = run_command("regular-test", ["--map", p])
    assert code == 2


def test_cli_output_file_and_determinism(tmp_path, capsys):
    ws = write_json(tmp_path / "ws.json",
                    iolib.encode_workspace(tower_workspace()))
    out = tmp_path / "report.json"
    code = main(["validate", ws, "--output", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert out.read_text(encoding="utf-8") == text
    code = main(["validate", ws])
    assert capsys.readouterr().out == text


def test_cli_subprocess_entry(tmp_path):
    p = write_json(tmp_path / "m.json",
                   iolib.encode_map(la.refinement_map(2, 1, 2)))
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "limitalg.cli", "decompose", "--map", p],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["summands"]) == 2


def _write_raw(path, doc):
    # json.dumps, unlike canonical_dumps, writes NaN and Infinity
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _typed_failure(argv, capsys, want):
    code = main(argv)
    out = capsys.readouterr()
    err = json.loads(out.out)["error"]
    assert (code, err["type"], out.err) == (2, want, "")
    return err


def test_cli_rejects_non_edge_images_and_non_finite_numbers(
        tmp_path, monkeypatch, capsys):
    doc = iolib.encode_map(la.to_numeric(la.refinement_map(2, 1, 2)))
    zero = [[0.0] * 4 for _ in range(4)]
    for k, (i, j) in enumerate(((5, 7), (2, 1))):
        bad = dict(doc, images=doc["images"] + [
            {"i": i, "j": j, "matrix": zero}])
        p = _write_raw(tmp_path / f"edge{k}.json", bad)
        err = _typed_failure(["regular-test", "--map", p], capsys,
                             "ShapeMismatch")
        assert f"({i},{j})" in err["message"]

    for k, value in enumerate((float("nan"), float("inf"), -float("inf"))):
        p = _write_raw(tmp_path / f"tol{k}.json", dict(doc, tolerance=value))
        for verb in ("regular-test", "standardize", "detect"):
            err = _typed_failure([verb, "--map", p], capsys, "SchemaError")
            assert err["data"] == {"pointer": "/tolerance"}

    # an unbounded tolerance would switch validation off entirely
    loose = json.loads(json.dumps(doc))
    loose["images"][0]["matrix"][0][0] = [5.0, 0.0]
    loose["tolerance"] = float("inf")
    p = _write_raw(tmp_path / "loose.json", loose)
    _typed_failure(["detect", "--map", p], capsys, "SchemaError")

    cell = json.loads(json.dumps(doc))
    cell["images"][0]["matrix"][0][1] = [0.0, float("nan")]
    p = _write_raw(tmp_path / "cell.json", cell)
    err = _typed_failure(["detect", "--map", p], capsys, "SchemaError")
    assert err["data"] == {"pointer": "/images/0/matrix/0/1/1"}
    # an integer too large for a float is not finite either
    cell["images"][0]["matrix"][0][1] = 10 ** 400
    p = _write_raw(tmp_path / "huge.json", cell)
    err = _typed_failure(["detect", "--map", p], capsys, "SchemaError")
    assert err["data"] == {"pointer": "/images/0/matrix/0/1"}

    good = write_json(tmp_path / "good.json", doc)
    sys_path = write_json(tmp_path / "s2.json",
                          iolib.encode_system(uhf_system(2, 2)))
    argvs = [["validate", good], ["decompose", "--map", good],
             ["conjugacy", "--lhs", good, "--rhs", good],
             ["standardize", "--map", good], ["intertwine", "--diagram", good],
             ["detect", "--map", good], ["regular-test", "--map", good],
             ["spectrum", "--system", sys_path, "--depth", "1"],
             ["dimmod", "--system", sys_path]]
    monkeypatch.setenv("LIMITALG_TOL", "inf")
    for argv in argvs:
        _typed_failure(argv, capsys, "UsageError")


def test_cli_sweep_above_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    from limitalg import homs
    doc = iolib.encode_map(la.to_numeric(la.refinement_map(2, 1, 2)))
    p = write_json(tmp_path / "num.json", doc)
    monkeypatch.setattr(homs, "_SWEEP_CAP", 1)
    for verb in ("regular-test", "standardize", "detect"):
        err = _typed_failure([verb, "--map", p], capsys, "CapacityExceeded")
        assert err["data"] == {"units": 4, "pairs": 16, "cap": 1}


def test_cli_rejects_entries_listed_twice(tmp_path, capsys):
    std = iolib.encode_map(la.refinement_map(2, 1, 2))
    pairs = json.loads(json.dumps(std))
    pairs["summands"][0]["pairs"] = [[1, 1], [2, 3], [1, 2]]
    weights = json.loads(json.dumps(std))
    weights["summands"][0]["weights"] = [[1, 1.0], [2, [0.0, 1.0]],
                                         [1, -1.0]]
    num = iolib.encode_map(la.to_numeric(la.refinement_map(2, 1, 2)))
    repeat = dict(num["images"][0], matrix=[[0.0] * 4 for _ in range(4)])
    images = dict(num, images=num["images"] + [repeat])
    ws = {"version": 1, "maps": {"m": pairs}}
    for name, doc, verb, pointer in (
            ("pairs", pairs, "decompose", "/summands/0/pairs/2"),
            ("weights", weights, "decompose", "/summands/0/weights/2"),
            ("images", images, "regular-test",
             f"/images/{len(num['images'])}"),
            ("workspace", ws, "decompose", "/maps/m/summands/0/pairs/2")):
        p = write_json(tmp_path / f"{name}.json", doc)
        err = _typed_failure([verb, "--map", p], capsys, "SchemaError")
        assert err["data"] == {"pointer": pointer}
        assert "listed twice" in err["message"]
    with pytest.raises(SchemaError) as err:
        iolib.parse_standard_map(pairs, "")
    assert err.value.data["pointer"] == "/summands/0/pairs/2"


# canonical encoder against json.dumps

def _reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def _outcome(f, obj):
    try:
        return ("text", f(obj))
    except Exception as exc:  # the exception itself is the result compared
        return ("raised", type(exc), str(exc))


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                   1.5, -2.5e300, 0.1]
_json_leaves = (st.none() | st.booleans()
                | st.integers(-2 ** 200, 2 ** 200)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(_SPECIAL_FLOATS)
                | st.text(alphabet=st.characters(), max_size=8)
                | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', " é😀",
                                   "\ud800"]))
_json_values = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_canonical_dumps_matches_json_dumps(value):
    assert iolib.canonical_dumps(value) == _reference_dumps(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.one_of(st.integers(-3, 3), st.text(max_size=2),
                                 st.booleans(), st.none(),
                                 st.sampled_from([0.5, -0.0])),
                       st.integers(), max_size=4),
       st.integers(0, 3))
def test_canonical_dumps_non_str_keys_as_json_dumps(doc, depth):
    for _ in range(depth):
        doc = {"k": [doc]}
    assert (_outcome(iolib.canonical_dumps, doc)
            == _outcome(_reference_dumps, doc))


def test_canonical_dumps_falls_back_exactly():
    import enum

    class Small(enum.IntEnum):
        ONE = 1

    class Text(str):
        pass

    class Real(float):
        def __repr__(self):
            return "custom"

    cyclic = []
    cyclic.append(cyclic)
    cases = [float("nan"), float("inf"), [1, -float("inf")],
             {"a": {"b": float("nan")}}, {1: "a", "b": 2}, {(1, 2): 3},
             object(), {"s": {1, 2}}, np.int64(3), [Small.ONE, Text("t")],
             {"r": Real(0.25)}, {Text("k"): 1}, cyclic]
    for depth in (1, 100, 255, 256, 257, 300, 2000):
        doc = 7
        for _ in range(depth):
            doc = [doc]
        cases.append(doc)
        cases.append({"d": doc})
    for obj in cases:
        want = _outcome(_reference_dumps, obj)
        got = _outcome(iolib.canonical_dumps, obj)
        assert got[:2] == want[:2]
        if want[0] == "text" or want[1] is not RecursionError:
            assert got == want


# algebra parsing: bulk edge check against the per-row loop

def _reference_parse_n_form(doc):
    n = iolib._as_int(doc["n"], "/n")
    rows = iolib._as_list(doc.get("edges", []), "/edges")
    edges = {iolib._pair(r, f"/edges/{k}") for k, r in enumerate(rows)}
    edges |= {(i, i) for i in range(1, n + 1)}
    return la.build_digraph_algebra(n, edges)


def _parse_outcome(f, doc):
    try:
        a = f(doc)
    except Exception as exc:  # the exception itself is the result compared
        return ("raised", type(exc), exc.args, getattr(exc, "data", None))
    return ("algebra", a.n, a.edges)


_bad_items = st.sampled_from([True, False, 1.0, 2.5, "1", None, [1], {}])
_rows = st.one_of(
    st.lists(st.integers(-1, 6), min_size=2, max_size=2),
    st.lists(st.integers(1, 4), min_size=0, max_size=3),
    st.lists(st.one_of(st.integers(1, 4), _bad_items), min_size=2,
             max_size=2),
    st.sampled_from([(1, 2), 3, "12", {"i": 1}, None, True]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-1, 5), st.sampled_from([True, 2.0, "3"])),
       st.lists(_rows, max_size=8), st.booleans())
def test_parse_algebra_errors_as_per_row_loop(n, rows, closed):
    if closed and isinstance(n, int) and not isinstance(n, bool):
        # mostly valid rows, closed under composition, so the bulk path
        # succeeds as often as it fails
        pairs = {tuple(r) for r in rows if isinstance(r, list) and len(r) == 2
                 and all(type(v) is int and 1 <= v <= n for v in r)}
        pairs |= {(i, i) for i in range(1, n + 1)}
        while True:
            more = {(i, k) for (i, j) in pairs for (jj, k) in pairs if j == jj}
            if more <= pairs:
                break
            pairs |= more
        rows = [list(p) for p in sorted(pairs)]
    doc = {"n": n, "edges": rows}
    assert (_parse_outcome(lambda d: iolib.parse_algebra(d, ""), doc)
            == _parse_outcome(_reference_parse_n_form, doc))


def test_loaded_tower_shares_its_algebras(tmp_path):
    sys = uhf_system(2, 4)
    p = write_json(tmp_path / "tower.json", iolib.encode_system(sys))
    loaded = iolib.load_object(p, "system")
    assert loaded.stages == sys.stages
    for k, conn in enumerate(loaded.connectors):
        assert conn.source is loaded.stages[k]
        assert conn.target is loaded.stages[k + 1]


# the command-line parser is built once and reused

def test_cli_parser_reused_across_verbs(tmp_path, capsys, monkeypatch):
    from limitalg import cli
    m = write_json(tmp_path / "m.json",
                   iolib.encode_map(la.refinement_map(2, 1, 2)))
    s = write_json(tmp_path / "s.json", iolib.encode_system(uhf_system(2, 2)))
    calls = [["decompose", "--map", m], ["spectrum", "--system", s,
                                         "--depth", "2", "--compare", s],
             ["decompose", "--map", m, "--output", str(tmp_path / "o.json")],
             ["spectrum", "--system", s, "--depth", "1"]]

    def run_all():
        out = []
        for argv in calls:
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    cached = run_all()
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--system", s, "--depth", "two"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run_all() == cached
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == cached


# full-depth spectrum bytes against the recorded digests

def _full_tower(base, stages):
    algs = [la.full_matrix_algebra(base ** (j + 1)) for j in range(stages)]
    conns = [la.assemble_regular([la.ampliation(algs[j], base, c)
                                  for c in range(1, base + 1)])
             for j in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def _refinement_tower(stages):
    algs = [la.tr_algebra(2, 2 ** k) for k in range(stages)]
    conns = [la.refinement_map(2, 2 ** k, 2) for k in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def test_cli_spectrum_full_depth_digests(tmp_path, capsys, monkeypatch):
    import hashlib
    monkeypatch.delenv("LIMITALG_TOL", raising=False)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "bench", "golden_digests.json"),
              encoding="utf-8") as fh:
        goldens = json.load(fh)
    towers = {"pow2": _full_tower(2, 5), "pow3": _full_tower(3, 4),
              "refine": _refinement_tower(5)}
    paths = {name: write_json(tmp_path / f"tower_{name}.json",
                              iolib.encode_system(s))
             for name, s in towers.items()}
    for lhs, rhs, depth, want in (("pow2", "refine", 5, 1),
                                  ("refine", "pow2", 5, 1),
                                  ("pow2", "pow2", 5, 0),
                                  ("pow2", "pow3", 4, 1),
                                  ("refine", "refine", 5, 0)):
        code = main(["spectrum", "--system", paths[lhs], "--depth",
                     str(depth), "--compare", paths[rhs]])
        text = capsys.readouterr().out
        assert code == want
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == goldens[f"spectrum-{lhs}-{rhs}@depth{depth}"])
