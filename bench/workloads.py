"""Seeded closed-loop workloads for the limitalg benchmark.

A workload is one round of operations, built from the public model
builders only, in an order drawn from the seed. An operation is one
request of a single client: ``run()`` calls into the library and returns
what it produced; ``check(result)`` is the oracle, run outside the timed
region, returning ``None`` when the result is correct and a reason when
it is not; ``sizes`` holds the input-size parameters. ``kind`` names the
size class, which is warmed up once before timing.

Every library call in ``run`` goes through a module attribute
(``la.is_regular``, ``la_cli.main``) so that the tracer's wrappers see it.

Each workload puts most of its time in a different layer:

* ``regularity``: the intertwiner solve inside ``detect.is_regular``, with
  negative verdicts next to positive ones and pipeline certification
  (``approx_intertwine``) next to standalone certification;
* ``census``: candidate enumeration and dense test products, bypassing the
  intertwiner, so kernel changes must show no change here;
* ``zigzag``: exact intertwining, where ``detect`` does no work and the
  time is in ``verify_diagram`` plus exact composition and witnesses;
* ``cli-mix``: all nine CLI verbs in-process over files written at
  set-up, the only workload measuring ``io``, ``cli``, ``spectrum`` and
  ``dimmod`` and the exact census on standard maps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import limitalg as la
from limitalg import cli as la_cli
from limitalg import io as la_io

import sizes

# fourth roots of unity keep monomial arithmetic exact in floating point
EXACT_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

WORKLOADS = ("regularity", "census", "zigzag", "cli-mix")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    sizes: dict


# random inputs -------------------------------------------------------------

def block_unitary(rng, a) -> np.ndarray:
    """Haar-random unitary in the block diagonal of a."""
    u = np.zeros((a.n, a.n), dtype=complex)
    for blk in a.blocks:
        k = len(blk)
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        q, r = np.linalg.qr(z)
        idx = np.array(blk) - 1
        u[np.ix_(idx, idx)] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


def near_identity_unitary(rng, a, eps: float) -> np.ndarray:
    """exp(i eps H) for a random block-diagonal Hermitian H of norm 1."""
    h = np.zeros((a.n, a.n), dtype=complex)
    for blk in a.blocks:
        k = len(blk)
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        idx = np.array(blk) - 1
        h[np.ix_(idx, idx)] = (z + z.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = w / max(np.max(np.abs(w)), 1e-300)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def monomial(rng, a, phases: bool = True):
    """Block-preserving permutation, with fourth-root phases if asked."""
    pairs = {}
    for blk in a.blocks:
        order = list(blk)
        rng.shuffle(order)
        pairs.update(zip(blk, order))
    ph = ({i: EXACT_PHASES[int(rng.integers(4))] for i in pairs}
          if phases else None)
    return la.StandardPartialIsometry(a, pairs, ph)


def conjugated(u: np.ndarray, images: dict) -> dict:
    """Raw images of Ad(u) after the map with the given images."""
    uh = u.conj().T
    return {k: u @ np.asarray(m) @ uh for k, m in images.items()}


def monotone_maps(s: int, r: int) -> list:
    return list(itertools.combinations_with_replacement(range(1, r + 1), s))


def place_bands(src, tgt, placements):
    """Standard map from (source class, target class, band map) triples;
    each copy takes the lowest free slots of its bands."""
    s_shape, t_shape = la.tr_shape(src), la.tr_shape(tgt)
    free = {(c, q): list(tgt.blocks[blk])
            for c, summ in enumerate(t_shape.summands)
            for q, blk in enumerate(summ.blocks, start=1)}
    pieces = []
    for b, c, theta in placements:
        iota = {}
        for p, blk in enumerate(s_shape.summands[b].blocks, start=1):
            for i in src.blocks[blk]:
                iota[i] = free[(c, theta[p - 1])].pop(0)
        pieces.append(la.validate_multiplicity_one(iota, src, tgt))
    return la.assemble_regular(pieces, source=src, target=tgt)


def random_placements(rng, s: int, r: int, copies: int, slots: int,
                      count: int) -> list:
    """count copies of T_s along distinct random band maps into
    T_r x M_slots copies, never using more than the free slots of a band.

    Distinct placements make every copy its own summand class, so the
    number of classes, and with it the work of an operation, is fixed by
    ``count`` and does not change with the seed."""
    maps = [th for th in monotone_maps(s, r)
            if max(Counter(th).values()) <= slots]
    while True:
        picks = [(0, int(rng.integers(copies)),
                  maps[int(rng.integers(len(maps)))]) for _ in range(count)]
        if len(set(picks)) < count:
            continue
        use = Counter((c, band) for _, c, th in picks for band in th)
        if max(use.values()) <= slots:
            return picks


def twisted(rng, phi):
    """phi conjugated by a random monomial, so slots and weights move."""
    return la.conjugate_standard(phi, monomial(rng, phi.target))


def full_tower(base: int, stages: int):
    algs = [la.full_matrix_algebra(base ** (j + 1)) for j in range(stages)]
    conns = [la.assemble_regular([la.ampliation(algs[j], base, c)
                                  for c in range(1, base + 1)])
             for j in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def refinement_tower(stages: int):
    algs = [la.tr_algebra(2, 2 ** k) for k in range(stages)]
    conns = [la.refinement_map(2, 2 ** k, 2) for k in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def fibonacci_system(stages: int):
    """Connector matrix [[1, 1], [1, 0]] over the one-band semiring."""
    f = [1, 1]
    while len(f) < stages + 2:
        f.append(f[-1] + f[-2])
    algs = [la.direct_sum_algebra(la.full_matrix_algebra(f[k + 1]),
                                  la.full_matrix_algebra(f[k]))
            for k in range(stages)]
    one = (1,)
    conns = [place_bands(algs[k], algs[k + 1],
                         [(0, 0, one), (1, 0, one), (0, 1, one)])
             for k in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def twisted_diagram(rng, stages: int):
    """Refinement tower on both rows, crossovers twisted per stage.

    The twist w_k at stage k carries permutations and fourth-root phases;
    w_{k+1} is a fresh permutation times the image of w_k under the top
    connector, so every bottom connector is Ad(permutation) after the top
    one and stays strict, which is what strict outputs are conditioned on.
    """
    top = refinement_tower(stages)
    tops, conns = top.stages, top.connectors
    w = [monomial(rng, tops[0])]
    for k, conn in enumerate(conns):
        w.append(monomial(rng, tops[k + 1], phases=False)
                 @ la.apply_to_unitary(conn, w[k]))
    alphas = [la.conjugate_standard(la.identity_map(a), v)
              for a, v in zip(tops, w)]
    betas = [la.compose(conn, la.conjugate_standard(la.identity_map(a),
                                                    v.adjoint()))
             for conn, a, v in zip(conns, tops, w)]
    bottom = la.DirectSystem(tops, tuple(
        la.compose(alphas[k + 1], betas[k]) for k in range(stages - 1)))
    return la.CrossoverDiagram(top, bottom, tuple(alphas), tuple(betas))


def rotated_images(t: float) -> dict:
    """T3 into T3 x M3, middle isometry split across two bands by angle t:
    star-extendible but not regular for t off the multiples of pi/2."""
    def unit(i, j):
        m = np.zeros((9, 9), dtype=complex)
        m[i - 1, j - 1] = 1.0
        return m
    c, s = np.cos(t), np.sin(t)
    e12 = unit(1, 3) + unit(2, 4)
    e23 = c * unit(3, 5) + s * unit(3, 7) + s * unit(4, 5) - c * unit(4, 7)
    return {(1, 1): unit(1, 1) + unit(2, 2), (2, 2): unit(3, 3) + unit(4, 4),
            (3, 3): unit(5, 5) + unit(7, 7), (1, 2): e12, (2, 3): e23,
            (1, 3): e12 @ e23}


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[:a.shape[0], :a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


def diagram_sizes(d) -> dict:
    last = d.top.stages[-1]
    return {"stages": len(d.top.stages), "top_n": last.n,
            "top_edges": len(last.edges),
            "unit_images": sum(len(a.source.edges) for a in d.alphas)
            + sum(len(b.source.edges) for b in d.betas)}


# regularity ----------------------------------------------------------------

def _regular_op(kind, rng, phi_std) -> Op:
    src, tgt = phi_std.source, phi_std.target
    images = conjugated(block_unitary(rng, tgt),
                        la.to_numeric(phi_std).images)
    want = phi_std.class_multiset()

    def run():
        phi = la.validate_numeric(images, src, tgt)
        return phi, la.is_regular(phi)

    def check(out):
        phi, cert = out
        if not cert.regular:
            return f"regular map judged irregular: {cert.reason}"
        if cert.standard_form.class_multiset() != want:
            return "class multiset differs from the generating map"
        gap = la.map_distance(cert.unitary.then_ad(phi),
                              la.to_numeric(cert.standard_form))
        if not gap <= cert.tolerance:
            return f"Ad(unitary) misses the standard form by {gap:.3e}"
        return None

    return Op(kind, run, check,
              {**sizes.map_sizes(src, tgt), **sizes.kernel_shape(src, tgt)})


def _irregular_op(kind, rng, summed: bool) -> Op:
    src = la.tr_algebra(3)
    tgt = la.tr_algebra(3, 3)
    # both band components of the middle isometry stay far from 0 and 1
    images = rotated_images(float(rng.uniform(0.25, 1.3)))
    if summed:
        piece_tgt = la.tr_algebra(3, 2)
        piece = place_bands(src, piece_tgt,
                            random_placements(rng, 3, 3, 1, 2, 2))
        piece_images = la.to_numeric(piece).images
        tgt = la.direct_sum_algebra(tgt, piece_tgt)
        images = {k: _block_diag(m, piece_images[k])
                  for k, m in images.items()}
    images = conjugated(block_unitary(rng, tgt), images)

    def run():
        phi = la.validate_numeric(images, src, tgt)
        return phi, la.is_regular(phi)

    def check(out):
        return "irregular specimen judged regular" if out[1].regular else None

    return Op(kind, run, check, sizes.map_sizes(src, tgt))


def _approx_op(kind, rng, stages: int) -> Op:
    d = twisted_diagram(rng, stages)
    raw = [conjugated(near_identity_unitary(rng, a.target,
                                            1e-4 * float(rng.uniform(1, 5))),
                      la.to_numeric(a).images) for a in d.alphas]
    want = [a.class_multiset() for a in d.alphas]

    def run():
        alphas = tuple(la.validate_numeric(img, a.source, a.target)
                       for img, a in zip(raw, d.alphas))
        return la.approx_intertwine(la.CrossoverDiagram(
            d.top, d.bottom, alphas, d.betas, mode="approximate"))

    def check(out):
        if not out.report.exact:
            return "corrected diagram not exact"
        worst = max(out.witness_residuals["alphas"]
                    + out.witness_residuals["betas"])
        if not worst <= 1e-8:
            return f"witness residual {worst:.3e} above 1e-8"
        if [a.class_multiset() for a in out.alphas_hat] != want:
            return "corrected alphas change class"
        return None

    return Op(kind, run, check, diagram_sizes(d))


def build_regularity(rng, tiny: bool) -> list:
    ops = []
    # counts put p50 inside the 4 -> 8 class and p90 inside the ~0.3 s
    # class (4 -> 12 and three-stage pipelines), never on a class boundary
    for r, size, k, count in ([(3, 1, 2, 1)] if tiny else
                              [(3, 1, 2, 2), (2, 2, 2, 4), (3, 1, 4, 2),
                               (2, 2, 3, 2), (3, 2, 2, 1)]):
        for _ in range(count):
            phi = twisted(rng, la.refinement_map(r, size, k))
            ops.append(_regular_op(f"refine-{phi.source.n}to{phi.target.n}",
                                   rng, phi))
    src, tgt = la.tr_algebra(3), la.tr_algebra(3, 3)
    for _ in range(1 if tiny else 2):
        phi = twisted(rng, place_bands(src, tgt, random_placements(
            rng, 3, 3, 1, 3, 2)))
        ops.append(_regular_op("bands-3to9", rng, phi))
    for summed in (False, True):
        for _ in range(1 if tiny else 2):
            ops.append(_irregular_op("rotated-sum" if summed else "rotated",
                                     rng, summed))
    for stages in ((2,) if tiny else (2, 2, 3)):
        ops.append(_approx_op(f"approx-{stages}stage", rng, stages))
    return ops


# census --------------------------------------------------------------------

def _class_summand(im, src, tgt):
    """One multiplicity-one copy realising a detected block map."""
    free = {t: list(tgt.blocks[t]) for _, t in im.pairs}
    iota = {}
    for r, t in im.pairs:
        for i in src.blocks[r]:
            iota[i] = free[t].pop(0)
    return la.validate_multiplicity_one(iota, src, tgt)


def _census_op(rng, s: int, copies: int, slots: int, count: int) -> Op:
    src = la.tr_algebra(s)
    tgt = la.direct_sum_algebra(*[la.tr_algebra(s, slots)] * copies)
    phi_std = twisted(rng, place_bands(
        src, tgt, random_placements(rng, s, s, copies, slots, count)))
    images = conjugated(block_unitary(rng, tgt),
                        la.to_numeric(phi_std).images)
    want = phi_std.class_multiset()

    def run():
        phi = la.validate_numeric(images, src, tgt)
        census = la.summand_census(phi)
        products = [(im, la.test_product(phi, _class_summand(im, src, tgt)))
                    for im in sorted(census.classes, key=lambda m: m.pairs)]
        return census, products

    def check(out):
        census, products = out
        if census.residual_rank != 0:
            return f"residual rank {census.residual_rank}"
        if census.multiset() != want:
            return "census differs from the generating map"
        for im, res in products:
            if not res.present or any(rank != census.classes[im]
                                      for _, _, rank in res.per_class):
                return f"test product disagrees with the census at {im.pairs}"
        return None

    return Op(f"T{s}-into-{copies}xT{s}xM{slots}", run, check,
              sizes.map_sizes(src, tgt))


def build_census(rng, tiny: bool) -> list:
    # (source bands, target copies, slots per band, placements, repeats):
    # 105 to 1848 candidate block maps per class; p50 falls inside the T3
    # class and p90 inside the T6 class
    plan = ([(3, 2, 2, 1, 1), (4, 1, 2, 1, 1)] if tiny else
            [(4, 3, 2, 2, 4), (3, 10, 2, 2, 8), (5, 3, 2, 2, 3),
             (6, 4, 1, 2, 5)])
    return [_census_op(rng, s, copies, slots, count)
            for s, copies, slots, count, repeat in plan
            for _ in range(repeat)]


# zigzag --------------------------------------------------------------------

def _zigzag_op(rng, stages: int) -> Op:
    d = twisted_diagram(rng, stages)

    def run():
        return la.exact_intertwine(d)

    def check(out):
        if not out.report.exact:
            return "report not exact"
        if not all(m.is_strict for m in out.alphas_hat + out.betas_hat):
            return "outputs not strict"
        for name, ws, ins, outs in (
                ("alpha", out.v_unitaries, d.alphas, out.alphas_hat),
                ("beta", out.u_unitaries, d.betas, out.betas_hat)):
            for k, (w, m, m_hat) in enumerate(zip(ws, ins, outs)):
                if not la.same_action(w.then_ad(m), m_hat):
                    return f"{name} {k}: witness misses the output"
        return None

    return Op(f"zigzag-{stages}stage", run, check, diagram_sizes(d))


def build_zigzag(rng, tiny: bool) -> list:
    plan = [(3, 2)] if tiny else [(4, 7), (5, 12), (6, 1)]
    return [_zigzag_op(rng, stages) for stages, repeat in plan
            for _ in range(repeat)]


# cli-mix -------------------------------------------------------------------

def _call_cli(argv: list) -> tuple:
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = la_cli.main(argv)
    return code, buf.getvalue()


def _multiset_of(census_payload: dict) -> list:
    out = []
    for row in census_payload["classes"]:
        out.extend([row["index_map"]] * row["multiplicity"])
    return sorted(out)


def _as_lists(multiset) -> list:
    return sorted([list(p) for p in key] for key in multiset)


def _cli_op(kind: str, argv: list, code: int, digest: bool,
            verify: Optional[Callable[[dict], Optional[str]]] = None,
            extra: Optional[dict] = None, golden: Optional[str] = None
            ) -> Op:
    """One CLI call. With ``digest`` the stdout bytes must hash to
    ``golden``, recorded once at the seed commit for inputs that do not
    depend on the seed, or else to what the first call (the warm-up)
    printed. Reports carrying SVD-derived floats are checked through
    ``verify`` on the parsed report instead."""
    recorded = {"sha256": golden} if golden else {}
    op_sizes = {"argv_files_bytes": sum(os.path.getsize(a) for a in argv
                                        if os.path.isfile(a)),
                **(extra or {})}

    def check(out):
        got, text = out
        if got != code:
            return f"exit code {got}, expected {code}"
        op_sizes["output_bytes"] = len(text.encode("utf-8"))
        if digest:
            sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if recorded.setdefault("sha256", sha) != sha:
                return "stdout differs from the recorded digest"
        return verify(json.loads(text)) if verify is not None else None

    return Op(kind, lambda: _call_cli(argv), check, op_sizes)


def _golden_digests() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else la_io.canonical_dumps(doc))
    return path


def _numeric_doc(images: dict, src, tgt) -> dict:
    """Numeric map document without a tolerance of its own, as a
    hand-written file would be, so the CLI default applies."""
    doc = la_io.encode_numeric_map(la.validate_numeric(images, src, tgt))
    del doc["tolerance"]
    return doc


def _element_doc(entries: list) -> dict:
    return {"stage": 0, "entries": [
        {"terms": [{"map": list(m), "coeff": c} for m, c in terms]}
        for terms in entries]}


def build_cli_mix(rng, tiny: bool, workdir: str) -> list:
    w = lambda name, doc: _write(workdir, name, doc)
    ops = []

    # standard and numeric maps, 4 -> 8 refinement with seeded twists
    std_a = twisted(rng, la.refinement_map(2, 2, 2))
    std_b = twisted(rng, std_a)
    lone = la.assemble_regular([std_a.summands[0]])
    want = _as_lists(std_a.class_multiset())
    p_a = w("std_a.json", la_io.encode_map(std_a))
    p_b = w("std_b.json", la_io.encode_map(std_b))
    p_lone = w("std_lone.json", la_io.encode_map(lone))
    num_src = twisted(rng, la.refinement_map(3, 1, 2))
    num_want = _as_lists(num_src.class_multiset())
    p_num = w("num.json", _numeric_doc(
        conjugated(block_unitary(rng, num_src.target),
                   la.to_numeric(num_src).images),
        num_src.source, num_src.target))
    src3, tgt9 = la.tr_algebra(3), la.tr_algebra(3, 3)
    p_rot = w("rotated.json", _numeric_doc(
        conjugated(block_unitary(rng, tgt9),
                   rotated_images(float(rng.uniform(0.25, 1.3)))),
        src3, tgt9))
    map_sizes = sizes.map_sizes(std_a.source, std_a.target)
    num_sizes = sizes.map_sizes(num_src.source, num_src.target)

    def census_is(expected, key=None):
        def verify(rep):
            got = _multiset_of(rep[key] if key else rep)
            return None if got == expected else "census differs"
        return verify

    def multiset_is(expected):
        return lambda rep: (None if sorted(rep["class_multiset"]) == expected
                            else "class multiset differs")

    ops += [
        _cli_op("decompose", ["decompose", "--map", p_a], 0, True,
                multiset_is(want), map_sizes),
        _cli_op("conjugacy-equal", ["conjugacy", "--lhs", p_a, "--rhs", p_b],
                0, True, None, map_sizes),
        _cli_op("conjugacy-differ", ["conjugacy", "--lhs", p_a,
                                     "--rhs", p_lone], 1, True, None,
                map_sizes),
        _cli_op("standardize-std", ["standardize", "--map", p_a], 0, True,
                census_is(want, "census"), map_sizes),
        _cli_op("standardize-num", ["standardize", "--map", p_num], 0, False,
                census_is(num_want, "census"), num_sizes),
        _cli_op("detect-std", ["detect", "--map", p_a], 0, True,
                census_is(want), map_sizes),
        _cli_op("detect-num", ["detect", "--map", p_num], 0, False,
                census_is(num_want), num_sizes),
        _cli_op("detect-against", ["detect", "--map", p_a,
                                   "--against", p_lone], 0, False,
                lambda rep: None if rep["present"] else "summand missed",
                map_sizes),
        _cli_op("regular-test-std", ["regular-test", "--map", p_a], 0, True,
                multiset_is(want), map_sizes),
        _cli_op("regular-test-num", ["regular-test", "--map", p_num], 0,
                False, multiset_is(num_want), num_sizes),
        _cli_op("regular-test-rotated", ["regular-test", "--map", p_rot], 1,
                False, lambda rep: None if rep["regular"] is False
                else "rotated specimen judged regular",
                sizes.map_sizes(src3, tgt9)),
    ]

    # exact and approximate diagrams
    d = twisted_diagram(rng, 2 if tiny else 3)
    ws = la_io.Workspace()
    ws.systems = {"top": d.top, "bottom": d.bottom}
    ws.diagrams = {"zigzag": d}
    p_ws = w("diagram_exact.json", la_io.encode_workspace(ws))
    d2 = twisted_diagram(rng, 2)
    approx_doc = la_io.encode_diagram(d2)
    approx_doc["mode"] = "approximate"
    approx_doc["alphas"] = [
        _numeric_doc(conjugated(near_identity_unitary(rng, a.target, 1e-4),
                                la.to_numeric(a).images),
                     a.source, a.target) for a in d2.alphas]
    p_approx = w("diagram_approx.json", approx_doc)
    approx_want = [_as_lists(a.class_multiset()) for a in d2.alphas]

    def exact_and_strict(rep):
        if not rep["report"]["exact"]:
            return "corrected diagram not exact"
        maps = rep["corrected"]["alphas"] + rep["corrected"]["betas"]
        if any("weights" in row for m in maps for row in m["summands"]):
            return "corrected maps not strict"
        return None

    def approx_ok(rep):
        if not rep["max_residual"] <= rep["tolerance"]:
            return f"max residual {rep['max_residual']:.3e} above tolerance"
        got = [_as_lists(la_io.parse_standard_map(a, "").class_multiset())
               for a in rep["corrected"]["alphas"]]
        return None if got == approx_want else "corrected alphas change class"

    ops += [
        _cli_op("validate", ["validate", p_ws], 0, True, None,
                diagram_sizes(d)),
        _cli_op("intertwine-exact", ["intertwine", "--diagram", p_ws], 0,
                True, exact_and_strict, diagram_sizes(d)),
        _cli_op("intertwine-approx", ["intertwine", "--diagram", p_approx],
                0, False, approx_ok, diagram_sizes(d2)),
    ]

    # spectra of the 2^k, 3^k and refinement towers
    depth = 3 if tiny else 5
    towers = {"pow2": full_tower(2, depth), "pow3": full_tower(3, depth - 1),
              "refine": refinement_tower(depth)}
    paths = {name: w(f"tower_{name}.json", la_io.encode_system(s))
             for name, s in towers.items()}

    def verdict(expected: str):
        return lambda rep: (None if rep["comparison"]["verdict"] == expected
                            else f"verdict {rep['comparison']['verdict']}")

    # the five spectrum calls are the costliest of the round, so p90
    # falls inside them rather than on a class boundary
    goldens = _golden_digests()
    for lhs, rhs, dep, code in (("pow2", "refine", depth, 1),
                                ("refine", "pow2", depth, 1),
                                ("pow2", "pow2", depth, 0),
                                ("pow2", "pow3", depth - 1, 1),
                                ("refine", "refine", depth, 0)):
        ops.append(_cli_op(
            f"spectrum-{lhs}-{rhs}",
            ["spectrum", "--system", paths[lhs], "--depth", str(dep),
             "--compare", paths[rhs]], code, True,
            verdict("compatible" if code == 0 else "distinguished"),
            {**sizes.system_sizes(towers[lhs], dep),
             "compare_paths": sizes.system_sizes(towers[rhs], dep)["paths"]},
            goldens.get(f"spectrum-{lhs}-{rhs}@depth{dep}")))

    # dimension modules: one-band Fibonacci system and the two-band tower
    fib = fibonacci_system(4)
    p_fib = w("fib.json", la_io.encode_system(fib))
    a, b = (int(x) for x in rng.integers(1, 4, size=2))
    p_e1 = w("e1.json", _element_doc([[((1,), a)], [((1,), b)]]))
    p_e2 = w("e2.json", _element_doc([[((1,), b + 1)], [((1,), a)]]))
    p_er = w("e_refine.json", _element_doc(
        [[((1, 2), a), ((1, 1), b), ((2, 2), 1)]]))
    fib_sizes = {"stages": len(fib.stages), "width": 2}
    ops += [
        _cli_op("dimmod-push", ["dimmod", "--system", p_fib, "--element",
                                p_e1, "--push-to", "3"], 0, True, None,
                fib_sizes),
        _cli_op("dimmod-equal", ["dimmod", "--system", p_fib, "--element",
                                 p_e1, "--element-b", p_e2, "--equal-at",
                                 "2"], 1, True,
                lambda rep: None if rep["verdict"] == "Distinct"
                else f"verdict {rep['verdict']}", fib_sizes),
        _cli_op("dimmod-bands", ["dimmod", "--system", paths["refine"],
                                 "--r", "2", "--element", p_er,
                                 "--push-to", str(depth - 1)], 0, True, None,
                {"stages": depth, "width": 1}),
    ]

    # malformed documents: typed errors, exit code 2, never a traceback
    bad_map = la_io.encode_map(std_a)
    bad_map["summands"][int(rng.integers(len(bad_map["summands"])))][
        "pairs"][0].append(1)
    text = la_io.canonical_dumps(la_io.encode_map(std_b))
    p_bad = w("bad_pair.json", bad_map)
    p_cut = w("truncated.json", text[:len(text) // 2])
    p_sys = w("bad_system.json", {"stages": "T2", "connectors": []})
    ops += [
        _cli_op("malformed-pair", ["decompose", "--map", p_bad], 2, True),
        _cli_op("malformed-json", ["regular-test", "--map", p_cut], 2, True),
        _cli_op("malformed-system", ["spectrum", "--system", p_sys,
                                     "--depth", "2"], 2, True),
    ]
    return ops


def build(name: str, seed: int, tiny: bool = False,
          workdir: Optional[str] = None) -> list:
    """One round of the named workload, in seeded order."""
    rng = np.random.default_rng(seed)
    if name == "regularity":
        ops = build_regularity(rng, tiny)
    elif name == "census":
        ops = build_census(rng, tiny)
    elif name == "zigzag":
        ops = build_zigzag(rng, tiny)
    elif name == "cli-mix":
        os.makedirs(workdir, exist_ok=True)
        ops = build_cli_mix(rng, tiny, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
