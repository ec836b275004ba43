"""Acceptance suite: every criterion at its stated tolerance.

All comparisons are exact (no tolerances anywhere); the two stated runtime
budgets are asserted with time.monotonic.  Each criterion prints a single
PASS/FAIL line (run with -s to see them).
"""

import time
from fractions import Fraction

from supergrade import cohomology as H
from supergrade import constructors as C
from supergrade import roots as R
from supergrade.exact import ONE, SparseRref, dense_to_sparse, sparse_to_dense, vec
from supergrade.jordan import (
    certify_m11,
    jordan_from_3grading,
    m11_tkk_generators,
    peirce,
    tkk,
)
from supergrade.superalg import (
    center,
    restricted_table,
    validate_assoc,
    validate_jordan,
    validate_lie,
)
from tests.conftest import JP4_M11_ELEMENTS, JQ4_M11_ELEMENTS
from tests.oracles import (
    all_components,
    associator,
    cover_kernel_check,
    extension_from_quotient,
    sparse_product,
    uce_cover,
)

F = Fraction


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_h2_dimensions(psl22, psl33, sl21):
    t0 = time.monotonic()
    got22 = H.h2_dims(psl22)
    t22 = time.monotonic() - t0
    t0 = time.monotonic()
    got33 = H.h2_dims(psl33)
    t33 = time.monotonic() - t0
    got21 = H.h2_dims(sl21)
    ok = got22 == (3, 0) and got33 == (1, 0) and got21 == (0, 0)
    ok = ok and t22 < 5.0 and t33 < 120.0
    _report(1, "H2 dimensions", ok)


def test_criterion_2_uce_numerology(psl22, psl33, sl33):
    ext = H.uce(psl22)
    u = ext.extended
    ok = (u.space.even_dim, u.space.odd_dim) == (9, 8)
    ok = ok and len(center(u)) == 3
    ok = ok and H.h2_dims(u) == (0, 0)
    ext33 = H.uce(psl33)
    ok = ok and H.fingerprint(ext33.extended) == H.fingerprint(sl33)
    _report(2, "UCE numerology", ok)


def test_criterion_3_root_data(psl22, psl33):
    datum22 = R.weight_decomposition(psl22, psl22.provenance["cartan_h"])
    dims22 = sorted((c.even_dim, c.odd_dim) for c in datum22.components)
    ok = len(datum22.components) == 8
    ok = ok and dims22 == [(0, 2)] * 4 + [(1, 0)] * 4
    datum33 = R.weight_decomposition(psl33, psl33.provenance["cartan_h"])
    ok = ok and len(datum33.components) == 30
    even = sum(1 for c in datum33.components if (c.even_dim, c.odd_dim) == (1, 0))
    odd = sum(1 for c in datum33.components if (c.even_dim, c.odd_dim) == (0, 1))
    ok = ok and (even, odd) == (12, 18)
    _report(3, "root data", ok)


def test_criterion_4_theorem_converse_at_n2(slA_instances):
    ok = True
    for name, l in slA_instances.items():
        t0 = time.monotonic()
        cover = R.slA_cover(l)
        report = R.verify_delta_graded(l, cover)
        ok = ok and report.verdict == "graded"
        ok = ok and report.matched_root_system == "A(2,2)"
        ok = ok and report.conditions["condition3"]["passed"]
        ok = ok and report.conditions["condition3"]["bracket_span_dim"] > 0
        ok = ok and R.check_z_trivial(l, cover).passed
        grading = R.three_grading(l, report.datum, "height")
        # three_grading verifies [L(i),L(j)] in L(i+j) with L(+-2) = 0;
        # re-check the two outer products explicitly
        for part in (grading.plus, grading.minus):
            for a in part:
                for b in part:
                    ok = ok and not sparse_product(l, a, b)
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 60.0
    _report(4, "A(2,2)-grading of sl_33(A)", ok)


def test_criterion_5_a11_equivalence(psl22, m11, mplus2, jq2, tkk_m11):
    ok = center(tkk_m11.lie) == []
    ok = ok and (tkk_m11.lie.space.even_dim, tkk_m11.lie.space.odd_dim) == (6, 8)
    ok = ok and H.isogenous(tkk_m11.lie, psl22) == "equal"

    def unit(r, c):
        return sparse_to_dense(C.matrix_unit_in_psl(psl22, r, c), psl22.dim)

    e = vec(a + b for a, b in zip(unit(0, 1), unit(2, 3)))
    f = vec(a + b for a, b in zip(unit(1, 0), unit(3, 2)))
    j = jordan_from_3grading(psl22, e, f)
    sr = SparseRref(psl22.dim)
    for v in j.provenance["l1_basis"]:
        sr.insert(v)

    def in_j(v):
        return sparse_to_dense(sr.coordinates(v), sr.rank)

    quad = [
        in_j(C.matrix_unit_in_psl(psl22, 0, 1)),
        in_j(C.matrix_unit_in_psl(psl22, 2, 3)),
        in_j(C.matrix_unit_in_psl(psl22, 0, 3)),
        vec(2 * c for c in in_j(C.matrix_unit_in_psl(psl22, 2, 1))),
    ]
    table, _ = restricted_table(j, [dense_to_sparse(v) for v in quad], "jordan")
    ok = ok and table.entries == m11.table.entries
    ok = ok and certify_m11(j, *quad).passed

    for jj in (m11, mplus2, jq2):
        t = tkk(jj)
        back = jordan_from_3grading(t.lie, t.e, t.f)
        ok = ok and back.table.entries == jj.table.entries
        ok = ok and back.table.unit == jj.table.unit
    _report(5, "A(1,1) equivalence at instance scale", ok)


def test_criterion_6_m11_certificates(jp2, jp4, jq4, tkk_jp4):
    cert_jp = certify_m11(jp4, *(JP4_M11_ELEMENTS[k] for k in ("e1", "e2", "x", "y")))
    cert_jq = certify_m11(jq4, *(JQ4_M11_ELEMENTS[k] for k in ("e1", "e2", "x", "y")))
    ok = cert_jp.passed and cert_jq.passed

    gens = m11_tkk_generators(tkk_jp4, cert_jp)
    report = R.verify_delta_graded(tkk_jp4.lie, R.CoverEmbedding("m11", 1, gens))
    ok = ok and report.verdict == "graded"
    ok = ok and report.matched_root_system == "A(1,1)"

    # regression values from the span-closure oracle; the claimed identity
    # tkk(JP(4)) = P(3) is NOT asserted (dim 127 here versus 31 for P(3))
    ok = ok and tkk(jp2).dim == 31
    ok = ok and tkk_jp4.dim == 127
    _report(6, "M11 certificates and tkk(JP) regressions", ok)


def test_criterion_7_property_suites(
    psl22, psl33, sl33, sl21, slA_instances, tkk_m11, tkk_jp4,
    m11, mplus2, jp2, jq2, jp4, jq4, coeff_algebras,
):
    ok = True
    # exhaustive validator passes for every constructed algebra
    for l in (psl22, psl33, sl33, sl21, tkk_m11.lie, tkk_jp4.lie,
              *slA_instances.values(), H.uce(psl22).extended):
        validate_lie(l.table)
    for a in coeff_algebras.values():
        validate_assoc(a.table)
    for j in (m11, mplus2, jp2, jq2, jp4, jq4):
        validate_jordan(j.table)

    # exhaustive grading closure for psl(2,2), psl(3,3) and one sl_A instance
    for l, cartan in (
        (psl22, psl22.provenance["cartan_h"]),
        (psl33, psl33.provenance["cartan_h"]),
        (
            slA_instances["grassmann1"],
            R.analyze_cover(
                slA_instances["grassmann1"], R.slA_cover(slA_instances["grassmann1"])
            ).cartan,
        ),
    ):
        datum = R.weight_decomposition(l, cartan)
        comps = all_components(datum)
        spans = {}
        for c in comps:
            sr = SparseRref(l.dim)
            for v in c.basis:
                sr.insert(v)
            spans[c.weight] = sr
        for ca in comps:
            for cb in comps:
                target = tuple(x + y for x, y in zip(ca.weight, cb.weight))
                for va in ca.basis:
                    for vb in cb.basis:
                        prod = sparse_product(l, va, vb)
                        if not prod:
                            continue
                        ok = ok and target in spans
                        ok = ok and spans[target].contains(prod)

    # Peirce laws for all computed decompositions
    mp2_pos = {name: i for i, name in enumerate(mplus2.labels)}
    mp2_e1 = [F(0)] * mplus2.dim
    mp2_e1[mp2_pos["1"]] = F(1)  # e1 = E11 + E1b1b = 1 - E22 - E2b2b
    mp2_e1[mp2_pos["E(2,2)"]] = F(-1)
    mp2_e1[mp2_pos["E(2b,2b)"]] = F(-1)
    for j, idem in (
        (m11, (ONE, 0, 0, 0)),
        (mplus2, vec(mp2_e1)),
        (jp4, vec(JP4_M11_ELEMENTS["e1"])),
        (jq4, vec(JQ4_M11_ELEMENTS["e1"])),
    ):
        pd = peirce(j, idem)
        j0, _, j2 = pd.parts
        for a in j2:
            for b in j0:
                ok = ok and not sparse_product(j, a, b)
                for mdx in range(j.dim):
                    ok = ok and not associator(j, a, {mdx: ONE}, b)

    # cover kernel checks (Lemma on lifted root spaces)
    ext = extension_from_quotient(sl33, [sl33.provenance["z"]])
    ok = ok and cover_kernel_check(ext, psl33.provenance["cartan_h"]).passed
    ok = ok and cover_kernel_check(uce_cover(psl22), psl22.provenance["cartan_h"]).passed
    _report(7, "property suites", ok)


def test_criterion_8_cli_determinism(capsys, tmp_path):
    from tests.test_cli import DETERMINISM_COMMANDS, FIXTURES, run_cli

    ok = True
    for argv in DETERMINISM_COMMANDS:
        code1, out1 = run_cli(argv, capsys, cwd=FIXTURES)
        code2, out2 = run_cli(argv, capsys, cwd=FIXTURES)
        ok = ok and code1 == code2 and out1 == out2 and bool(out1)
    _report(8, "CLI determinism", ok)
