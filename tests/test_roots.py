"""Weight decompositions, A(n,n) pattern matching and grading checks."""

import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supergrade import constructors as C
from supergrade import roots as R
from supergrade import superalg
from supergrade.constructors import CartanBasis
from supergrade.errors import BadParams, NonSplitSpectrum, NotHomomorphism, NotThreeGraded
from supergrade.exact import SparseRref, dense_to_sparse, sparse_to_dense, unit_vec, vec
from supergrade.jordan import certify_m11, jordan_from_3grading, m11_tkk_generators
from supergrade.sca import parse_sca
from supergrade.superalg import (
    Element,
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    homogeneous_parity,
    validate_lie,
)
from tests.oracles import (
    Matrix,
    ad_matrix,
    all_components,
    basis_element,
    closure_by_vectors,
    condition3_by_vectors,
    dense_rows,
    fraction_product,
    kernel,
    rref,
    solve_linear,
    sparse_product,
)
from tests.test_cohomology import _base_algebra, _diagonal_even, _shear

F = Fraction


def test_psl22_weights(psl22):
    datum = R.weight_decomposition(psl22, psl22.provenance["cartan_h"])
    assert len(datum.components) == 8
    dims = sorted((c.even_dim, c.odd_dim) for c in datum.components)
    assert dims == [(0, 2)] * 4 + [(1, 0)] * 4
    assert (datum.zero_component.even_dim, datum.zero_component.odd_dim) == (2, 0)


def test_abelian_decomposition():
    space = SuperSpace(3, (0, 0, 0))
    l = LieSuperalgebra(StructureTable(space, "lie", {}))
    cartan = CartanBasis([basis_element(l, i) for i in range(3)])
    datum = R.weight_decomposition(l, cartan)
    assert datum.components == []
    assert datum.zero_component.dim == 3


def test_sl33_hprime_z_contributes_zero(sl33):
    datum = R.weight_decomposition(sl33, sl33.provenance["cartan_hprime"])
    # ad(z) = 0: no weight can separate along the z direction, so weights
    # still take 30 nonzero values and the zero space is the diagonal
    assert len(datum.components) == 30
    assert datum.zero_component.dim == 5


def test_weight_decomposition_rejects_nonsplit():
    # so(3): [x,y]=z cyclic; ad(x) has eigenvalues 0, +-i
    entries = {
        (0, 1): ((2, F(1)),), (1, 0): ((2, F(-1)),),
        (1, 2): ((0, F(1)),), (2, 1): ((0, F(-1)),),
        (2, 0): ((1, F(1)),), (0, 2): ((1, F(-1)),),
    }
    l = LieSuperalgebra(StructureTable(SuperSpace(3, (0, 0, 0)), "lie", entries))
    cartan = CartanBasis([basis_element(l, 0)])
    with pytest.raises(NonSplitSpectrum):
        R.weight_decomposition(l, cartan)


def test_weight_decomposition_rejects_nilpotent():
    # Heisenberg: [x, y] = z; ad(x) is nilpotent but nonzero
    entries = {(0, 1): ((2, F(1)),), (1, 0): ((2, F(-1)),)}
    l = LieSuperalgebra(StructureTable(SuperSpace(3, (0, 0, 0)), "lie", entries))
    cartan = CartanBasis([basis_element(l, 0)])
    with pytest.raises(Exception) as err:
        R.weight_decomposition(l, cartan)
    assert "diagonalizable" in str(err.value).lower() or "NotDiagonalizable" in type(err.value).__name__


def _rescaled(l, lam):
    """l in the basis b'_i = lam[i] b_i, with its cartan_h, if any, in the
    new coordinates: c'_ij^k = lam[i] lam[j] c_ij^k / lam[k]."""
    entries = {(i, j): tuple((k, lam[i] * lam[j] * c / lam[k]) for k, c in terms)
               for (i, j), terms in l.table.entries.items()}
    prov = {}
    if "cartan_h" in l.provenance:
        h = l.provenance["cartan_h"]
        prov["cartan_h"] = CartanBasis(
            [Element(tuple(x / lam[t] for t, x in enumerate(e.coords)), 0) for e in h.elements],
            h.diag_mats)
    return LieSuperalgebra(StructureTable(l.space, "lie", entries), prov)


def _same_datum(a, b):
    for x, y in zip(all_components(a), all_components(b), strict=True):
        assert (x.weight, x.basis, x.even_dim, x.odd_dim) == (
            y.weight, y.basis, y.even_dim, y.odd_dim)


def _toral_support(l, cartan):
    """Whether every Cartan element has its support on toral basis
    elements, found here from the entries."""
    toral = set(_diagonal_even(l))
    return all(t in toral for h in cartan.elements for t in dense_to_sparse(h.coords))


def _read_off_agrees(l, cartan):
    read = R._toral_datum(l, cartan)
    refined = R._refined_datum(l, cartan)
    assert (read is not None) == _toral_support(l, cartan)
    if read is not None:
        _same_datum(read, refined)
    _same_datum(R.weight_decomposition(l, cartan), refined)
    return read is not None


@st.composite
def cartans(draw):
    """(l, Cartan, how): psl(2,2), psl(3,3), sl(2,1) or uce(psl(2,2)) with
    its basis rescaled by small rationals (large ones give eigenvalues whose
    rational roots the refinement finds slowly) and commuting integer
    combinations of its toral basis elements.  how "shear" rewrites the
    table with one toral b_h replaced by b_h + b_e (the Cartan re-expressed,
    no longer on toral support, and some tables left with no toral
    element); how "mix" adds to the first Cartan element a root vector x on
    which it has a nonzero eigenvalue, after projecting the other elements
    to vanish on x (h + x is conjugate to h, so the Cartan stays commuting
    and split)."""
    l = _base_algebra(draw(st.sampled_from(["psl22", "psl33", "sl21", "uce_psl22"])))
    small = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    l = _rescaled(l, [draw(small) for _ in range(l.dim)])
    toral = _diagonal_even(l)
    ints = st.integers(-3, 3)
    hs = [{t: F(draw(ints)) for t in toral}
          for _ in range(draw(st.integers(1, min(3, len(toral)))))]
    how = draw(st.sampled_from(["toral", "shear", "mix"]))
    if how == "shear":
        h = draw(st.sampled_from(toral))
        e = draw(st.sampled_from([e for e in range(l.dim) if not l.parity[e] and e != h]))
        l = _shear(l, h, e)
        for v in hs:  # b_h = b'_h - b'_e
            v[e] = v.get(e, F(0)) - v[h]
    elif how == "mix":
        ent = l.table.entries

        def eigen(v, x):
            img = fraction_product(ent, v.items(), ((x, F(1)),))
            return img.get(x, F(0)) if set(img) <= {x} else None

        roots = [x for x in range(l.dim) if not l.parity[x] and x not in toral
                 and eigen(hs[0], x) and all(eigen(v, x) is not None for v in hs[1:])]
        assume(roots)
        x = draw(st.sampled_from(roots))
        a = eigen(hs[0], x)
        for v in hs[1:]:  # v - (its eigenvalue on x / a) h_0, scaled by a
            b = eigen(v, x)
            for t in toral:
                v[t] = a * v[t] - b * hs[0][t]
        hs[0][x] = F(draw(ints.filter(bool)))
    elements = [Element(sparse_to_dense({t: c for t, c in v.items() if c}, l.dim), 0)
                for v in hs]
    return l, CartanBasis(elements), how


@given(cartans())
@settings(max_examples=60, deadline=None)
def test_read_off_matches_refinement(case):
    l, cartan, how = case
    read = _read_off_agrees(l, cartan)
    assert read or how != "toral"


@pytest.mark.parametrize("name, cartan", [
    ("psl22", "cartan_h"), ("psl33", "cartan_h"), ("sl33", "cartan_h"),
    ("sl33", "cartan_hprime"), ("tkk_m11", None), ("tkk_jp4", None)])
def test_read_off_matches_refinement_on_fixtures(name, cartan, request):
    l = request.getfixturevalue(name)
    if cartan is None:
        l, cartan = l.lie, CartanBasis([l.h])
    else:
        cartan = l.provenance[cartan]
    assert _read_off_agrees(l, cartan)


def _dense_component(l, ads, weight) -> list:
    """The canonical RREF basis of the simultaneous eigenspace of the dense
    ad matrices at a weight: the dense kernel of the stacked shifted
    matrices, row-reduced."""
    stacked = Matrix([[x - (w if r == c else 0) for c, x in enumerate(row)]
                      for a, w in zip(ads, weight) for r, row in enumerate(a.data)])
    ker = kernel(stacked)
    if not ker:
        return []
    red, pivots = rref(Matrix(ker))
    return [tuple(row) for row in red.data[:len(pivots)]]


@pytest.mark.parametrize("name, cartan", [
    ("psl22", "cartan_h"), ("sl21", "cartan_hprime"), ("tkk_m11", None)])
def test_component_bases_match_dense_eigenspaces(name, cartan, request):
    # toral read-off (psl22, sl21) and refinement (tkk_m11 under h) against
    # the dense oracle, vector for vector and component by component
    l = request.getfixturevalue(name)
    if cartan is None:
        l, cartan = l.lie, CartanBasis([l.h])
    else:
        cartan = l.provenance[cartan]
    datum = R.weight_decomposition(l, cartan)
    ads = [ad_matrix(l, h) for h in cartan.elements]
    for c in all_components(datum):
        assert dense_rows(c.basis, l.dim) == _dense_component(l, ads, c.weight)


def test_expected_roots_counts():
    exp1 = R.expected_ann_roots(1)
    assert len(exp1.weights) == 8
    mults = sorted(tuple(m) for m in exp1.weights.values())
    assert mults == [(0, 2)] * 4 + [(1, 0)] * 4
    exp2 = R.expected_ann_roots(2)
    assert len(exp2.weights) == 30
    even = sum(1 for m in exp2.weights.values() if m[1] == 0)
    odd = sum(1 for m in exp2.weights.values() if m[0] == 0)
    assert (even, odd) == (12, 18)


def test_expected_roots_match_psl_decomposition(psl33):
    datum = R.weight_decomposition(psl33, psl33.provenance["cartan_h"])
    exp = R.expected_ann_roots(2, psl33.provenance["cartan_h"].diag_mats)
    got = {c.weight: (c.even_dim, c.odd_dim) for c in datum.components}
    want = {w: tuple(m) for w, m in exp.weights.items()}
    assert got == want


def test_grading_closure_psl22(psl22):
    datum = R.weight_decomposition(psl22, psl22.provenance["cartan_h"])
    _check_grading_closure(psl22, datum)


def test_grading_closure_psl33(psl33):
    datum = R.weight_decomposition(psl33, psl33.provenance["cartan_h"])
    _check_grading_closure(psl33, datum)


def _check_grading_closure(l, datum):
    comps = all_components(datum)
    spans = {}
    for c in comps:
        sr = SparseRref(l.dim)
        for v in c.basis:
            sr.insert(v)
        spans[c.weight] = sr
    known = set(spans)
    for ca in comps:
        for cb in comps:
            target = tuple(a + b for a, b in zip(ca.weight, cb.weight))
            for va in ca.basis:
                for vb in cb.basis:
                    prod = sparse_product(l, va, vb)
                    if not prod:
                        continue
                    assert target in known, (ca.weight, cb.weight)
                    assert spans[target].contains(prod)


def test_dims_invariant_under_component_basis_change(psl22):
    # conjugating the algebra by a random invertible map that fixes the
    # Cartan pointwise preserves the (weight, even, odd) multiset
    rng = random.Random(7)
    datum = R.weight_decomposition(psl22, psl22.provenance["cartan_h"])
    n = psl22.dim
    # block change of basis: mix inside each component (parity preserving)
    cols = []
    mapping = []
    for comp in all_components(datum):
        for parity in (0, 1):
            block = [v for v in comp.basis
                     if homogeneous_parity(psl22.space, v) == parity]
            if not block:
                continue
            d = len(block)
            while True:
                m = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
                if len(rref(Matrix(m))[1]) == d:  # invertible
                    break
            for row in m:
                w = [F(0)] * n
                for c, b in zip(row, block):
                    for t, x in b.items():
                        w[t] += c * x
                cols.append(tuple(w))
    t = Matrix.from_cols(cols)
    # conjugated structure table: coordinates over t's columns solve t x = v
    entries = {}
    for i in range(n):
        for j in range(n):
            prod = psl22.product_vec(t.col(i), t.col(j))
            coords = solve_linear(t, prod)
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                entries[(i, j)] = tuple(terms)
    parities = [homogeneous_parity(psl22.space, dense_to_sparse(t.col(i))) for i in range(n)]
    conj = LieSuperalgebra(StructureTable(SuperSpace(n, tuple(parities)), "lie", entries))
    new_cartan = CartanBasis(
        [Element(solve_linear(t, e.coords), 0) for e in psl22.provenance["cartan_h"].elements],
    )
    datum2 = R.weight_decomposition(conj, new_cartan)
    mults = lambda d: sorted((c.weight, c.even_dim, c.odd_dim) for c in d.components)
    assert mults(datum) == mults(datum2)


def test_verify_delta_graded_psl_identity(psl22, psl33):
    for alg, n in ((psl22, 1), (psl33, 2)):
        rep = R.verify_delta_graded(alg, R.identity_cover(alg))
        assert rep.verdict == "graded"
        assert rep.matched_root_system == f"A({n},{n})"


@pytest.mark.parametrize("make", [
    lambda: C.construct_sl(2, 2),  # has provenance "n" but is not psl
    lambda: C.construct_jordan("JP", 2),  # has "n" and no Cartan data
], ids=["sl22", "jp2"])
def test_identity_cover_needs_psl(make):
    with pytest.raises(BadParams):
        R.identity_cover(make())


def test_verify_delta_graded_slA(slA_instances):
    for name, l in slA_instances.items():
        rep = R.verify_delta_graded(l, R.slA_cover(l))
        assert rep.verdict == "graded", name
        assert rep.matched_root_system == "A(2,2)"


def test_verify_delta_graded_gl_negative(gl33):
    rep = R.verify_delta_graded(gl33, R.sl_in_gl_cover(gl33))
    assert rep.verdict == "not_graded"
    assert rep.conditions["condition3"]["passed"] is False
    assert rep.conditions["condition2"]["passed"] is True


def test_verify_delta_graded_rejects_non_homomorphism(psl22):
    cover = R.identity_cover(psl22)
    images = list(cover.images)
    images[0] = {k: 2 * c for k, c in images[0].items()}  # break linearity of the map
    bad = R.CoverEmbedding("psl", 1, images, psl22)
    with pytest.raises(NotHomomorphism):
        R.verify_delta_graded(psl22, bad)


def test_check_z_trivial(slA_instances, psl33):
    l = slA_instances["grassmann1"]
    rep = R.check_z_trivial(l, R.slA_cover(l))
    assert rep.passed and not rep.vacuous
    rep2 = R.check_z_trivial(psl33, R.identity_cover(psl33))
    assert rep2.passed and rep2.vacuous


def test_check_z_trivial_failure_witness():
    # a table with an artificial nonzero [z, .] entry: solvable 2-dim algebra
    entries = {(0, 1): ((1, F(1)),), (1, 0): ((1, F(-1)),)}
    l = LieSuperalgebra(StructureTable(SuperSpace(2, (0, 0)), "lie", entries))
    rep = R.check_z_trivial(l, unit_vec(2, 0))
    assert not rep.passed
    assert rep.witness == 1


def test_check_z_trivial_and_quotient_central_name_the_same_witness(psl22, sl21):
    # both read the smallest j with z * b_j != 0 off one integer-row pass;
    # the scan over j of the products is the reference
    from supergrade.errors import NotCentral

    cases = [(psl22, C.matrix_unit_in_psl(psl22, 0, 1)),
             (psl22, C.matrix_unit_in_psl(psl22, 1, 2)),
             (psl22, {k: F(1, k + 2) for k in range(psl22.dim) if not psl22.parity[k]}),
             (sl21, {0: F(3, 2)}),
             (sl21, {sl21.dim - 1: F(-1)})]
    for l, z in cases:
        want = min(j for j in range(l.dim) if superalg._product(l.table, z.items(), [(j, 1)]))
        rep = R.check_z_trivial(l, sparse_to_dense(z, l.dim))
        assert (rep.passed, rep.witness) == (False, want)
        with pytest.raises(NotCentral) as exc:
            superalg.quotient_central(l, [z])
        assert str(exc.value) == f"generator fails centrality against basis element {want}"


@pytest.fixture(scope="module")
def psl33_two_thirds(psl33):
    # every other basis vector times 2/3: the table has denominators 2, 3 and 9
    return _rescaled(psl33, [F(2, 3) if i % 2 else F(1) for i in range(psl33.dim)])


def test_three_grading_height_psl33(psl33):
    datum = R.weight_decomposition(psl33, psl33.provenance["cartan_h"])
    tg = R.three_grading(psl33, datum, "height")
    assert tg.dims(psl33.space) == ((0, 9), (16, 0), (0, 9))


def test_three_grading_height_non_unit_denominators(psl33, psl33_two_thirds):
    l = psl33_two_thirds
    assert max(c.denominator for terms in l.table.entries.values() for _, c in terms) > 1
    tg = R.three_grading(l, R.weight_decomposition(l, l.provenance["cartan_h"]), "height")
    # weight spaces are spanned by basis vectors in both bases: the same parts
    base = R.three_grading(psl33, R.weight_decomposition(psl33, psl33.provenance["cartan_h"]),
                           "height")
    assert (tg.minus, tg.zero, tg.plus) == (base.minus, base.zero, base.plus)
    assert tg.dims(l.space) == ((0, 9), (16, 0), (0, 9))


def test_three_grading_sl2_psl22(psl22):
    e12, e21, eb, fb = (sparse_to_dense(C.matrix_unit_in_psl(psl22, r, c), psl22.dim)
                        for r, c in ((0, 1), (1, 0), (2, 3), (3, 2)))
    h = tuple(
        a + b
        for a, b in zip(psl22.product_vec(e12, e21), psl22.product_vec(eb, fb))
    )
    datum = R.weight_decomposition(psl22, psl22.provenance["cartan_h"])
    tg = R.three_grading(psl22, datum, "sl2", h=h)
    assert tg.dims(psl22.space) == ((2, 2), (2, 4), (2, 2))


def test_three_grading_height_needs_rank4(psl22):
    datum = R.weight_decomposition(psl22, psl22.provenance["cartan_h"])
    with pytest.raises(Exception):
        R.three_grading(psl22, datum, "height")


def test_three_grading_rejects_wrong_h(tkk_m11):
    l = tkk_m11.lie
    datum = R.weight_decomposition(
        l,
        CartanBasis([tkk_m11.h]),
    )
    with pytest.raises(NotThreeGraded):
        R.three_grading(l, datum, "sl2", h=unit_vec(l.dim, 0))


def _swap_heights_and_close(l):
    datum = R.weight_decomposition(l, l.provenance["cartan_h"])
    expected = R.expected_ann_roots(2, datum.cartan.diag_mats)
    heights = [expected.heights(c.weight).pop() for c in datum.components]
    # a height-1 root space now sits in L(0) and a height-0 one in L(1)
    a = datum.components[heights.index(1)]
    b = datum.components[heights.index(0)]
    a.basis, b.basis = b.basis, a.basis
    with pytest.raises(NotThreeGraded) as err:
        R.three_grading(l, datum, "height")
    return err.value


def test_three_grading_closure_failure_names_the_escaping_pair(psl33):
    err = _swap_heights_and_close(psl33)
    assert str(err) == "[L(-1),L(0)] escapes L(-1)"
    assert err.witness == (-1, 0)


def test_three_grading_closure_failure_on_non_unit_denominators(psl33_two_thirds):
    err = _swap_heights_and_close(psl33_two_thirds)
    assert str(err) == "[L(-1),L(0)] escapes L(-1)"
    assert err.witness == (-1, 0)


FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_lie(name):
    return validate_lie(parse_sca((FIXTURES / name).read_text()))


def _fixture_vec(name):
    return [Fraction(x) for x in (FIXTURES / name).read_text().split(",")]


def test_grading_loops_make_no_dense_product(monkeypatch):
    calls = []
    dense = superalg.table_product

    def counting(*args):
        calls.append(args)
        return dense(*args)

    slA = _fixture_lie("slA_g1.sca")
    images = [dense_to_sparse(vec(v))
              for v in json.loads((FIXTURES / "slA_g1_cover.json").read_text())["images"]]
    cover = R.CoverEmbedding("sl", 2, images, C.construct_sl(3, 3))
    tkk = _fixture_lie("tkk_m11.sca")
    e, f = _fixture_vec("tkk_m11_e.vec"), _fixture_vec("tkk_m11_f.vec")
    monkeypatch.setattr(superalg, "table_product", counting)
    report = R.verify_delta_graded(slA, cover)
    assert report.verdict == "graded"
    assert R.check_z_trivial(slA, cover).passed
    assert R.three_grading(slA, report.datum, "height").dims(slA.space)[1] == (17, 17)
    assert jordan_from_3grading(tkk, e, f).dim == 4
    assert calls == []
    slA.product_vec(unit_vec(slA.dim, 0), unit_vec(slA.dim, 1))
    assert len(calls) == 1  # the counter sees a dense product


def test_m11_cover_tkk(tkk_m11, m11):
    cert = certify_m11(m11, *(unit_vec(4, i) for i in range(4)))
    assert cert.passed
    gens = m11_tkk_generators(tkk_m11, cert)
    rep = R.verify_delta_graded(tkk_m11.lie, R.CoverEmbedding("m11", 1, gens))
    assert rep.verdict == "graded"
    assert rep.conditions["condition1"]["cover_dim"] == 14


@st.composite
def toral_gradings(draw):
    """(l, cartan, lie, sheared): psl(3,3) or sl(3,3) with its basis
    rescaled by small rationals and its cartan_h rescaled and sheared by an
    invertible integer matrix (the diagonal representatives alike), so the
    Cartan keeps its toral support and its weights change.  Some tables get
    one entry pair off the toral elements perturbed, any pair or a pair of
    opposite weights, or an opposite pair dropped (lie False: no longer
    Lie).  sheared True rewrites the table with a toral b_h replaced by
    b_h + b_e for an even root vector b_e, and the Cartan re-expressed, so
    the zero component holds b'_h - b'_e and the datum is not made of basis
    vectors."""
    name = draw(st.sampled_from(["psl33", "sl33"]))
    base = _grading_base(name)
    small = st.builds(F, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 3))
    l = _rescaled(base, [draw(small) for _ in range(base.dim)])
    n, h = l.dim, l.provenance["cartan_h"]
    r = len(h.elements)
    t = [[F(draw(st.integers(-2, 2))) if b < a else F(0) for b in range(r)] for a in range(r)]
    for a in range(r):
        t[a][a] = F(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    elements = [[sum(t[a][b] * h.elements[b].coords[q] for b in range(r)) for q in range(n)]
                for a in range(r)]
    diag = tuple(tuple(sum(t[a][b] * h.diag_mats[b][q] for b in range(r))
                       for q in range(len(h.diag_mats[0]))) for a in range(r))
    toral = _diagonal_even(l)
    wt = l.table.toral_weights()
    how = draw(st.sampled_from(["lie", "any pair", "opposite pair", "drop opposite"]))
    if how != "lie":
        rest = [i for i in range(n) if i not in toral]
        i = draw(st.sampled_from(rest))
        opposite = [j for j in rest if wt[j] == tuple(-x for x in wt[i])]
        j = draw(st.sampled_from(rest if how == "any pair" else opposite))
        k = draw(st.sampled_from([k for k in range(n)
                                  if l.parity[k] == (l.parity[i] + l.parity[j]) % 2]))
        ent = {key: dict(terms) for key, terms in l.table.entries.items()}
        for key, s in (((i, j), 1), ((j, i), -(-1 if l.parity[i] & l.parity[j] else 1))):
            row = ent.setdefault(key, {})
            if how == "drop opposite":
                row.clear()
            else:
                row[k] = row.get(k, F(0)) + s * draw(small)
            if i == j:
                break
        entries = {key: tuple(sorted(terms.items())) for key, terms in ent.items() if terms}
        l = LieSuperalgebra(StructureTable(l.space, "lie", entries))
    sheared = draw(st.booleans())
    if sheared:
        b = draw(st.sampled_from(toral))
        e = draw(st.sampled_from([e for e in range(n) if not l.parity[e] and any(wt[e])]))
        l = _shear(l, b, e)
        for v in elements:  # b_h = b'_h - b'_e
            v[e] -= v[b]
    cartan = CartanBasis([Element(tuple(v), 0) for v in elements], diag)
    return l, cartan, how == "lie", sheared


@cache
def _grading_base(name):
    return C.construct_psl(2) if name == "psl33" else C.construct_sl(3, 3)


def _outcome(f):
    try:
        return "ok", f()
    except NotThreeGraded as exc:
        return str(exc), exc.witness


@given(toral_gradings(), st.data())
@settings(max_examples=40, deadline=None)
def test_entry_pass_matches_vector_path(case, data):
    # the one integer pass in the weight basis against the vector oracles,
    # on toral data (basis vectors) and sheared ones (rewritten first)
    l, cartan, lie, sheared = case
    datum = R.weight_decomposition(l, cartan)
    owner = R._unit_owner([(c.weight, c.basis) for c in all_components(datum)], l.dim)
    assert (owner is None) == sheared
    # condition 3, on the full Cartan and on a leading part of it
    m = data.draw(st.integers(1, len(cartan.elements)))
    for d in (datum, R.weight_decomposition(
            l, CartanBasis(cartan.elements[:m], cartan.diag_mats[:m]))):
        assert R._condition3(l, d) == condition3_by_vectors(l, d)
    # the 3-grading, as the public call and with the closure on drawn parts
    entry = _outcome(lambda: R.three_grading(l, datum, "height"))
    with mock.patch.object(R, "_closure", closure_by_vectors):
        vector = _outcome(lambda: R.three_grading(l, datum, "height"))
    assert entry[0] == vector[0]
    if entry[0] == "ok":
        got, want = entry[1], vector[1]
        assert (got.minus, got.zero, got.plus) == (want.minus, want.zero, want.plus)
    else:
        assert entry == vector and not lie
    expected = R.expected_ann_roots(2, cartan.diag_mats)
    parts = {-1: [], 0: list(datum.zero_component.basis), 1: []}
    for comp in datum.components:
        height = expected.heights(comp.weight).pop()
        if data.draw(st.integers(0, 9)) == 0:  # moved to another part
            height = data.draw(st.sampled_from((-1, 0, 1)))
        parts[height].extend(comp.basis)
    assert R._closure(l, parts) == closure_by_vectors(l, parts)


def _first_non_homomorphic_pair(l, cover):
    """The Fraction oracle of the cover's homomorphism law: the first basis
    pair (i, j), i <= j, with [phi b_i, phi b_j] != phi [b_i, b_j]."""
    ref = cover.reference
    images = cover.images
    ent, ref_ent = l.table.entries, ref.table.entries
    for i in range(ref.dim):
        for j in range(i, ref.dim):
            expect = {}
            for m, c in ref_ent.get((i, j), ()):
                for k, x in images[m].items():
                    expect[k] = expect.get(k, 0) + c * x
            got = fraction_product(ent, images[i].items(), images[j].items())
            if got != {k: x for k, x in expect.items() if x}:
                return i, j
    return None


@pytest.mark.parametrize("broken", [None, 0, 3, 9])
def test_cover_homomorphism_on_integer_rows_matches_fraction_oracle(psl22, broken):
    # the cover in a basis b'_i = lam_i b_i with denominators, so the
    # images b_i = b'_i / lam_i have denominators too
    lam = [F(2, 3) if i % 2 else F(3) for i in range(psl22.dim)]
    l = _rescaled(psl22, lam)
    images = [{i: 1 / lam[i]} for i in range(l.dim)]
    if broken is not None:
        images[broken] = {k: F(3, 2) * c for k, c in images[broken].items()}
    cover = R.CoverEmbedding("psl", 1, images, psl22)
    want = _first_non_homomorphic_pair(l, cover)
    assert (want is None) == (broken is None)
    if want is None:
        assert R.analyze_cover(l, cover).evidence["embedding_rank"] == l.dim
    else:
        with pytest.raises(NotHomomorphism) as err:
            R.analyze_cover(l, cover)
        assert str(err.value) == ("embedding fails the homomorphism law on cover basis "
                                  f"pair ({want[0]},{want[1]})")
