"""Jordan machinery: symmetrization, Peirce, TKK both ways, certificates."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrade import constructors as C
from supergrade import roots as R
from supergrade.errors import (
    JacobiFailure,
    NonSplitSpectrum,
    NotIdempotent,
    NotThreeGraded,
    UnexpectedEigenvalue,
)
from supergrade.exact import unit_vec, vec
from supergrade.jordan import (
    certify_m11,
    jordan_from_3grading,
    m11_tkk_generators,
    peirce,
    symmetrized,
    tkk,
)
from supergrade.superalg import (
    JordanSuperalgebra,
    StructureTable,
    SuperSpace,
    center,
    validate_jordan,
    validate_lie,
)
from tests.conftest import JP4_M11_ELEMENTS, JQ4_M11_ELEMENTS
from tests.oracles import ad_matrix, associator, d_operator, rational_eigenvalues

F = Fraction


def test_symmetrized_matrix_super_is_m11_like():
    mp1 = symmetrized(C.construct_assoc("matrix_super", (1, 1)))
    validate_jordan(mp1.table)
    # basis (1, E(1,1b), E(1b,1), E(1b,1b)); x.y = (E11 - E1b1b)/2 = (1 - 2 e2)/2
    x, y = unit_vec(4, 1), unit_vec(4, 2)
    got = mp1.product_vec(x, y)
    assert got == (F(1, 2), F(0), F(0), F(-1))


def test_symmetrized_field():
    f = symmetrized(C.construct_assoc("field"))
    assert f.product_vec((1,), (1,)) == (F(1),)


def test_symmetrized_grassmann2_odd_product():
    sg = symmetrized(C.construct_assoc("grassmann", 2))
    validate_jordan(sg.table)
    # xi1 . xi2 = (xi1 xi2 - xi2 xi1)/2 = xi1 xi2
    assert sg.product_vec(unit_vec(4, 1), unit_vec(4, 2)) == unit_vec(4, 3)


def test_peirce_m11(m11):
    pd = peirce(m11, (1, 0, 0, 0))
    assert pd.dims() == (1, 2, 1)
    assert pd.parts[1] == [unit_vec(4, 2), unit_vec(4, 3)]  # span{x, y}


def test_peirce_with_unit(m11):
    pd = peirce(m11, m11.unit)
    assert pd.dims() == (0, 0, 4)


def test_peirce_rejects_non_idempotent(m11):
    with pytest.raises(NotIdempotent):
        peirce(m11, (0, 0, 1, 0))
    with pytest.raises(NotIdempotent):
        peirce(m11, (2, 0, 0, 0))


def test_peirce_rejects_a_non_idempotent_and_splits_its_idempotent_multiple():
    # in Q[t]/(t^2 - t/4): mult by t on {1, t} has eigenvalues 0, 1/4
    from supergrade.superalg import JordanSuperalgebra, StructureTable, SuperSpace

    entries = {
        (0, 0): ((0, F(1)),),
        (0, 1): ((1, F(1)),),
        (1, 0): ((1, F(1)),),
        (1, 1): ((1, F(1, 4)),),
    }
    j = JordanSuperalgebra(
        StructureTable(SuperSpace(2, (0, 0)), "jordan", entries, unit=(F(1), F(0)))
    )
    with pytest.raises(NotIdempotent):
        # t is not idempotent: t t = t/4; its multiple e = 4t is, (4t)(4t) = 16 t^2 = 4t
        peirce(j, (0, F(1)))
    pd = peirce(j, (0, F(4)))
    assert pd.dims() == (1, 0, 1)


def test_peirce_failure_gives_the_degree_of_the_irrational_char_poly_factor():
    # e = b1 rotates span{b2, b3} and span{b4, b5}: characteristic polynomial
    # (t - 1)(t^2 + 1)^2, minimal polynomial (t - 1)(t^2 + 1)
    # (jordan.peirce does not validate, so the table need not be Jordan)
    entries = {(0, 0): ((0, F(1)),), (0, 1): ((2, F(1)),), (0, 2): ((1, F(-1)),),
               (0, 3): ((4, F(1)),), (0, 4): ((3, F(-1)),)}
    unit = (F(1), F(0), F(0), F(0), F(0))
    j = JordanSuperalgebra(StructureTable(SuperSpace(5, (0,) * 5), "jordan", entries, unit=unit))
    with pytest.raises(NonSplitSpectrum) as err:
        peirce(j, (1, 0, 0, 0, 0))
    with pytest.raises(NonSplitSpectrum) as dense:
        rational_eigenvalues(ad_matrix(j, (1, 0, 0, 0, 0)))
    assert str(err.value) == str(dense.value)
    assert "degree-4 factor" in str(err.value)


def test_peirce_unexpected_eigenvalue_on_an_unvalidated_table():
    # b1 is idempotent but multiplies b2 by 2; the table fails the unit law,
    # which the CLI rejects first, so only an in-process call reaches this
    entries = {(0, 0): ((0, F(1)),), (0, 1): ((1, F(2)),), (1, 0): ((1, F(2)),)}
    j = JordanSuperalgebra(StructureTable(SuperSpace(2, (0, 0)), "jordan", entries,
                                          unit=(F(1), F(0))))
    with pytest.raises(UnexpectedEigenvalue, match=r"^multiplication by the idempotent has "
                       r"eigenvalues \{2\} outside \{0, 1/2, 1\}$"):
        peirce(j, (1, 0))


def test_peirce_laws_jp4(jp4):
    pd = peirce(jp4, JP4_M11_ELEMENTS["e1"])
    assert pd.dims() == (8, 16, 8)
    j0, j1, j2 = pd.parts
    for a in j2:
        for b in j0:
            assert not any(jp4.product_vec(a, b))
            for m in range(jp4.dim):
                assert not any(associator(jp4, a, unit_vec(jp4.dim, m), b))


def test_tkk_field_is_sl2():
    t = tkk(symmetrized(C.construct_assoc("field")))
    assert t.dim == 3
    validate_lie(t.lie.table)
    assert t.lie.product_vec(t.h.coords, t.e.coords) == tuple(2 * c for c in t.e.coords)


def test_tkk_m11(tkk_m11):
    assert (tkk_m11.lie.space.even_dim, tkk_m11.lie.space.odd_dim) == (6, 8)
    assert len(tkk_m11.inner_part) == 6
    assert center(tkk_m11.lie) == []
    validate_lie(tkk_m11.lie.table)


def test_tkk_dimensions(mplus2, jp2, jq2):
    assert tkk(mplus2).dim == 62
    assert tkk(jp2).dim == 31  # P(3) numerology
    assert tkk(jq2).dim == 30  # Q(3) numerology


def test_tkk_jp4_dimension(tkk_jp4):
    # regression value computed by the span-closure oracle: P(7) numerology,
    # not the P(3) of the source's remark (dimension obstruction)
    assert tkk_jp4.dim == 127
    assert (tkk_jp4.lie.space.even_dim, tkk_jp4.lie.space.odd_dim) == (63, 64)
    assert len(tkk_jp4.inner_part) == 63


def test_tkk_ad_h_eigenvalues(tkk_m11):
    eigs = rational_eigenvalues(ad_matrix(tkk_m11.lie, tkk_m11.h))
    assert [(v, m) for v, m in eigs] == [(F(-2), 4), (F(0), 6), (F(2), 4)]


def test_tkk_outer_parts_abelian(tkk_m11):
    l = tkk_m11.lie
    for part in (tkk_m11.parts.plus, tkk_m11.parts.minus):
        for a in part:
            for b in part:
                assert not any(l.product_vec(a, b))


def test_roundtrips(m11, mplus2, jq2):
    for j in (m11, mplus2, jq2):
        t = tkk(j)
        back = jordan_from_3grading(t.lie, t.e, t.f)
        assert back.table.entries == j.table.entries
        assert back.table.unit == j.table.unit


def test_jordan_from_3grading_psl22(psl22, m11):
    e = vec(
        a + b
        for a, b in zip(
            C.matrix_unit_in_psl(psl22, 0, 1), C.matrix_unit_in_psl(psl22, 2, 3)
        )
    )
    f = vec(
        a + b
        for a, b in zip(
            C.matrix_unit_in_psl(psl22, 1, 0), C.matrix_unit_in_psl(psl22, 3, 2)
        )
    )
    j = jordan_from_3grading(psl22, e, f)
    assert j.dim == 4
    # the quadruple (e12, e1b2b, e12b, 2 e1b2) reproduces the M(1,1)+ table
    sub = SparseBasisHelper(psl22, j)
    quad = [
        sub.coords(C.matrix_unit_in_psl(psl22, 0, 1)),
        sub.coords(C.matrix_unit_in_psl(psl22, 2, 3)),
        sub.coords(C.matrix_unit_in_psl(psl22, 0, 3)),
        tuple(2 * c for c in sub.coords(C.matrix_unit_in_psl(psl22, 2, 1))),
    ]
    cert = certify_m11(j, *quad)
    assert cert.passed, cert.failures()
    from supergrade.superalg import restricted_table

    table, _ = restricted_table(j, quad, "jordan", unit=None)
    m11_entries = m11.table.entries
    assert table.entries == m11_entries


class SparseBasisHelper:
    """Coordinates of psl elements inside the recovered L(1) basis."""

    def __init__(self, l, j):
        from supergrade.exact import SparseRref, dense_to_sparse

        self.sr = SparseRref(l.dim)
        for v in j.provenance["l1_basis"]:
            self.sr.insert(dense_to_sparse(v))

    def coords(self, v):
        from supergrade.exact import dense_to_sparse

        out = self.sr.coordinates(dense_to_sparse(v))
        assert out is not None
        return tuple(out)


def test_jordan_from_3grading_sl2_gives_field():
    sl2 = C.construct_sl(2, 0)
    e = C.matrix_unit_in_sl(sl2, 0, 1)
    f = C.matrix_unit_in_sl(sl2, 1, 0)
    j = jordan_from_3grading(sl2, e, f)
    assert j.dim == 1
    assert j.product_vec((F(1),), (F(1),)) == (F(1),)


def test_jordan_from_3grading_rejects_bad_pair(psl22):
    e = C.matrix_unit_in_psl(psl22, 0, 1)
    with pytest.raises(NotThreeGraded):
        jordan_from_3grading(psl22, e, e)


def test_certify_m11_jp4(jp4):
    cert = certify_m11(jp4, *(JP4_M11_ELEMENTS[k] for k in ("e1", "e2", "x", "y")))
    assert cert.passed, cert.failures()


def test_certify_m11_jq4(jq4):
    cert = certify_m11(jq4, *(JQ4_M11_ELEMENTS[k] for k in ("e1", "e2", "x", "y")))
    assert cert.passed, cert.failures()


def test_certify_m11_mplus2(mplus2):
    # block-diagonal idempotents with the off-diagonal odd pair matching
    # the normalized relations: e1 = E11 + E1b1b, e2 = E22 + E2b2b,
    # x = E(1,2b) + E(1b,2), y = 2(E(2b,1) + E(2,1b))
    names = ("1", "2", "1b", "2b")

    def from_units(units):
        # in the Mplus basis (1, E(r,c) != E(1,1)): M = a*I + sum b_rc E(r,c)
        pos = {name: i for i, name in enumerate(mplus2.labels)}
        v = [F(0)] * mplus2.dim
        a00 = units.get(("1", "1"), F(0))
        v[pos["1"]] = a00
        for r in names:
            for c in names:
                if (r, c) == ("1", "1"):
                    continue
                coeff = units.get((r, c), F(0)) - (a00 if r == c else 0)
                if coeff:
                    v[pos[f"E({r},{c})"]] = coeff
        return vec(v)

    e1 = from_units({("1", "1"): F(1), ("1b", "1b"): F(1)})
    e2 = from_units({("2", "2"): F(1), ("2b", "2b"): F(1)})
    x = from_units({("1", "2b"): F(1), ("1b", "2"): F(1)})
    y = from_units({("2b", "1"): F(2), ("2", "1b"): F(2)})
    cert = certify_m11(mplus2, e1, e2, x, y)
    assert cert.passed, cert.failures()


def test_certified_tkk_is_a11_graded_for_corpus(m11, mplus2, jq2):
    quads = {
        "m11": (m11, [unit_vec(4, i) for i in range(4)]),
    }
    for name, (j, quad) in quads.items():
        t = tkk(j)
        cert = certify_m11(j, *quad)
        assert cert.passed
        gens = m11_tkk_generators(t, cert)
        rep = R.verify_delta_graded(t.lie, R.CoverEmbedding("m11", 1, gens))
        assert rep.verdict == "graded", name


def test_certify_failure_recorded(m11):
    cert = certify_m11(
        m11, unit_vec(4, 0), unit_vec(4, 1), unit_vec(4, 2), unit_vec(4, 2)
    )
    assert not cert.passed
    assert "x.y=e1-e2" in cert.failures()


def test_d_operator_of_unit_pair_acts_as_h(m11):
    # the Fraction reference D(1,1) is h = [e, f]: 2 on T(1), -2 on T(-1)
    p, q = d_operator(m11, m11.unit, m11.unit, 0, 0)
    n = m11.dim
    for i in range(n):
        assert p.col(i) == tuple(2 * c for c in unit_vec(n, i))
        assert q.col(i) == tuple(-2 * c for c in unit_vec(n, i))


@cache
def _base_jordan(name):
    return {"m11": lambda: C.construct_jordan("M11"),
            "jp2": lambda: C.construct_jordan("JP", 2),
            "jq2": lambda: C.construct_jordan("JQ", 2),
            "field": lambda: symmetrized(C.construct_assoc("field"))}[name]()


TKK_DIMS = {"m11": 14, "jp2": 31, "jq2": 30, "field": 3}

scalars = st.builds(F, st.integers(-(2**20), 2**20).filter(bool), st.integers(1, 2**20))


@st.composite
def rescaled_jordans(draw):
    """A base Jordan superalgebra in the basis b'_i = lam_i * b_{perm[i]}."""
    name = draw(st.sampled_from(sorted(TKK_DIMS)))
    base = _base_jordan(name)
    n = base.dim
    perm = draw(st.permutations(range(n)))
    lam = [draw(scalars) for _ in range(n)]
    inv = {old: new for new, old in enumerate(perm)}
    entries, ent = {}, base.table.entries
    for i in range(n):
        for k in range(n):
            terms = ent.get((perm[i], perm[k]), ())
            if terms:
                entries[(i, k)] = tuple(sorted(
                    (inv[m], lam[i] * lam[k] * c / lam[inv[m]]) for m, c in terms))
    unit = tuple(base.unit[perm[i]] / lam[i] for i in range(n))
    space = SuperSpace(n, tuple(base.parity[perm[i]] for i in range(n)))
    return name, JordanSuperalgebra(StructureTable(space, "jordan", entries, unit=unit))


@given(rescaled_jordans())
@settings(max_examples=30, deadline=None)
def test_tkk_inner_part_matches_fraction_reference(case):
    # [a, b~] = D(a, b): its coordinates over the inner basis must rebuild
    # the flattened Fraction reference operator exactly
    name, j = case
    t = tkk(j)
    assert t.dim == TKK_DIMS[name]
    validate_lie(t.lie.table)
    n, n0, ent = j.dim, len(t.inner_part), t.lie.table.entries
    for a in range(n):
        for b in range(n):
            p, q = d_operator(j, unit_vec(n, a), unit_vec(n, b), j.parity[a], j.parity[b])
            want = {off + r * n + c: x
                    for off, m in ((0, p), (n * n, q))
                    for r, row in enumerate(m.data) for c, x in enumerate(row) if x}
            got = {}
            for k, c in ent.get((n + n0 + a, b), ()):
                for idx, v in t.inner_part[k - n].items():
                    got[idx] = got.get(idx, 0) + c * v
            assert {idx: v for idx, v in got.items() if v} == want, (a, b)


@pytest.mark.parametrize("name", ["m11", "jp4"])
def test_tkk_inserts_each_d_operator_once(name, request, monkeypatch):
    # no closure loop: the n^2 rows D(a,b) are the only rows tkk eliminates
    from supergrade import exact

    j = request.getfixturevalue(name)
    calls = []
    insert = exact.SparseRref.insert
    monkeypatch.setattr(exact.SparseRref, "insert",
                        lambda self, row: calls.append(1) or insert(self, row))
    tkk(j)
    assert len(calls) == j.dim ** 2 == {"m11": 16, "jp4": 1024}[name]


def test_tkk_d_operators_beyond_int64_do_not_overflow():
    # D(a,b) entries of this non-Jordan table exceed 2^63; unvalidated, the
    # construction keeps them as Python ints and stops where the span of the
    # D(a,b) fails to be closed under the supercommutator
    from pathlib import Path

    from supergrade.sca import parse_sca

    text = (Path(__file__).parent / "fixtures" / "dop_overflow.sca").read_text()
    with pytest.raises(JacobiFailure, match="supercommutator of inner operators 0,1 "
                                            "escaped the inner span"):
        tkk(JordanSuperalgebra(parse_sca(text), {}))


def test_jordan_from_3grading_with_non_echelon_l1_basis(tkk_m11, m11):
    # rewrite tkk(M11) in the basis b'_p = b_p + b_q with b_p in T(1) and b_q
    # in T(0): the +2 eigenspace basis of ad h is then not in echelon form,
    # and the recovered table must still be M11's on that basis
    from supergrade.superalg import LieSuperalgebra, StructureTable, SuperSpace
    from tests.oracles import Matrix, solve_linear

    l = tkk_m11.lie
    n, par = l.dim, l.parity
    p = n - 4
    q = next(i for i in range(4, n - 4) if par[i] == par[p])
    cols = [unit_vec(n, i) for i in range(n)]
    cols[p] = tuple(F(int(r in (p, q))) for r in range(n))
    t = Matrix.from_cols(cols)
    entries = {}
    for i in range(n):
        for k in range(n):
            c = solve_linear(t, l.product_vec(t.col(i), t.col(k)))
            terms = tuple((s, x) for s, x in enumerate(c) if x)
            if terms:
                entries[(i, k)] = terms
    conj = LieSuperalgebra(StructureTable(SuperSpace(n, par), "lie", entries))
    e = solve_linear(t, tkk_m11.e.coords)
    f = solve_linear(t, tkk_m11.f.coords)
    j = jordan_from_3grading(conj, e, f)
    assert j.provenance["l1_basis"][0][q] != 0  # not the echelon basis
    assert j.table.entries == m11.table.entries
    assert j.table.unit == m11.table.unit
