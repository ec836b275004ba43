"""Second cohomology, central extensions and isogeny fingerprints."""

from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrade import cohomology as H
from supergrade import constructors as C
from supergrade.constructors import CartanBasis
from supergrade.errors import DimensionMismatch, NotPerfect
from supergrade.exact import (
    SparseRref,
    dense_to_sparse,
    kernel_from_rows,
    sparse_apply,
    sparse_to_dense,
    unit_vec,
)
from supergrade.sca import parse_sca
from supergrade.superalg import (
    Element,
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    center,
    derived_rref,
    validate_lie,
)
from tests.oracles import (
    Matrix,
    _preimage,
    complement_rows,
    cover_kernel_check,
    dense_rows,
    extension_from_quotient,
    kernel,
    pair_index_by_scan,
    solve_linear,
    uce_cover,
)

F = Fraction


def abelian(d0, d1):
    return LieSuperalgebra(StructureTable(SuperSpace(d0 + d1, (0,) * d0 + (1,) * d1), "lie", {}))


def sl2():
    return C.construct_sl(2, 0)


def test_cocycle_space_abelian_dims():
    # no cocycle constraint when brackets vanish: dim = d0(d0-1)/2 + d1(d1+1)/2
    l = abelian(3, 2)
    z0 = H.cocycle_space(l, 0)
    assert len(z0) == 3 * 2 // 2 + 2 * 3 // 2
    # odd sector: even-odd pairs
    z1 = H.cocycle_space(l, 1)
    assert len(z1) == 3 * 2


def test_cocycle_super_skew_and_identity(psl22):
    par = psl22.parity
    for parity in (0, 1):
        for coc in H.cocycle_space(psl22, parity)[:3]:
            f = coc.value
            assert all(v for v in coc.form.values())
            n = psl22.dim
            for i in range(n):
                for j in range(n):
                    sgn = -1 if not (par[i] and par[j]) else 1
                    assert f(i, j) == sgn * f(j, i)
                    if (par[i] + par[j]) % 2 != parity:
                        assert f(i, j) == 0


def test_sl2_h2_zero():
    l = sl2()
    assert len(H.cocycle_space(l, 0)) == len(H.coboundary_space(l, 0)) == 3
    assert H.h2_dims(l) == (0, 0)


def _pair_coords(pairs, cocycle) -> dict:
    """The independent values phi(b_i, b_j), i <= j, of a cocycle's form."""
    return {t: cocycle.form[p] for t, p in enumerate(pairs) if p in cocycle.form}


def test_coboundaries_inside_cocycles(psl22, sl21):
    for l in (psl22, sl21):
        for parity in (0, 1):
            pairs, pos = H._pair_index(l.space, parity, [()] * l.dim)
            import supergrade.exact as E

            sr = E.SparseRref(len(pairs))
            for z in H.cocycle_space(l, parity):
                sr.insert(_pair_coords(pairs, z))
            zrank = sr.rank
            for b in H.coboundary_space(l, parity):
                assert sr.insert(_pair_coords(pairs, b)) is None
            assert sr.rank == zrank


def test_h3_plus_line_needs_the_bk_bi_rows():
    # h3 + F on (x, w, y, z) with [x, y] = z: no toral element, so the full
    # system is solved.  H^2 = H^2(h3) + H^1(h3) (x) H^1(F) = 2 + 2 (Kunneth).
    # Only the triple (x, w, y), whose one nonzero bracket is [y, x], forces
    # phi(w, z) = 0.
    space = SuperSpace(4, (0, 0, 0, 0), ("x", "w", "y", "z"))
    entries = {(0, 2): ((3, F(1)),), (2, 0): ((3, F(-1)),)}
    l = LieSuperalgebra(StructureTable(space, "lie", entries))
    validate_lie(l.table)
    assert len(H.cocycle_space(l, 0)) == 5
    assert len(H.coboundary_space(l, 0)) == 1
    assert all(z.value(1, 3) == 0 for z in H.cocycle_space(l, 0))
    assert H.h2_dims(l) == (4, 0)


@st.composite
def systems(draw):
    """A dense matrix and a right-hand side, in its image or arbitrary."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.integers(-4, 4).map(F)
    m = Matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])
    if draw(st.booleans()):
        return m, m.mul_vec([draw(entries) for _ in range(cols)])
    return m, tuple(draw(entries) for _ in range(rows))


@given(systems())
@settings(max_examples=80, deadline=None)
def test_preimage_matches_dense_solve(case):
    # the augmented SparseRref solve behind the Cartan lifts: the same
    # free-variables-0 solution as the dense oracle, or None with it
    m, b = case
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.data]
    assert _preimage(rows, m.cols, b) == solve_linear(m, b)
    with pytest.raises(DimensionMismatch):
        _preimage(rows, m.cols, b + (F(1),))


def test_coboundary_dims_perfect(psl22):
    # for perfect L, B^2 has dimension dim L split by parity
    assert len(H.coboundary_space(psl22, 0)) == psl22.space.even_dim
    assert len(H.coboundary_space(psl22, 1)) == psl22.space.odd_dim


def test_h2_values(psl22, psl33, sl21):
    assert H.h2_dims(psl22) == (3, 0)
    assert H.h2_dims(sl21) == (0, 0)
    assert H.h2_dims(psl33) == (1, 0)


def test_tkk_jp4_has_no_central_extensions(tkk_jp4):
    assert H.h2_dims(tkk_jp4.lie) == (0, 0)


def test_uce_psl22(psl22):
    ext = H.uce(psl22)
    u = ext.extended
    assert (u.space.even_dim, u.space.odd_dim) == (9, 8)
    assert len(center(u)) == 3
    assert H.h2_dims(u) == (0, 0)
    assert derived_rref(u).rank == u.dim
    validate_lie(u.table)


def test_uce_projection_is_homomorphism(psl22):
    ext = uce_cover(psl22)
    u, proj = ext.extended, ext.projection

    def image(v):
        return sparse_to_dense(sparse_apply(proj, dense_to_sparse(v)), psl22.dim)

    for i in range(u.dim):
        for j in range(u.dim):
            lhs = image(u.product_vec(unit_vec(u.dim, i), unit_vec(u.dim, j)))
            rhs = psl22.product_vec(image(unit_vec(u.dim, i)), image(unit_vec(u.dim, j)))
            assert lhs == rhs


def test_uce_psl33_fingerprint(psl33, sl33):
    ext = H.uce(psl33)
    assert ext.extended.dim == 35
    assert H.fingerprint(ext.extended) == H.fingerprint(sl33)


def test_uce_sl21_trivial(sl21):
    ext = H.uce(sl21)
    assert ext.extended.dim == sl21.dim
    assert not ext.cocycles


def test_uce_needs_perfect():
    with pytest.raises(NotPerfect):
        H.uce(abelian(2, 0))


def test_uce_quotient_matches_base(psl22):
    from supergrade.superalg import quotient_central

    ext = H.uce(psl22)
    u = ext.extended
    q = quotient_central(u, center(u))
    assert H.fingerprint(q) == H.fingerprint(psl22)


def test_cover_kernel_sl33(sl33, psl33):
    ext = extension_from_quotient(sl33, [sl33.provenance["z"]])
    assert ext.base.table.entries == psl33.table.entries
    rep = cover_kernel_check(ext, psl33.provenance["cartan_h"])
    assert rep.passed and rep.kernel_dim == 1


def test_extension_from_quotient_by_even_and_odd_center():
    # (a, w | b, c) with [a, b] = c and [b, b] = 2w: the center <w, c> has
    # one even and one odd direction, and each cocycle has its pivot's parity
    space = SuperSpace(4, (0, 0, 1, 1), ("a", "w", "b", "c"))
    entries = {(0, 2): ((3, F(1)),), (2, 0): ((3, F(-1)),), (2, 2): ((1, F(2)),)}
    l = LieSuperalgebra(StructureTable(space, "lie", entries))
    ext = extension_from_quotient(l, center(l))
    assert ext.base.labels == ("a", "b")
    assert [(c.parity, c.form) for c in ext.cocycles] == [
        (0, {(1, 1): F(2)}), (1, {(0, 1): F(1), (1, 0): F(-1)})]


def test_cover_kernel_uce_psl22(psl22):
    ext = uce_cover(psl22)
    rep = cover_kernel_check(ext, psl22.provenance["cartan_h"])
    assert rep.passed
    assert rep.kernel_dim == 3
    assert all(d["iso"] for d in rep.details)
    assert len(rep.details) == 8


def test_cover_kernel_trivial_extension(sl21):
    ext = uce_cover(sl21)
    rep = cover_kernel_check(ext, CartanBasis(
        [Element(v, 0) for v in _diag_elements(sl21)]))
    assert rep.passed and rep.kernel_dim == 0


def _diag_elements(sl):
    return [e.coords for e in sl.provenance["cartan_hprime"].elements]


def test_fingerprint_fields(psl22):
    fp = H.fingerprint(psl22)
    assert fp.dims == (6, 8)
    assert fp.derived_series == (14,)
    assert fp.center_dim == 0
    assert fp.h2 == (3, 0)
    assert fp.root_multiset is None
    fp2 = H.fingerprint(psl22, psl22.provenance["cartan_h"])
    assert fp2.root_multiset is not None and len(fp2.root_multiset) == 8


PSL22_PRINT = {"dims": (6, 8), "derived_series": (14,), "center_dim": 0, "h2": (3, 0),
               "root_multiset": None}


@pytest.mark.parametrize("field, other", [
    ("dims", (6, 9)), ("derived_series", (14, 13)), ("center_dim", 1), ("h2", (3, 1)),
    ("root_multiset", ()),
])
def test_fingerprint_equality_reads_every_field(field, other):
    fp = H.Fingerprint(**PSL22_PRINT)
    assert fp == H.Fingerprint(**PSL22_PRINT)
    assert fp != H.Fingerprint(**{**PSL22_PRINT, field: other})


def test_fingerprint_never_equals_another_type():
    fp = H.Fingerprint(**PSL22_PRINT)
    assert (fp == tuple(PSL22_PRINT.values())) is False
    assert (fp == PSL22_PRINT) is False
    assert (fp == None) is False  # noqa: E711


def test_isogenous_examples(sl33, psl33, psl22, tkk_m11):
    assert H.isogenous(sl33, psl33) == "equal"
    assert H.isogenous(tkk_m11.lie, psl22) == "equal"
    assert H.isogenous(psl22, psl33) == "different"


def test_odd_h2_vanishes(psl22, psl33):
    assert H.h2_dims(psl22)[1] == 0
    assert H.h2_dims(psl33)[1] == 0


def test_extension_kernel_is_central(psl22):
    ext = uce_cover(psl22)
    u = ext.extended
    kern = kernel(Matrix.from_cols([sparse_to_dense(c, psl22.dim) for c in ext.projection]))
    assert len(kern) == 3
    for kv in kern:
        for j in range(u.dim):
            assert not any(u.product_vec(kv, unit_vec(u.dim, j)))
    assert dense_rows(center(u), u.dim) == kern


# ---------------------------------------------------------------------------
# Fraction oracle: one row per canonical triple, no denominator clearing, no
# dedupe, no blocks; canonical bases by re-inserting into a SparseRref.
# ---------------------------------------------------------------------------


def _oracle_pairs(par, parity):
    n = len(par)
    return [(i, j) for i in range(n) for j in range(i, n)
            if (par[i] + par[j]) % 2 == parity and not (i == j and par[i] == 0)]


def _oracle_phi(par, pos, m, c):
    """(unknown, sign) with phi(b_m, b_c) = sign * x_unknown, or None."""
    if m <= c:
        return (pos[(m, c)], F(1)) if (m, c) in pos else None
    if (c, m) not in pos:
        return None
    return pos[(c, m)], (F(1) if par[m] and par[c] else F(-1))


def _oracle_cocycles(l, parity):
    par, ent, n = l.parity, l.table.entries, l.dim
    pairs = _oracle_pairs(par, parity)
    pos = {p: t for t, p in enumerate(pairs)}
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if (par[i] + par[j] + par[k]) % 2 != parity:
                    continue
                row = {}
                for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):
                    s = F(-1) if par[a] and par[c] else F(1)
                    for m, coeff in ent.get((a, b), ()):
                        hit = _oracle_phi(par, pos, m, c)
                        if hit is not None:
                            row[hit[0]] = row.get(hit[0], F(0)) + s * hit[1] * coeff
                row = {t: v for t, v in row.items() if v}
                if row:
                    rows.append(row)
    sr = SparseRref(len(pairs))
    for kv in kernel_from_rows(rows, len(pairs)):
        sr.insert(kv)
    return pairs, sr.basis()


def _oracle_coboundaries(l, parity):
    pairs = _oracle_pairs(l.parity, parity)
    sr, ent = SparseRref(len(pairs)), l.table.entries
    for s in range(l.dim):
        if l.parity[s] == parity:
            row = {}
            for t, (i, j) in enumerate(pairs):
                for m, c in ent.get((i, j), ()):
                    if m == s:
                        row[t] = c
            sr.insert(row)
    return sr.basis()


@cache
def _base_algebra(name):
    return {"sl21": lambda: C.construct_sl(2, 1),
            "psl22": lambda: C.construct_psl(1),
            "psl33": lambda: C.construct_psl(2),
            "uce_psl22": lambda: H.uce(C.construct_psl(1)).extended}[name]()


H2 = {"sl21": (0, 0), "psl22": (3, 0), "psl33": (1, 0), "uce_psl22": (0, 0)}

scalars = st.builds(F, st.integers(-(2**20), 2**20).filter(bool), st.integers(1, 2**20))


@st.composite
def rescaled_algebras(draw):
    """A base algebra in the basis b'_i = lam_i * b_{perm[i]}."""
    name = draw(st.sampled_from(sorted(H2)))
    base = _base_algebra(name)
    n = base.dim
    perm = draw(st.permutations(range(n)))
    lam = [draw(scalars) for _ in range(n)]
    inv = {old: new for new, old in enumerate(perm)}
    entries, ent = {}, base.table.entries
    for i in range(n):
        for j in range(n):
            terms = ent.get((perm[i], perm[j]), ())
            if terms:
                entries[(i, j)] = tuple(sorted(
                    (inv[m], lam[i] * lam[j] * c / lam[inv[m]]) for m, c in terms))
    space = SuperSpace(n, tuple(base.parity[perm[i]] for i in range(n)))
    return name, LieSuperalgebra(StructureTable(space, "lie", entries))


def _shear(l, h, e):
    """l in the basis with the even b_h replaced by b_h + b_e."""
    lift = {h: {h: F(1), e: F(1)}}
    entries, ent = {}, l.table.entries
    for i in range(l.dim):
        for j in range(l.dim):
            v = {}
            for a, x in lift.get(i, {i: F(1)}).items():
                for b, y in lift.get(j, {j: F(1)}).items():
                    for m, c in ent.get((a, b), ()):
                        v[m] = v.get(m, F(0)) + x * y * c
            # old coordinates to new: b_h = b'_h - b_e
            v[e] = v.get(e, F(0)) - v.get(h, F(0))
            terms = tuple(sorted((m, c) for m, c in v.items() if c))
            if terms:
                entries[(i, j)] = terms
    return LieSuperalgebra(StructureTable(l.space, "lie", entries))


def _diagonal_even(l):
    """The even b_h with [b_h, b_j] in Q b_j for every j."""
    ent = l.table.entries
    return [h for h in range(l.dim) if not l.parity[h] and all(
        terms[0][0] == j and len(terms) == 1
        for (a, j), terms in ent.items() if a == h)]


@st.composite
def mixed_algebras(draw):
    """A rescaled base algebra with one ad-diagonal b_h replaced by b_h + b_e
    for another even b_e, so that some or none of the toral basis elements
    stay ad-diagonal."""
    name, l = draw(rescaled_algebras())
    h = draw(st.sampled_from(_diagonal_even(l)))
    e = draw(st.sampled_from([e for e in range(l.dim) if not l.parity[e] and e != h]))
    return name, _shear(l, h, e)


@given(st.one_of(rescaled_algebras(), mixed_algebras()))
@settings(max_examples=30, deadline=None)
def test_cohomology_matches_fraction_oracle(case):
    # the H^2 representatives, solved on weight-zero cochains, must be the
    # complement picked on the full system
    name, l = case
    dims = []
    for parity in (0, 1):
        pairs, zbasis = _oracle_cocycles(l, parity)
        bbasis = _oracle_coboundaries(l, parity)
        assert [_pair_coords(pairs, z) for z in H.cocycle_space(l, parity)] == zbasis
        assert [_pair_coords(pairs, b) for b in H.coboundary_space(l, parity)] == bbasis
        reps = complement_rows(zbasis, bbasis, len(pairs))
        assert [_pair_coords(pairs, r) for r in H.h2_representatives(l, parity)] == reps
        dims.append(len(reps))
    assert H.h2_dims(l) == tuple(dims) == H2[name]


def test_h2_on_weight_zero_cochains_is_the_full_complement(psl22, sl21, tkk_m11):
    # h2_representatives and h2_dims solve on the weight-zero cochains alone;
    # on tables with odd elements and several weights they must give the
    # complement of the full B^2 in the full Z^2, picked in basis order
    for l in (psl22, sl21, H.uce(psl22).extended, tkk_m11.lie):
        assert any(l.parity) and len(set(l.table.toral_weights())) > 2
        dims = []
        for parity in (0, 1):
            pairs, _ = H._pair_index(l.space, parity, [()] * l.dim)

            def row(c):
                return {t: c.form[p] for t, p in enumerate(pairs) if p in c.form}

            zs, bs = H.cocycle_space(l, parity), H.coboundary_space(l, parity)
            sr = SparseRref(len(pairs))
            for b in bs:
                sr.insert(row(b))
            want = [z.form for z in zs if sr.insert(row(z)) is not None]
            assert [r.form for r in H.h2_representatives(l, parity)] == want
            dims.append(len(zs) - len(bs))
        assert H.h2_dims(l) == tuple(dims)


def _weight_counts(l):
    """(toral basis elements, weight-0 pairs even, odd, all pairs even, odd)."""
    w = l.table.toral_weights()
    return (len(w[0]),
            *(len(H._pair_index(l.space, p, w)[0]) for p in (0, 1)),
            *(len(H._pair_index(l.space, p, [()] * l.dim)[0]) for p in (0, 1)))


def test_pair_index_from_weight_groups_matches_the_scan(psl22, tkk_jp4, tkk_m11):
    # the same unknowns in the same order, with the toral weights and without
    for l in (psl22, C.construct_psl(3), C.construct_sl(2, 1), H.uce(psl22).extended,
              tkk_jp4.lie, tkk_m11.lie, abelian(3, 2)):
        for weights in (l.table.toral_weights(), [()] * l.dim):
            for parity in (0, 1):
                assert (H._pair_index(l.space, parity, weights)
                        == pair_index_by_scan(l.space, parity, weights))


def test_toral_basis_elements_and_weight_zero_pairs(psl22, psl33, tkk_jp4):
    assert _weight_counts(psl22) == (2, 11, 0, 51, 48)
    assert _weight_counts(C.construct_psl(3)) == (6, 43, 0, 963, 960)
    assert _weight_counts(tkk_jp4.lie) == (7, 77, 0, 4033, 4032)
    # an abelian algebra has no ad that is nonzero, and invalid_lie.sca's
    # b_1 has [b_1, b_1] = b_2: no toral element, so all pairs are unknowns
    assert _weight_counts(abelian(3, 2)) == (0, 6, 6, 6, 6)
    invalid = LieSuperalgebra(parse_sca(
        (Path(__file__).parent / "fixtures" / "invalid_lie.sca").read_text()))
    assert _weight_counts(invalid) == (0, 1, 0, 1, 0)
    # psl(3,3)'s toral basis elements are H2..H5; replace H2 by H2 + x: H3,
    # H4 and H5 stay ad-diagonal when they vanish on the weight of x
    h2 = psl33.labels.index("H2")
    assert [psl33.labels[h] for h in _diagonal_even(psl33)] == ["H2", "H3", "H4", "H5"]
    for x, toral in (("H3", 4), ("E(2,3)", 3), ("E(1b,2b)", 1), ("E(1,2)", 0)):
        sheared = _shear(psl33, h2, psl33.labels.index(x))
        assert _weight_counts(sheared)[0] == toral, x
        assert H.h2_dims(sheared) == (1, 0)


def _oracle_center(l):
    """The dense kernel of the full system x * b_j = 0 on every unknown,
    one row per (j, k), with repeated rows dropped."""
    rows = {}
    for (i, j), terms in l.table.entries.items():
        for k, c in terms:
            rows.setdefault((j, k), [F(0)] * l.dim)[i] = c
    if not rows:
        return [unit_vec(l.dim, i) for i in range(l.dim)]
    return kernel(Matrix(sorted({tuple(r) for r in rows.values()})))


@cache
def _psl44():
    return C.construct_psl(3)


def _fixture_lie(name):
    return LieSuperalgebra(parse_sca((Path(__file__).parent / "fixtures" / name).read_text()))


def _sheared(base, x):
    l = _psl44() if base == "psl44" else _fixture_lie(f"{base}.sca")
    return _shear(l, _diagonal_even(l)[0], l.labels.index(x))


# the Lie fixtures, and psl(4,4) and uce(psl(3,3)) with their first toral
# basis element sheared onto another even basis element
CENTER_CASES = {
    **{name: lambda name=name: _fixture_lie(f"{name}.sca")
       for name in ("gl22", "invalid_lie", "psl22", "sl21", "slA_g1", "tkk_m11", "uce_psl22",
                    "uce_psl33")},
    **{f"{base} sheared onto {x}": lambda base=base, x=x: _sheared(base, x)
       for base in ("psl44", "uce_psl33") for x in ("H3", "E(1,2)")},
}


@pytest.mark.parametrize("name", CENTER_CASES)
def test_center_on_weight_zero_unknowns_matches_dense_kernel(name):
    l = CENTER_CASES[name]()
    assert dense_rows(center(l), l.dim) == _oracle_center(l)
