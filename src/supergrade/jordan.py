"""Jordan superalgebra machinery: symmetrized algebras, Peirce
decompositions, the Tits-Kantor-Koecher construction in both directions,
and certification of M_{1,1}+ subalgebras.

The TKK algebra is built as T(-1) + T(0) + T(1) with T(+-1) copies of J
and T(0) spanned by operator pairs D(a,b) acting on T(1) by

    c |-> 2( (a.b).c + a.(b.c) - (-1)^{|a||b|} b.(a.c) )

and on T(-1) by the same expression with the first term negated.  The
factor 2 normalizes h = [e, f] (e, f the unit copies) to act with
eigenvalues 0, +-2.  An element of T(0) is a sparse row over the
two-block flattened 2*(dim J)^2 coordinates of its two matrices, the T(1)
block first and the T(-1) block second, in the operator layout of
_axioms.  T(0) is the span of the n^2 rows D(b_a, b_b), built as integer
rows (over StructureTable.integer_form) from the commutators [L_a, L_b]
that the Jordan check computed (_axioms._commutators); each distinct
nonzero row is eliminated once in one SparseRref, whose RREF does not
depend on repeats or order.  No closure loop is needed: on a Jordan input
this span, the inner structure algebra, is closed under the
supercommutator (Kac, Adv. Math. 1977), and the construction verifies
exactly that every nonzero bracket of two basis operators lies in it,
raising JacobiFailure otherwise.  Entries are Python ints, so no bound is
needed against overflow.
"""

from __future__ import annotations

from fractions import Fraction

from ._axioms import _bracket, _commutators, _operator
from .errors import (
    JacobiFailure,
    NonSplitSpectrum,
    NotIdempotent,
    NotThreeGraded,
    UnexpectedEigenvalue,
    ValidationError,
)
from .exact import (
    SparseRref,
    ZERO,
    ONE,
    _poly_apply,
    dense_to_sparse,
    eigenspace,
    min_poly,
    poly_degree,
    rational_roots,
    sparse_to_dense,
    sparse_transpose,
    sub_vec,
    unit_vec,
    vec,
)
from .superalg import (
    AssocSuperalgebra,
    Element,
    JordanSuperalgebra,
    LieSuperalgebra,
    StructureTable,
    SubspaceCoords,
    SuperSpace,
    ThreeGrading,
    _coords,
    _integer_row,
    _product,
    _sparse_element,
    _sparse_product,
    _symmetrized,
    ad_rows,
    homogeneous_parity,
    validate_jordan,
)

HALF = Fraction(1, 2)
TWO = Fraction(2)


def symmetrized(a: AssocSuperalgebra) -> JordanSuperalgebra:
    """The Jordan superalgebra A+ with X.Y = (XY + (-1)^{|X||Y|} YX)/2."""
    table = StructureTable._canonical(
        a.space, "jordan", _symmetrized(a.table.integer_form(), a.parity, 1), a.unit)
    return JordanSuperalgebra(table, {"name": f"{a.provenance.get('name', 'A')}+"})


class PeirceDecomposition:
    """Eigenspace split of multiplication by an even idempotent.

    parts[i] is the eigenvalue-i/2 eigenspace J_i, so J = J0 + J1 + J2.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    def dims(self):
        return tuple(len(p) for p in self.parts)


def peirce(j: JordanSuperalgebra, e1) -> PeirceDecomposition:
    """Peirce decomposition J = J0 + J1 + J2 for an even idempotent e1."""
    c = _coords(e1)
    if homogeneous_parity(j.space, c) != 0:
        raise NotIdempotent("Peirce idempotent must be even")
    if j.product_vec(c, c) != tuple(c):
        raise NotIdempotent("element is not idempotent")
    mult = ad_rows(j, c)  # left multiplication by e1
    parts = tuple(eigenspace(mult, lam) for lam in (ZERO, HALF, ONE))
    if sum(map(len, parts)) != j.dim:
        cols = sparse_transpose(mult, j.dim)
        eigs, cofactor = rational_roots(min_poly(cols))
        if poly_degree(cofactor) > 0:
            # the cofactor's kernel is the sum of the generalized
            # eigenspaces of the irrational eigenvalues, so its dimension is
            # the degree of the irrational factor of the characteristic
            # polynomial
            image = SparseRref(j.dim)
            for i in range(j.dim):
                image.insert(_poly_apply(cofactor, cols, {i: ONE}))
            raise NonSplitSpectrum(
                f"irrational eigenvalues: characteristic polynomial has a degree-"
                f"{j.dim - image.rank} factor without rational roots"
            )
        bad = [str(v) for v, _ in eigs if v not in (ZERO, HALF, ONE)]
        raise UnexpectedEigenvalue(
            f"multiplication by the idempotent has eigenvalues {{{', '.join(bad)}}} "
            "outside {0, 1/2, 1}"
        )
    return PeirceDecomposition(parts)


class TKKAlgebra:
    """TKK Lie superalgebra of a unital Jordan superalgebra.

    Basis layout: T(-1) copies of J first, then the inner part T(0), then
    T(1) copies of J.  e and f are the unit copies in T(1) and T(-1);
    h = [e, f] acts with eigenvalues -2, 0, 2 on the three parts.
    inner_part holds the RREF basis of T(0) as sparse flattened rows
    {idx: Fraction} (layout in the module docstring).
    """

    __slots__ = ("lie", "jordan", "parts", "inner_part", "e", "f", "h")

    def __init__(self, lie: LieSuperalgebra, jordan: JordanSuperalgebra, parts: ThreeGrading,
                 inner_part: list, e: Element, f: Element, h: Element):
        self.lie, self.jordan, self.parts, self.inner_part = lie, jordan, parts, inner_part
        self.e, self.f, self.h = e, f, h

    @property
    def dim(self):
        return self.lie.dim


def _pair_parity(row: dict, j: JordanSuperalgebra) -> int:
    """The parity of a nonzero RREF row of inner operators, read off one
    entry (r, c): |b_r| + |b_c|.  On a parity-homogeneous table each D(a, b)
    has one parity, and rows of the two parities use disjoint columns, so
    every RREF row has one parity."""
    n, par = j.dim, j.parity
    idx = next(iter(row))
    return (par[idx // n % n] + par[idx % n]) % 2


def tkk(j: JordanSuperalgebra) -> TKKAlgebra:
    """Tits-Kantor-Koecher Lie superalgebra of a unital Jordan superalgebra."""
    from math import lcm

    if j.unit is None:
        raise ValidationError("TKK needs a unital Jordan superalgebra")
    n = j.dim
    nn = n * n
    par = j.parity

    den_j, mults = j.table.integer_form()
    scale = den_j * den_j  # D(a,b) entries are 2*(products of two table constants)
    ops, comm = _commutators(j.table)  # L_a scaled by den_j, and [L_a, L_b] for a <= b

    def d_row(a: int, b: int) -> dict:
        # D(b_a, b_b) scaled by den_j^2 and flattened: with first = L_{ab}
        # and rest = [L_a, L_b] = -(-1)^{|a||b|} [L_b, L_a], entry (r, t) of
        # the T(1) block at r*n + t holds 2 (first + rest), of the T(-1)
        # block at n*n + r*n + t holds 2 (rest - first).
        first = {}
        for m, c in mults[a].get(b, ()):
            for k, v in ops[m][0].items():
                first[k] = first.get(k, 0) + c * v
        rest, sgn = ((comm[a].get(b, {}), 1) if a <= b else
                     (comm[b].get(a, {}), 1 if par[a] and par[b] else -1))
        row = {}
        for k in first.keys() | rest.keys():
            f, g = first.get(k, 0), sgn * rest.get(k, 0)
            if f + g:
                row[k] = 2 * (f + g)
            if g - f:
                row[nn + k] = 2 * (g - f)
        return row

    # inner part: the span of the D(a,b).  No closure is needed: on a Jordan
    # input the span is closed under the supercommutator, and the [s, t]
    # loop below verifies exactly that every bracket of two basis operators
    # lies in it.  Each distinct nonzero row is inserted once; d_of[a, b] is
    # its index in d_rows.
    sr, distinct, d_rows, d_of = SparseRref(2 * nn), {}, [], {}
    for a in range(n):
        for b in range(n):
            row = d_row(a, b)
            if row:
                d_of[a, b] = t = distinct.setdefault(frozenset(row.items()), len(d_rows))
                if t == len(d_rows):
                    d_rows.append(row)
                    sr.insert(row)

    inner_rows = sr.basis()
    n0 = len(inner_rows)
    inner_parity = [_pair_parity(row, j) for row in inner_rows]

    dim = n + n0 + n
    off0 = 0      # T(-1)
    off_inner = n
    off1 = n + n0
    parity_vec = list(par) + inner_parity + list(par)
    jl = j.labels or tuple(f"j{t + 1}" for t in range(n))
    labels = tuple(f"{s}~" for s in jl) + tuple(f"D{t + 1}" for t in range(n0)) + jl
    space = SuperSpace(dim, tuple(parity_vec), labels)

    # sr keeps basis row s_t as den_t s_t, den_t its pivot entry; coordinates over the
    # RREF basis are entries at the pivots; every entry below is an integer at scale big
    pos = {p: t for t, p in enumerate(sr.pivots())}
    inner_ops = [_operator(sr._rows[p], n, parity) for p, parity in zip(pos, inner_parity)]
    dens = [sr._rows[p][p] for p in pos]
    big = scale * lcm(*dens) ** 2
    rows = [{} for _ in range(dim)]

    def put(i, k, terms, negate=False):  # terms are nonzero
        if terms:
            rows[i][k] = tuple([(t, -c) for t, c in terms] if negate else terms)

    def inner_terms(row: dict, den: int) -> list:
        return [(off_inner + pos[p], row[p] * big // den)
                for p in sorted(row.keys() & pos.keys())]

    # [a, b~] = D(a, b); [b~, a] = -(-1)^{|a||b|} D(a, b).  Each D(a,b) was
    # inserted, so it lies in the span; a distinct row's coordinates are
    # read once.
    d_terms = [inner_terms(row, scale) for row in d_rows]
    for (i, k), t in d_of.items():
        terms = d_terms[t]
        put(off1 + i, off0 + k, terms)
        put(off0 + k, off1 + i, terms, not (par[i] and par[k]))

    # [s, a] in T(1), [s, b~] in T(-1): column a of each block of s
    for t, (row, *_) in enumerate(inner_ops):
        cols = {}
        for idx in sorted(row):
            q, i = divmod(idx, n)  # q = block*n + r
            off = off1 if q < n else off0
            cols.setdefault((off, i), []).append((off + q % n, row[idx] * big // dens[t]))
        for (off, i), terms in cols.items():
            put(off_inner + t, off + i, terms)
            put(off + i, off_inner + t, terms, not (inner_parity[t] and par[i]))

    # [s, t] inside T(0), scaled by dens[t1] * dens[t2] and verified to lie
    # in the span; [s_t2, s_t1] = -(-1)^{|s_t1||s_t2|} [s_t1, s_t2]
    for t1 in range(n0):
        for t2 in range(t1, n0):
            row = _bracket(inner_ops[t1], inner_ops[t2])
            if not row:  # a zero row lies in every span
                continue
            if not sr.contains(row):
                raise JacobiFailure(
                    f"supercommutator of inner operators {t1},{t2} escaped the inner span")
            terms = inner_terms(row, dens[t1] * dens[t2])
            put(off_inner + t1, off_inner + t2, terms)
            if t2 != t1:
                put(off_inner + t2, off_inner + t1, terms,
                    not (inner_parity[t1] and inner_parity[t2]))

    table = StructureTable._canonical(space, "lie", (big, [dict(sorted(r.items())) for r in rows]))
    lie = LieSuperalgebra(table, {"name": f"TKK({j.provenance.get('name', 'J')})"})

    unit = dense_to_sparse(j.unit)
    se = {off1 + t: c for t, c in unit.items()}
    sf = {off0 + t: c for t, c in unit.items()}
    hs = _product(table, se.items(), sf.items())
    e, f, h = (Element(sparse_to_dense(v, dim), 0) for v in (se, sf, hs))
    d, hi = _integer_row(hs)  # rows are at scale big: [d h, b_t] = lam big d b_t
    for i, lam in ((off0, -2), (off1, 2)):
        for t in range(i, i + n):
            if _sparse_product(rows, hi.items(), ((t, 1),)) != {t: lam * big * d}:
                raise JacobiFailure("h = [e,f] does not act with eigenvalues -2, 0, 2")

    parts = ThreeGrading(
        minus=[unit_vec(dim, off0 + t) for t in range(n)],
        zero=[unit_vec(dim, off_inner + t) for t in range(n0)],
        plus=[unit_vec(dim, off1 + t) for t in range(n)],
    )
    return TKKAlgebra(lie=lie, jordan=j, parts=parts, inner_part=inner_rows, e=e, f=f, h=h)


def jordan_from_3grading(l: LieSuperalgebra, e, f) -> JordanSuperalgebra:
    """Recover a unital Jordan superalgebra from an sl2-style 3-grading.

    J = L(1) with product x.y = [[x, f], y]/2 and unit e, where h = [e, f]
    must act diagonalizably with eigenvalues in {0, -2, 2}, e in L(1) and
    f in L(-1).
    """
    n, ltab = l.dim, l.table
    s, L = ltab.integer_form()
    se, sf = _sparse_element(l, e), _sparse_element(l, f)
    if not se or not sf:  # e = f = 0 would pass the eigenvector tests below
        raise NotThreeGraded("e and f must both be nonzero")
    h = _product(ltab, se.items(), sf.items())
    adh = ad_rows(l, sparse_to_dense(h, n))
    spaces = {lam: eigenspace(adh, lam) for lam in (-TWO, ZERO, TWO)}
    if sum(map(len, spaces.values())) != n:
        raise NotThreeGraded("ad[e,f] is not diagonalizable with eigenvalues 0, -2, 2")
    if _product(ltab, h.items(), se.items()) != {i: TWO * c for i, c in se.items()}:
        raise NotThreeGraded("e is not in the +2 eigenspace of ad[e,f]")
    if _product(ltab, h.items(), sf.items()) != {i: -TWO * c for i, c in sf.items()}:
        raise NotThreeGraded("f is not in the -2 eigenspace of ad[e,f]")

    jbasis = spaces[TWO]
    m = len(jbasis)
    sbasis = [dense_to_sparse(v) for v in jbasis]
    to_j = SubspaceCoords(sbasis, n)

    parities = []
    for v in jbasis:
        p = homogeneous_parity(l.space, v)
        if p is None:
            raise NotThreeGraded("L(1) basis vector is not parity-homogeneous")
        parities.append(p)
    # x.y = [[x, f], y]/2 on the integer rows d_i x_i of to_j and d_f f:
    # their integer product [[d_i x_i, d_f f], d_k x_k] on L carries the
    # scale s twice, so the coordinates are read at 2 s^2 d_i d_k d_f
    d_f, fi = _integer_row(sf)
    rows, dens = to_j._rows, to_j._dens
    entries = {}
    for i, xs in enumerate(rows):
        xf = list(_sparse_product(L, xs, fi.items()).items())
        for k, ys in enumerate(rows):
            prod = _sparse_product(L, xf, ys)
            if not prod:
                continue
            coords = to_j.sparse_coords(prod, 2 * s * s * dens[i] * dens[k] * d_f)
            if coords is None:
                raise NotThreeGraded(
                    f"product of L(1) basis vectors {i},{k} leaves L(1)"
                )
            entries[(i, k)] = tuple(coords.items())
    # e lies in L(1) by its +2 test above, and e.x = [h, x]/2 = x on L(1)
    # exactly; validate_jordan checks the unit law again
    unit = to_j.sparse_coords(se)
    space = SuperSpace(m, tuple(parities))
    table = StructureTable(space, "jordan", entries, unit=sparse_to_dense(unit, m))
    prov = {"name": f"J(L(1) of {l.provenance.get('name', 'L')})", "l1_basis": jbasis}
    return validate_jordan(table, prov)


class M11Certificate:
    """Per-relation results for an M_{1,1}+ quadruple (e1, e2, x, y)."""

    __slots__ = ("elements", "results")

    def __init__(self, elements: tuple, results: dict):
        self.elements, self.results = elements, results

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def failures(self) -> list:
        return [k for k, ok in self.results.items() if not ok]


def certify_m11(j: JordanSuperalgebra, e1, e2, x, y) -> M11Certificate:
    """Check the M_{1,1}+ multiplication relations on four given elements.

    Failures are recorded in the certificate, never raised: the relations
    are e1.e1=e1, e2.e2=e2, e1.e2=0, x.y=e1-e2=-y.x, e_i.x=x/2,
    e_i.y=y/2, and e1+e2 = unit of J.
    """
    ce1, ce2, cx, cy = (_coords(v) for v in (e1, e2, x, y))
    p = j.product_vec
    half = lambda v: tuple(HALF * c for c in v)
    diff = sub_vec(ce1, ce2)
    results = {
        "e1_even": homogeneous_parity(j.space, ce1) == 0,
        "e2_even": homogeneous_parity(j.space, ce2) == 0,
        "x_odd": homogeneous_parity(j.space, cx) == 1,
        "y_odd": homogeneous_parity(j.space, cy) == 1,
        "e1.e1=e1": p(ce1, ce1) == tuple(ce1),
        "e2.e2=e2": p(ce2, ce2) == tuple(ce2),
        "e1.e2=0": not any(p(ce1, ce2)),
        "x.y=e1-e2": p(cx, cy) == diff,
        "y.x=-(e1-e2)": p(cy, cx) == tuple(-c for c in diff),
        "e1.x=x/2": p(ce1, cx) == half(cx),
        "e2.x=x/2": p(ce2, cx) == half(cx),
        "e1.y=y/2": p(ce1, cy) == half(cy),
        "e2.y=y/2": p(ce2, cy) == half(cy),
        "e1+e2=unit": j.unit is not None and tuple(a + b for a, b in zip(ce1, ce2)) == tuple(j.unit),
    }
    return M11Certificate((vec(ce1), vec(ce2), vec(cx), vec(cy)), results)


def m11_tkk_generators(t: TKKAlgebra, cert: M11Certificate) -> dict:
    """The eight TKK elements generated by a certified quadruple.

    Keys e1, e2, x, y refer to the T(1) copies and e1~, e2~, x~, y~ to the
    T(-1) copies; this is the input of the A(1,1) cover check.
    """
    n = t.jordan.dim
    dim = t.lie.dim
    names = ("e1", "e2", "x", "y")
    out = {}
    for name, coords in zip(names, cert.elements):
        plus = [ZERO] * dim
        minus = [ZERO] * dim
        for i, c in enumerate(coords):
            plus[n + len(t.parts.zero) + i] = c
            minus[i] = c
        out[name] = tuple(plus)
        out[name + "~"] = tuple(minus)
    return out
