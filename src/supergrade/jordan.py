"""Jordan superalgebra machinery: symmetrized algebras, Peirce
decompositions, the Tits-Kantor-Koecher construction in both directions,
and certification of M_{1,1}+ subalgebras.

The TKK algebra is built as T(-1) + T(0) + T(1) with T(+-1) copies of J
and T(0) spanned by operator pairs D(a,b) acting on T(1) by

    c |-> 2( (a.b).c + a.(b.c) - (-1)^{|a||b|} b.(a.c) )

and on T(-1) by the same expression with the first term negated.  The
factor 2 normalizes h = [e, f] (e, f the unit copies) to act with
eigenvalues 0, +-2.  An element of T(0) is a sparse row over the
flattened 2*(dim J)^2 coordinates of its two matrices: entry (r, c) of
the T(1) block sits at r*n + c, of the T(-1) block at n*n + r*n + c.
The closure under the supercommutator runs on integer rows (the table's
denominator cleared once) in one SparseRref, and is verified during
construction rather than assumed.  Entries are Python ints, so no bound
is needed against overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    JacobiFailure,
    NonSplitSpectrum,
    NotIdempotent,
    NotThreeGraded,
    UnexpectedEigenvalue,
    UnitFailure,
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
    _sparse_element,
    _sparse_product,
    ad_rows,
    homogeneous_parity,
    validate_jordan,
)

HALF = Fraction(1, 2)
TWO = Fraction(2)


def symmetrized(a: AssocSuperalgebra) -> JordanSuperalgebra:
    """The Jordan superalgebra A+ with X.Y = (XY + (-1)^{|X||Y|} YX)/2."""
    par = a.parity
    entries = {}
    n = a.dim
    for i in range(n):
        for j in range(n):
            acc = {}
            for k, c in a.table.entries.get((i, j), ()):
                acc[k] = acc.get(k, ZERO) + HALF * c
            sgn = -1 if par[i] and par[j] else 1
            for k, c in a.table.entries.get((j, i), ()):
                v = acc.get(k, ZERO) + sgn * HALF * c
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)
            if acc:
                entries[(i, j)] = tuple(sorted(acc.items()))
    table = StructureTable(a.table.space, "jordan", entries, unit=a.unit)
    prov = {"name": f"{a.provenance.get('name', 'A')}+", "assoc": a}
    return JordanSuperalgebra(table, prov)


@dataclass
class PeirceDecomposition:
    """Eigenspace split of multiplication by an even idempotent.

    parts[i] is the eigenvalue-i/2 eigenspace J_i, so J = J0 + J1 + J2.
    """

    idempotent: Element
    parts: tuple  # (J0, J1, J2) bases

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
    return PeirceDecomposition(Element(vec(c), 0), parts)


@dataclass
class TKKAlgebra:
    """TKK Lie superalgebra of a unital Jordan superalgebra.

    Basis layout: T(-1) copies of J first, then the inner part T(0), then
    T(1) copies of J.  e and f are the unit copies in T(1) and T(-1);
    h = [e, f] acts with eigenvalues -2, 0, 2 on the three parts.
    inner_part holds the RREF basis of T(0) as sparse flattened rows
    {idx: Fraction} (layout in the module docstring).
    """

    lie: LieSuperalgebra
    jordan: JordanSuperalgebra
    parts: ThreeGrading
    inner_part: list  # sparse flattened rows, one per basis element of T(0)
    e: Element
    f: Element
    h: Element

    @property
    def dim(self):
        return self.lie.dim


def _pair_parity(row: dict, j: JordanSuperalgebra) -> int:
    n = j.dim
    par = j.parity
    seen = set()
    for idx in row:
        rc = idx % (n * n)
        seen.add((par[rc // n] + par[rc % n]) % 2)
    if len(seen) > 1:
        raise ValidationError("inner operator is not parity-homogeneous")
    return seen.pop() if seen else 0


def _by_row(row: dict, n: int) -> dict:
    """A flattened operator pair indexed by matrix row: {block*n + r: [(c, v)]}."""
    out = {}
    for idx, v in row.items():
        out.setdefault(idx // n, []).append((idx % n, v))
    return out


def _bracket(a: tuple, b: tuple, n: int) -> dict:
    """Flattened supercommutator AB - (-1)^{|A||B|} BA of two operator pairs,
    each given as (flattened row, _by_row index, parity).

    Each product is a sparse matrix product inside one block: entry (r, k)
    of the left factor meets row k of the same block of the right factor.
    Entries are Python ints, so nothing can overflow.
    """
    sgn = -1 if a[2] and b[2] else 1
    out = {}
    for x, y, s in ((a, b, 1), (b, a, -sgn)):
        rows = y[1]
        for idx, v in x[0].items():
            q, k = divmod(idx, n)
            for c, w in rows.get(q - q % n + k, ()):
                out[q * n + c] = out.get(q * n + c, 0) + s * v * w
    return {i: v for i, v in out.items() if v}


def tkk(j: JordanSuperalgebra) -> TKKAlgebra:
    """Tits-Kantor-Koecher Lie superalgebra of a unital Jordan superalgebra."""
    from math import lcm

    if j.unit is None:
        raise ValidationError("TKK needs a unital Jordan superalgebra")
    n = j.dim
    nn = n * n
    par = j.parity

    den_j = 1
    for terms in j.table.entries.values():
        for _, c in terms:
            den_j = lcm(den_j, c.denominator)
    scale = den_j * den_j  # D(a,b) entries are 2*(products of two table constants)
    ent_int = {
        key: [(k, int(c * den_j)) for k, c in terms]
        for key, terms in j.table.entries.items()
    }

    def d_row(a: int, b: int) -> dict:
        # D(b_a, b_b) scaled by den_j^2 and flattened: entry (r, t) of the
        # T(1) block at r*n + t, of the T(-1) block at n*n + r*n + t.  Column
        # t holds 2 (first + rest) and 2 (rest - first).
        sgn = -1 if par[a] and par[b] else 1
        row = {}
        ab = ent_int.get((a, b), ())
        for t in range(n):
            first = {}
            for m, c in ab:
                for r, c2 in ent_int.get((m, t), ()):
                    first[r] = first.get(r, 0) + c * c2
            rest = {}
            for u, c in ent_int.get((b, t), ()):
                for r, c2 in ent_int.get((a, u), ()):
                    rest[r] = rest.get(r, 0) + c * c2
            for u, c in ent_int.get((a, t), ()):
                for r, c2 in ent_int.get((b, u), ()):
                    rest[r] = rest.get(r, 0) - sgn * c * c2
            for r in first.keys() | rest.keys():
                f, g = first.get(r, 0), rest.get(r, 0)
                if f + g:
                    row[r * n + t] = 2 * (f + g)
                if g - f:
                    row[nn + r * n + t] = 2 * (g - f)
        return row

    # inner part: span closure of the D(a,b) under the supercommutator.
    # Membership is scale-invariant, so the candidates stay integer rows;
    # insert() returning None is the membership test.
    d_rows = {(a, b): d_row(a, b) for a in range(n) for b in range(n)}
    sr = SparseRref(2 * nn)
    ops: list[tuple] = []
    queue = [(row, (par[a] + par[b]) % 2) for (a, b), row in d_rows.items()]
    while queue:
        row, parity = queue.pop()
        if sr.insert(row) is None:
            continue
        op = (row, _by_row(row, n), parity)
        ops.append(op)
        for other in ops:  # includes the self-commutator
            queue.append((_bracket(op, other, n), (parity + other[2]) % 2))

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

    entries = {}

    def put(i, k, terms):
        terms = tuple((t, c) for t, c in terms if c != 0)
        if terms:
            entries[(i, k)] = terms

    # the basis rows scaled to integer rows den_t * s_t
    inner_ops, dens = [], []
    for row, parity in zip(inner_rows, inner_parity):
        den = lcm(1, *(v.denominator for v in row.values()))
        ints = {idx: v.numerator * (den // v.denominator) for idx, v in row.items()}
        inner_ops.append((ints, _by_row(ints, n), parity))
        dens.append(den)
    pivots = sr.pivots()
    den_all = lcm(1, *dens)

    def inner_terms(row: dict, den: int, what: str) -> list:
        # Over an RREF basis the coordinates of row are its pivot entries;
        # row = sum_t row[p_t] s_t is verified exactly, scaled by den_all.
        coords = [(t, row[p]) for t, p in enumerate(pivots) if p in row]
        acc = {idx: den_all * v for idx, v in row.items()}
        for t, c in coords:
            m = c * (den_all // dens[t])
            for idx, v in inner_ops[t][0].items():
                acc[idx] = acc.get(idx, 0) - m * v
        if any(acc.values()):
            raise JacobiFailure(f"{what} escaped the inner span")
        return [(off_inner + t, Fraction(c, den)) for t, c in coords]

    # [a, b~] = D(a, b); [b~, a] = -(-1)^{|a||b|} D(a, b)
    for i in range(n):
        for k in range(n):
            terms = inner_terms(d_rows[i, k], scale, f"D({i},{k})")
            put(off1 + i, off0 + k, terms)
            sgn = -1 if par[i] and par[k] else 1
            put(off0 + k, off1 + i, [(t, -sgn * c) for t, c in terms])

    # [s, a] in T(1), [s, b~] in T(-1): column a of each block of s
    for t, row in enumerate(inner_rows):
        st = inner_parity[t]
        cols = {}
        for idx in sorted(row):
            block, rc = divmod(idx, nn)
            r, i = divmod(rc, n)
            cols.setdefault((block, i), []).append((r, row[idx]))
        for i in range(n):
            sgn = -1 if st and par[i] else 1
            terms = [(off1 + r, c) for r, c in cols.get((0, i), ())]
            put(off_inner + t, off1 + i, terms)
            put(off1 + i, off_inner + t, [(k, -sgn * c) for k, c in terms])
            terms = [(off0 + r, c) for r, c in cols.get((1, i), ())]
            put(off_inner + t, off0 + i, terms)
            put(off0 + i, off_inner + t, [(k, -sgn * c) for k, c in terms])

    # [s, t] inside T(0)
    for t1, op1 in enumerate(inner_ops):
        for t2, op2 in enumerate(inner_ops):
            terms = inner_terms(_bracket(op1, op2, n), dens[t1] * dens[t2],
                                f"supercommutator of inner operators {t1},{t2}")
            put(off_inner + t1, off_inner + t2, terms)

    table = StructureTable(space, "lie", entries)
    name = f"TKK({j.provenance.get('name', 'J')})"
    lie = LieSuperalgebra(table, {"name": name, "jordan": j})

    def embed(block_offset, coords):
        out = [ZERO] * dim
        for t, c in enumerate(coords):
            out[block_offset + t] = c
        return tuple(out)

    e = Element(embed(off1, j.unit), 0)
    f = Element(embed(off0, j.unit), 0)
    hs = _sparse_product(entries, dense_to_sparse(e.coords).items(),
                         dense_to_sparse(f.coords).items())
    h = Element(sparse_to_dense(hs, dim), 0)
    for i, lam in ((off0, -TWO), (off1, TWO)):
        for t in range(i, i + n):
            if _sparse_product(entries, hs.items(), ((t, ONE),)) != {t: lam}:
                raise JacobiFailure("h = [e,f] does not act with eigenvalues -2, 0, 2")

    parts = ThreeGrading(
        minus=[unit_vec(dim, off0 + t) for t in range(n)],
        zero=[unit_vec(dim, off_inner + t) for t in range(n0)],
        plus=[unit_vec(dim, off1 + t) for t in range(n)],
    )
    tk = TKKAlgebra(lie=lie, jordan=j, parts=parts, inner_part=inner_rows, e=e, f=f, h=h)
    lie.provenance["tkk"] = tk
    return tk


def jordan_from_3grading(l: LieSuperalgebra, e, f) -> JordanSuperalgebra:
    """Recover a unital Jordan superalgebra from an sl2-style 3-grading.

    J = L(1) with product x.y = [[x, f], y]/2 and unit e, where h = [e, f]
    must act diagonalizably with eigenvalues in {0, -2, 2}, e in L(1) and
    f in L(-1).
    """
    n = l.dim
    ent = l.table.entries
    se, sf = _sparse_element(l, e), _sparse_element(l, f)
    h = _sparse_product(ent, se.items(), sf.items())
    adh = ad_rows(l, sparse_to_dense(h, n))
    spaces = {lam: eigenspace(adh, lam) for lam in (-TWO, ZERO, TWO)}
    if sum(map(len, spaces.values())) != n:
        raise NotThreeGraded("ad[e,f] is not diagonalizable with eigenvalues 0, -2, 2")
    if _sparse_product(ent, h.items(), se.items()) != {i: TWO * c for i, c in se.items()}:
        raise NotThreeGraded("e is not in the +2 eigenspace of ad[e,f]")
    if _sparse_product(ent, h.items(), sf.items()) != {i: -TWO * c for i, c in sf.items()}:
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
    # x.y = [[x, f], y]/2, with the half taken on [x, f]
    entries = {}
    for i in range(m):
        xf = _sparse_product(ent, sbasis[i].items(), sf.items())
        xf = [(t, HALF * c) for t, c in xf.items()]
        for k in range(m):
            coords = to_j.sparse_coords(_sparse_product(ent, xf, sbasis[k].items()))
            if coords is None:
                raise NotThreeGraded(
                    f"product of L(1) basis vectors {i},{k} leaves L(1)"
                )
            if coords:
                entries[(i, k)] = tuple(coords.items())
    unit = to_j.sparse_coords(se)
    if unit is None:
        raise NotThreeGraded("e does not lie in L(1)")
    space = SuperSpace(m, tuple(parities))
    table = StructureTable(space, "jordan", entries, unit=sparse_to_dense(unit, m))
    for i in range(m):
        if _sparse_product(table.entries, unit.items(), ((i, ONE),)) != {i: ONE}:
            raise UnitFailure(f"e.x != x for L(1) basis vector {i}")
    prov = {"name": f"J(L(1) of {l.provenance.get('name', 'L')})",
            "ambient": l, "l1_basis": jbasis, "e": vec(_coords(e)), "f": vec(_coords(f))}
    return validate_jordan(table, prov)


@dataclass
class M11Certificate:
    """Per-relation results for an M_{1,1}+ quadruple (e1, e2, x, y)."""

    elements: tuple
    results: dict

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
