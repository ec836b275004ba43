"""Jordan superalgebra machinery: symmetrized algebras, Peirce
decompositions, the Tits-Kantor-Koecher construction in both directions,
and certification of M_{1,1}+ subalgebras.

The TKK algebra is built as T(-1) + T(0) + T(1) with T(+-1) copies of J
and T(0) spanned by operator pairs D(a,b) acting on T(1) by

    c |-> 2( (a.b).c + a.(b.c) - (-1)^{|a||b|} b.(a.c) )

and on T(-1) by the same expression with the first term negated.  The
factor 2 normalizes h = [e, f] (e, f the unit copies) to act with
eigenvalues 0, +-2.  T(0) elements are pairs of endomorphism matrices;
equality and linear algebra on T(0) use the flattened 2*(dim J)^2
coordinate vector, and closure of the span under the supercommutator is
verified during construction rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    JacobiFailure,
    NotIdempotent,
    NotThreeGraded,
    UnexpectedEigenvalue,
    UnitFailure,
    ValidationError,
)
from .exact import (
    Matrix,
    SparseRref,
    Vec,
    ZERO,
    ONE,
    dense_to_sparse,
    eigenspace,
    scale_vec,
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
    _coords,
    ad_matrix,
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
        from .exact import rational_eigenvalues

        eigs = rational_eigenvalues(ad_matrix(j, c))
        bad = [str(v) for v, _ in eigs if v not in (ZERO, HALF, ONE)]
        raise UnexpectedEigenvalue(
            f"multiplication by the idempotent has eigenvalues {{{', '.join(bad)}}} "
            "outside {0, 1/2, 1}"
        )
    return PeirceDecomposition(Element(vec(c), 0), parts)


def associator(j: JordanSuperalgebra, a, b, c) -> Vec:
    """(a.b).c - a.(b.c)."""
    ca, cb, cc = _coords(a), _coords(b), _coords(c)
    return sub_vec(
        j.product_vec(j.product_vec(ca, cb), cc),
        j.product_vec(ca, j.product_vec(cb, cc)),
    )


@dataclass
class TKKAlgebra:
    """TKK Lie superalgebra of a unital Jordan superalgebra.

    Basis layout: T(-1) copies of J first, then the inner part T(0), then
    T(1) copies of J.  e and f are the unit copies in T(1) and T(-1);
    h = [e, f] acts with eigenvalues -2, 0, 2 on the three parts.
    """

    lie: LieSuperalgebra
    jordan: JordanSuperalgebra
    parts: "ThreeGrading"
    inner_part: list  # list of (Matrix on T(1), Matrix on T(-1)) pairs
    e: Element
    f: Element
    h: Element

    @property
    def dim(self):
        return self.lie.dim


def _d_operator(j: JordanSuperalgebra, a: Vec, b: Vec, pa: int, pb: int):
    """The operator pair D(a,b): (action on T(1), action on T(-1)).

    Reference form over Fraction matrices; tkk() computes the same
    operators in scaled-integer form, cross-checked by the tests.
    """
    n = j.dim
    sgn = -1 if pa and pb else 1
    ab = j.product_vec(a, b)
    plus_cols, minus_cols = [], []
    for t in range(n):
        c = unit_vec(n, t)
        first = j.product_vec(ab, c)
        second = j.product_vec(a, j.product_vec(b, c))
        third = j.product_vec(b, j.product_vec(a, c))
        plus_cols.append(tuple(TWO * (first[r] + second[r] - sgn * third[r]) for r in range(n)))
        minus_cols.append(tuple(TWO * (-first[r] + second[r] - sgn * third[r]) for r in range(n)))
    return Matrix.from_cols(plus_cols), Matrix.from_cols(minus_cols)


def _unflatten_pair(row: dict, n: int) -> tuple[Matrix, Matrix]:
    """The (T(1), T(-1)) matrices of a sparse flattened inner operator."""
    p, q = Matrix.zeros(n, n), Matrix.zeros(n, n)
    for idx, v in row.items():
        r, c = divmod(idx % (n * n), n)
        (p if idx < n * n else q).data[r][c] = v
    return p, q


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


class _IntOp:
    """An operator pair stored as integer matrices over a common denominator.

    Arithmetic stays in int64 numpy when a proven bound keeps it exact and
    silently widens to Python integers (object dtype) otherwise; values
    are always p/den and q/den exactly.
    """

    __slots__ = ("p", "q", "den", "parity")

    def __init__(self, p, q, den, parity):
        self.p = p
        self.q = q
        self.den = den
        self.parity = parity

    def normalized(self) -> "_IntOp":
        import numpy as np
        from math import gcd

        g = self.den
        for a in (self.p, self.q):
            if a.dtype == object:
                for v in a.ravel():
                    g = gcd(g, int(v))
            else:
                g = gcd(g, int(np.gcd.reduce(np.abs(a), axis=None)))
            if g == 1:
                return self
        if g <= 1:
            return self
        return _IntOp(self.p // g, self.q // g, self.den // g, self.parity)

    def max_abs(self) -> int:
        import numpy as np

        out = 0
        for a in (self.p, self.q):
            if a.size:
                if a.dtype == object:
                    out = max(out, max(abs(int(v)) for v in a.ravel()))
                else:
                    out = max(out, int(np.abs(a).max()))
        return out

    def flat_fractions(self) -> dict:
        out = {}
        half = self.p.shape[0] * self.p.shape[1]
        for block, a in ((0, self.p), (half, self.q)):
            for (r, c), v in _ndenumerate(a):
                if v:
                    out[block + r * a.shape[1] + c] = Fraction(int(v), self.den)
        return out


def _ndenumerate(a):
    import numpy as np

    return np.ndenumerate(a)


_INT64_SAFE = 1 << 62


def _op_commutator(a: _IntOp, b: _IntOp, n: int) -> _IntOp:
    import numpy as np

    sgn = -1 if a.parity and b.parity else 1
    widen = (
        a.p.dtype == object
        or b.p.dtype == object
        or 2 * n * a.max_abs() * b.max_abs() >= _INT64_SAFE
    )
    if widen:
        ap, aq = a.p.astype(object), a.q.astype(object)
        bp, bq = b.p.astype(object), b.q.astype(object)
    else:
        ap, aq, bp, bq = a.p, a.q, b.p, b.q
    p = ap @ bp - sgn * (bp @ ap)
    q = aq @ bq - sgn * (bq @ aq)
    return _IntOp(p, q, a.den * b.den, (a.parity + b.parity) % 2).normalized()


class _SpanMirror:
    """int64 mirror of a SparseRref basis for fast exact membership tests.

    The authoritative basis is the SparseRref; the mirror only answers
    queries whose magnitude bounds prove int64 arithmetic exact, and
    signals None otherwise so callers fall back to the Fraction path.
    """

    def __init__(self, sr: SparseRref, ncols: int):
        self.sr = sr
        self.ncols = ncols
        self.ok = False
        self.rebuild()

    def rebuild(self):
        import numpy as np
        from math import lcm

        rows = self.sr.basis()
        den = 1
        for row in rows:
            for v in row.values():
                den = lcm(den, v.denominator)
        entries_ok = True
        mat = np.zeros((len(rows), self.ncols), dtype=np.int64)
        for r, row in enumerate(rows):
            for c, v in row.items():
                iv = v.numerator * (den // v.denominator)
                if abs(iv) >= _INT64_SAFE:
                    entries_ok = False
                    break
                mat[r, c] = iv
        self.pivots = np.array(self.sr.pivots(), dtype=np.int64)
        self.mat = mat
        self.den = den
        self.maxent = int(np.abs(mat).max()) if mat.size else 0
        self.ok = entries_ok

    def contains(self, op: _IntOp) -> bool | None:
        """Whether op lies in the span, or None when the int64 arithmetic
        is not proven exact and the caller must ask the SparseRref."""
        import numpy as np

        if not self.ok or op.p.dtype == object:
            return None
        maxv = op.max_abs()
        if (
            maxv * self.den >= _INT64_SAFE
            or len(self.pivots) * maxv * max(self.maxent, 1) >= _INT64_SAFE
        ):
            return None
        v = np.concatenate([op.p.ravel(), op.q.ravel()])
        lhs = v * self.den
        rhs = v[self.pivots] @ self.mat if len(self.pivots) else np.zeros_like(lhs)
        return bool(np.array_equal(lhs, rhs))

    def coords_of(self, op: _IntOp) -> list:
        """Coordinates over the basis of an op that contains() accepted:
        the RREF basis has unit pivots, so they are op's pivot entries."""
        import numpy as np

        v = np.concatenate([op.p.ravel(), op.q.ravel()])[self.pivots]
        return [Fraction(x, op.den) if x else ZERO for x in v.tolist()]


def tkk(j: JordanSuperalgebra) -> TKKAlgebra:
    """Tits-Kantor-Koecher Lie superalgebra of a unital Jordan superalgebra."""
    import numpy as np
    from math import lcm

    if j.unit is None:
        raise ValidationError("TKK needs a unital Jordan superalgebra")
    n = j.dim
    par = j.parity
    flat_len = 2 * n * n

    den_j = 1
    for terms in j.table.entries.values():
        for _, c in terms:
            den_j = lcm(den_j, c.denominator)
    scale = den_j * den_j  # D(a,b) entries are 2*(products of two table constants)
    ent_int = {
        key: [(k, int(c * den_j)) for k, c in terms]
        for key, terms in j.table.entries.items()
    }

    def d_op(a: int, b: int) -> _IntOp:
        # integer form of D(b_a, b_b), scaled by den_j^2: column t holds
        # 2 (first + rest) and 2 (rest - first), where first sums up to n and
        # rest up to 2n products of two table constants, so an entry can
        # reach 6 n maxc^2.  Entries are Python ints until the dtype is
        # chosen from the largest one.
        sgn = -1 if par[a] and par[b] else 1
        plus, minus = {}, {}
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
                plus[r, t] = 2 * (f + g)
                minus[r, t] = 2 * (g - f)
        big = max(map(abs, [*plus.values(), *minus.values()]), default=0)
        dtype = np.int64 if big < _INT64_SAFE else object
        pm = np.zeros((n, n), dtype=dtype)
        qm = np.zeros((n, n), dtype=dtype)
        for (r, t), v in plus.items():
            pm[r, t] = v
        for (r, t), v in minus.items():
            qm[r, t] = v
        return _IntOp(pm, qm, scale, (par[a] + par[b]) % 2).normalized()

    # inner part: span closure of the D(a,b) under the supercommutator
    sr = SparseRref(flat_len)
    mirror = _SpanMirror(sr, flat_len)
    ops: list[_IntOp] = []
    queue = [d_op(i, k) for i in range(n) for k in range(n)]
    while queue:
        op = queue.pop()
        inside = mirror.contains(op)
        if inside is None:
            inside = sr.contains(op.flat_fractions())
        if inside:
            continue
        inserted = sr.insert(op.flat_fractions())
        assert inserted is not None
        mirror.rebuild()
        ops.append(op)
        for other in ops:  # includes the self-commutator
            queue.append(_op_commutator(op, other, n))

    def inner_coords_op(op: _IntOp):
        inside = mirror.contains(op)
        if inside is None:
            return sr.coordinates(op.flat_fractions())
        return mirror.coords_of(op) if inside else None

    inner_rows = sr.basis()
    n0 = len(inner_rows)
    inner_pairs = []
    inner_parity = []
    for row in inner_rows:
        p, q = _unflatten_pair(row, n)
        inner_pairs.append((p, q))
        inner_parity.append(_pair_parity(row, j))

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

    # [a, b~] = D(a, b); [b~, a] = -(-1)^{|a||b|} D(a, b)
    for i in range(n):
        for k in range(n):
            coords = inner_coords_op(d_op(i, k))
            if coords is None:
                raise JacobiFailure(f"D({i},{k}) escaped the inner span")
            terms = [(off_inner + t, c) for t, c in enumerate(coords) if c != 0]
            put(off1 + i, off0 + k, terms)
            sgn = -1 if par[i] and par[k] else 1
            put(off0 + k, off1 + i, [(t, -sgn * c) for t, c in terms])

    # [s, a] in T(1), [s, b~] in T(-1)
    for t, (p, q) in enumerate(inner_pairs):
        st = inner_parity[t]
        for i in range(n):
            col = p.col(i)
            terms = [(off1 + r, c) for r, c in enumerate(col) if c != 0]
            put(off_inner + t, off1 + i, terms)
            sgn = -1 if st and par[i] else 1
            put(off1 + i, off_inner + t, [(k, -sgn * c) for k, c in terms])
            col = q.col(i)
            terms = [(off0 + r, c) for r, c in enumerate(col) if c != 0]
            put(off_inner + t, off0 + i, terms)
            put(off0 + i, off_inner + t, [(k, -sgn * c) for k, c in terms])

    # [s, t] inside T(0)
    inner_ops = []
    for row, parity in zip(inner_rows, inner_parity):
        den = lcm(1, *(v.denominator for v in row.values()))
        ints = {idx: v.numerator * (den // v.denominator) for idx, v in row.items()}
        big = max(map(abs, ints.values()), default=0)
        flat = np.zeros(flat_len, dtype=np.int64 if big < _INT64_SAFE else object)
        for idx, v in ints.items():
            flat[idx] = v
        pm, qm = flat[: n * n].reshape(n, n), flat[n * n:].reshape(n, n)
        inner_ops.append(_IntOp(pm, qm, den, parity))
    for t1, op1 in enumerate(inner_ops):
        for t2, op2 in enumerate(inner_ops):
            coords = inner_coords_op(_op_commutator(op1, op2, n))
            if coords is None:
                raise JacobiFailure(
                    f"supercommutator of inner operators {t1},{t2} escaped the span"
                )
            put(off_inner + t1, off_inner + t2,
                [(off_inner + k, c) for k, c in enumerate(coords) if c != 0])

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
    h = Element(lie.product_vec(e.coords, f.coords), 0)
    for i, lam in ((off0, -TWO), (off1, TWO)):
        for t in range(n):
            col = lie.product_vec(h.coords, unit_vec(dim, i + t))
            if col != scale_vec(lam, unit_vec(dim, i + t)):
                raise JacobiFailure("h = [e,f] does not act with eigenvalues -2, 0, 2")

    from .roots import ThreeGrading

    parts = ThreeGrading(
        minus=[unit_vec(dim, off0 + t) for t in range(n)],
        zero=[unit_vec(dim, off_inner + t) for t in range(n0)],
        plus=[unit_vec(dim, off1 + t) for t in range(n)],
    )
    tk = TKKAlgebra(lie=lie, jordan=j, parts=parts, inner_part=inner_pairs, e=e, f=f, h=h)
    lie.provenance["tkk"] = tk
    return tk


def jordan_from_3grading(l: LieSuperalgebra, e, f) -> JordanSuperalgebra:
    """Recover a unital Jordan superalgebra from an sl2-style 3-grading.

    J = L(1) with product x.y = [[x, f], y]/2 and unit e, where h = [e, f]
    must act diagonalizably with eigenvalues in {0, -2, 2}, e in L(1) and
    f in L(-1).
    """
    ce, cf = _coords(e), _coords(f)
    n = l.dim
    h = l.product_vec(ce, cf)
    adh = ad_rows(l, h)
    spaces = {lam: eigenspace(adh, lam) for lam in (-TWO, ZERO, TWO)}
    if sum(map(len, spaces.values())) != n:
        raise NotThreeGraded("ad[e,f] is not diagonalizable with eigenvalues 0, -2, 2")
    if l.product_vec(h, ce) != tuple(TWO * c for c in ce):
        raise NotThreeGraded("e is not in the +2 eigenspace of ad[e,f]")
    if l.product_vec(h, cf) != tuple(-TWO * c for c in cf):
        raise NotThreeGraded("f is not in the -2 eigenspace of ad[e,f]")

    jbasis = spaces[TWO]
    m = len(jbasis)
    to_j = SubspaceCoords([dense_to_sparse(v) for v in jbasis], n).coords

    parities = []
    for v in jbasis:
        p = homogeneous_parity(l.space, v)
        if p is None:
            raise NotThreeGraded("L(1) basis vector is not parity-homogeneous")
        parities.append(p)
    entries = {}
    for i in range(m):
        xi = jbasis[i]
        xf = l.product_vec(xi, cf)
        for k in range(m):
            prod = tuple(HALF * c for c in l.product_vec(xf, jbasis[k]))
            coords = to_j(prod)
            if coords is None:
                raise NotThreeGraded(
                    f"product of L(1) basis vectors {i},{k} leaves L(1)"
                )
            terms = [(t, c) for t, c in enumerate(coords) if c != 0]
            if terms:
                entries[(i, k)] = tuple(terms)
    unit = to_j(ce)
    if unit is None:
        raise NotThreeGraded("e does not lie in L(1)")
    space = SuperSpace(m, tuple(parities))
    table = StructureTable(space, "jordan", entries, unit=unit)
    for i in range(m):
        got = table_mult(table, unit, i)
        if got != unit_vec(m, i):
            raise UnitFailure(f"e.x != x for L(1) basis vector {i}")
    prov = {"name": f"J(L(1) of {l.provenance.get('name', 'L')})",
            "ambient": l, "l1_basis": jbasis, "e": vec(ce), "f": vec(cf)}
    return validate_jordan(table, prov)


def table_mult(table: StructureTable, x, i: int) -> Vec:
    from .superalg import table_product

    return table_product(table, x, unit_vec(table.space.dim, i))


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
