"""Factories for the concrete algebras: gl(m,n), sl(m,n), psl(n+1,n+1),
coefficient superalgebras, sl_{m,n}(A), and the Jordan families.

Basis conventions are fixed here once:

* gl(m,n) uses matrix units e_ij ordered row-major over the index set
  I = (1..m, 1b..nb), unbarred before barred; parity(e_ij) = |i| + |j|.
* sl(m,n) and sl_{m,n}(A) have the canonical RREF bases of their spans, by
  closed formula: each basis vector is 1 at a unit column of its own and 0
  at the others', where coordinates are read (_unit_column_table).
* JP(n)/JQ(n) use explicit parameter-matrix bases: the a-part row-major,
  then the b-part upper triangle, then the c-part upper triangle.

Every matrix algebra starts from the matrix-unit product
superalg.matrix_unit_products: gl(m,n) and gl(m,n) (x) A are integer rows
of its supercommutator, the latter Koszul-signed with A, M_{p,q}(F) its
restricted_table on (I, e_rc), and JP(n)/JQ(n) the restricted_table of its
symmetrized Jordan product on their basis matrices, each built as integer
rows (superalg.StructureTable._canonical).  Constructors return trusted
algebra wrappers, which the tests re-validate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import BadParams, ValidationError, WrongAlgebra
from .exact import (
    Vec,
    ZERO,
    ONE,
    SparseRref,
    dense_to_sparse,
    kernel_from_rows,
    sparse_apply,
    sparse_to_dense,
    unit_vec,
    vec,
)
from .superalg import (
    AssocSuperalgebra,
    Element,
    JordanSuperalgebra,
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    _integer_row,
    _product,
    _sparse_element,
    _symmetrized,
    matrix_unit_products,
    quotient_central,
    restricted_table,
)

HALF = Fraction(1, 2)


class CartanBasis:
    """Pairwise-commuting even elements spanning a chosen Cartan subspace.

    diag_mats holds, per element, the diagonal entries of a representing
    diagonal matrix in the ambient gl(m,n); root functionals are evaluated
    against these representatives.
    """

    __slots__ = ("elements", "diag_mats")

    def __init__(self, elements: list[Element], diag_mats: tuple | None = None):
        self.elements, self.diag_mats = elements, diag_mats

    def __len__(self):
        return len(self.elements)


def _check_cartan(l, cartan: CartanBasis):
    for x in cartan.elements:
        if x.parity != 0:
            raise ValidationError("Cartan elements must be even")
    sparse = [_sparse_element(l, x).items() for x in cartan.elements]
    for x, y in itertools.combinations(sparse, 2):
        if _product(l.table, x, y):
            raise ValidationError("Cartan elements must commute pairwise")


def _matrix_units(p: int, q: int) -> tuple[list, SuperSpace]:
    """The matrix units e_rc of M_{p,q}(F), row-major, with their space:
    parity(e_rc) = |r| + |c| and labels E(r,c)."""
    d = p + q
    idx_par = [0] * p + [1] * q
    names = [str(i + 1) for i in range(p)] + [f"{i + 1}b" for i in range(q)]
    units = [(r, c) for r in range(d) for c in range(d)]
    parity = tuple((idx_par[r] + idx_par[c]) % 2 for r, c in units)
    labels = tuple(f"E({names[r]},{names[c]})" for r, c in units)
    return units, SuperSpace(d * d, parity, labels)


def construct_gl(m: int, n: int) -> LieSuperalgebra:
    """gl(m,n): all (m+n) x (m+n) matrices with the supercommutator."""
    if m < 0 or n < 0:
        raise BadParams("gl(m,n) needs m, n >= 0")
    if m + n < 1:
        raise BadParams("gl(m,n) needs m+n >= 1")
    d = m + n
    units, space = _matrix_units(m, n)
    table = StructureTable._canonical(
        space, "lie", _symmetrized(matrix_unit_products(units), space.parity, -1))
    diag_indices = [t * d + t for t in range(d)]
    info = {"m": m, "n": n, "units": units, "unit_parity": space.parity,
            "diag_indices": diag_indices}
    z = tuple(ONE if k in diag_indices else ZERO for k in range(d * d))
    return LieSuperalgebra(table, {"name": f"gl({m},{n})", "gl": info, "z": z})


def _unit_column_table(space: SuperSpace, integer: tuple, rows: list):
    """(table, read) of the span of v_i = p_i / p_i[c_i] inside an algebra
    with integer form (s, L), given rows[i] = (c_i, p_i) by increasing c_i,
    p_i an integer row and v_i 0 at every c_j but its own.  A vector w of
    the span has coordinates w[c_i]; at any other column k, w must hold
    sum_i w[c_i] v_i[k], or it escapes the span.  read(w) is the sparse
    coordinates of w, or None if it escapes.

    Each p_i is first scaled to p_i[c_i] = D, D the lcm of the p_i[c_i], so
    [p_i, p_j] on L is D^2 s [v_i, v_j]: the table's integer rows at scale
    D^2 s.  Only the pairs that meet a nonzero entry of L are multiplied,
    found through the basis vectors that touch each column.  A product
    that escapes raises ValidationError.
    """
    s, L = integer
    d = lcm(*(p[c] for c, p in rows))
    rows = [(c, p if p[c] == d else {k: v * (d // p[c]) for k, v in p.items()})
            for c, p in rows]
    pos = {c: i for i, (c, _) in enumerate(rows)}
    implied, touch = {}, {}  # k -> [(c_i, D v_i[k])], k -> [(j, p_j[k])]
    for j, (c, p) in enumerate(rows):
        for k, v in p.items():
            touch.setdefault(k, []).append((j, v))
            if k not in pos:
                implied.setdefault(k, []).append((c, v))
    # D w[k] = sum_i D v_i[k] w[c_i] at every implied column k
    watched = set(implied).union(c for terms in implied.values() for c, _ in terms)
    cols = pos.keys() | implied.keys()

    def escapes(w) -> bool:
        return not w.keys() <= cols or not watched.isdisjoint(w) and any(
            d * w.get(k, 0) != sum(x * w.get(c, 0) for c, x in terms)
            for k, terms in implied.items())

    M = [{} for _ in rows]
    for i, (_, pi) in enumerate(rows):
        acc: dict[int, dict] = {}
        for a, x in pi.items():
            for b, terms in L[a].items():
                for j, y in touch.get(b, ()):
                    row = acc.setdefault(j, {})
                    for k, c in terms:
                        row[k] = row.get(k, 0) + x * y * c
        for j in sorted(acc):
            prod = {k: v for k, v in acc[j].items() if v}
            if not prod:
                continue
            if escapes(prod):
                raise ValidationError(
                    f"subspace not closed: product of basis {i} and {j} escapes the span")
            M[i][j] = tuple([(pos[k], prod[k]) for k in sorted(prod) if k in pos])
    table = StructureTable._canonical(space, "lie", (d * d * s, M))
    return table, lambda w: None if escapes(w) else {pos[k]: v for k, v in w.items() if k in pos}


def construct_sl(m: int, n: int) -> LieSuperalgebra:
    """sl(m,n): the supertrace-zero subalgebra of gl(m,n), dim (m+n)^2 - 1.

    The basis is the canonical kernel basis of the supertrace row, whose
    pivot is e_11: every other matrix unit e_f in row-major order, with
    e_tt (t >= 2) replaced by e_tt - (sigma_t / sigma_1) e_11, sigma being
    +1 on unbarred and -1 on barred indices.  The coordinates of a
    supertrace-zero matrix are its entries at every column but e_11, so a
    bracket is the gl product read there, and h' is the e_tt - ... above.
    """
    if m < 0 or n < 0:
        raise BadParams("sl(m,n) needs m, n >= 0")
    if m + n < 2:
        raise BadParams("sl(m,n) needs m+n >= 2")
    gl = construct_gl(m, n)
    d, diag = m + n, gl.provenance["gl"]["diag_indices"]
    sigma = [1] * m + [-1] * n
    rows = [(f, {f: 1}) for f in range(1, d * d)]
    for t in range(1, d):
        rows[diag[t] - 1][1][0] = -sigma[t] * sigma[0]
    # e_tt sits at column t (d + 1), and its row is named Ht
    labels = tuple(gl.labels[c] if len(p) == 1 else f"H{c // (d + 1)}" for c, p in rows)
    space = SuperSpace(d * d - 1, gl.parity[1:], labels)
    table, _ = _unit_column_table(space, gl.table.integer_form(), rows)
    basis = [sparse_to_dense({k: Fraction(v) for k, v in p.items()}, d * d) for _, p in rows]
    hprime = CartanBasis([Element(unit_vec(d * d - 1, diag[t] - 1), 0) for t in range(1, d)],
                         tuple(tuple(basis[diag[t] - 1][k] for k in diag) for t in range(1, d)))
    prov = {"name": f"sl({m},{n})", "m": m, "n": n, "ambient_gl": gl, "embedding": basis,
            "cartan_hprime": hprime}
    if m == n:
        prov["z"] = gl.provenance["z"][1:]
        # h: diagonal matrices whose unbarred and barred entry sums both vanish
        sums = [{t: ONE for t in range(m)}, {t: ONE for t in range(m, m + n)}]
        hdiags = kernel_from_rows(sums, m + n)
        prov["cartan_h"] = CartanBasis(
            [Element(sparse_to_dense({diag[t] - 1: x for t, x in enumerate(hd) if t},
                                     d * d - 1), 0) for hd in hdiags], tuple(hdiags))
    # hprime and h are diagonal matrices, which commute
    return LieSuperalgebra(table, prov)


def construct_psl(n: int) -> LieSuperalgebra:
    """psl(n+1,n+1) = sl(n+1,n+1)/<z>; provenance["projection"] holds the
    projection from sl as sparse columns (superalg.quotient_central)."""
    if n < 1:
        raise BadParams("psl(n+1,n+1) needs n >= 1")
    sl = construct_sl(n + 1, n + 1)
    psl = quotient_central(sl, [sl.provenance["z"]])
    h_sl = sl.provenance["cartan_h"]
    helems = [Element(_project(psl, e.coords), 0) for e in h_sl.elements]
    psl.provenance.update(
        {
            "name": f"psl({n + 1},{n + 1})",
            "n": n,
            "ambient_sl": sl,
            "cartan_h": CartanBasis(helems, diag_mats=h_sl.diag_mats),
        }
    )
    # the images of commuting diagonal matrices commute
    return psl


def _project(psl: LieSuperalgebra, v: Vec) -> Vec:
    """Image in psl of coordinates v in sl(n+1,n+1)."""
    image = sparse_apply(psl.provenance["projection"], dense_to_sparse(v))
    return sparse_to_dense(image, psl.dim)


def matrix_unit_in_sl(sl: LieSuperalgebra, r: int, c: int) -> Vec:
    """Coordinates of the off-diagonal matrix unit e_rc in the sl basis: its
    entries at every column but e_11 (construct_sl)."""
    gl = sl.provenance["ambient_gl"]
    if r == c:
        raise ValidationError("matrix unit is not supertrace-free")
    return unit_vec(gl.dim - 1, gl.provenance["gl"]["units"].index((r, c)) - 1)


def matrix_unit_in_psl(psl: LieSuperalgebra, r: int, c: int) -> Vec:
    return _project(psl, matrix_unit_in_sl(psl.provenance["ambient_sl"], r, c))


def construct_sl_A(m: int, n: int, a: AssocSuperalgebra) -> LieSuperalgebra:
    """sl_{m,n}(A) = [gl(m,n) (x) A, gl(m,n) (x) A] as a standalone algebra.

    gl(m,n) (x) A has the basis e_u (x) a_s, by matrix unit then coefficient,
    and the supercommutator of the Koszul-signed tensor product
    (e_u (x) a_s)(e_v (x) a_t) = (-1)^{|a_s||e_v|} e_u e_v (x) a_s a_t, built
    once on A's integer form.  A bracket of two such units is one
    off-diagonal unit or is diagonal, and [e_ii (x) 1, e_il (x) a_s] =
    e_il (x) a_s.  So the derived algebra is every off-diagonal unit plus the
    span of the diagonal brackets [e_ij (x) a_s, e_ji (x) a_t], on the other
    columns, and the union of the two RREFs, by pivot, is its canonical
    basis; noncommutative coefficient algebras need no special case.
    Provenance records the embedded copy of sl(m,n) (x) 1.
    """
    if m < 1 or n < 1:
        raise BadParams("construct_sl_A needs m, n >= 1")
    sl = construct_sl(m, n)
    gl = sl.provenance["ambient_gl"]
    units, upar, na, apar = gl.provenance["gl"]["units"], gl.parity, a.dim, a.parity
    d, dim = m + n, len(units) * na
    sa, la = a.table.integer_form()
    assoc = [{} for _ in range(dim)]
    for u, urow in enumerate(matrix_unit_products(units)[1]):
        for v, ((w, _),) in urow.items():
            for s, row in enumerate(la):
                sgn = -1 if apar[s] & upar[v] else 1
                for t, st in row.items():
                    assoc[u * na + s][v * na + t] = tuple((w * na + r, sgn * c) for r, c in st)
    parity = tuple((upar[x // na] + apar[x % na]) % 2 for x in range(dim))
    L, sr = _symmetrized((sa, assoc), parity, -1)[1], SparseRref(dim)
    rows = [(x, {x: 1}) for x in range(dim) if units[x // na][0] != units[x // na][1]]
    for x in range(dim):
        i, j = units[x // na]
        for y in range(max(x, (j * d + i) * na), (j * d + i + 1) * na):
            if y in L[x]:  # [e_ij (x) a_s, e_ji (x) a_t], each pair once
                sr.insert(dict(L[x][y]))
    rows = sorted(rows + [(c, _integer_row(b)[1]) for c, b in zip(sr.pivots(), sr.basis())],
                  key=lambda r: r[0])
    alabels, extra = a.labels or tuple(f"a{s}" for s in range(na)), iter(range(1, dim))
    labels = tuple(f"{gl.labels[c // na]}@{alabels[c % na]}" if len(p) == 1
                   else f"D{next(extra)}" for c, p in rows)
    space = SuperSpace(len(rows), tuple(parity[c] for c, _ in rows), labels)
    table, read = _unit_column_table(space, (sa, L), rows)
    unit, images = dense_to_sparse(a.unit), []
    for b in sl.provenance["embedding"]:
        coords = read({u * na + s: c * cs for u, c in dense_to_sparse(b).items()
                       for s, cs in unit.items()})
        if coords is None:
            raise ValidationError("vector does not lie in the derived subalgebra")
        images.append(sparse_to_dense(coords, len(rows)))
    basis = [sparse_to_dense({k: Fraction(v, p[c]) for k, v in p.items()}, dim) for c, p in rows]
    return LieSuperalgebra(table, {
        "name": f"sl_{m},{n}({a.provenance.get('name', 'A')})", "m": m, "n": n,
        "basis_in_ambient": basis, "cover_sl": sl, "cover_images": images})


# ---------------------------------------------------------------------------
# coefficient superalgebras
# ---------------------------------------------------------------------------


def construct_assoc(kind: str, params=None) -> AssocSuperalgebra:
    """Unital associative coefficient superalgebras.

    kind in {"field", "dual_numbers", "grassmann", "matrix_super"};
    grassmann takes k >= 1, matrix_super takes (p, q).
    """
    if kind == "field":
        space = SuperSpace(1, (0,), ("1",))
        table = StructureTable(space, "assoc", {(0, 0): ((0, ONE),)}, unit=(ONE,))
        return AssocSuperalgebra(table, {"name": "F"})
    if kind == "dual_numbers":
        space = SuperSpace(2, (0, 0), ("1", "t"))
        entries = {
            (0, 0): ((0, ONE),),
            (0, 1): ((1, ONE),),
            (1, 0): ((1, ONE),),
        }
        table = StructureTable(space, "assoc", entries, unit=(ONE, ZERO))
        return AssocSuperalgebra(table, {"name": "F[t]/(t^2)"})
    if kind == "grassmann":
        k = int(params)
        if k < 1:
            raise BadParams("grassmann(k) needs k >= 1")
        dim = 1 << k
        parity = tuple(bin(s).count("1") % 2 for s in range(dim))
        labels = tuple("1" if s == 0 else "".join(f"x{i + 1}" for i in range(k) if s >> i & 1)
                       for s in range(dim))
        entries = {}
        for s in range(dim):
            for t in range(dim):
                if not s & t:
                    # sign of sorting the concatenation (s-generators, t-generators)
                    swaps = sum(bin(s >> (i + 1)).count("1") for i in range(k) if t >> i & 1)
                    entries[(s, t)] = ((s | t, -ONE if swaps % 2 else ONE),)
        unit = tuple(ONE if s == 0 else ZERO for s in range(dim))
        table = StructureTable(SuperSpace(dim, parity, labels), "assoc", entries, unit=unit)
        return AssocSuperalgebra(table, {"name": f"Grassmann({k})"})
    if kind == "matrix_super":
        p, q = params
        if p < 0 or q < 0:
            raise BadParams("matrix_super(p,q) needs p, q >= 0")
        if p + q < 1:
            raise BadParams("matrix_super(p,q) needs p+q >= 1")
        return _matrix_superalgebra(p, q)
    raise BadParams(f"unknown coefficient algebra kind {kind!r}")


def _matrix_superalgebra(p: int, q: int) -> AssocSuperalgebra:
    """M_{p,q}(F) on the basis (I, e_rc for (r,c) != (0,0))."""
    units, space = _matrix_units(p, q)
    d = p + q
    mat = AssocSuperalgebra(StructureTable._canonical(space, "assoc", matrix_unit_products(units)))
    ident = tuple(ONE if r == c else ZERO for r, c in units)
    basis = [ident] + [unit_vec(d * d, k) for k in range(1, d * d)]
    table, _ = restricted_table(mat, basis, "assoc", unit=unit_vec(d * d, 0),
                                labels=("1",) + space.labels[1:])
    return AssocSuperalgebra(table, {"name": f"M({p},{q})"})


# ---------------------------------------------------------------------------
# Jordan families
# ---------------------------------------------------------------------------


def construct_jordan(kind: str, n: int | None = None) -> JordanSuperalgebra:
    """Mplus(n), JP(n), JQ(n), or the four-element M11 presentation."""
    if kind == "M11":
        return _m11()
    if n is None or n < 1:
        raise BadParams(f"{kind} needs n >= 1")
    if kind == "Mplus":
        from .jordan import symmetrized

        alg = symmetrized(construct_assoc("matrix_super", (n, n)))
        alg.provenance["name"] = f"M({n},{n})+"
        return alg
    if kind == "JP":
        mats, labels = _jp_basis(n)
    elif kind == "JQ":
        mats, labels = _jq_basis(n)
    else:
        raise BadParams(f"unknown Jordan family {kind!r}")
    return _jordan_from_matrices(kind, n, mats, labels)


def _m11() -> JordanSuperalgebra:
    """M_{1,1}+ on the basis (e1, e2, x, y) with the normalized relations
    x.y = e1 - e2 = -y.x, e1.x = x/2 = e2.x, e1.y = y/2 = e2.y."""
    space = SuperSpace(4, (0, 0, 1, 1), ("e1", "e2", "x", "y"))
    e1 = (ONE, ZERO, ZERO, ZERO)
    e2 = (ZERO, ONE, ZERO, ZERO)
    entries = {
        (0, 0): ((0, ONE),),
        (1, 1): ((1, ONE),),
        (0, 2): ((2, HALF),),
        (2, 0): ((2, HALF),),
        (1, 2): ((2, HALF),),
        (2, 1): ((2, HALF),),
        (0, 3): ((3, HALF),),
        (3, 0): ((3, HALF),),
        (1, 3): ((3, HALF),),
        (3, 1): ((3, HALF),),
        (2, 3): ((0, ONE), (1, -ONE)),
        (3, 2): ((0, -ONE), (1, ONE)),
    }
    table = StructureTable(space, "jordan", entries, unit=(ONE, ONE, ZERO, ZERO))
    return JordanSuperalgebra(table, {"name": "M(1,1)+ basis e1,e2,x,y"})


def _jp_basis(n: int):
    """JP(n): blocks (a, b; c, a^t) in M_{n,n}+ with b skew and c symmetric."""
    mats, labels = [], []
    bar = lambda i: n + i
    for i in range(n):
        for j in range(n):
            mats.append({(i, j): ONE, (bar(j), bar(i)): ONE})
            labels.append(f"a({i + 1},{j + 1})")
    for i in range(n):
        for j in range(i + 1, n):
            mats.append({(i, bar(j)): ONE, (j, bar(i)): -ONE})
            labels.append(f"b({i + 1},{j + 1})")
    for i in range(n):
        for j in range(i, n):
            m = {(bar(i), j): ONE}
            if i != j:
                m[(bar(j), i)] = ONE
            mats.append(m)
            labels.append(f"c({i + 1},{j + 1})")
    return mats, labels


def _jq_basis(n: int):
    """JQ(n): blocks (a, b; b, a) in M_{n,n}+."""
    mats, labels = [], []
    bar = lambda i: n + i
    for i in range(n):
        for j in range(n):
            mats.append({(i, j): ONE, (bar(i), bar(j)): ONE})
            labels.append(f"a({i + 1},{j + 1})")
    for i in range(n):
        for j in range(n):
            mats.append({(i, bar(j)): ONE, (bar(i), j): ONE})
            labels.append(f"b({i + 1},{j + 1})")
    return mats, labels


def _jordan_from_matrices(kind, n, mats, labels) -> JordanSuperalgebra:
    """The span of explicit matrices in M_{n,n}+, whose a-part (the first
    n^2 basis matrices) holds the unit at a(i,i); restricted_table verifies
    closure under the symmetrized product and derives the parities."""
    units, space = _matrix_units(n, n)
    d = 2 * n
    ambient = JordanSuperalgebra(StructureTable._canonical(
        space, "jordan", _symmetrized(matrix_unit_products(units), space.parity, 1)))
    basis = [sparse_to_dense({r * d + c: v for (r, c), v in mat.items()}, d * d)
             for mat in mats]
    diag = {i * n + i for i in range(n)}
    unit = tuple(ONE if k in diag else ZERO for k in range(len(mats)))
    table, _ = restricted_table(ambient, basis, "jordan", unit=unit, labels=tuple(labels))
    return JordanSuperalgebra(table, {"name": f"{kind}({n})", "n": n})


def supertrace(l: LieSuperalgebra, x) -> Fraction:
    """Supertrace of a gl(m,n) element: unbarred diagonal sum minus barred."""
    info = l.provenance.get("gl")
    if info is None:
        raise WrongAlgebra("supertrace needs a gl(m,n) algebra")
    coords = x.coords if isinstance(x, Element) else vec(x)
    m = info["m"]
    out = ZERO
    for t, di in enumerate(info["diag_indices"]):
        out += coords[di] if t < m else -coords[di]
    return out
