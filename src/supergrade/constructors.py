"""Factories for the concrete algebras: gl(m,n), sl(m,n), psl(n+1,n+1),
coefficient superalgebras, sl_{m,n}(A), and the Jordan families.

Basis conventions are fixed here once:

* gl(m,n) uses matrix units e_ij ordered row-major over the index set
  I = (1..m, 1b..nb), unbarred before barred; parity(e_ij) = |i| + |j|.
* sl bases are the canonical RREF kernel of the supertrace functional.
* JP(n)/JQ(n) use explicit parameter-matrix bases: the a-part row-major,
  then the b-part upper triangle, then the c-part upper triangle.

Every matrix algebra starts from the matrix-unit product
superalg.matrix_unit_products: gl(m,n) is its super_symmetrized bracket,
M_{p,q}(F) its restricted_table on (I, e_rc), JP(n)/JQ(n) the
restricted_table of its symmetrized Jordan product on their basis matrices,
and tensor_lie_assoc symmetrizes its Koszul-signed tensor with A.

Constructors return trusted algebra wrappers; the test suite re-validates
every constructed table through the axiom validators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import BadParams, ValidationError, WrongAlgebra
from .exact import (
    Vec,
    ZERO,
    ONE,
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
    _sparse_element,
    _sparse_product,
    matrix_unit_products,
    quotient_central,
    restricted_table,
    super_symmetrized,
    tensor_lie_assoc,
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
        if _sparse_product(l.table.entries, x, y):
            raise ValidationError("Cartan elements must commute pairwise")


def _gl_index_labels(m: int, n: int) -> list[str]:
    return [str(i + 1) for i in range(m)] + [f"{i + 1}b" for i in range(n)]


def _matrix_units(p: int, q: int) -> tuple[list, SuperSpace]:
    """The matrix units e_rc of M_{p,q}(F), row-major, with their space:
    parity(e_rc) = |r| + |c| and labels E(r,c)."""
    d = p + q
    idx_par = [0] * p + [1] * q
    names = _gl_index_labels(p, q)
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
    entries = super_symmetrized(matrix_unit_products(units), space.parity, -1)
    table = StructureTable(space, "lie", entries)

    z = [ZERO] * (d * d)
    diag_indices = [t * d + t for t in range(d)]
    for di in diag_indices:
        z[di] = ONE
    prov = {
        "name": f"gl({m},{n})",
        "gl": {
            "m": m,
            "n": n,
            "units": units,
            "unit_parity": space.parity,
            "diag_indices": diag_indices,
        },
        "z": tuple(z),
    }
    return LieSuperalgebra(table, prov)


def _diag_vec_to_gl(glinfo, diag) -> Vec:
    d = glinfo["m"] + glinfo["n"]
    out = [ZERO] * (d * d)
    for t, a in enumerate(diag):
        out[glinfo["diag_indices"][t]] = Fraction(a)
    return tuple(out)


def _basis_labels(basis, ambient, prefix: str) -> tuple:
    """The ambient label of each basis vector that is an ambient basis
    vector, and prefix1, prefix2, ... for the others in order."""
    labels, extra = [], 0
    for b in basis:
        support = [(i, c) for i, c in enumerate(b) if c]
        if len(support) == 1 and support[0][1] == 1:
            labels.append(ambient.labels[support[0][0]])
        else:
            extra += 1
            labels.append(f"{prefix}{extra}")
    return tuple(labels)


def construct_sl(m: int, n: int) -> LieSuperalgebra:
    """sl(m,n): the supertrace-zero subalgebra of gl(m,n), dim (m+n)^2 - 1."""
    if m < 0 or n < 0:
        raise BadParams("sl(m,n) needs m, n >= 0")
    if m + n < 2:
        raise BadParams("sl(m,n) needs m+n >= 2")
    gl = construct_gl(m, n)
    info = gl.provenance["gl"]
    d = m + n
    str_row = [ZERO] * (d * d)
    for t in range(d):
        str_row[info["diag_indices"][t]] = ONE if t < m else -ONE
    basis = kernel_from_rows([dense_to_sparse(str_row)], d * d)
    table, conv = restricted_table(gl, basis, "lie", labels=_basis_labels(basis, gl, "H"))

    def to_sl(glvec) -> Vec:
        coords = conv.coords(glvec)
        if coords is None:
            raise ValidationError("vector is not supertrace-free")
        return coords

    # indices of sl basis vectors supported on the diagonal
    diag_positions = []
    diag_set = set(info["diag_indices"])
    for i, b in enumerate(basis):
        if all(c == 0 or idx in diag_set for idx, c in enumerate(b)):
            diag_positions.append(i)

    def diag_of(glvec) -> tuple:
        return tuple(glvec[info["diag_indices"][t]] for t in range(d))

    hprime = CartanBasis(
        elements=[Element(unit_vec(len(basis), i), 0) for i in diag_positions],
        diag_mats=tuple(diag_of(basis[i]) for i in diag_positions),
    )
    prov = {
        "name": f"sl({m},{n})",
        "m": m,
        "n": n,
        "ambient_gl": gl,
        "embedding": basis,
        "coords": conv,
        "cartan_hprime": hprime,
    }
    if m == n:
        prov["z"] = to_sl(gl.provenance["z"])
        # h: diagonal matrices whose unbarred and barred entry sums both vanish
        sums = [{t: ONE for t in range(m)}, {t: ONE for t in range(m, m + n)}]
        hdiags = kernel_from_rows(sums, m + n)
        helems = []
        for hd in hdiags:
            helems.append(Element(to_sl(_diag_vec_to_gl(info, hd)), 0))
        prov["cartan_h"] = CartanBasis(helems, diag_mats=tuple(hdiags))
    alg = LieSuperalgebra(table, prov)
    _check_cartan(alg, hprime)
    if m == n:
        _check_cartan(alg, prov["cartan_h"])
    return alg


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
    _check_cartan(psl, psl.provenance["cartan_h"])
    return psl


def _project(psl: LieSuperalgebra, v: Vec) -> Vec:
    """Image in psl of coordinates v in sl(n+1,n+1)."""
    image = sparse_apply(psl.provenance["projection"], dense_to_sparse(v))
    return sparse_to_dense(image, psl.dim)


def matrix_unit_in_sl(sl: LieSuperalgebra, r: int, c: int) -> Vec:
    """Coordinates of the off-diagonal matrix unit e_rc in the sl basis."""
    gl = sl.provenance["ambient_gl"]
    info = gl.provenance["gl"]
    t = info["units"].index((r, c))
    coords = sl.provenance["coords"].coords({t: ONE})
    if coords is None:
        raise ValidationError("matrix unit is not supertrace-free")
    return coords


def matrix_unit_in_psl(psl: LieSuperalgebra, r: int, c: int) -> Vec:
    return _project(psl, matrix_unit_in_sl(psl.provenance["ambient_sl"], r, c))


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
        labels = tuple(
            "1" if s == 0 else "".join(f"x{i + 1}" for i in range(k) if s >> i & 1)
            for s in range(dim)
        )
        entries = {}
        for s in range(dim):
            for t in range(dim):
                if s & t:
                    continue
                # sign of sorting the concatenation (s-generators, t-generators)
                sign = 1
                for i in range(k):
                    if t >> i & 1:
                        higher = s >> (i + 1)
                        if bin(higher).count("1") % 2:
                            sign = -sign
                entries[(s, t)] = ((s | t, Fraction(sign)),)
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
    mat = AssocSuperalgebra(StructureTable(space, "assoc", matrix_unit_products(units)))
    ident = tuple(ONE if r == c else ZERO for r, c in units)
    basis = [ident] + [unit_vec(d * d, k) for k in range(1, d * d)]
    table, _ = restricted_table(mat, basis, "assoc", unit=unit_vec(d * d, 0),
                                labels=("1",) + space.labels[1:])
    return AssocSuperalgebra(table, {"name": f"M({p},{q})"})


# ---------------------------------------------------------------------------
# sl_{m,n}(A)
# ---------------------------------------------------------------------------


def construct_sl_A(m: int, n: int, a: AssocSuperalgebra) -> LieSuperalgebra:
    """sl_{m,n}(A) = [gl(m,n) (x) A, gl(m,n) (x) A] as a standalone algebra.

    The derived subalgebra is computed generically, so noncommutative
    coefficient algebras need no special case.  Provenance records the
    embedded copy of sl(m,n) (x) 1 and its Cartan bases.
    """
    if m < 1 or n < 1:
        raise BadParams("construct_sl_A needs m, n >= 1")
    sl = construct_sl(m, n)
    gl = sl.provenance["ambient_gl"]
    tensor = tensor_lie_assoc(gl, a)
    from .superalg import derived_subalgebra

    dbasis = derived_subalgebra(tensor)
    table, conv = restricted_table(tensor, dbasis, "lie",
                                   labels=_basis_labels(dbasis, tensor, "D"))

    na = a.dim
    aunit = a.unit

    def tensor_with_unit(glvec) -> Vec:
        out = [ZERO] * tensor.dim
        for u, c in enumerate(glvec):
            if c != 0:
                for s, cs in enumerate(aunit):
                    if cs != 0:
                        out[u * na + s] = c * cs
        return tuple(out)

    def to_slA(tensor_vec) -> Vec:
        coords = conv.coords(tensor_vec)
        if coords is None:
            raise ValidationError("vector does not lie in the derived subalgebra")
        return coords

    cover_images = [to_slA(tensor_with_unit(b)) for b in sl.provenance["embedding"]]
    prov = {
        "name": f"sl_{m},{n}({a.provenance.get('name', 'A')})",
        "m": m,
        "n": n,
        "basis_in_ambient": dbasis,
        "cover_sl": sl,
        "cover_images": cover_images,
    }
    return LieSuperalgebra(table, prov)


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
    entries = super_symmetrized(matrix_unit_products(units), space.parity, 1, HALF)
    ambient = JordanSuperalgebra(StructureTable(space, "jordan", entries))
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
