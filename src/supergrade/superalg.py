"""Z2-graded vector spaces, structure tables and generic algebra operations.

A StructureTable is a sparse table of structure constants on a graded
basis; validators turn tables into typed algebra objects after checking
the relevant axioms exhaustively on basis tuples.  All operations are
pure functions of immutable inputs.

A table is stored once, over the Python integers: its integer form
(s, L), with L[i] = {j: ((k, s c_ij^k), ...)}.  The public constructor
checks rational entries and converts them once (_integer_table); tables
built inside the package are integer rows, canonical by construction, and
skip those checks (_canonical).  A Fraction is built only where a value
leaves the package: the entries view, products of elements, coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import _axioms
from .errors import (
    DimensionMismatch,
    MissingUnit,
    NotCentral,
    ValidationError,
)
from .exact import (
    ONE,
    SparseRref,
    Vec,
    dense_to_sparse,
    kernel_from_rows,
    sparse_to_dense,
    sparse_transpose,
    vec,
)

KINDS = ("lie", "assoc", "jordan")


class SuperSpace:
    """A finite-dimensional Z2-graded vector space with a fixed basis."""

    __slots__ = ("dim", "parity", "labels")

    def __init__(self, dim: int, parity: tuple, labels: tuple | None = None):
        self.dim, self.parity, self.labels = dim, parity, labels
        if len(self.parity) != self.dim:
            raise ValidationError("parity vector length != dim")
        if any(p not in (0, 1) for p in self.parity):
            raise ValidationError("parities must be 0 or 1")
        if self.labels is not None:
            if len(self.labels) != self.dim:
                raise ValidationError("labels length != dim")
            if len(set(self.labels)) != self.dim:
                raise ValidationError("labels must be distinct")

    @property
    def even_dim(self) -> int:
        return sum(1 for p in self.parity if p == 0)

    @property
    def odd_dim(self) -> int:
        return self.dim - self.even_dim


def homogeneous_parity(space: SuperSpace, row: dict) -> int | None:
    """Parity of a homogeneous sparse row, or None if mixed (0 counts as
    even); the support is the keys with a nonzero value."""
    seen = {space.parity[i] for i, c in row.items() if c}
    if len(seen) > 1:
        return None
    return seen.pop() if seen else 0


class Element:
    """Algebra element: coordinate vector plus optional homogeneous parity."""

    __slots__ = ("coords", "parity")

    def __init__(self, coords: tuple, parity: int | None = None):
        self.coords, self.parity = coords, parity


class ThreeGrading:
    """Sparse-row bases of the parts of a short grading L(-1) + L(0) + L(1)."""

    __slots__ = ("minus", "zero", "plus")

    def __init__(self, minus: list, zero: list, plus: list):
        self.minus, self.zero, self.plus = minus, zero, plus

    def dims(self, space: SuperSpace) -> tuple:
        out = []
        for part in (self.minus, self.zero, self.plus):
            ev = sum(1 for v in part if homogeneous_parity(space, v) == 0)
            out.append((ev, len(part) - ev))
        return tuple(out)


def _coords(x) -> tuple:
    if isinstance(x, Element):
        return x.coords
    return vec(x)


def _sparse_element(l, x) -> dict:
    """Nonzero coordinates {index: Fraction} of an element of l."""
    c = _coords(x)
    if len(c) != l.dim:
        raise DimensionMismatch("element length != algebra dimension")
    return dense_to_sparse(c)


def _dense_element(row: dict, n: int, parity: int | None = 0) -> Element:
    """The Element of a sparse row of an algebra of dimension n."""
    return Element(sparse_to_dense(row, n), parity)


def _integer_table(n: int, entries: dict) -> tuple[int, list[dict]]:
    """The integer form (s, L) of canonical entries {(i, j): ((k, c), ...)},
    each c an int or a Fraction: the one place where rationals become a
    table.  s is the lcm of the reduced denominators and s c is
    c.numerator * (s // c.denominator), exactly.  gcd(s, every s c) = 1:
    for each prime p, the power of p in s is its power in some
    c.denominator, and p then divides neither s // c.denominator nor the
    coprime c.numerator."""
    s = lcm(1, *{c.denominator for terms in entries.values() for _, c in terms})
    L = [{} for _ in range(n)]
    for i, j in sorted(entries):
        L[i][j] = tuple([(k, c.numerator * (s // c.denominator)) for k, c in entries[i, j]])
    return s, L


def _index(x, n: int) -> bool:
    return isinstance(x, int) and 0 <= x < n


class StructureTable:
    """Sparse structure constants c_{ij}^k on a graded basis, stored once,
    over the integers: the integer form (s, L) of integer_form.

    Every entry must be parity-homogeneous: c_{ij}^k != 0 forces
    parity(k) = parity(i) + parity(j) mod 2.  The optional unit is stored
    as a coordinate vector (it need not be a basis element).  The public
    constructor takes entries {(i, j): ((k, c), ...)}, each c an int or a
    Fraction, checks them and converts them once (_integer_table).
    """

    __slots__ = ("space", "kind", "unit", "_form")

    def __init__(self, space: SuperSpace, kind: str, entries: dict, unit: tuple | None = None):
        self.space, self.kind, self.unit = space, kind, unit
        if self.kind not in KINDS:
            raise ValidationError(f"unknown table kind {self.kind!r}")
        n = self.space.dim
        par = self.space.parity
        canon = {}
        for (i, j), terms in entries.items():
            if not (_index(i, n) and _index(j, n)):
                raise ValidationError(f"entry index ({i},{j}) out of range")
            cleaned = []
            seen = set()
            for k, c in terms:
                if not _index(k, n):
                    raise ValidationError(f"entry target {k} out of range")
                if k in seen:
                    raise ValidationError(f"duplicate entry ({i},{j},{k})")
                seen.add(k)
                if not isinstance(c, (int, Fraction)):
                    raise ValidationError(
                        f"entry ({i},{j},{k}) coefficient {c!r} is not an int or a Fraction")
                if c == 0:
                    continue
                if par[k] != (par[i] + par[j]) % 2:
                    raise ValidationError(
                        f"entry ({i},{j},{k}) violates parity homogeneity"
                    )
                cleaned.append((k, c))
            if cleaned:
                canon[(i, j)] = sorted(cleaned)
        self._form = _integer_table(n, canon)
        self._check_unit()

    @classmethod
    def _canonical(cls, space: SuperSpace, kind: str, form: tuple, unit=None, reduced=False):
        """A table on integer rows (t, M) that are canonical but for their
        common scale t > 0 (M[i] = {j: ((k, t c_ij^k), ...)}, row keys
        ascending, terms sorted by distinct k, nonzero, parity-homogeneous),
        brought to the stored scale by one gcd pass (skipped if reduced:
        gcd(t, every value) = 1); only the unit is checked.  Callers:
        parse_sca, which checks each line and is reduced (_integer_table),
        quotient_central and cohomology.uce, which copy canonical rows, and
        restricted_table and the builders of constructors and jordan, whose
        sorted products of homogeneous elements are homogeneous.  Tests
        compare the table with __init__ on every fixture, construction and
        TKK algebra, and at several scales t."""
        s, L = form
        g = 1 if reduced or s == 1 else gcd(
            s, *(v for row in L for terms in row.values() for _, v in terms))
        if g > 1:
            s, L = s // g, [{j: tuple([(k, v // g) for k, v in terms]) for j, terms in row.items()}
                            for row in L]
        table = cls.__new__(cls)
        table.space, table.kind, table.unit, table._form = space, kind, unit, (s, L)
        table._check_unit()
        return table

    def _check_unit(self):
        if self.unit is not None:
            u = vec(self.unit)
            if len(u) != self.space.dim:
                raise ValidationError("unit vector has wrong length")
            if any(c and p for c, p in zip(u, self.space.parity)):
                raise ValidationError("unit element must be even")
            self.unit = u

    @property
    def dim(self) -> int:
        return self.space.dim

    def integer_form(self) -> tuple[int, list[dict]]:
        """The stored table (s, L): s the lcm of the denominators of the
        structure constants and L[i] = {j: ((k, s * c_ij^k), ...)}, the keys
        of each row ascending and the terms sorted by k; gcd(s, every value
        of L) = 1.

        Every axiom identity and every cocycle or coboundary row is
        homogeneous in the structure constants: on L an identity vanishes
        exactly when it does on the table, and a set of rows has the same
        kernel and span.  Callers must not mutate L.
        """
        return self._form

    @property
    def entries(self) -> dict:
        """{(i, j): ((k, c_ij^k), ...)} in (i, j) order with Fraction
        coefficients: a view derived from the integer form on every read,
        for tests and library callers."""
        s, L = self._form
        return {(i, j): tuple([(k, Fraction(v, s)) for k, v in L[i][j]])
                for i in range(len(L)) for j in sorted(L[i])}

    def toral_columns(self) -> dict[int, dict]:
        """The toral basis elements, read off the integer form (scale s):
        the even b_h with ad b_h diagonal, that is [b_h, b_j] in Q b_j for
        every j, each mapped to its column {j: s * eigenvalue on b_j} of
        nonzeros.  A b_h with ad b_h = 0 counts, with the empty column.

        Two such elements commute ([b_h, b_g] lies on both b_g and b_h), so
        they span a toral subalgebra.
        """
        par = self.space.parity
        return {h: {j: t[0][1] for j, t in row.items()}
                for h, row in enumerate(self.integer_form()[1])
                if not par[h] and all(len(t) == 1 and t[0][0] == j for j, t in row.items())}

    def toral_weights(self) -> list[tuple]:
        """The joint integer weight of every basis element under the toral
        basis elements with ad b_h nonzero (toral_columns).

        The weights are read off the integer table, where every eigenvalue
        carries the same factor s; a sum of weights is zero exactly when it
        is zero unscaled.  With no such element every weight is ().  Callers:
        the weight-zero cochains of cohomology, center, and, through the
        same columns, roots.weight_decomposition, which reads the weight
        spaces of a Cartan supported on toral elements off them.
        """
        cols = [col for col in self.toral_columns().values() if col]
        return [tuple(col.get(j, 0) for col in cols) for j in range(self.space.dim)]


def table_product(table: StructureTable, x: Sequence, y: Sequence) -> Vec:
    """Bilinear extension of the structure table to coordinate vectors."""
    n = table.space.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("element length != algebra dimension")
    xs = [(i, c) for i, c in enumerate(x) if c != 0]
    ys = [(j, c) for j, c in enumerate(y) if c != 0]
    return sparse_to_dense(_product(table, xs, ys), n)


def _product(table: StructureTable, xs: Iterable, ys: Iterable) -> dict:
    """_sparse_product on the table's integer rows, the left factor divided
    by their scale s: the product itself."""
    s, L = table.integer_form()
    return _sparse_product(L, xs if s == 1 else [(i, Fraction(c, s)) for i, c in xs], ys)


def _sparse_product(L: list, xs: Iterable, ys: Iterable) -> dict:
    """Product of two vectors given as (index, nonzero coefficient) pairs on
    integer rows L at scale s (integer_form), as a sparse dict without zero
    values: s times the product; on integer coefficients it is an integer
    dict.  ys is iterated once per pair of xs, so it must be re-iterable (a
    list, tuple or dict items view)."""
    acc = {}
    for i, ci in xs:
        row = L[i]
        for j, cj in ys:
            terms = row.get(j)
            if not terms:
                continue
            cij = ci * cj
            for k, c in terms:
                v = acc.get(k, 0) + cij * c
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)
    return acc


class _AlgebraBase:
    """Shared behavior of validated algebra wrappers."""

    kind = None  # overridden

    def __init__(self, table: StructureTable, provenance: dict | None = None):
        if table.kind != self.kind:
            raise ValidationError(f"expected a {self.kind} table, got {table.kind}")
        self.table = table
        self.provenance = provenance or {}

    @property
    def space(self) -> SuperSpace:
        return self.table.space

    @property
    def dim(self) -> int:
        return self.table.space.dim

    @property
    def parity(self) -> tuple:
        return self.table.space.parity

    @property
    def labels(self):
        return self.table.space.labels

    def element(self, coords, parity="infer") -> Element:
        c = vec(coords)
        if len(c) != self.dim:
            raise DimensionMismatch("coordinate length != algebra dimension")
        row = dense_to_sparse(c)
        if parity == "infer":
            parity = homogeneous_parity(self.space, row)
        elif parity is not None:
            if {self.space.parity[i] for i in row} - {parity}:
                raise ValidationError(
                    "declared parity does not match the coordinate support"
                )
        return Element(c, parity)

    def product_vec(self, x: Sequence, y: Sequence) -> Vec:
        return table_product(self.table, x, y)

    def __repr__(self):
        name = self.provenance.get("name", self.kind)
        return f"<{type(self).__name__} {name} dim {self.space.even_dim}|{self.space.odd_dim}>"


class LieSuperalgebra(_AlgebraBase):
    kind = "lie"


class AssocSuperalgebra(_AlgebraBase):
    kind = "assoc"

    @property
    def unit(self) -> Vec:
        return self.table.unit


class JordanSuperalgebra(_AlgebraBase):
    kind = "jordan"

    @property
    def unit(self) -> Vec:
        return self.table.unit


def validate_lie(table: StructureTable, provenance=None) -> LieSuperalgebra:
    """Check super-anticommutativity and the super Jacobi identity on all
    basis triples; return the validated wrapper."""
    _axioms.check_super_anticommutativity(table)
    _axioms.check_super_jacobi(table)
    return LieSuperalgebra(table, provenance)


def validate_assoc(table: StructureTable, provenance=None) -> AssocSuperalgebra:
    """Check associativity on all basis triples plus the two-sided unit law."""
    if table.unit is None:
        raise MissingUnit("associative tables must carry a unit")
    _axioms.check_unit(table)
    _axioms.check_associativity(table)
    return AssocSuperalgebra(table, provenance)


def validate_jordan(table: StructureTable, provenance=None) -> JordanSuperalgebra:
    """Check the unit law, super-commutativity and the linearized super Jordan
    identity on every basis quadruple, summed on live triples only (_axioms)."""
    if table.unit is None:
        raise MissingUnit("jordan tables must carry a unit")
    _axioms.check_unit(table)
    _axioms.check_super_commutativity(table)
    _axioms.check_super_jordan(table)
    return JordanSuperalgebra(table, provenance)


def bracket(l: _AlgebraBase, x, y) -> Element:
    """Product of two elements under the algebra's structure table."""
    sx, sy = _sparse_element(l, x), _sparse_element(l, y)
    out = _product(l.table, sx.items(), sy.items())
    px = x.parity if isinstance(x, Element) else homogeneous_parity(l.space, sx)
    py = y.parity if isinstance(y, Element) else homogeneous_parity(l.space, sy)
    if not out:
        parity = 0
    elif px is not None and py is not None:
        parity = (px + py) % 2
    else:
        parity = homogeneous_parity(l.space, out)
    return _dense_element(out, l.dim, parity)


def ad_rows(l: _AlgebraBase, x: dict) -> list[dict]:
    """Sparse rows {column: Fraction} of y -> x * y for a sparse row x."""
    s, L = l.table.integer_form()
    cols = [_sparse_product(L, x.items(), [(j, ONE / s)]) for j in range(l.dim)]
    return sparse_transpose(cols, l.dim)


def center(l: LieSuperalgebra) -> list[dict]:
    """Canonical basis of {x : x * b_j = 0 for every basis element b_j}.

    On a super-anticommutative table, x * b_h = 0 gives b_h * x = 0 for
    every even b_h, so a central x lies in the span of the basis elements
    of toral weight zero (StructureTable.toral_weights): the system is
    solved on those unknowns alone, over the integer table.  Every other
    unknown is 0 in the kernel, so the canonical basis is the full system's.
    """
    L = l.table.integer_form()[1]
    cols = [i for i, w in enumerate(l.table.toral_weights()) if not any(w)]
    rows: dict[tuple, dict] = {}
    for t, i in enumerate(cols):
        for j, terms in L[i].items():
            for k, c in terms:
                rows.setdefault((j, k), {})[t] = c
    return [{cols[t]: c for t, c in z.items()}
            for z in kernel_from_rows(rows.values(), len(cols))]


def derived_rref(l: _AlgebraBase) -> SparseRref:
    """The RREF of span{[b_i, b_j]}, from the rows of the integer form (the
    span is the same, and so is its canonical basis): its rank tells whether
    l is perfect.  Inserting stops once the rank reaches dim: the span is
    then the whole space, whose canonical basis is the unit vectors whatever
    else is inserted."""
    sr = SparseRref(l.dim)
    for i, row in enumerate(l.table.integer_form()[1]):
        for j in sorted(row):
            if i <= j:  # the other order is proportional by (anti)commutativity
                sr.insert(dict(row[j]))
                if sr.rank == l.dim:
                    return sr
    return sr


def _first_noncentral(L: list, z: dict) -> int | None:
    """The smallest j with z * b_j != 0, or None, for a sparse row z on
    integer rows L: one pass over the rows of z's support, on the integer
    row d z (_integer_row)."""
    acc: dict[int, dict] = {}  # j -> d s (z * b_j)
    for i, c in _integer_row(z)[1].items():
        for j, terms in L[i].items():
            row = acc.setdefault(j, {})
            for k, v in terms:
                row[k] = row.get(k, 0) + c * v
    return min((j for j, row in acc.items() if any(row.values())), default=None)


def quotient_central(l: LieSuperalgebra, zbasis: Sequence) -> LieSuperalgebra:
    """Quotient by a central graded subspace, spanned by sparse rows.

    The complement is spanned by the basis vectors at non-pivot columns of
    the central subspace's RREF; centrality of every generator makes the
    induced bracket well-defined.  provenance["projection"] holds the
    projection as sparse columns {quotient index: Fraction}, one per basis
    element of l, for exact.sparse_apply: a kept b_j maps to itself and the
    b_j at a pivot to minus the rest of that pivot's RREF row.

    Centrality is checked on integer rows (_first_noncentral).  A kept row
    with no term at a pivot is copied with its indices moved; only the
    others are reduced, each to out / m at scale s m (SparseRref._reduce),
    so the quotient's rows are at scale s M, M the lcm of the m.
    """
    n = l.dim
    s, L = l.table.integer_form()
    zr = SparseRref(n)
    for z in zbasis:
        if homogeneous_parity(l.space, z) is None:
            raise NotCentral("central subspace generator is not parity-homogeneous")
        j = _first_noncentral(L, z)
        if j is not None:
            raise NotCentral(f"generator fails centrality against basis element {j}")
        zr.insert(z)
    rows = dict(zip(zr.pivots(), zr.basis()))
    keep = [c for c in range(n) if c not in rows]
    pos = {c: t for t, c in enumerate(keep)}

    new_space = SuperSpace(
        dim=len(keep),
        parity=tuple(l.parity[c] for c in keep),
        labels=tuple(l.labels[c] for c in keep) if l.labels else None,
    )
    # a fully reduced row is 0 at every pivot column, so its keys lie in keep
    Lq, scales = [{} for _ in keep], {}  # (a, b) -> m of a reduced row
    for a, ca in enumerate(keep):
        for cb, terms in L[ca].items():
            b = pos.get(cb)
            if b is None:
                continue
            if all(k in pos for k, _ in terms):
                Lq[a][b] = tuple([(pos[k], v) for k, v in terms])
            else:
                red, m = zr._reduce(dict(terms))
                if red:
                    Lq[a][b] = tuple(sorted((pos[k], v) for k, v in red.items()))
                    scales[a, b] = m
    big = lcm(1, *scales.values())
    if big != 1:
        Lq = [{b: tuple([(k, v * (big // scales.get((a, b), 1))) for k, v in terms])
               for b, terms in row.items()} for a, row in enumerate(Lq)]
    table = StructureTable._canonical(new_space, "lie", (s * big, Lq))
    proj = [
        {pos[k]: -c for k, c in rows[j].items() if k != j} if j in rows else {pos[j]: ONE}
        for j in range(n)
    ]
    prov = {"name": f"{l.provenance.get('name', 'L')}/center", "projection": proj}
    return LieSuperalgebra(table, prov)


def matrix_unit_products(units: Sequence[tuple]) -> tuple[int, list[dict]]:
    """The integer form (1, L), L[t1] = {t2: ((t, 1),)}, of the associative
    product e_ij e_kl = delta_jk e_il on the matrix units units =
    [(i, j), ...], which must contain every e_il that such a product
    reaches."""
    pos = {u: t for t, u in enumerate(units)}
    by_row = {}
    for t, (r, c) in enumerate(units):
        by_row.setdefault(r, []).append((t, c))
    return 1, [{t2: ((pos[r, c2], 1),) for t2, c2 in by_row.get(c, ())} for r, c in units]


def _symmetrized(form: tuple, parity: Sequence, sign: int) -> tuple[int, list[dict]]:
    """The integer form of xy + sign (-1)^{|x||y|} yx from the integer form
    (s, rows) of an associative product xy on a basis of the given
    parities: for sign -1 the supercommutator of A^- at scale s (gl(m,n)
    and gl(m,n) (x) A in constructors), for sign 1 the Jordan product of
    A+, half of it, at scale 2 s."""
    s, rows = form
    acc: dict[tuple, dict] = {}
    for i, row in enumerate(rows):
        for j, terms in row.items():
            swap = -sign if parity[i] & parity[j] else sign
            out = acc.setdefault((i, j), {})
            for k, c in terms:
                out[k] = out.get(k, 0) + c
            out = acc.setdefault((j, i), {})
            for k, c in terms:
                out[k] = out.get(k, 0) + swap * c
    L = [{} for _ in parity]
    for i, j in sorted(acc):
        terms = sorted(kv for kv in acc[i, j].items() if kv[1])
        if terms:
            L[i][j] = tuple(terms)
    return (s if sign < 0 else 2 * s), L


def _integer_row(v: dict) -> tuple[int, dict]:
    """(d, d v) for a sparse rational vector v, d the lcm of its
    denominators, with any zero value dropped."""
    d = lcm(1, *(c.denominator for c in v.values()))
    return d, {k: c.numerator * (d // c.denominator) for k, c in v.items() if c}


class SubspaceCoords:
    """Coordinate map of an ambient space onto a chosen subspace basis.

    Basis vector v_i is stored as the integer row d_i v_i, d_i the lcm of
    its denominators, augmented with e_{n+i}; the rows share one SparseRref
    whose pivots lie among the n ambient columns.  Reducing (w | 0) leaves
    (0 | -g) / scale exactly when w = sum_i c_i v_i, and then
    c_i = g_i d_i / scale: coordinates come out over the given basis with
    no change-of-basis matrix, and one Fraction per coordinate.
    """

    def __init__(self, basis: Sequence[dict], n: int):
        self.dim = len(basis)
        self._n = n
        self._sr = SparseRref(n + self.dim, npivot=n)
        self._dens = []  # d_i
        self._rows = []  # d_i v_i as (index, int) pairs
        for i, v in enumerate(basis):
            self._check(v)
            d, row = _integer_row(v)
            self._dens.append(d)
            self._rows.append(list(row.items()))
            row[n + i] = 1
            if self._sr.insert(row) is None:
                raise ValidationError("subalgebra basis is linearly dependent")

    def sparse_coords(self, ambient: dict, den: int = 1) -> dict | None:
        """Nonzero coordinates {i: c_i} of a sparse vector divided by den,
        or None if it lies outside the span."""
        g, scale = self._sr._reduce(ambient)
        n = self._n
        if any(c < n for c in g):
            return None
        dens, den = self._dens, den * scale
        return {c - n: Fraction(-x * dens[c - n], den) for c, x in g.items()}

    def coords(self, ambient: dict) -> dict | None:
        """Nonzero coordinates of a sparse row in the chosen basis, or None
        outside the span; an index outside range(n) raises DimensionMismatch."""
        self._check(ambient)
        return self.sparse_coords(ambient)

    def _check(self, row: dict):
        if not all(0 <= k < self._n for k in row.keys()):
            raise DimensionMismatch(f"vector index outside range({self._n})")


def restricted_table(
    l: _AlgebraBase, basis: Sequence[dict], kind: str | None = None, unit=None, labels=None
) -> tuple[StructureTable, SubspaceCoords]:
    """Structure table of a product-closed subspace on a basis of sparse rows.

    Raises ValidationError if the basis is linearly dependent, if the
    subspace is not closed under the product or if some basis vector is not
    parity-homogeneous.  The returned SubspaceCoords maps ambient vectors to
    coordinates in the given basis.

    The integer product of d_i v_i and d_j v_j on l's integer form (scale
    s) is d_i d_j s [v_i, v_j], and its coordinates are divided by that once
    each.  Products of homogeneous vectors have homogeneous coordinates over
    a homogeneous independent basis, so the entries are canonical and go
    through _integer_table.
    """
    conv = SubspaceCoords(basis, l.dim)
    parities = []
    for v in basis:
        p = homogeneous_parity(l.space, v)  # v != 0, as the basis is independent
        if p is None:
            raise ValidationError("subalgebra basis vector is not parity-homogeneous")
        parities.append(p)
    s, L = l.table.integer_form()
    rows, dens = conv._rows, conv._dens
    entries = {}
    for i, xs in enumerate(rows):
        for j, ys in enumerate(rows):
            prod = _sparse_product(L, xs, ys)
            if not prod:
                continue
            given = conv.sparse_coords(prod, dens[i] * dens[j] * s)
            if given is None:
                raise ValidationError(
                    f"subspace not closed: product of basis {i} and {j} escapes the span"
                )
            entries[(i, j)] = tuple(sorted(given.items()))
    space = SuperSpace(len(rows), tuple(parities), labels)
    form = _integer_table(len(rows), entries)
    return StructureTable._canonical(space, kind or l.kind, form, unit), conv
