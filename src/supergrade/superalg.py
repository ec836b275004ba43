"""Z2-graded vector spaces, structure tables and generic algebra operations.

A StructureTable is a sparse table of structure constants on a graded
basis; validators turn tables into typed algebra objects after checking
the relevant axioms exhaustively on basis tuples.  All operations are
pure functions of immutable inputs.

Structure constants are stored as Fraction, but tables are built and
restricted over Python integers (integer_form, super_symmetrized,
SubspaceCoords, restricted_table), with one Fraction per returned
coefficient.  Such tables, and parsed ones, are canonical by construction
and skip the entry checks of the public constructor (_canonical).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import _axioms
from .errors import (
    DimensionMismatch,
    MissingUnit,
    NotCentral,
    ValidationError,
    WrongAlgebra,
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


def homogeneous_parity(space: SuperSpace, coords: Sequence) -> int | None:
    """Parity of a homogeneous vector, or None if mixed (0 counts as even)."""
    seen = {space.parity[i] for i, c in enumerate(coords) if c}
    if len(seen) > 1:
        return None
    return seen.pop() if seen else 0


class Element:
    """Algebra element: coordinate vector plus optional homogeneous parity."""

    __slots__ = ("coords", "parity")

    def __init__(self, coords: tuple, parity: int | None = None):
        self.coords, self.parity = coords, parity


class ThreeGrading:
    """Bases of the parts of a short grading L(-1) + L(0) + L(1)."""

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


class StructureTable:
    """Sparse structure constants c_{ij}^k on a graded basis.

    entries maps (i, j) to a tuple of (k, coefficient) pairs sorted by k.
    Every entry must be parity-homogeneous: c_{ij}^k != 0 forces
    parity(k) = parity(i) + parity(j) mod 2.  The optional unit is stored
    as a coordinate vector (it need not be a basis element).
    """

    __slots__ = ("space", "kind", "entries", "unit", "_integer")

    def __init__(self, space: SuperSpace, kind: str, entries: dict, unit: tuple | None = None):
        self.space, self.kind, self.entries, self.unit = space, kind, entries, unit
        self._integer = None
        if self.kind not in KINDS:
            raise ValidationError(f"unknown table kind {self.kind!r}")
        n = self.space.dim
        par = self.space.parity
        canon = {}
        for (i, j), terms in self.entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"entry index ({i},{j}) out of range")
            cleaned = []
            seen = set()
            for k, c in terms:
                if not 0 <= k < n:
                    raise ValidationError(f"entry target {k} out of range")
                if k in seen:
                    raise ValidationError(f"duplicate entry ({i},{j},{k})")
                seen.add(k)
                c = c if type(c) is Fraction else Fraction(c)
                if c == 0:
                    continue
                if par[k] != (par[i] + par[j]) % 2:
                    raise ValidationError(
                        f"entry ({i},{j},{k}) violates parity homogeneity"
                    )
                cleaned.append((k, c))
            if cleaned:
                canon[(i, j)] = tuple(sorted(cleaned))
        self.entries = canon
        self._check_unit()

    @classmethod
    def _canonical(cls, space: SuperSpace, kind: str, entries: dict, unit=None):
        """A table on entries that are canonical already (keys and targets
        in range, terms sorted by distinct k, nonzero Fraction coefficients,
        parity-homogeneous); only the unit is checked.  Callers: parse_sca,
        which checks each line, and restricted_table, construct_gl,
        tensor_lie_assoc and jordan.tkk, whose sorted products of
        homogeneous elements are homogeneous.  Tests compare it with
        __init__ on every fixture, construction and TKK algebra."""
        table = cls.__new__(cls)
        table.space, table.kind, table.entries, table.unit = space, kind, entries, unit
        table._integer = None
        table._check_unit()
        return table

    def _check_unit(self):
        if self.unit is not None:
            u = vec(self.unit)
            if len(u) != self.space.dim:
                raise ValidationError("unit vector has wrong length")
            if homogeneous_parity(self.space, u) != 0:
                raise ValidationError("unit element must be even")
            self.unit = u

    @property
    def dim(self) -> int:
        return self.space.dim

    def integer_form(self) -> tuple[int, list[dict]]:
        """(s, L) with s the lcm of the denominators of the structure
        constants and L[i] = {j: ((k, s * c_ij^k), ...)} the table over the
        integers, in the tuple shape of entries.

        Every axiom identity and every cocycle or coboundary row is
        homogeneous in the structure constants: on L an identity vanishes
        exactly when it does on the table, and a set of rows has the same
        kernel and span.  Built on the first call and kept: a table's
        entries are not changed once it is built.  Callers must not mutate L.
        """
        if self._integer is None:
            s = lcm(1, *{c.denominator for terms in self.entries.values() for _, c in terms})
            L = [{} for _ in range(self.space.dim)]
            for (i, j), terms in self.entries.items():
                L[i][j] = tuple((k, c.numerator * (s // c.denominator)) for k, c in terms)
            self._integer = s, L
        return self._integer

    def integer_entries(self) -> tuple[int, dict]:
        """(s, {(i, j): ((k, s * c_ij^k), ...)}): the kept integer_form in
        the key shape of entries, for _sparse_product on integer rows."""
        s, L = self.integer_form()
        return s, {(i, j): terms for i, row in enumerate(L) for j, terms in row.items()}

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
    return sparse_to_dense(_sparse_product(table.entries, xs, ys), n)


def _sparse_product(ent: dict, xs: Iterable, ys: Iterable) -> dict:
    """Product of two vectors given as (index, nonzero coefficient) pairs,
    as a sparse dict without zero values; on integer entries and
    coefficients it is an integer dict.  ys is iterated once per pair of
    xs, so it must be re-iterable (a list, tuple or dict items view)."""
    acc = {}
    for i, ci in xs:
        for j, cj in ys:
            terms = ent.get((i, j))
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
        if parity == "infer":
            parity = homogeneous_parity(self.space, c)
        elif parity is not None:
            support = {self.space.parity[i] for i, x in enumerate(c) if x != 0}
            if support - {parity}:
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
    """Check super-commutativity, the unit law, and the fully linearized
    super Jordan identity on all homogeneous basis quadruples."""
    if table.unit is None:
        raise MissingUnit("jordan tables must carry a unit")
    _axioms.check_unit(table)
    _axioms.check_super_commutativity(table)
    _axioms.check_super_jordan(table)
    return JordanSuperalgebra(table, provenance)


def bracket(l: _AlgebraBase, x, y) -> Element:
    """Product of two elements under the algebra's structure table."""
    cx, cy = _coords(x), _coords(y)
    out = l.product_vec(cx, cy)
    px = x.parity if isinstance(x, Element) else homogeneous_parity(l.space, cx)
    py = y.parity if isinstance(y, Element) else homogeneous_parity(l.space, cy)
    if not any(out):
        parity = 0
    elif px is not None and py is not None:
        parity = (px + py) % 2
    else:
        parity = homogeneous_parity(l.space, out)
    return Element(out, parity)


def ad_rows(l: _AlgebraBase, x) -> list[dict]:
    """Sparse rows {column: Fraction} of y -> x * y in the algebra basis."""
    xs = [(i, c) for i, c in enumerate(_coords(x)) if c]
    cols = [_sparse_product(l.table.entries, xs, [(j, ONE)]) for j in range(l.dim)]
    return sparse_transpose(cols, l.dim)


def center(l: LieSuperalgebra) -> list[Vec]:
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
    return [sparse_to_dense({i: z[t] for t, i in enumerate(cols)}, l.dim)
            for z in kernel_from_rows(rows.values(), len(cols))]


def derived_subalgebra(l: _AlgebraBase) -> list[Vec]:
    """Canonical basis of span{[b_i, b_j]}, from the rows of the integer
    form (the span is the same, and so is its canonical basis).  Inserting
    stops once the rank reaches dim: the span is then the whole space,
    whose canonical basis is the unit vectors whatever else is inserted."""
    sr = SparseRref(l.dim)
    for i, row in enumerate(l.table.integer_form()[1]):
        for j in sorted(row):
            if i <= j:  # the other order is proportional by (anti)commutativity
                sr.insert(dict(row[j]))
                if sr.rank == l.dim:
                    return sr.basis_dense()
    return sr.basis_dense()


def quotient_central(l: LieSuperalgebra, zbasis: Sequence) -> LieSuperalgebra:
    """Quotient by a central graded subspace.

    The complement is spanned by the basis vectors at non-pivot columns of
    the central subspace's RREF; centrality of every generator makes the
    induced bracket well-defined.  provenance["projection"] holds the
    projection as sparse columns {quotient index: Fraction}, one per basis
    element of l, for exact.sparse_apply: a kept b_j maps to itself and the
    b_j at a pivot to minus the rest of that pivot's RREF row.
    """
    zvecs = [_coords(z) for z in zbasis]
    n = l.dim
    ent = l.table.entries
    zr = SparseRref(n)
    for z in zvecs:
        if homogeneous_parity(l.space, z) is None:
            raise NotCentral("central subspace generator is not parity-homogeneous")
        zs = [(i, c) for i, c in enumerate(z) if c]
        for j in range(n):
            if _sparse_product(ent, zs, [(j, ONE)]):
                raise NotCentral(f"generator fails centrality against basis element {j}")
        zr.insert(dict(zs))
    rows = dict(zip(zr.pivots(), zr.basis()))
    keep = [c for c in range(n) if c not in rows]
    pos = {c: t for t, c in enumerate(keep)}

    new_space = SuperSpace(
        dim=len(keep),
        parity=tuple(l.parity[c] for c in keep),
        labels=tuple(l.labels[c] for c in keep) if l.labels else None,
    )
    # a fully reduced row is 0 at every pivot column, so its keys lie in keep
    entries = {}
    for a, ca in enumerate(keep):
        for b, cb in enumerate(keep):
            terms = ent.get((ca, cb))
            if terms:
                red = zr.reduce(dict(terms))
                if red:
                    entries[(a, b)] = tuple(sorted((pos[k], c) for k, c in red.items()))
    table = StructureTable(new_space, "lie", entries)
    proj = [
        {pos[k]: -c for k, c in rows[j].items() if k != j} if j in rows else {pos[j]: ONE}
        for j in range(n)
    ]
    prov = {
        "name": f"{l.provenance.get('name', 'L')}/center",
        "projection": proj,
        "kept_columns": tuple(keep),
    }
    return LieSuperalgebra(table, prov)


def matrix_unit_products(units: Sequence[tuple]) -> dict:
    """Entries of the associative product e_ij e_kl = delta_jk e_il on the
    matrix units units = [(i, j), ...], which must contain every e_il that
    such a product reaches; the coefficients are the integer 1."""
    pos = {u: t for t, u in enumerate(units)}
    by_row = {}
    for t, (r, c) in enumerate(units):
        by_row.setdefault(r, []).append((t, c))
    return {
        (t1, t2): ((pos[(r1, c2)], 1),)
        for t1, (r1, c1) in enumerate(units)
        for t2, c2 in by_row.get(c1, ())
    }


def super_symmetrized(ent: dict, parity: Sequence, sign: int, scale: Fraction = ONE) -> dict:
    """Entries of x * y = scale (xy + sign (-1)^{|x||y|} yx) from the entries
    of an associative product xy on a basis of the given parities: sign -1
    gives the supercommutator of A^-, sign 1 with scale 1/2 the Jordan
    product of A+.  The coefficients of ent (int or Fraction) are summed
    over the integers, cleared by the lcm den of their denominators, and
    each nonzero sum becomes one Fraction, times scale / den; the entries
    come out canonical.
    """
    den = lcm(1, *{c.denominator for terms in ent.values() for _, c in terms})
    acc: dict[tuple, dict] = {}
    for (i, j), terms in ent.items():
        swap = -sign if parity[i] & parity[j] else sign
        ints = [(k, c.numerator * (den // c.denominator)) for k, c in terms]
        for key, f in (((i, j), 1), ((j, i), swap)):
            row = acc.setdefault(key, {})
            for k, c in ints:
                row[k] = row.get(k, 0) + f * c
    num, den = scale.numerator, scale.denominator * den
    return {key: tuple((k, Fraction(num * v, den)) for k, v in sorted(row.items()) if v)
            for key, row in sorted(acc.items()) if any(row.values())}


def tensor_lie_assoc(g0: LieSuperalgebra, a: AssocSuperalgebra) -> LieSuperalgebra:
    """gl(m,n) tensor A with the supercommutator bracket of M_{m,n}(F) (x) A.

    The basis is {e_ij (x) a_s} ordered by matrix unit then coefficient.
    The associative tensor product carries the Koszul sign:
    (e_u (x) a_s)(e_v (x) a_t) = (-1)^{|a_s||e_v|} e_u e_v (x) a_s a_t.
    """
    info = g0.provenance.get("gl")
    if info is None:
        raise WrongAlgebra("tensor_lie_assoc needs a gl(m,n) left factor")
    units = info["units"]  # (row, col) of each matrix unit, row-major
    unit_parity = info["unit_parity"]
    na = a.dim
    dim = len(units) * na
    apar = a.parity
    alabels = a.labels or tuple(f"a{s}" for s in range(na))
    space = SuperSpace(
        dim,
        tuple((unit_parity[u] + apar[s]) % 2 for u in range(len(units)) for s in range(na)),
        tuple(f"{g0.labels[u]}@{alabels[s]}" for u in range(len(units)) for s in range(na)),
    )

    # the tensor on A's integer form, scaled back by 1/sa once per constant
    sa, la = a.table.integer_form()
    assoc = {}
    for (u, v), uv in matrix_unit_products(units).items():
        for s, row in enumerate(la):
            sgn = -1 if apar[s] & unit_parity[v] else 1
            for t, st in row.items():
                assoc[(u * na + s, v * na + t)] = tuple(
                    (w * na + r, sgn * cw * c) for w, cw in uv for r, c in st
                )
    entries = super_symmetrized(assoc, space.parity, -1, Fraction(1, sa))
    table = StructureTable._canonical(space, "lie", entries)
    name = f"{g0.provenance.get('name', 'gl')}(x){a.provenance.get('name', 'A')}"
    return LieSuperalgebra(table, {"name": name})


def _integer_row(v: dict) -> tuple[int, dict]:
    """(d, d v) for a sparse rational vector v, d the lcm of its
    denominators."""
    d = lcm(1, *(c.denominator for c in v.values()))
    return d, {k: c.numerator * (d // c.denominator) for k, c in v.items()}


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

    def coords(self, ambient) -> Vec | None:
        """Coordinates in the chosen basis, or None if outside the span."""
        sparse = ambient if isinstance(ambient, dict) else dense_to_sparse(ambient)
        found = self.sparse_coords(sparse)
        return None if found is None else sparse_to_dense(found, self.dim)


def restricted_table(
    l: _AlgebraBase, basis: Sequence, kind: str | None = None, unit=None, labels=None
) -> tuple[StructureTable, SubspaceCoords]:
    """Structure table of a product-closed subspace on a given basis.

    Raises ValidationError if the basis is linearly dependent, if the
    subspace is not closed under the product or if some basis vector is not
    parity-homogeneous.  The returned SubspaceCoords maps ambient vectors to
    coordinates in the given basis.

    The integer product of d_i v_i and d_j v_j on l's integer form (scale
    s) is d_i d_j s [v_i, v_j], and its coordinates are divided by that once
    each.  Products of homogeneous vectors have homogeneous coordinates over
    a homogeneous independent basis, so the table is canonical.
    """
    dense = [_coords(b) for b in basis]
    if any(len(v) != l.dim for v in dense):
        raise DimensionMismatch("element length != algebra dimension")
    sparse = [dense_to_sparse(v) for v in dense]
    conv = SubspaceCoords(sparse, l.dim)
    par = l.space.parity
    parities = []
    for v in sparse:
        seen = {par[k] for k in v}  # v != 0, as the basis is independent
        if len(seen) > 1:
            raise ValidationError("subalgebra basis vector is not parity-homogeneous")
        parities.append(seen.pop())
    s, ient = l.table.integer_entries()
    rows, dens = conv._rows, conv._dens
    entries = {}
    for i, xs in enumerate(rows):
        for j, ys in enumerate(rows):
            prod = _sparse_product(ient, xs, ys)
            if not prod:
                continue
            given = conv.sparse_coords(prod, dens[i] * dens[j] * s)
            if given is None:
                raise ValidationError(
                    f"subspace not closed: product of basis {i} and {j} escapes the span"
                )
            entries[(i, j)] = tuple(sorted(given.items()))
    space = SuperSpace(len(rows), tuple(parities), labels)
    return StructureTable._canonical(space, kind or l.kind, entries, unit), conv
