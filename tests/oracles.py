"""Reference implementations the tests compare against or build on.

Matrix, rref, kernel_from_rref, kernel and solve_linear are the dense
Fraction elimination that the package replaced with SparseRref everywhere
(kernel_from_rows, augmented solves, subspace coordinates); Matrix extends
exact.Matrix, which the package no longer uses, with identity, zeros, row,
col, matmul, trace and copy.  FractionSparseRref is the Fraction-pivot incremental RREF that
supergrade.exact.SparseRref replaced with fraction-free integer
elimination; the property tests in test_exact.py require both to agree.
FractionSubspaceCoords and restricted_table are the Fraction subspace
coordinates and restricted table that superalg replaced with integer rows
and integer products; test_sparse_kernels.py requires both to agree.
pair_index_by_scan is cohomology._pair_index visiting every pair.
char_poly, rational_eigenvalues and ad_matrix are the dense eigenvalue
route that the sparse minimal-polynomial route replaced.
rational_roots_by_divisors is the rational-root theorem search that
exact.rational_roots replaced with Sturm bisection: it tries every divisor
of the end coefficients, which takes about sqrt(|coefficient|) steps.
poly_eval, poly_divmod and poly_monic are the Fraction polynomial
arithmetic it runs on; exact.min_poly takes its lcms without them.  d_operator is the
Fraction-matrix form of the TKK operator pair that jordan.tkk builds as
scaled integer rows.  complement_rows picks the canonical complement of
B^2 in Z^2 on the full cochain system, as cohomology.h2_representatives
did before it solved on weight-zero cochains.  span_closure,
subalgebra_from_generators, basis_element, all_components and associator
have no caller in the package.  derived_subalgebra_all_brackets inserts
every bracket, as superalg.derived_rref did before it stopped at
full rank.  condition3_by_vectors and
closure_by_vectors bracket the component and part vectors of a grading
check, as roots did before it rewrote every datum in its weight basis.
extension_from_quotient, _preimage and cover_kernel_check check that the
kernel of a central cover lies in the zero weight space and that every
root space maps isomorphically; no command runs them, and the acceptance
suite checks the paper's lemma on lifted root spaces through them.  They
read a CentralCover, which carries the base and the projection that
cohomology.CentralExtension does not store: uce_cover adds them to uce,
and kept_columns reads the kept basis elements off a quotient's
projection.  check_swap_by_fractions is the super-(anti)commutativity
check on the Fraction entries, as _axioms ran it before it compared the
integer form; quotient_central_by_reduction is superalg.quotient_central
reducing every kept entry and checking centrality with one Fraction
product per basis element, as it did before it copied what it keeps.
parse_sca_two_pass is sca.parse_sca as it was before it read the lines
in one pass and built the integer form with the table.  construct_sl and
construct_sl_A are the elimination path that constructors replaced with
closed forms: the canonical kernel of the supertrace row, the derived
subalgebra of the Fraction tensor table tensor_lie_assoc, restricted_table
on each and coordinates read through its SubspaceCoords, with _basis_labels
naming the basis; test_closed_forms.py requires both paths to agree.
fraction_product and super_symmetrized are the product of two sparse
vectors and the symmetrized product on Fraction entries {(i, j): terms},
as superalg ran them before a table stored only its integer rows.
assert_stored_form compares a table's stored integer form with the one the
checking constructor builds from its entries view, and with the one
StructureTable._canonical brings back from the form at other scales.
check_super_jordan_by_triples is _axioms.check_super_jordan as it was
before it visited only the live triples: every i <= j <= k, summing the
commutators term by term.  tkk_by_all_d_rows is the table of jordan.tkk as
it was built before tkk read its commutators from the Jordan check and
inserted each distinct D(a,b) row once: all n^2 rows, and a membership test
for every inner bracket, zero or not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from supergrade.cohomology import Cocycle2, uce
from supergrade.constructors import CartanBasis, construct_gl
from supergrade.errors import (
    AxiomViolation,
    DimensionMismatch,
    JacobiFailure,
    NonSplitSpectrum,
    NotCentral,
    NotThreeGraded,
    ParseError,
    ValidationError,
    WrongAlgebra,
)
from supergrade import _axioms, exact
from supergrade.sca import _INDEX, _index_error, _parse_rational
from supergrade.exact import (
    ONE,
    ZERO,
    SparseRref,
    Vec,
    dense_to_sparse,
    kernel_from_rows,
    poly_degree,
    poly_trim,
    primitive_integer_poly,
    rational_roots,
    sparse_apply,
    sparse_to_dense,
    sparse_transpose,
    sub_vec,
    unit_vec,
    vec,
)
from supergrade.roots import weight_decomposition
from supergrade import superalg
from supergrade.superalg import (
    Element,
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    _coords,
    _integer_row,
    _sparse_product,
    ad_rows,
    homogeneous_parity,
    matrix_unit_products,
    quotient_central,
)

TWO = Fraction(2)


RESCALES = (2, 3, 12)


def assert_stored_form(table) -> None:
    """table stores the integer form (s, L) that the checking StructureTable
    builds from its entries view (the same s, the same rows, keys in the
    same order), gcd(s, every value of L) is 1, and _canonical handed
    (t s, t L) stores that same form for every t in RESCALES."""
    def rows(form):
        return form[0], [list(row.items()) for row in form[1]]

    want = rows(StructureTable(table.space, table.kind, table.entries, table.unit).integer_form())
    s, L = table.integer_form()
    assert rows((s, L)) == want
    assert gcd(s, *(v for row in L for terms in row.values() for _, v in terms)) == 1
    for t in RESCALES:
        scaled = [{j: tuple((k, t * v) for k, v in terms) for j, terms in row.items()} for row in L]
        again = StructureTable._canonical(table.space, table.kind, (t * s, scaled), table.unit)
        assert rows(again.integer_form()) == want, t


def fraction_product(ent: dict, xs: Iterable, ys: Iterable) -> dict:
    """Product of two vectors given as (index, nonzero coefficient) pairs on
    Fraction entries {(i, j): ((k, c), ...)} (StructureTable.entries), as a
    sparse dict without zero values; ys must be re-iterable."""
    acc = {}
    for i, ci in xs:
        for j, cj in ys:
            for k, c in ent.get((i, j), ()):
                v = acc.get(k, 0) + ci * cj * c
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)
    return acc


def super_symmetrized(ent: dict, parity: Sequence, sign: int, scale: Fraction = ONE) -> dict:
    """Entries of x * y = scale (xy + sign (-1)^{|x||y|} yx) from the entries
    {(i, j): ((k, c), ...)} of an associative product xy on a basis of the
    given parities, summed over Fraction, in (i, j) order."""
    acc: dict[tuple, dict] = {}
    for (i, j), terms in ent.items():
        swap = -sign if parity[i] & parity[j] else sign
        for key, f in (((i, j), 1), ((j, i), swap)):
            row = acc.setdefault(key, {})
            for k, c in terms:
                row[k] = row.get(k, 0) + f * scale * c
    return {key: tuple((k, Fraction(v)) for k, v in sorted(row.items()) if v)
            for key, row in sorted(acc.items()) if any(row.values())}


class Matrix(exact.Matrix):
    """Dense row-major matrix over Fraction, with the dense operations."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.data = [[ZERO] * cols for _ in range(rows)]
        m.rows = rows
        m.cols = cols
        return m

    def row(self, i: int) -> Vec:
        return tuple(self.data[i])

    def col(self, j: int) -> Vec:
        return tuple(self.data[i][j] for i in range(self.rows))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        out = Matrix.zeros(self.rows, other.cols)
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, c in enumerate(row):
                if c == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    if brow[j] != 0:
                        orow[j] += c * brow[j]
        return out

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), ZERO)

    def copy(self) -> "Matrix":
        return Matrix(self.data)


def rref(m: exact.Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot column list.  rank = len(pivots)."""
    a = [row[:] for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = Matrix.__new__(Matrix)
    out.data = a
    out.rows = nrows
    out.cols = ncols
    return out, pivots


def kernel_from_rref(rdata: Sequence[Sequence], pivots: Sequence[int], ncols: int) -> list[Vec]:
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rdata[r][f]
        basis.append(tuple(v))
    return basis


def kernel(m: exact.Matrix) -> list[Vec]:
    """Canonical null-space basis (free variables set to 1 in column order)."""
    r, pivots = rref(m)
    return kernel_from_rref(r.data, pivots, m.cols)


def solve_linear(a: exact.Matrix, b: Sequence) -> Vec | None:
    """One particular solution of a x = b with free variables 0, or None."""
    if len(b) != a.rows:
        raise DimensionMismatch("rhs length != row count")
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(a.data)])
    r, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [ZERO] * a.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][a.cols]
    return tuple(x)


class FractionSparseRref:
    """Reduced row-echelon basis of a growing set of sparse rows {column:
    Fraction}, eliminated with Fraction pivots normalised to 1.  Columns >=
    npivot are carried through eliminations but never chosen as pivots."""

    def __init__(self, ncols: int, npivot: int | None = None):
        self.ncols = ncols
        self.npivot = ncols if npivot is None else npivot
        self._rows: dict[int, dict] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def reduce(self, row: dict) -> dict:
        out = dict(row)
        for c in [c for c in out if c in self._rows]:
            f = out.get(c)
            if not f:
                continue
            for k, v in self._rows[c].items():
                newval = out.get(k, ZERO) - f * v
                if newval:
                    out[k] = newval
                else:
                    out.pop(k, None)
        return out

    def _leading(self, row: dict) -> int | None:
        cols = [c for c in row if c < self.npivot]
        return min(cols) if cols else None

    def insert(self, row: dict) -> int | None:
        red = self.reduce(row)
        lead = self._leading(red)
        if lead is None:
            return None
        inv = ONE / red[lead]
        red = {k: v * inv for k, v in red.items()}
        for other in self._rows.values():
            f = other.get(lead)
            if f:
                for k, v in red.items():
                    newval = other.get(k, ZERO) - f * v
                    if newval:
                        other[k] = newval
                    else:
                        other.pop(k, None)
        self._rows[lead] = red
        return lead

    def basis(self) -> list[dict]:
        return [dict(self._rows[c]) for c in self.pivots()]

    def contains(self, row: dict) -> bool:
        return self._leading(self.reduce(row)) is None

    def coordinates(self, row: dict) -> list | None:
        out = dict(row)
        coeffs: dict = {}
        for c in [c for c in out if c in self._rows]:
            f = out.get(c)
            if not f:
                continue
            coeffs[c] = f
            for k, v in self._rows[c].items():
                newval = out.get(k, ZERO) - f * v
                if newval:
                    out[k] = newval
                else:
                    out.pop(k, None)
        if any(c < self.npivot for c in out):
            return None
        return [coeffs.get(c, ZERO) for c in self.pivots()]


def complement_rows(zbasis: list[dict], bbasis: list[dict], ncols: int) -> list[dict]:
    """The rows of zbasis, in order, that are independent of bbasis and of
    the rows kept before them."""
    sr = FractionSparseRref(ncols)
    for b in bbasis:
        sr.insert(b)
    return [z for z in zbasis if sr.insert(z) is not None]


class FractionSubspaceCoords:
    """Coordinates over a subspace basis from the Fraction rows (v_i | e_i)
    in one FractionSparseRref: reducing (w | 0) leaves (0 | -c) exactly when
    w = sum_i c_i v_i.  superalg.SubspaceCoords replaced it with integer
    rows d_i v_i."""

    def __init__(self, basis: Sequence[dict], n: int):
        self.dim = len(basis)
        self._n = n
        self._sr = FractionSparseRref(n + self.dim, npivot=n)
        for i, v in enumerate(basis):
            row = dict(v)
            row[n + i] = ONE
            if self._sr.insert(row) is None:
                raise ValidationError("subalgebra basis is linearly dependent")

    def sparse_coords(self, ambient: dict) -> dict | None:
        red = self._sr.reduce(ambient)
        if any(c < self._n for c in red):
            return None
        return {c - self._n: -x for c, x in red.items()}

    def coords(self, ambient) -> Vec | None:
        sparse = ambient if isinstance(ambient, dict) else dense_to_sparse(ambient)
        found = self.sparse_coords(sparse)
        return None if found is None else sparse_to_dense(found, self.dim)


def restricted_table(l, basis: Sequence, kind: str | None = None, unit=None, labels=None):
    """superalg.restricted_table in Fraction arithmetic: every product of
    two basis vectors is formed over Fraction and its coordinates read off
    FractionSubspaceCoords, and the checking StructureTable builds the
    table."""
    dense = [_coords(b) for b in basis]
    if any(len(v) != l.dim for v in dense):
        raise DimensionMismatch("element length != algebra dimension")
    vecs = [dense_to_sparse(v) for v in dense]
    conv = FractionSubspaceCoords(vecs, l.dim)
    parities = []
    for v in dense:
        p = homogeneous_parity(l.space, v)
        if p is None:
            raise ValidationError("subalgebra basis vector is not parity-homogeneous")
        parities.append(p)
    items = [list(v.items()) for v in vecs]
    entries, ent = {}, l.table.entries
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            given = conv.sparse_coords(fraction_product(ent, items[i], items[j]))
            if given is None:
                raise ValidationError(
                    f"subspace not closed: product of basis {i} and {j} escapes the span"
                )
            if given:
                entries[(i, j)] = tuple(sorted(given.items()))
    space = SuperSpace(len(vecs), tuple(parities), labels)
    return StructureTable(space, kind or l.kind, entries, unit=unit), conv


def span_closure(seed: Iterable[Sequence], product: Callable[[Vec, Vec], Vec]) -> list[Vec]:
    """Canonical basis of the smallest product-closed subspace containing seed.

    The product is any bilinear map returning vectors in the same ambient
    space; termination follows from finite ambient dimension.
    """
    seeds = [vec(s) for s in seed]
    if not seeds:
        return []
    sr = SparseRref(len(seeds[0]))
    elems: list[Vec] = []
    queue = list(seeds)
    while queue:
        cand = queue.pop()
        if sr.insert(dense_to_sparse(cand)) is None:
            continue
        for other in elems:
            queue.append(product(cand, other))
            queue.append(product(other, cand))
        queue.append(product(cand, cand))
        elems.append(cand)
    return sr.basis_dense()


def pair_index_by_scan(space: SuperSpace, parity: int, weights: list):
    """cohomology._pair_index visiting every pair i <= j, as it did before it
    read the pairs off the weight groups."""
    neg = [tuple(-x for x in w) for w in weights]
    pairs = []
    for i in range(space.dim):
        for j in range(i, space.dim):
            if (space.parity[i] + space.parity[j]) % 2 != parity or weights[j] != neg[i]:
                continue
            if i == j and space.parity[i] == 0:
                continue  # phi(x,x) = 0 for even x
            pairs.append((i, j))
    return pairs, {p: t for t, p in enumerate(pairs)}


def derived_subalgebra_all_brackets(l) -> list[Vec]:
    """Canonical basis of span{[b_i, b_j]}, every i <= j inserted."""
    sr = SparseRref(l.dim)
    for i, row in enumerate(l.table.integer_form()[1]):
        for j in sorted(row):
            if i <= j:
                sr.insert(dict(row[j]))
    return sr.basis_dense()


def subalgebra_from_generators(l, gens: Iterable) -> list[Vec]:
    """Canonical basis of the subalgebra generated by gens under the product."""
    seeds = [g.coords if isinstance(g, Element) else vec(g) for g in gens]
    return span_closure(seeds, l.product_vec)


def char_poly(m: Matrix) -> list:
    """Characteristic polynomial via the Faddeev-LeVerrier recurrence."""
    n = m.rows
    if n != m.cols:
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = m.copy()
    for k in range(1, n + 1):
        ck = mk.trace() / k
        coeffs[n - k] = -ck
        if k == n:
            break
        for i in range(n):
            mk.data[i][i] -= ck
        mk = m.matmul(mk)
    return coeffs


def rational_eigenvalues(m: Matrix) -> list[tuple[Fraction, int]]:
    """(eigenvalue, algebraic multiplicity) pairs sorted by eigenvalue;
    NonSplitSpectrum if the characteristic polynomial has an irrational
    root."""
    roots, cofactor = rational_roots(char_poly(m))
    if poly_degree(cofactor) > 0:
        raise NonSplitSpectrum(
            f"irrational eigenvalues: characteristic polynomial has a degree-"
            f"{poly_degree(cofactor)} factor without rational roots"
        )
    return roots


def poly_eval(p: Sequence, x) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(p: Sequence, q: Sequence) -> tuple[list, list]:
    q = list(q)
    poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [ZERO] * max(len(rem) - len(q) + 1, 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and poly_trim(rem):
        d = len(rem) - 1
        if d < dq:
            break
        c = rem[-1] / lead
        quot[d - dq] = c
        for i in range(len(q)):
            rem[d - dq + i] -= c * q[i]
        poly_trim(rem)
    return poly_trim(quot), rem


def poly_monic(p: Sequence) -> list:
    p = poly_trim(list(p))
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots_by_divisors(p: Sequence) -> tuple[list[tuple[Fraction, int]], list]:
    """exact.rational_roots by the rational-root theorem: every num/den with
    num dividing the constant and den the leading coefficient of the
    primitive integer form is tried."""
    work = poly_monic(p)
    if not work:
        raise ZeroDivisionError("zero polynomial has no well-defined roots")
    roots: list[tuple[Fraction, int]] = []
    mult0 = 0
    while len(work) > 1 and work[0] == 0:
        work = work[1:]
        mult0 += 1
    if mult0:
        roots.append((ZERO, mult0))
    ints = primitive_integer_poly(work)
    candidates: set[Fraction] = set()
    if len(ints) > 1:
        for num in _int_divisors(ints[0]):
            for den in _int_divisors(ints[-1]):
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        mult = 0
        while len(work) > 1 and poly_eval(work, cand) == 0:
            work, rem = poly_divmod(work, [-cand, ONE])
            assert not rem
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work


def ad_matrix(l, x) -> Matrix:
    """Matrix of y -> x * y in the algebra basis."""
    return Matrix([sparse_to_dense(row, l.dim) for row in ad_rows(l, x)])


def basis_element(l, i: int) -> Element:
    return Element(unit_vec(l.dim, i), l.parity[i])


def all_components(datum) -> list:
    return [datum.zero_component] + datum.components


def associator(j, a, b, c) -> Vec:
    """(a.b).c - a.(b.c)."""
    ca, cb, cc = _coords(a), _coords(b), _coords(c)
    return sub_vec(
        j.product_vec(j.product_vec(ca, cb), cc),
        j.product_vec(ca, j.product_vec(cb, cc)),
    )


def d_operator(j, a: Vec, b: Vec, pa: int, pb: int):
    """The TKK operator pair D(a,b) as Fraction matrices: (action on T(1),
    action on T(-1)).  The products run on sparse Fraction vectors."""
    n = j.dim
    sgn = -1 if pa and pb else 1

    def mul(x, y):
        return superalg._product(j.table, x.items(), y.items())

    a, b = dense_to_sparse(a), dense_to_sparse(b)
    ab = mul(a, b)
    plus_cols, minus_cols = [], []
    for t in range(n):
        c = {t: ONE}
        first, second, third = mul(ab, c), mul(a, mul(b, c)), mul(b, mul(a, c))
        plus, minus = [ZERO] * n, [ZERO] * n
        for r in first.keys() | second.keys() | third.keys():
            f, rest = first.get(r, ZERO), second.get(r, ZERO) - sgn * third.get(r, ZERO)
            plus[r], minus[r] = TWO * (f + rest), TWO * (rest - f)
        plus_cols.append(tuple(plus))
        minus_cols.append(tuple(minus))
    return Matrix.from_cols(plus_cols), Matrix.from_cols(minus_cols)


class CentralCover:
    """A central extension together with the data the cover checks read:
    its base and the projection onto it, as sparse columns {base index:
    Fraction}, one per basis element of extended."""

    __slots__ = ("base", "cocycles", "extended", "projection")

    def __init__(self, base, cocycles: list, extended, projection: list[dict]):
        self.base, self.cocycles = base, cocycles
        self.extended, self.projection = extended, projection


def uce_cover(l: LieSuperalgebra) -> CentralCover:
    """uce(l) as a cover of l: the extension keeps l's basis first, so the
    projection is an identity column per basis element of l and an empty
    one per added central direction."""
    ext = uce(l)
    proj = [{j: ONE} for j in range(l.dim)] + [{} for _ in ext.cocycles]
    return CentralCover(l, ext.cocycles, ext.extended, proj)


def kept_columns(projection: list[dict], dim: int) -> list[int]:
    """The basis elements of l that quotient_central keeps, read off its
    projection: kept column a maps to {a: 1}.  A pivot column can map to
    {a: 1} too, when its RREF row is b_p - b_c for the kept c at a, but
    c comes after p, so kept column a is the last one mapping to {a: 1}."""
    last = {}
    for j, col in enumerate(projection):
        if len(col) == 1:
            (a, c), = col.items()
            if c == 1:
                last[a] = j
    return [last[a] for a in range(dim)]


def extension_from_quotient(l: LieSuperalgebra, zbasis) -> CentralCover:
    """Package an existing central quotient L -> L/<z> as a CentralCover.

    The base keeps the basis elements at the non-pivot columns of z's RREF,
    so a lifted bracket [b_a, b_b] minus the lift of its image lies in <z>
    and has at the pivots the entries of [b_a, b_b] itself (the lift is 0
    there).  The RREF rows are 1 at their own pivot and 0 at the others, so
    cocycle t is the coefficient of [b_a, b_b] at pivot t.  z is graded, so
    each RREF row is homogeneous, of the parity of its pivot."""
    base = quotient_central(l, zbasis)
    proj = base.provenance["projection"]
    pos = {c: a for a, c in enumerate(kept_columns(proj, base.dim))}
    slot = {c: t for t, c in enumerate(c for c in range(l.dim) if c not in pos)}
    forms = [{} for _ in slot]
    for (i, j), terms in l.table.entries.items():
        if i in pos and j in pos:
            for m, c in terms:
                if m in slot:
                    forms[slot[m]][(pos[i], pos[j])] = c
    cocycles = [Cocycle2(l.parity[p], form) for p, form in zip(slot, forms)]
    return CentralCover(base, cocycles, l, proj)


class CoverKernelReport:
    __slots__ = ("passed", "kernel_dim", "details")

    def __init__(self, passed: bool, kernel_dim: int, details: list):
        self.passed, self.kernel_dim, self.details = passed, kernel_dim, details


def _preimage(rows: list[dict], ncols: int, b) -> tuple | None:
    """The solution of A x = b with free variables 0, for A given by its
    sparse rows, or None if there is none.  b is an augmented column that
    is never a pivot, so x is b's entry in the RREF row of each pivot."""
    if len(b) != len(rows):
        raise DimensionMismatch("rhs length != row count")
    sr = SparseRref(ncols + 1, npivot=ncols)
    for row, c in zip(rows, b):
        aug = {**row, ncols: c}
        if sr.insert(aug) is None and sr.reduce(aug):
            return None
    x = [ZERO] * ncols
    for p, r in zip(sr.pivots(), sr.basis()):
        x[p] = r.get(ncols, ZERO)
    return tuple(x)


def cover_kernel_check(ext: CentralCover, cartan: CartanBasis) -> CoverKernelReport:
    """Verify ker(pi) lies in the zero weight space of the extension and pi
    restricts to a linear isomorphism on every nonzero root space."""
    base, big, proj = ext.base, ext.extended, ext.projection
    prows = sparse_transpose(proj, base.dim)
    lifted = []
    for h in cartan.elements:
        lift = _preimage(prows, big.dim, h.coords)
        if lift is None:
            raise ValidationError("Cartan element has no preimage under the projection")
        lifted.append(Element(lift, 0))
    lifted_cartan = CartanBasis(lifted, diag_mats=cartan.diag_mats)
    datum_big = weight_decomposition(big, lifted_cartan)
    datum_base = weight_decomposition(base, cartan)

    zero_sr = SparseRref(big.dim)
    for v in datum_big.zero_component.basis:
        zero_sr.insert(dense_to_sparse(v))
    kern = kernel_from_rows(prows, big.dim)
    kernel_in_zero = all(zero_sr.contains(dense_to_sparse(v)) for v in kern)

    per_root = True
    details = []
    for comp in datum_base.components:
        big_comp = datum_big.component(comp.weight)
        ok = big_comp is not None and big_comp.dim == comp.dim
        if ok:
            base_sr = SparseRref(base.dim)
            for v in comp.basis:
                base_sr.insert(dense_to_sparse(v))
            rank_sr = SparseRref(base.dim)
            for v in big_comp.basis:
                img = sparse_apply(proj, dense_to_sparse(v))
                if not base_sr.contains(img):
                    ok = False
                    break
                rank_sr.insert(img)
            ok = ok and rank_sr.rank == comp.dim
        per_root = per_root and ok
        details.append({"weight": comp.weight, "dim": comp.dim, "iso": ok})
    extra = [c.weight for c in datum_big.components if datum_base.component(c.weight) is None]
    per_root = per_root and not extra
    return CoverKernelReport(kernel_in_zero and per_root, len(kern), details)


def condition3_by_vectors(l, datum) -> dict:
    """roots._condition3 bracketing the component bases as vectors, in both
    orders, with the zero component as a span."""
    n = l.dim
    span = SparseRref(n)
    ent = l.table.entries
    sparse = {c.weight: [dense_to_sparse(v).items() for v in c.basis] for c in datum.components}
    for wt, vecs in sparse.items():
        for vb in sparse.get(tuple(-x for x in wt), ()):
            for va in vecs:
                span.insert(fraction_product(ent, va, vb))
    zero_sr = SparseRref(n)
    for v in datum.zero_component.basis:
        zero_sr.insert(dense_to_sparse(v))
    deficit = [v for v in datum.zero_component.basis if not span.contains(dense_to_sparse(v))]
    leak = any(not zero_sr.contains(r) for r in span.basis())
    return {
        "passed": not deficit and not leak,
        "zero_component_dim": datum.zero_component.dim,
        "bracket_span_dim": span.rank,
        "deficit_count": len(deficit),
    }


def closure_by_vectors(l, parts: dict) -> tuple | None:
    """roots._closure multiplying the part vectors as integer rows d v over
    the integer table (scale s): a product is d d' s [v, v'], zero and
    inside a span exactly when [v, v'] is."""
    n = l.dim
    rows_l = l.table.integer_form()[1]
    rows = {k: [_integer_row(dense_to_sparse(v))[1] for v in parts[k]] for k in (-1, 0, 1)}
    spans = {}
    for k in (-1, 0, 1):
        sr = spans[k] = SparseRref(n)
        for v in rows[k]:
            sr.insert(v)
    if sum(s.rank for s in spans.values()) != n:
        raise NotThreeGraded("parts do not sum to the whole algebra")
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for va in rows[a]:
                for vb in rows[b]:
                    prod = _sparse_product(rows_l, va.items(), vb.items())
                    if prod and (abs(a + b) > 1 or not spans[a + b].contains(prod)):
                        return a, b
    return None


def check_swap_by_fractions(table, axiom: str, flip: int) -> None:
    """_axioms._check_swap on the Fraction entries, visiting the pairs in
    (i, j) order: c_{ij}^k == flip * (-1)^{|i||j|} c_{ji}^k for all i <= j."""
    par = table.space.parity
    ent = table.entries
    for i, j in sorted({(i, j) if i <= j else (j, i) for i, j in ent}):
        lhs = ent.get((i, j), ())
        rhs = ent.get((j, i), ())
        s = flip * (-1 if par[i] & par[j] else 1)
        if lhs == (rhs if s == 1 else tuple((k, -c) for k, c in rhs)):
            continue
        lhs, rhs = dict(lhs), dict(rhs)
        for k in sorted(lhs.keys() | rhs.keys()):
            if lhs.get(k, 0) != s * rhs.get(k, 0):
                raise AxiomViolation(axiom, (i, j, k))


def check_super_jordan_by_triples(table) -> None:
    """_axioms.check_super_jordan on every triple i <= j <= k: the cyclic
    terms (-1)^{|a||z|} sum_m c_ab^m [L_m, L_z] added up entry by entry,
    raising at the first triple with a nonzero column."""
    n = table.space.dim
    par = table.space.parity
    _, mults = table.integer_form()
    ops = _axioms._operators(mults, par)
    comms = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc = {}
                for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                    s = _axioms._sign(par[a], par[z])
                    for m, c in mults[a].get(b, ()):
                        op = comms.get((m, z))
                        if op is None:
                            op = comms[m, z] = _axioms._bracket(ops[m], ops[z])
                        for key, v in op.items():
                            acc[key] = acc.get(key, 0) + s * c * v
                w = _axioms._first_column(acc, n)
                if w is not None:
                    raise AxiomViolation("super_jordan", (i, j, k, w))


def tkk_by_all_d_rows(j) -> StructureTable:
    """The table of jordan.tkk(j) as it was built before tkk shared the
    commutators of the Jordan check and deduplicated its rows: every one of
    the n^2 rows D(b_a, b_b) inserted and read, the [L_a, L_b] computed here,
    every [s, t] checked for membership, zero or not."""
    from math import lcm

    from supergrade.jordan import _pair_parity

    n, nn, par = j.dim, j.dim * j.dim, j.parity
    den_j, mults = j.table.integer_form()
    scale = den_j * den_j
    ops = _axioms._operators(mults, par)

    def d_row(a, b, rest):
        first = {}
        for m, c in mults[a].get(b, ()):
            for k, v in ops[m][0].items():
                first[k] = first.get(k, 0) + c * v
        row = {}
        for k in first.keys() | rest.keys():
            f, g = first.get(k, 0), rest.get(k, 0)
            if f + g:
                row[k] = 2 * (f + g)
            if g - f:
                row[nn + k] = 2 * (g - f)
        return row

    d_rows = {}
    for a in range(n):
        for b in range(a, n):
            rest = _axioms._bracket(ops[a], ops[b])
            d_rows[a, b] = d_row(a, b, rest)
            if a != b:
                sgn = -1 if par[a] and par[b] else 1
                d_rows[b, a] = d_row(b, a, {k: -sgn * v for k, v in rest.items()})
    sr = SparseRref(2 * nn)
    for row in d_rows.values():
        sr.insert(row)
    inner_parity = [_pair_parity(row, j) for row in sr.basis()]
    n0 = len(inner_parity)
    dim, off0, off_inner, off1 = n + n0 + n, 0, n, n + n0
    jl = j.labels or tuple(f"j{t + 1}" for t in range(n))
    labels = tuple(f"{s}~" for s in jl) + tuple(f"D{t + 1}" for t in range(n0)) + jl
    space = SuperSpace(dim, tuple(par) + tuple(inner_parity) + tuple(par), labels)
    pos = {p: t for t, p in enumerate(sr.pivots())}
    inner_ops = [_axioms._operator(sr._rows[p], n, q) for p, q in zip(pos, inner_parity)]
    dens = [sr._rows[p][p] for p in pos]
    big = scale * lcm(*dens) ** 2
    rows = [{} for _ in range(dim)]

    def put(i, k, terms, negate=False):
        if terms:
            rows[i][k] = tuple([(t, -c) for t, c in terms] if negate else terms)

    def inner_terms(row, den):
        return [(off_inner + pos[p], row[p] * big // den)
                for p in sorted(row.keys() & pos.keys())]

    for i in range(n):
        for k in range(n):
            terms = inner_terms(d_rows[i, k], scale)
            put(off1 + i, off0 + k, terms)
            put(off0 + k, off1 + i, terms, not (par[i] and par[k]))
    for t, (row, *_) in enumerate(inner_ops):
        cols = {}
        for idx in sorted(row):
            q, i = divmod(idx, n)
            off = off1 if q < n else off0
            cols.setdefault((off, i), []).append((off + q % n, row[idx] * big // dens[t]))
        for (off, i), terms in cols.items():
            put(off_inner + t, off + i, terms)
            put(off + i, off_inner + t, terms, not (inner_parity[t] and par[i]))
    for t1 in range(n0):
        for t2 in range(t1, n0):
            row = _axioms._bracket(inner_ops[t1], inner_ops[t2])
            if not sr.contains(row):
                raise JacobiFailure(
                    f"supercommutator of inner operators {t1},{t2} escaped the inner span")
            terms = inner_terms(row, dens[t1] * dens[t2])
            put(off_inner + t1, off_inner + t2, terms)
            if t2 != t1:
                put(off_inner + t2, off_inner + t1, terms,
                    not (inner_parity[t1] and inner_parity[t2]))
    return StructureTable._canonical(space, "lie", (big, [dict(sorted(r.items())) for r in rows]))


def quotient_central_by_reduction(l: LieSuperalgebra, zbasis: Sequence) -> LieSuperalgebra:
    """superalg.quotient_central checking centrality with one Fraction
    product per basis element and reducing every kept entry against the
    center's RREF, through the checking StructureTable constructor."""
    zvecs = [_coords(z) for z in zbasis]
    n = l.dim
    ent = l.table.entries
    zr = SparseRref(n)
    for z in zvecs:
        if homogeneous_parity(l.space, z) is None:
            raise NotCentral("central subspace generator is not parity-homogeneous")
        zs = [(i, c) for i, c in enumerate(z) if c]
        for j in range(n):
            if fraction_product(ent, zs, [(j, ONE)]):
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
    return LieSuperalgebra(table, {"name": f"{l.provenance.get('name', 'L')}/center",
                                   "projection": proj})


def parse_sca_two_pass(text: str) -> StructureTable:
    """sca.parse_sca as it read a document before it parsed in one pass:
    the lines with content first, then each in turn, then the parity of
    every entry; the table gets no integer form."""
    lines = text.split("\n")
    fields = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            fields.append((lineno, stripped.split()))

    if not fields:
        raise ParseError("empty document")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(fields):
            raise ParseError("unexpected end of document", fields[-1][0])
        item = fields[pos]
        pos += 1
        return item

    lineno, tok = take()
    if tok != ["SCA/1"]:
        raise ParseError("expected header SCA/1", lineno)
    lineno, tok = take()
    if len(tok) != 2 or tok[0] != "kind" or tok[1] not in ("lie", "assoc", "jordan"):
        raise ParseError("expected 'kind lie|assoc|jordan'", lineno)
    kind = tok[1]
    lineno, tok = take()
    if len(tok) != 2 or tok[0] != "dim" or not _INDEX.match(tok[1]):
        raise ParseError("expected 'dim N' with N a positive integer", lineno)
    dim = int(tok[1])
    lineno, tok = take()
    if tok[0] != "parity" or len(tok) != dim + 1:
        raise ParseError(f"expected 'parity' with {dim} bits", lineno)
    if any(b not in ("0", "1") for b in tok[1:]):
        raise ParseError("parity bits must be 0 or 1", lineno)
    parity = tuple(int(b) for b in tok[1:])

    # the canonical spelling of each basis index (the parity line bounds dim
    # by the document's length)
    index = {str(i): i for i in range(1, dim + 1)}
    rationals: dict[str, Fraction] = {}
    unit = None
    labels: dict[int, str] = {}
    entries: dict = {}  # (i, j) -> {k: c}
    ended = False
    while pos < len(fields):
        lineno, tok = take()
        key = tok[0]
        if key == "unit":
            if unit is not None:
                raise ParseError("duplicate unit line", lineno)
            if len(tok) != 2:
                raise ParseError("expected 'unit i'", lineno)
            i = index.get(tok[1])
            if i is None:
                raise _index_error(tok[1], "unit", lineno)
            unit = unit_vec(dim, i - 1)
        elif key == "unitv":
            if unit is not None:
                raise ParseError("duplicate unit line", lineno)
            if len(tok) != dim + 1:
                raise ParseError(f"expected 'unitv' with {dim} coordinates", lineno)
            unit = tuple(_parse_rational(t, lineno, rationals) for t in tok[1:])
        elif key == "label":
            if len(tok) != 3:
                raise ParseError("expected 'label i name'", lineno)
            i = index.get(tok[1])
            if i is None:
                raise _index_error(tok[1], "label", lineno)
            if i in labels:
                raise ParseError(f"duplicate label for index {i}", lineno)
            labels[i] = tok[2]
        elif key == "sc":
            if len(tok) != 5:
                raise ParseError("expected 'sc i j k q'", lineno)
            try:
                i, j, k = index[tok[1]], index[tok[2]], index[tok[3]]
            except KeyError as exc:
                raise _index_error(exc.args[0], "sc", lineno) from None
            terms = entries.setdefault((i - 1, j - 1), {})
            if k - 1 in terms:
                raise ParseError(f"duplicate entry ({i},{j},{k})", lineno)
            c = _parse_rational(tok[4], lineno, rationals)
            if tok[4] == "0":  # the one normalized spelling of zero
                raise ParseError("zero structure constants must be omitted", lineno)
            terms[k - 1] = c
        elif key == "end":
            if len(tok) != 1:
                raise ParseError("junk after 'end'", lineno)
            ended = True
            break
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if not ended:
        raise ParseError("missing final 'end'", fields[-1][0])
    if pos < len(fields):
        raise ParseError("content after 'end'", fields[pos][0])

    label_tuple = None
    if labels:
        if len(labels) != dim:
            raise ParseError("labels must cover every basis index or be absent")
        label_tuple = tuple(labels[i + 1] for i in range(dim))
    try:
        space = SuperSpace(dim, parity, label_tuple)
        # parity in StructureTable's order: entries as they appear, terms by k
        canon = {}
        for (i, j), terms in entries.items():
            terms = canon[i, j] = tuple(sorted(terms.items()))
            p = parity[i] ^ parity[j]
            for k, _ in terms:
                if parity[k] != p:
                    raise ValidationError(f"entry ({i},{j},{k}) violates parity homogeneity")
        return StructureTable(space, kind, canon, unit)
    except ValidationError as exc:
        raise ValidationError(f"table invariant violated: {exc}") from exc


# ---------------------------------------------------------------------------
# sl(m,n) and sl_{m,n}(A) by elimination
# ---------------------------------------------------------------------------


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
    for (u, v), uv in (((u, v), uv) for u, row in enumerate(matrix_unit_products(units)[1])
                       for v, uv in row.items()):
        for s, row in enumerate(la):
            sgn = -1 if apar[s] & unit_parity[v] else 1
            for t, st in row.items():
                assoc[(u * na + s, v * na + t)] = tuple(
                    (w * na + r, sgn * cw * c) for w, cw in uv for r, c in st
                )
    entries = super_symmetrized(assoc, space.parity, -1, Fraction(1, sa))
    table = StructureTable(space, "lie", entries)
    name = f"{g0.provenance.get('name', 'gl')}(x){a.provenance.get('name', 'A')}"
    return LieSuperalgebra(table, {"name": name})


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
    """constructors.construct_sl by elimination: the canonical kernel of the
    supertrace row, its restricted_table, and every vector read through the
    SubspaceCoords that restricted_table returns (kept as
    provenance["coords"])."""
    gl = construct_gl(m, n)
    info = gl.provenance["gl"]
    d = m + n
    str_row = [ZERO] * (d * d)
    for t in range(d):
        str_row[info["diag_indices"][t]] = ONE if t < m else -ONE
    basis = kernel_from_rows([dense_to_sparse(str_row)], d * d)
    table, conv = superalg.restricted_table(gl, basis, "lie",
                                            labels=_basis_labels(basis, gl, "H"))

    def to_sl(glvec) -> Vec:
        coords = conv.coords(glvec)
        if coords is None:
            raise ValidationError("vector is not supertrace-free")
        return coords

    diag_set = set(info["diag_indices"])
    diag_positions = [i for i, b in enumerate(basis)
                      if all(c == 0 or idx in diag_set for idx, c in enumerate(b))]
    hprime = CartanBasis(
        elements=[Element(unit_vec(len(basis), i), 0) for i in diag_positions],
        diag_mats=tuple(tuple(basis[i][di] for di in info["diag_indices"])
                        for i in diag_positions),
    )
    prov = {"name": f"sl({m},{n})", "m": m, "n": n, "ambient_gl": gl, "embedding": basis,
            "coords": conv, "cartan_hprime": hprime}
    if m == n:
        prov["z"] = to_sl(gl.provenance["z"])
        sums = [{t: ONE for t in range(m)}, {t: ONE for t in range(m, m + n)}]
        hdiags = kernel_from_rows(sums, m + n)
        helems = []
        for hd in hdiags:
            glvec = [ZERO] * (d * d)
            for t, x in enumerate(hd):
                glvec[info["diag_indices"][t]] = x
            helems.append(Element(to_sl(tuple(glvec)), 0))
        prov["cartan_h"] = CartanBasis(helems, diag_mats=tuple(hdiags))
    return LieSuperalgebra(table, prov)


def construct_sl_A(m: int, n: int, a) -> LieSuperalgebra:
    """constructors.construct_sl_A by elimination: the derived subalgebra of
    the Fraction tensor table tensor_lie_assoc(gl(m,n), A), its
    restricted_table, and the cover images read through its SubspaceCoords."""
    sl = construct_sl(m, n)
    tensor = tensor_lie_assoc(sl.provenance["ambient_gl"], a)
    dbasis = superalg.derived_rref(tensor).basis_dense()
    table, conv = superalg.restricted_table(tensor, dbasis, "lie",
                                            labels=_basis_labels(dbasis, tensor, "D"))
    images = []
    for b in sl.provenance["embedding"]:
        out = [ZERO] * tensor.dim
        for u, c in enumerate(b):
            for s, cs in enumerate(a.unit):
                if c and cs:
                    out[u * a.dim + s] = c * cs
        coords = conv.coords(tuple(out))
        if coords is None:
            raise ValidationError("vector does not lie in the derived subalgebra")
        images.append(coords)
    prov = {"name": f"sl_{m},{n}({a.provenance.get('name', 'A')})", "m": m, "n": n,
            "basis_in_ambient": dbasis, "cover_sl": sl, "cover_images": images}
    return LieSuperalgebra(table, prov)
