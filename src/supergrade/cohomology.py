"""Second cohomology with trivial coefficients, universal central
extensions, cover-kernel checks, and central-isogeny fingerprints.

Cocycles are parametrized by independent pair coordinates (i < j plus the
odd diagonal); super-skewness means phi(x,y) = -(-1)^{|x||y|} phi(y,x)
uniformly, and the cocycle identity carries the same cyclic signs as the
super Jacobi identity.

Both linear systems are built over Python integers, on the table's
integer form (StructureTable.integer_form).  A cocycle-identity row with a
single entry sets that unknown to 0 (most rows on root-graded algebras
do): these killed unknowns are collected as a set and dropped from the
longer rows, which are then eliminated shortest first.  The rows stay
integer through the fraction-free SparseRref, and Python integers do not
overflow, so no magnitude bound is needed.

H^2 is solved on the cochains of weight zero.  The toral basis elements
are the even b_h whose ad is diagonal in the given basis, read off the
table's entries (h, j); every basis element is a weight vector for the
toral subalgebra they span, and by the super Jacobi identity the table,
the cocycle identity and the coboundaries are weight-homogeneous.  An
even toral h acts trivially on cohomology by the Cartan formula
theta(h) = d i_h + i_h d (Hochschild & Serre 1953), and theta(h) is the
scalar -lambda(h) on a cochain of weight lambda, so Z^2 = B^2 in every
weight lambda != 0.  h2_dims and h2_representatives therefore use only
the weight-zero pair unknowns, the triples of weight zero and the
coboundary rows of the weight-zero basis elements.  The weight blocks
share no columns, so the canonical complement is the same vector for
vector as on the full system.  With no toral element every weight is ()
and the full system is solved; cocycle_space and coboundary_space pass no
weights and return the full Z^2 and B^2.

The weight-zero systems are small (77 even unknowns on tkk(JP(4)), 43 on
psl(4,4)), so each parity sector is one elimination.  That needs a toral
basis element; in a basis that is not ad-diagonal the full system (4,033
even unknowns on tkk(JP(4))) is one elimination too, and most of its
unknowns are killed, so the cocycle kernel is solved on the other columns
alone.  h2_dims only
counts: dim Z^2 is the number of unknowns minus the number of killed
unknowns minus the rank of the other rows, and dim B^2 is the rank of the
coboundary rows; no basis is materialised.  cocycle_space,
coboundary_space and h2_representatives work on sparse pair rows (a
killed unknown is 0 in every cocycle) and return each cocycle as the
sparse Cocycle2 form {(i, j): value} of its nonzero values, both orders
of every pair.  Their bases are the unique RREF of the subspace, so
scaling, repeating or reordering rows never changes them.

All elimination here runs on SparseRref: the kernel of a projection is
kernel_from_rows on its rows, and a Cartan lift is an augmented solve.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import sub

from .errors import DimensionMismatch, NotPerfect, ValidationError
from .exact import (
    ONE,
    SparseRref,
    ZERO,
    dense_to_sparse,
    kernel_from_rows,
    sparse_apply,
    sparse_transpose,
)
from .superalg import (
    Element,
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    center,
    derived_subalgebra,
    quotient_central,
    restricted_table,
)


class Cocycle2:
    """A parity-homogeneous super-skew 2-form satisfying the cocycle identity;
    form maps (i, j) to phi(b_i, b_j), nonzero values only."""

    __slots__ = ("parity", "form")

    def __init__(self, parity: int, form: dict):
        self.parity, self.form = parity, form

    def value(self, i: int, j: int) -> Fraction:
        return self.form.get((i, j), ZERO)


def _pair_index(space: SuperSpace, parity: int, weights: list):
    """Independent unknowns of the super-skew sector: ordered pairs i < j of
    the right parity and of weight zero, plus the odd diagonal (even sector
    only)."""
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


def _toral_weights(l: LieSuperalgebra, itab: list) -> list[tuple]:
    """The joint integer weight of every basis element under the toral
    basis elements: the even b_h with ad b_h nonzero and diagonal, that is
    [b_h, b_j] in Q b_j for every j.

    Two such elements commute ([b_h, b_g] lies on both b_g and b_h), so
    they span a toral subalgebra.  The weights are read off the integer
    table, where every eigenvalue carries the same factor s; a sum of
    weights is zero exactly when it is zero unscaled.  With no toral
    element every weight is ().
    """
    cols = [{j: t[0][1] for j, t in row.items()} for h, row in enumerate(itab)
            if row and not l.parity[h]
            and all(len(t) == 1 and t[0][0] == j for j, t in row.items())]
    return [tuple(col.get(j, 0) for col in cols) for j in range(l.dim)]


def _cocycle_rows(
    l: LieSuperalgebra, parity: int, pos: dict, itab: list, weights: list
) -> tuple[set, list]:
    """(killed, rows) for the cocycle identity over canonical triples
    i <= j <= k of weight zero: the unknowns a single-entry row sets to 0,
    and the integer rows of the other triples with those unknowns dropped,
    shortest first.

    The identity is super-symmetric under permutations up to sign, so the
    canonical triples are exhaustive.  A triple's row is
    sum_cyc s * phi([b_a, b_b], b_c) over ((i, j), k), ((j, k), i), ((k, i), j),
    and phi(b_m, b_c) = sign * x_t with (t, sign) = slot[c][m].  The table
    is weight-homogeneous, so a triple's row involves only unknowns of the
    triple's weight, and the weight-zero unknowns pos holds meet only the
    triples of weight zero.  Only triples with a nonzero bracket among
    their three pairs are visited.
    """
    if not pos:
        return set(), []
    n = l.dim
    par = l.parity
    slot = [{} for _ in range(n)]
    for (i, j), t in pos.items():
        slot[j][i] = (t, 1)
        slot[i][j] = (t, 1 if par[i] and par[j] else -1)
    left = [{} for _ in range(n)]  # left[b][a] = itab[a][b] = [b_a, b_b]
    for a in range(n):
        for b, terms in itab[a].items():
            left[b][a] = terms
    neg = [tuple(-x for x in w) for w in weights]
    by_weight: dict = {}  # (weight, parity) -> ascending basis indices
    for k in range(n):
        by_weight.setdefault((weights[k], par[k]), []).append(k)
    killed: set = set()
    longer = []

    def add(row, terms, s, sl):
        for m, coeff in terms:
            hit = sl.get(m)
            if hit is not None:
                t, sgn = hit
                v = row.get(t, 0) + s * sgn * coeff
                if v:
                    row[t] = v
                else:
                    del row[t]

    for i in range(n):
        for j in range(i, n):
            want = (parity + par[i] + par[j]) % 2
            # the b_k of the weight and parity that give the triple weight 0
            ks = by_weight.get((tuple(map(sub, neg[i], weights[j])), want))
            if not ks:
                continue
            ks = ks[bisect_left(ks, j):]
            # the cyclic signs (-1)^{|a||c|} of the three terms
            s1 = -1 if par[i] and want else 1
            s2 = -1 if par[j] and par[i] else 1
            s3 = -1 if want and par[j] else 1
            tij = itab[i].get(j)
            rj, li = itab[j], left[i]
            if not tij:
                ks = [k for k in ks if k in rj or k in li]
            for k in ks:
                row: dict = {}
                if tij:
                    add(row, tij, s1, slot[k])
                tjk = rj.get(k)
                if tjk:
                    add(row, tjk, s2, slot[i])
                tki = li.get(k)
                if tki:
                    add(row, tki, s3, slot[j])
                if len(row) == 1:
                    killed.update(row)
                elif row:
                    longer.append(row)
    rows = ({t: v for t, v in row.items() if t not in killed} for row in longer)
    # shortest first: short rows become pivots before longer rows are
    # reduced against them
    return killed, sorted(filter(None, rows), key=len)


def _coboundary_rows(pairs, itab: list) -> list[dict]:
    """Integer rows t -> c_{pairs[t]}^m of the coboundaries
    phi_f = f([x, y]) for f = b_m^*, built in one pass over the table.  The
    table is parity-homogeneous, so every such b_m has the sector's
    parity."""
    rows: dict = {}
    for t, (i, j) in enumerate(pairs):
        for m, c in itab[i].get(j, ()):
            rows.setdefault(m, {})[t] = c
    return list(rows.values())


def _rank(rows, ncols: int) -> int:
    sr = SparseRref(ncols)
    for row in rows:
        sr.insert(row)
    return sr.rank


def _cocycle_basis(
    l: LieSuperalgebra, parity: int, itab: list, weights: list
) -> tuple[list, list[dict]]:
    """(pairs, canonical basis of Z^2 as sparse pair rows, by pivot), on the
    cochains of weight zero."""
    pairs, pos = _pair_index(l.space, parity, weights)
    killed, zrows = _cocycle_rows(l, parity, pos, itab, weights)
    # a killed unknown is 0 in every cocycle: solve on the other columns,
    # renumbered in order, so the killed ones never enter the elimination
    live = [t for t in range(len(pairs)) if t not in killed]
    col = {t: c for c, t in enumerate(live)}
    sr = SparseRref(len(pairs))
    for kv in kernel_from_rows([{col[t]: v for t, v in row.items()} for row in zrows], len(live)):
        sr.insert({live[c]: x for c, x in enumerate(kv) if x})
    return pairs, sr.basis()


def _materialize(l: LieSuperalgebra, parity: int, pairs, row: dict) -> Cocycle2:
    form = {}
    for t, v in row.items():
        i, j = pairs[t]
        form[(i, j)] = v
        if i != j:
            form[(j, i)] = v if l.parity[i] and l.parity[j] else -v
    return Cocycle2(parity, form)


def cocycle_space(l: LieSuperalgebra, parity: int) -> list[Cocycle2]:
    """Canonical basis of the space of 2-cocycles of the given parity."""
    pairs, basis = _cocycle_basis(l, parity, l.table.integer_form()[1], [()] * l.dim)
    return [_materialize(l, parity, pairs, b) for b in basis]


def _coboundary_rref(
    l: LieSuperalgebra, parity: int, itab: list, weights: list
) -> tuple[list, SparseRref]:
    pairs, _ = _pair_index(l.space, parity, weights)
    sr = SparseRref(len(pairs))
    for row in _coboundary_rows(pairs, itab):
        sr.insert(row)
    return pairs, sr


def coboundary_space(l: LieSuperalgebra, parity: int) -> list[Cocycle2]:
    """Canonical basis of the coboundaries phi_f(x, y) = f([x, y])."""
    pairs, sr = _coboundary_rref(l, parity, l.table.integer_form()[1], [()] * l.dim)
    return [_materialize(l, parity, pairs, b) for b in sr.basis()]


def h2_dims(l: LieSuperalgebra) -> tuple[int, int]:
    """dim H^2(L, F) = dim Z^2 - dim B^2, per parity, from ranks alone, on
    the cochains of weight zero."""
    itab = l.table.integer_form()[1]
    weights = _toral_weights(l, itab)
    out = []
    for parity in (0, 1):
        pairs, pos = _pair_index(l.space, parity, weights)
        killed, zrows = _cocycle_rows(l, parity, pos, itab, weights)
        zdim = len(pairs) - len(killed) - _rank(zrows, len(pairs))
        bdim = _rank(_coboundary_rows(pairs, itab), len(pairs))
        out.append(zdim - bdim)
    return tuple(out)


def h2_representatives(l: LieSuperalgebra, parity: int) -> list[Cocycle2]:
    """Cocycles spanning a canonical complement of B^2 inside Z^2."""
    itab = l.table.integer_form()[1]
    weights = _toral_weights(l, itab)
    pairs, sr = _coboundary_rref(l, parity, itab, weights)
    _, basis = _cocycle_basis(l, parity, itab, weights)
    return [_materialize(l, parity, pairs, z) for z in basis if sr.insert(z) is not None]


class CentralExtension:
    """A central extension of base with the added directions central.

    extended has dim(base) + len(cocycles); projection maps extended
    coordinates onto base coordinates and is a homomorphism whose kernel
    is the span of the added directions.  It is given by its sparse
    columns {base index: Fraction}, one per basis element of extended, and
    applied with exact.sparse_apply.
    """

    __slots__ = ("base", "cocycles", "extended", "projection")

    def __init__(self, base: LieSuperalgebra, cocycles: list, extended: LieSuperalgebra,
                 projection: list[dict]):
        self.base, self.cocycles = base, cocycles
        self.extended, self.projection = extended, projection


def uce(l: LieSuperalgebra) -> CentralExtension:
    """Universal central extension of a perfect Lie superalgebra.

    The extension is built on L + H^2 directions with bracket
    [x,y]^ = [x,y] + sum_i phi_i(x,y) c_i, each c_i central of the parity
    of phi_i.
    """
    if len(derived_subalgebra(l)) != l.dim:
        raise NotPerfect("universal central extensions need a perfect algebra")
    reps = h2_representatives(l, 0) + h2_representatives(l, 1)
    n = l.dim
    k = len(reps)
    parity = tuple(l.parity) + tuple(c.parity for c in reps)
    labels = None
    if l.labels is not None:
        labels = tuple(l.labels) + tuple(f"c{t + 1}" for t in range(k))
    space = SuperSpace(n + k, parity, labels)
    terms = {key: list(t) for key, t in l.table.entries.items()}
    for t, coc in enumerate(reps):
        for key, v in coc.form.items():
            terms.setdefault(key, []).append((n + t, v))
    # StructureTable sorts each entry's terms; the keys keep (i, j) order
    table = StructureTable(space, "lie", {key: terms[key] for key in sorted(terms)})
    extended = LieSuperalgebra(table, {"name": f"uce({l.provenance.get('name', 'L')})"})
    proj = [{j: ONE} for j in range(n)] + [{} for _ in range(k)]
    return CentralExtension(l, reps, extended, proj)


def extension_from_quotient(l: LieSuperalgebra, zbasis) -> CentralExtension:
    """Package an existing central quotient L -> L/<z> as a CentralExtension.

    The base keeps the basis elements at the non-pivot columns of z's RREF,
    so a lifted bracket [b_a, b_b] minus the lift of its image lies in <z>
    and has at the pivots the entries of [b_a, b_b] itself (the lift is 0
    there).  The RREF rows are 1 at their own pivot and 0 at the others, so
    cocycle t is the coefficient of [b_a, b_b] at pivot t.  z is graded, so
    each RREF row is homogeneous, of the parity of its pivot."""
    base = quotient_central(l, zbasis)
    pos = {c: a for a, c in enumerate(base.provenance["kept_columns"])}
    slot = {c: t for t, c in enumerate(c for c in range(l.dim) if c not in pos)}
    forms = [{} for _ in slot]
    for (i, j), terms in l.table.entries.items():
        if i in pos and j in pos:
            for m, c in terms:
                if m in slot:
                    forms[slot[m]][(pos[i], pos[j])] = c
    cocycles = [Cocycle2(l.parity[p], form) for p, form in zip(slot, forms)]
    return CentralExtension(base, cocycles, l, base.provenance["projection"])


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


def cover_kernel_check(ext: CentralExtension, cartan: CartanBasis) -> CoverKernelReport:
    """Verify ker(pi) lies in the zero weight space of the extension and pi
    restricts to a linear isomorphism on every nonzero root space."""
    from .constructors import CartanBasis
    from .roots import weight_decomposition

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


class Fingerprint:
    """Deterministic isogeny-invariant summary of an algebra, dims being
    (even, odd); isogenous compares two of them with ==."""

    __slots__ = ("dims", "derived_series", "center_dim", "h2", "root_multiset")

    def __init__(self, dims: tuple, derived_series: tuple, center_dim: int, h2: tuple,
                 root_multiset: tuple | None = None):
        self.dims, self.derived_series, self.center_dim = dims, derived_series, center_dim
        self.h2, self.root_multiset = h2, root_multiset

    def __eq__(self, other):
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.derived_series == other.derived_series
            and self.center_dim == other.center_dim
            and self.h2 == other.h2
            and self.root_multiset == other.root_multiset
        )


def fingerprint(l: LieSuperalgebra, cartan: CartanBasis | None = None) -> Fingerprint:
    series = [l.dim]
    current = l
    while True:
        d = derived_subalgebra(current)
        if len(d) == current.dim:
            break
        series.append(len(d))
        if not d:
            break
        table, _ = restricted_table(current, d, "lie")
        current = LieSuperalgebra(table, {"name": "derived"})
    root_multiset = None
    if cartan is not None:
        from .roots import weight_decomposition

        datum = weight_decomposition(l, cartan)
        root_multiset = tuple(
            sorted(
                (tuple(str(x) for x in c.weight), c.even_dim, c.odd_dim)
                for c in datum.components
            )
        )
    return Fingerprint(
        dims=(l.space.even_dim, l.space.odd_dim),
        derived_series=tuple(series),
        center_dim=len(center(l)),
        h2=h2_dims(l),
        root_multiset=root_multiset,
    )


def isogenous(l1: LieSuperalgebra, l2: LieSuperalgebra) -> str:
    """Fingerprint comparison of the central quotients: 'equal' as far as
    the invariants see (not a proof of isomorphism), or 'different'
    (disproves central isogeny)."""
    prints = []
    for l in (l1, l2):
        z = center(l)
        q = quotient_central(l, z) if z else l
        prints.append(fingerprint(q))
    return "equal" if prints[0] == prints[1] else "different"
