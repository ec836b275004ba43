"""Second cohomology with trivial coefficients, universal central
extensions and central-isogeny fingerprints.

Cocycles are parametrized by independent pair coordinates (i < j plus the
odd diagonal); super-skewness means phi(x,y) = -(-1)^{|x||y|} phi(y,x)
uniformly, and the cocycle identity carries the same cyclic signs as the
super Jacobi identity.  A triple (i, j, k) reads its three brackets from
the rows i and j of the table: [b_k, b_i] = -(-1)^{|k||i|}[b_i, b_k] on a
super-anticommutative table, so no transposed copy is built.

Both linear systems are built over Python integers, on the table's
integer form (StructureTable.integer_form).  A cocycle-identity row with a
single entry sets that unknown to 0 (most rows on root-graded algebras
do): these killed unknowns are collected as a set and dropped from the
longer rows, which are then eliminated shortest first.  The rows stay
integer through the fraction-free SparseRref, and Python integers do not
overflow, so no magnitude bound is needed.

H^2 is solved on the cochains of weight zero.  The toral basis elements
are the even b_h whose ad is diagonal in the given basis, read off the
table's entries (h, j) by StructureTable.toral_weights; every basis
element is a weight vector for the toral subalgebra they span, and by
the super Jacobi identity the table,
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

All elimination here runs on SparseRref; the cocycle kernel is
kernel_from_rows on the rows that are not killed.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import sub

from .errors import NotPerfect
from .exact import SparseRref, ZERO, kernel_from_rows
from .superalg import (
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    _integer_row,
    center,
    derived_rref,
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


def _weight_groups(par: tuple, weights: list) -> dict:
    """(weight, parity) -> ascending indices of the basis elements with them."""
    groups: dict = {}
    for k, w in enumerate(weights):
        groups.setdefault((w, par[k]), []).append(k)
    return groups


def _pair_index(space: SuperSpace, parity: int, weights: list):
    """Independent unknowns of the super-skew sector: ordered pairs i < j of
    the right parity and of weight zero, plus the odd diagonal (even sector
    only), in lexicographic order.  Each i meets only the j >= i of weight
    -w_i and parity parity + |b_i|, read off the weight groups."""
    par, pairs = space.parity, []
    groups = _weight_groups(par, weights)
    for i, w in enumerate(weights):
        js = groups.get((tuple(-x for x in w), (parity + par[i]) % 2), ())
        # j = i only for odd b_i: phi(x,x) = 0 for even x
        pairs += [(i, j) for j in js[bisect_left(js, i + (par[i] == 0)):]]
    return pairs, {p: t for t, p in enumerate(pairs)}


def _cocycle_rows(l: LieSuperalgebra, parity: int, pos: dict, weights: list) -> tuple[set, list]:
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
    n, par = l.dim, l.parity
    itab = l.table.integer_form()[1]
    slot = [{} for _ in range(n)]
    for (i, j), t in pos.items():
        slot[j][i] = (t, 1)
        slot[i][j] = (t, 1 if par[i] and par[j] else -1)
    neg = [tuple(-x for x in w) for w in weights]
    by_weight = _weight_groups(par, weights)
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
            # the cyclic signs (-1)^{|a||c|} of the three terms, the third
            # times -(-1)^{|k||i|}: [b_k, b_i] is read from row i
            s1 = -1 if par[i] and want else 1
            s2 = -1 if par[j] and par[i] else 1
            s3 = (1 if want and par[j] else -1) * s1
            ri, rj = itab[i], itab[j]
            tij = ri.get(j)
            if not tij:
                ks = [k for k in ks if k in rj or k in ri]
            for k in ks:
                row: dict = {}
                if tij:
                    add(row, tij, s1, slot[k])
                tjk = rj.get(k)
                if tjk:
                    add(row, tjk, s2, slot[i])
                tik = ri.get(k)
                if tik:
                    add(row, tik, s3, slot[j])
                if len(row) == 1:
                    killed.update(row)
                elif row:
                    longer.append(row)
    rows = ({t: v for t, v in row.items() if t not in killed} for row in longer)
    # shortest first: short rows become pivots before longer rows are
    # reduced against them
    return killed, sorted(filter(None, rows), key=len)


def _coboundary_rows(l, pairs) -> list[dict]:
    """Integer rows t -> c_{pairs[t]}^m of the coboundaries
    phi_f = f([x, y]) for f = b_m^*, built in one pass over the table.  The
    table is parity-homogeneous, so every such b_m has the sector's
    parity."""
    rows, itab = {}, l.table.integer_form()[1]
    for t, (i, j) in enumerate(pairs):
        for m, c in itab[i].get(j, ()):
            rows.setdefault(m, {})[t] = c
    return list(rows.values())


def _rref(rows, ncols: int) -> SparseRref:
    sr = SparseRref(ncols)
    for row in rows:
        sr.insert(row)
    return sr


def _cocycle_basis(l: LieSuperalgebra, parity: int, weights: list, index: tuple) -> list[dict]:
    """Canonical basis of Z^2 as sparse pair rows, by pivot, on the cochains
    of weight zero, whose unknowns index = (pairs, pos) holds."""
    pairs, pos = index
    killed, zrows = _cocycle_rows(l, parity, pos, weights)
    # a killed unknown is 0 in every cocycle: solve on the other columns,
    # renumbered in order, so the killed ones never enter the elimination
    live = [t for t in range(len(pairs)) if t not in killed]
    col = {t: c for c, t in enumerate(live)}
    sr = SparseRref(len(pairs))
    for kv in kernel_from_rows([{col[t]: v for t, v in row.items()} for row in zrows], len(live)):
        sr.insert({live[c]: x for c, x in kv.items()})
    return sr.basis()


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
    index = _pair_index(l.space, parity, [()] * l.dim)
    basis = _cocycle_basis(l, parity, [()] * l.dim, index)
    return [_materialize(l, parity, index[0], b) for b in basis]


def coboundary_space(l: LieSuperalgebra, parity: int) -> list[Cocycle2]:
    """Canonical basis of the coboundaries phi_f(x, y) = f([x, y])."""
    pairs, _ = _pair_index(l.space, parity, [()] * l.dim)
    sr = _rref(_coboundary_rows(l, pairs), len(pairs))
    return [_materialize(l, parity, pairs, b) for b in sr.basis()]


def h2_dims(l: LieSuperalgebra) -> tuple[int, int]:
    """dim H^2(L, F) = dim Z^2 - dim B^2, per parity, from ranks alone, on
    the cochains of weight zero."""
    weights = l.table.toral_weights()
    out = []
    for parity in (0, 1):
        pairs, pos = _pair_index(l.space, parity, weights)
        killed, zrows = _cocycle_rows(l, parity, pos, weights)
        zdim = len(pairs) - len(killed) - _rref(zrows, len(pairs)).rank
        bdim = _rref(_coboundary_rows(l, pairs), len(pairs)).rank
        out.append(zdim - bdim)
    return tuple(out)


def h2_representatives(l: LieSuperalgebra, parity: int) -> list[Cocycle2]:
    """Cocycles spanning a canonical complement of B^2 inside Z^2."""
    weights = l.table.toral_weights()
    index = _pair_index(l.space, parity, weights)
    sr = _rref(_coboundary_rows(l, index[0]), len(index[0]))
    basis = _cocycle_basis(l, parity, weights, index)
    return [_materialize(l, parity, index[0], z) for z in basis if sr.insert(z) is not None]


class CentralExtension:
    """A central extension of a Lie superalgebra L: extended has basis
    that of L followed by one central direction per cocycle, and the
    projection onto L keeps the first dim L coordinates."""

    __slots__ = ("cocycles", "extended")

    def __init__(self, cocycles: list, extended: LieSuperalgebra):
        self.cocycles, self.extended = cocycles, extended


def uce(l: LieSuperalgebra) -> CentralExtension:
    """Universal central extension of a perfect Lie superalgebra.

    The extension is built on L + H^2 directions with bracket
    [x,y]^ = [x,y] + sum_i phi_i(x,y) c_i, each c_i central of the parity
    of phi_i.  L's integer rows (scale s) and the cocycle values, as one
    integer row at scale d (superalg._integer_row), are brought to scale
    s d, and each entry gains the cocycles' terms after L's own.
    """
    if derived_rref(l).rank != l.dim:
        raise NotPerfect("universal central extensions need a perfect algebra")
    reps = h2_representatives(l, 0) + h2_representatives(l, 1)
    n = l.dim
    k = len(reps)
    parity = tuple(l.parity) + tuple(c.parity for c in reps)
    labels = None
    if l.labels is not None:
        labels = tuple(l.labels) + tuple(f"c{t + 1}" for t in range(k))
    space = SuperSpace(n + k, parity, labels)
    s, L = l.table.integer_form()
    d, phi = _integer_row({(m, i, j): v for m, coc in enumerate(reps, n)
                           for (i, j), v in coc.form.items()})
    rows = [{j: tuple((m, c * d) for m, c in terms) for j, terms in row.items()} for row in L]
    for (m, i, j), v in phi.items():
        rows[i][j] = rows[i].get(j, ()) + ((m, v * s),)
    rows = [dict(sorted(row.items())) for row in rows] + [{} for _ in reps]
    table = StructureTable._canonical(space, "lie", (s * d, rows))
    extended = LieSuperalgebra(table, {"name": f"uce({l.provenance.get('name', 'L')})"})
    return CentralExtension(reps, extended)


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
        d = derived_rref(current)
        if d.rank == current.dim:
            break
        series.append(d.rank)
        if not d.rank:
            break
        table, _ = restricted_table(current, d.basis(), "lie")
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
