"""Exact axiom checks for structure tables, and the sparse integer
operators they and the TKK construction multiply.

Every identity is checked exactly over Python integers, on the table's
integer form (StructureTable.integer_form), the one form a table stores:
super-(anti)commutativity compares its rows, and the other identities take
operator form.  L_i is the left multiplication by b_i
scaled by s, read off the integer form by _operators.  Python integers do
not overflow, so no magnitude bound is needed.

An operator is one or more n x n blocks flattened into one integer dict:
entry (r, c) of block b sits at b*n*n + r*n + c.  _operator keeps that dict
together with its columns and rows, so a product (_product, _bracket)
meets column k of the left factor with row k of the same block of the
right factor.  An identity is an operator expression that must vanish,
and its column w is the identity evaluated on the basis tuple ending in w,
so its smallest failing column is the smallest key mod n of a nonzero
entry:

* super Jacobi, pair i <= j:
  [L_i, L_j] - sum_m c_{ij}^m L_m.  Given super-anticommutativity this
  derivation form is equivalent to the cyclic form on every basis triple
  (i, j, w); it vanishes for every j exactly when L_i is a superderivation.
* associativity, pair (i, j): L_i L_j - sum_m c_{ij}^m L_m on (i, j, w);
  it vanishes for every j exactly when b_i lies in the left nucleus.
* the fully linearized super Jordan identity, triple i <= j <= k:
  (-1)^{|x||z|}[L_{xy},L_z] + (-1)^{|y||x|}[L_{yz},L_x] + (-1)^{|z||y|}[L_{zx},L_y],
  expanded as sum s * c_{ab}^m [L_m, L_z] over the cyclic terms (a, b, z),
  on the quadruple (i, j, k, w).  The [L_m, L_z] come from _commutators,
  which jordan.tkk reads too.  A term needs c_{ab}^m != 0 and
  [L_m, L_z] != 0, and sorted(a, b, z) = (i, j, k): only the triples so
  reached from an ordered pair (a, b) can fail, super-commutative or not.
  Writing each [L_m, L_z] = g P, P primitive (gcd 1, smallest key
  positive), collects like terms; the P may be dependent, so only a
  nonzero sum is added up entry by entry.

Jacobi and associativity are checked on a generating set (_generated).
On a super-anticommutative table the x with L_x a superderivation form a
subalgebra D: L_{[x,y]} = [L_x, L_y] once L_x is one, and superderivations
are closed under the supercommutator (Kac, Adv. Math. 26, 1977).  The left
nucleus is a subalgebra by the Teichmueller identity (Schafer, An
Introduction to Nonassociative Algebras, 1966).  So an identity holds once
its pair (g, j) vanishes for every j and every g of a set whose closure
under the maps L_g spans the table.  The closure is kept per parity, which
each L_g maps into one parity.  For associativity a basis element with
L_u = 1 (a unit) seeds it.  For Jacobi the toral basis elements S
(StructureTable.toral_columns: even b_h with [b_h, b_j] in Q b_j) seed it
unchecked, and the checked generators G still make D the whole table, on
a super-anticommutative table, where the Jacobiator is alternating:

1. G lies in D.  Each g is checked against every j outside S and the
   earlier generators, each earlier one was checked against g, so
   J(g, x, y) = 0 whenever x or y lies outside S; for b_x, b_y in S,
   [b_x, b_y] = 0 and both act on b_g by scalars, so J(g, x, y) = 0.
2. The table is span(S) + <G>: L_g b_h is a multiple of b_g, so the
   closure lies in span(S) + <G>, and it spans the table.
3. S lies in D.  <G> lies in the subalgebra D, so in J(h, s + u, s' + u')
   (s, s' in span(S), u, u' in <G>) every term with an entry in <G>
   vanishes, and so does J(h, s, s'): toral elements bracket to zero.

Basis elements outside the closure are checked, densest row first, and
join it; a Jacobi pair with both ends verified is checked once.  Any
defect runs the full pair loop, which names the first failing pair in
loop order, as the Jordan check does for its triples, visiting the live
ones in loop order: a violation names that pair or triple and the
smallest nonzero column of its expression.
"""

from __future__ import annotations

from math import gcd

from .errors import AxiomViolation, MissingUnit
from .exact import SparseRref, dense_to_sparse


def _sign(p, q):
    return -1 if (p & q & 1) else 1


# ---------------------------------------------------------------------------
# pair-level checks
# ---------------------------------------------------------------------------


def _check_swap(table, axiom, flip):
    """c_{ij}^k == flip * (-1)^{|i||j|} c_{ji}^k for all i <= j, on the
    integer form (one scale s > 0 on both sides).

    Only the pairs with an entry in either order can fail.  One pass
    compares each pair's term tuples, from the row of its smaller index
    when both orders have an entry; the first failing pair in (i, j) order
    is then scanned by ascending k to name its smallest failing k.
    """
    par = table.space.parity
    L = table.integer_form()[1]
    failed = []
    for i, row in enumerate(L):
        for j, lhs in row.items():
            rhs = L[j].get(i)
            if j < i and rhs is not None:
                continue  # compared from row j
            if rhs is None or lhs != (rhs if flip * _sign(par[i], par[j]) == 1
                                      else tuple([(k, -c) for k, c in rhs])):
                failed.append((min(i, j), max(i, j)))
    if failed:
        i, j = min(failed)
        s = flip * _sign(par[i], par[j])
        lhs, rhs = dict(L[i].get(j, ())), dict(L[j].get(i, ()))
        for k in sorted(lhs.keys() | rhs.keys()):
            if lhs.get(k, 0) != s * rhs.get(k, 0):
                raise AxiomViolation(axiom, (i, j, k))


def check_super_anticommutativity(table):
    _check_swap(table, "super_anticommutativity", -1)


def check_super_commutativity(table):
    _check_swap(table, "super_commutativity", 1)


def check_unit(table):
    """u b_j = b_j = b_j u for every j, on the integer form: with d u
    integral (_integer_row), s d e_j on both sides.  The table carries a
    unit: each validator raises its own MissingUnit first."""
    from .superalg import _integer_row, _sparse_product

    s, L = table.integer_form()
    d, u = _integer_row(dense_to_sparse(table.unit))
    for j in range(len(L)):
        ej, want = ((j, 1),), {j: s * d}
        if _sparse_product(L, u.items(), ej) != want or _sparse_product(L, ej, u.items()) != want:
            raise MissingUnit(f"unit axiom fails on basis element {j}")


# ---------------------------------------------------------------------------
# sparse integer operators
# ---------------------------------------------------------------------------


def _operator(flat: dict, n: int, parity: int) -> tuple:
    """A flattened integer operator as (flat, columns, rows, parity).

    columns maps block*n + k to the entries (block*n*n + r*n, v) of column k
    of that block, rows maps block*n + k to the entries (c, v) of its row k.
    """
    cols, rows = {}, {}
    for idx, v in flat.items():
        q, c = divmod(idx, n)  # q = block*n + r
        cols.setdefault(q - q % n + c, []).append((q * n, v))
        rows.setdefault(q, []).append((c, v))
    return flat, cols, rows, parity


def _operators(mults: list, parity) -> list:
    """The one-block operators L_i of an integer form's mults."""
    n = len(mults)
    return [_operator({r * n + t: c for t, col in op.items() for r, c in col}, n, p)
            for op, p in zip(mults, parity)]


def _product(acc: dict, a: tuple, b: tuple, coef: int) -> None:
    """acc += coef * AB, block by block."""
    cols, rows = a[1], b[2]
    for key in cols.keys() & rows.keys():
        right = rows[key]
        for base, v in cols[key]:
            cv = coef * v
            for c, w in right:
                acc[base + c] = acc.get(base + c, 0) + cv * w


def _bracket(a: tuple, b: tuple) -> dict:
    """The supercommutator AB - (-1)^{|A||B|} BA, without zero entries."""
    acc = {}
    _product(acc, a, b, 1)
    _product(acc, b, a, -_sign(a[3], b[3]))
    return {k: v for k, v in acc.items() if v}


_MEMO = [None, None]  # [integer form, (operators, commutators)] of the last table


def _commutators(table) -> tuple:
    """(ops, comm) of a table: ops[i] = L_i (_operators) and comm[m] =
    {z: [L_m, L_z]} over the z >= m with a nonzero commutator.

    check_super_jordan and jordan.tkk both read them, so a command that
    loads a Jordan table and builds its TKK algebra makes one commutator
    pass.  The memo holds one entry, keyed by the identity of the table's
    integer form: a table's form is never mutated after construction
    (integer_form), each table has its own form object, and the memo holds
    a reference to it rather than its id, so the key cannot be reused by
    another table while the entry lives.  Callers must not mutate the
    result."""
    form = table.integer_form()
    if _MEMO[0] is not form:
        par = table.space.parity
        ops = _operators(form[1], par)
        comm = [{} for _ in ops]
        for m, op in enumerate(ops):
            for z in range(m, len(ops)):
                c = _bracket(op, ops[z])
                if c:
                    comm[m][z] = c
        _MEMO[:] = form, (ops, comm)
    return _MEMO[1]


def _first_column(acc: dict, n: int):
    """Smallest column of a flat acc with a nonzero entry, or None."""
    return min((k % n for k, v in acc.items() if v), default=None)


def _pair_defect(ops, mults, i, j, swap_sign, n):
    """First nonzero column of L_i L_j - swap_sign L_j L_i - sum_m c_ij^m L_m."""
    acc = {}
    _product(acc, ops[i], ops[j], 1)
    if swap_sign:
        _product(acc, ops[j], ops[i], -swap_sign)
    for m, c in mults[i].get(j, ()):
        for k, v in ops[m][0].items():
            acc[k] = acc.get(k, 0) - c * v
    return _first_column(acc, n)


# ---------------------------------------------------------------------------
# super Jacobi and associativity
# ---------------------------------------------------------------------------


def _generated(mults, ops, par, seed, swap) -> list | None:
    """The generators g, each with its pair identity verified, whose closure
    under the maps L_g together with the seed spans the table; None at the
    first defect.

    The basis elements are visited densest row first (index order on ties);
    each one outside the closure is checked against every j, skipping j
    already verified when swap is set (the Jacobi pairs are symmetric), and
    joins the generators.  The closure is kept per parity, which each L_g
    maps into one parity; a product term names its parity."""
    n = len(mults)
    dens = [-sum(map(len, row.values())) for row in mults]
    done, gens, vecs, spans = set(seed), [], [], (SparseRref(n), SparseRref(n))
    work = [(None, {i: 1}) for i in seed]  # (h, v): add L_h v, or v for h None
    for g in sorted(range(n), key=dens.__getitem__):
        while work and len(vecs) < n:
            h, v = work.pop()
            if h is not None:
                acc, row = {}, mults[h]
                for t, a in v.items():
                    for k, c in row.get(t, ()):
                        acc[k] = acc.get(k, 0) + a * c
                v = acc
            if v and spans[par[next(iter(v))]].insert(v) is not None:
                vecs.append(v)
                work += [(x, v) for x in gens]
        if len(vecs) == n:
            break
        if spans[par[g]].contains({g: 1}):
            continue
        for j in range(n):
            if (j not in done or not swap) and _pair_defect(
                    ops, mults, g, j, swap and _sign(par[g], par[j]), n) is not None:
                return None
        done.add(g)
        gens.append(g)
        work += [(g, v) for v in vecs]
        work.append((None, {g: 1}))
    return gens


def check_super_jacobi(table):
    """Raise AxiomViolation at the first failing (i, j, w) of the pair loop.
    The generator form needs a super-anticommutative table, which
    validate_lie checks first."""
    n = table.space.dim
    par = table.space.parity
    _, mults = table.integer_form()
    ops = _operators(mults, par)
    if _generated(mults, ops, par, sorted(table.toral_columns()), True) is not None:
        return
    for i in range(n):
        for j in range(i, n):
            w = _pair_defect(ops, mults, i, j, _sign(par[i], par[j]), n)
            if w is not None:
                raise AxiomViolation("super_jacobi", (i, j, w))


def check_associativity(table):
    """Raise AxiomViolation at the first failing (i, j, w) of the pair loop.
    A basis element with L_u = 1 (a unit) lies in the left nucleus and
    seeds the generator form."""
    n = table.space.dim
    par = table.space.parity
    s, mults = table.integer_form()
    ops = _operators(mults, par)
    one = {j: ((j, s),) for j in range(n)}
    seed = [u for u in range(n) if mults[u] == one]
    if _generated(mults, ops, par, seed, False) is not None:
        return
    for i in range(n):
        for j in range(n):
            w = _pair_defect(ops, mults, i, j, 0, n)
            if w is not None:
                raise AxiomViolation("associativity", (i, j, w))


# ---------------------------------------------------------------------------
# linearized super Jordan identity
# ---------------------------------------------------------------------------


def check_super_jordan(table):
    """Raise AxiomViolation at the first failing (i, j, k, w) of the triple
    loop i <= j <= k, visiting only the live triples."""
    n = table.space.dim
    par = table.space.parity
    _, mults = table.integer_form()
    lin, pid = [{} for _ in range(n)], {}  # lin[m][z] = (g, p): [L_m, L_z] = g * P_p
    for m, row in enumerate(_commutators(table)[1]):
        for z, op in row.items():
            g = gcd(*op.values()) * (1 if op[min(op)] > 0 else -1)
            p = pid.setdefault(frozenset([(key, v // g) for key, v in op.items()]), len(pid))
            lin[m][z], lin[z][m] = (g, p), (-_sign(par[m], par[z]) * g, p)
    prims = list(pid)
    live = set()
    for a, row in enumerate(mults):
        for b, terms in row.items():
            lo, hi = (a, b) if a <= b else (b, a)
            for m, _ in terms:
                for z in lin[m]:
                    live.add((z, lo, hi) if z <= lo else (lo, z, hi) if z <= hi else (lo, hi, z))
    for i, j, k in sorted(live):
        coefs = {}
        # the cyclic terms (-1)^{|a||z|} sum_m c_ab^m [L_m, L_z], by primitive
        for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
            s = _sign(par[a], par[z])
            for m, c in mults[a].get(b, ()):
                e = lin[m].get(z)
                if e:
                    coefs[e[1]] = coefs.get(e[1], 0) + s * c * e[0]
        if any(coefs.values()):
            acc = {}
            for p, c in coefs.items():
                for key, v in prims[p]:
                    acc[key] = acc.get(key, 0) + c * v
            w = _first_column(acc, n)
            if w is not None:
                raise AxiomViolation("super_jordan", (i, j, k, w))
