"""Exhaustive axiom checks for structure tables.

Every identity is checked exactly on all basis tuples, in operator form
over Python integers.  L[i] is the left multiplication by b_i scaled by s,
read off the table's integer form (StructureTable.integer_form): column w
is the tuple ((t, s * c_{iw}^t), ...).  Python integers do not overflow,
so no magnitude bound is needed.

Each identity is a sparse operator expression that must vanish; its
column w is the identity evaluated on the basis tuple ending in w.  The
expression accumulates in one flat integer dict {w*n + t: int}, so its
smallest nonzero key divided by n is its smallest failing column:

* super Jacobi, pair i <= j:
  L_i L_j - (-1)^{|i||j|} L_j L_i - sum_m c_{ij}^m L_m.  Given
  super-anticommutativity this derivation form is equivalent to the cyclic
  form on every basis triple (i, j, w).
* associativity, pair (i, j): L_i L_j - sum_m c_{ij}^m L_m on (i, j, w).
* the fully linearized super Jordan identity, triple i <= j <= k:
  (-1)^{|x||z|}[L_{xy},L_z] + (-1)^{|y||x|}[L_{yz},L_x] + (-1)^{|z||y|}[L_{zx},L_y],
  expanded as sum s * c_{ab}^m [L_m, L_z] over the three cyclic terms, on
  the quadruple (i, j, k, w).  Each supercommutator [L_m, L_z] is built
  once, together with [L_z, L_m] = -(-1)^{|m||z|} [L_m, L_z].

A violation names the first failing pair or triple in loop order and the
smallest nonzero column of its expression.
"""

from __future__ import annotations

from .errors import AxiomViolation, MissingUnit


def _sign(p, q):
    return -1 if (p & q & 1) else 1


# ---------------------------------------------------------------------------
# pair-level checks
# ---------------------------------------------------------------------------


def _check_swap(table, axiom, flip):
    """c_{ij}^k == flip * (-1)^{|i||j|} c_{ji}^k for all i <= j.

    Only the pairs with an entry in either order can fail; they are visited
    in (i, j) order.  The canonical term tuples are compared first, and the
    per-k scan that names the failing k runs only on a mismatch.
    """
    par = table.space.parity
    ent = table.entries
    for i, j in sorted({(i, j) if i <= j else (j, i) for i, j in ent}):
        lhs = ent.get((i, j), ())
        rhs = ent.get((j, i), ())
        s = flip * _sign(par[i], par[j])
        if lhs == (rhs if s == 1 else tuple((k, -c) for k, c in rhs)):
            continue
        lhs, rhs = dict(lhs), dict(rhs)
        for k in set(lhs) | set(rhs):
            if lhs.get(k, 0) != s * rhs.get(k, 0):
                raise AxiomViolation(axiom, (i, j, k))


def check_super_anticommutativity(table):
    _check_swap(table, "super_anticommutativity", -1)


def check_super_commutativity(table):
    _check_swap(table, "super_commutativity", 1)


def check_unit(table):
    if table.unit is None:
        raise MissingUnit("table has no unit element")
    from . import superalg

    ent = table.entries
    unit = [(i, c) for i, c in enumerate(table.unit) if c]
    for j in range(table.space.dim):
        ej = {j: 1}
        left = superalg._sparse_product(ent, unit, ej.items())
        right = superalg._sparse_product(ent, ej.items(), unit)
        if left != ej or right != ej:
            raise MissingUnit(f"unit axiom fails on basis element {j}")


# ---------------------------------------------------------------------------
# sparse integer operators
# ---------------------------------------------------------------------------


def _add(acc, op, coef, n):
    """acc += coef * op, accumulated flat."""
    for w, col in op.items():
        base = w * n
        for t, v in col:
            acc[base + t] = acc.get(base + t, 0) + coef * v


def _add_product(acc, a, b, coef, n):
    """acc += coef * (a @ b), accumulated flat."""
    for w, bcol in b.items():
        base = w * n
        for u, bv in bcol:
            acol = a.get(u)
            if acol:
                cb = coef * bv
                for t, av in acol:
                    acc[base + t] = acc.get(base + t, 0) + cb * av


def _first_column(acc, n):
    """Smallest column w of a flat acc with a nonzero entry, or None."""
    nonzero = [k for k, v in acc.items() if v]
    return min(nonzero) // n if nonzero else None


def _pair_defect(mults, i, j, swap_sign, n):
    """First nonzero column of L_i L_j - swap_sign L_j L_i - sum_m c_ij^m L_m."""
    acc = {}
    _add_product(acc, mults[i], mults[j], 1, n)
    if swap_sign:
        _add_product(acc, mults[j], mults[i], -swap_sign, n)
    for m, c in mults[i].get(j, ()):
        _add(acc, mults[m], -c, n)
    return _first_column(acc, n)


# ---------------------------------------------------------------------------
# super Jacobi and associativity
# ---------------------------------------------------------------------------


def check_super_jacobi(table):
    n = table.space.dim
    par = table.space.parity
    _, mults = table.integer_form()
    for i in range(n):
        for j in range(i, n):
            w = _pair_defect(mults, i, j, _sign(par[i], par[j]), n)
            if w is not None:
                raise AxiomViolation("super_jacobi", (i, j, w))


def check_associativity(table):
    n = table.space.dim
    _, mults = table.integer_form()
    for i in range(n):
        for j in range(n):
            w = _pair_defect(mults, i, j, 0, n)
            if w is not None:
                raise AxiomViolation("associativity", (i, j, w))


# ---------------------------------------------------------------------------
# linearized super Jordan identity
# ---------------------------------------------------------------------------


def check_super_jordan(table):
    n = table.space.dim
    par = table.space.parity
    _, mults = table.integer_form()
    comms = {}

    def comm(m, z):
        # [L_m, L_z] at m*n + z, and [L_z, L_m] = -(-1)^{|m||z|} [L_m, L_z] with it
        acc = {}
        sgn = _sign(par[m], par[z])
        _add_product(acc, mults[m], mults[z], 1, n)
        _add_product(acc, mults[z], mults[m], -sgn, n)
        op = comms[m * n + z] = {k: v for k, v in acc.items() if v}
        comms[z * n + m] = {k: -sgn * v for k, v in op.items()}
        return op

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc = {}
                # the cyclic terms (-1)^{|a||z|} sum_m c_ab^m [L_m, L_z]
                for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                    prod = mults[a].get(b)
                    if prod:
                        s = _sign(par[a], par[z])
                        for m, c in prod:
                            op = comms.get(m * n + z)
                            if op is None:
                                op = comm(m, z)
                            for key, v in op.items():
                                acc[key] = acc.get(key, 0) + s * c * v
                if acc:
                    w = _first_column(acc, n)
                    if w is not None:
                        raise AxiomViolation("super_jordan", (i, j, k, w))
