"""The axiom checks against a naive Fraction oracle on adversarial tables.

The oracle evaluates each identity on basis tuples through
superalg.table_product and shares no code with supergrade._axioms; both
must report the same first failing tuple.
"""

from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from supergrade import _axioms
from supergrade import constructors as C
from supergrade.errors import AxiomViolation
from supergrade.superalg import StructureTable, table_product


def _basis(n):
    return [tuple(Fraction(int(t == i)) for t in range(n)) for i in range(n)]


def _sub(x, y, s=1):
    return tuple(a - s * b for a, b in zip(x, y))


def oracle_jacobi(table):
    n, par = table.space.dim, table.space.parity
    e = _basis(n)

    def mul(x, y):
        return table_product(table, x, y)

    for i in range(n):
        for j in range(i, n):
            s = -1 if par[i] and par[j] else 1
            for k in range(n):
                # [[i,j],k] = [i,[j,k]] - s [j,[i,k]]
                lhs = mul(mul(e[i], e[j]), e[k])
                rhs = _sub(mul(e[i], mul(e[j], e[k])), mul(e[j], mul(e[i], e[k])), s)
                if lhs != rhs:
                    return ("super_jacobi", (i, j, k))
    return None


def oracle_associativity(table):
    n = table.space.dim
    e = _basis(n)

    def mul(x, y):
        return table_product(table, x, y)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul(mul(e[i], e[j]), e[k]) != mul(e[i], mul(e[j], e[k])):
                    return ("associativity", (i, j, k))
    return None


def oracle_jordan(table):
    """sum over cyclic (x,y,z) of (-1)^{|x||z|} [L_{xy}, L_z] w = 0, where
    [L_{xy}, L_z] w = (xy)(zw) - (-1)^{|xy||z|} z((xy)w)."""
    n, par = table.space.dim, table.space.parity
    e = _basis(n)
    zero = tuple(Fraction(0) for _ in range(n))

    def mul(x, y):
        return table_product(table, x, y)

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for w in range(n):
                    total = zero
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        s = -1 if par[x] and par[z] else 1
                        opp = -1 if (par[x] + par[y]) % 2 and par[z] else 1
                        xy = mul(e[x], e[y])
                        term = _sub(mul(xy, mul(e[z], e[w])), mul(e[z], mul(xy, e[w])), opp)
                        total = _sub(total, term, -s)
                    if total != zero:
                        return ("super_jordan", (i, j, k, w))
    return None


# name -> (constructor, symmetry flip of c_ji vs c_ij, check, oracle)
ALGEBRAS = {
    "sl21": (lambda: C.construct_sl(2, 1), -1, _axioms.check_super_jacobi, oracle_jacobi),
    "psl22": (lambda: C.construct_psl(1), -1, _axioms.check_super_jacobi, oracle_jacobi),
    "grassmann2": (lambda: C.construct_assoc("grassmann", 2), None,
                   _axioms.check_associativity, oracle_associativity),
    "matrix11": (lambda: C.construct_assoc("matrix_super", (1, 1)), None,
                 _axioms.check_associativity, oracle_associativity),
    "m11": (lambda: C.construct_jordan("M11"), 1, _axioms.check_super_jordan, oracle_jordan),
    "jp2": (lambda: C.construct_jordan("JP", 2), 1, _axioms.check_super_jordan, oracle_jordan),
}


@cache
def base_table(name):
    return ALGEBRAS[name][0]().table


BIG = 2**64
coefficients = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


@st.composite
def perturbed_tables(draw):
    """A base table scaled by a constant, plus a few parity-homogeneous
    changes that keep super(anti)commutativity."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    flip = ALGEBRAS[name][1]
    table = base_table(name)
    n, par = table.space.dim, table.space.parity
    scale = draw(st.one_of(st.just(Fraction(1)), coefficients.filter(bool)))
    ent = {key: {k: c * scale for k, c in terms} for key, terms in table.entries.items()}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        k = draw(st.sampled_from([k for k in range(n) if par[k] == (par[i] + par[j]) % 2]))
        d = draw(coefficients)
        partner = None if flip is None else flip * (-1 if par[i] and par[j] else 1)
        if i == j and partner == -1:
            continue  # c_ii^k is forced to 0
        row = ent.setdefault((i, j), {})
        row[k] = row.get(k, 0) + d
        if partner is not None and i != j:
            row = ent.setdefault((j, i), {})
            row[k] = row.get(k, 0) + partner * d
    entries = {key: tuple(sorted(terms.items())) for key, terms in ent.items()}
    return name, StructureTable(table.space, table.kind, entries)


@given(perturbed_tables())
@settings(max_examples=80, deadline=None)
def test_axiom_checks_match_fraction_oracle(case):
    name, table = case
    check, oracle = ALGEBRAS[name][2:]
    try:
        check(table)
        got = None
    except AxiomViolation as exc:
        got = (exc.axiom, exc.indices)
    assert got == oracle(table)


def oracle_swap(table, axiom, flip):
    """The full pair loop of the super(anti)commutativity check: every
    i <= j, with the per-k scan on each pair."""
    par = table.space.parity
    ent = table.entries
    n = table.space.dim
    for i in range(n):
        for j in range(i, n):
            lhs = dict(ent.get((i, j), ()))
            rhs = dict(ent.get((j, i), ()))
            s = flip * (-1 if par[i] and par[j] else 1)
            for k in set(lhs) | set(rhs):
                if lhs.get(k, 0) != s * rhs.get(k, 0):
                    return (axiom, (i, j, k))
    return None


SWAP_CHECKS = {-1: (_axioms.check_super_anticommutativity, "super_anticommutativity"),
               1: (_axioms.check_super_commutativity, "super_commutativity")}


@st.composite
def swap_mutated_tables(draw):
    """A super(anti)commutative base table with a few of its entries
    dropped, doubled, or scaled together with their swapped partner."""
    name = draw(st.sampled_from(sorted(k for k, v in ALGEBRAS.items() if v[1] is not None)))
    table = base_table(name)
    ent = dict(table.entries)
    keys = sorted(ent)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(("drop", "double", "scale_pair")))
        if op == "drop":
            ent.pop((i, j), None)
        elif op == "double":
            ent[(i, j)] = tuple((k, 2 * c) for k, c in ent.get((i, j), ()))
        else:
            f = draw(coefficients.filter(bool))
            for key in {(i, j), (j, i)}:
                ent[key] = tuple((k, f * c) for k, c in ent.get(key, ()))
    return ALGEBRAS[name][1], StructureTable(table.space, table.kind, ent)


@given(swap_mutated_tables())
@settings(max_examples=150, deadline=None)
def test_swap_check_matches_full_pair_loop(case):
    flip, table = case
    check, axiom = SWAP_CHECKS[flip]
    try:
        check(table)
        got = None
    except AxiomViolation as exc:
        got = (exc.axiom, exc.indices)
    assert got == oracle_swap(table, axiom, flip)
