"""The axiom checks against a naive Fraction oracle on adversarial tables.

The oracle evaluates each identity on basis tuples through
superalg.table_product and shares no code with supergrade._axioms; both
must report the same first failing tuple.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supergrade import _axioms
from supergrade import constructors as C
from supergrade.errors import AxiomViolation, MissingUnit, ParseError, ValidationError
from supergrade.sca import parse_sca
from supergrade.superalg import StructureTable, SuperSpace, table_product
from tests.oracles import check_super_jordan_by_triples, check_swap_by_fractions
from tests.test_cli_exit_codes import LINES, damaged


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
            for k in sorted(lhs.keys() | rhs.keys()):
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


@st.composite
def swap_damaged_documents(draw):
    """A fixture of the exit-code suite with one sc line rescaled, alone or
    together with its partner sc j i k, dropped, or with its i and j
    swapped."""
    how = draw(st.sampled_from(["rescale", "drop", "swap"]))
    if how != "swap":
        return draw(damaged(how=how))[1]
    lines = list(LINES[draw(st.sampled_from(sorted(LINES)))])
    t = draw(st.sampled_from([t for t, line in enumerate(lines) if line.startswith("sc ")]))
    _, i, j, k, c = lines[t].split()
    lines[t] = f"sc {j} {i} {k} {c}\n"
    return "".join(lines)


def _violation(check, *args):
    try:
        check(*args)
    except AxiomViolation as exc:
        return exc.axiom, exc.indices
    return None


@given(swap_damaged_documents())
@settings(max_examples=200, deadline=None)
def test_integer_swap_check_names_the_fraction_witness(text):
    # the check at load compares the integer rows parse_sca builds; it
    # names the pair and k the Fraction comparison names
    try:
        table = parse_sca(text)
    except (ParseError, ValidationError):
        assume(False)
    flip = {"lie": -1, "jordan": 1}[table.kind]
    check, axiom = SWAP_CHECKS[flip]
    assert _violation(check, table) == _violation(check_swap_by_fractions, table, axiom, flip)


def pair_loop(table):
    """The full pair loop the generator form falls back to: the pair
    identity on every i <= j (Jacobi) or every (i, j) (associativity)."""
    n, par = table.space.dim, table.space.parity
    mults = table.integer_form()[1]
    ops = _axioms._operators(mults, par)
    lie = table.kind == "lie"
    for i in range(n):
        for j in range(i if lie else 0, n):
            swap = (-1 if par[i] & par[j] else 1) if lie else 0
            w = _axioms._pair_defect(ops, mults, i, j, swap, n)
            if w is not None:
                return ("super_jacobi" if lie else "associativity", (i, j, w))
    return None


# bases with toral elements (psl(3,3), sl(2,1)), with a nilpotent part
# (sl_{2,2}(Grassmann(1))) and associative ones seeded by their unit
REBASED = {
    "psl33": lambda: C.construct_psl(2),
    "sl21": lambda: C.construct_sl(2, 1),
    "sl22_grassmann1": lambda: C.construct_sl_A(2, 2, C.construct_assoc("grassmann", 1)),
    "m21": lambda: C.construct_assoc("matrix_super", (2, 1)),
    "grassmann2": lambda: C.construct_assoc("grassmann", 2),
}


@cache
def rebase_base(name):
    return REBASED[name]().table


def rebased(table, lift, inv, parity):
    """The table in the basis b'_i = sum_a lift[i][a] b_a, where
    b_a = sum_i inv[a][i] b'_i."""
    n = table.space.dim
    entries, ent = {}, table.entries
    for i in range(n):
        for j in range(n):
            v = {}
            for a, x in lift[i].items():
                for b, y in lift[j].items():
                    for m, c in ent.get((a, b), ()):
                        for k, q in inv[m].items():
                            v[k] = v.get(k, 0) + x * y * c * q
            terms = tuple(sorted((k, c) for k, c in v.items() if c))
            if terms:
                entries[(i, j)] = terms
    unit = None
    if table.unit is not None:
        u = {}
        for a, x in enumerate(table.unit):
            for k, q in inv[a].items():
                u[k] = u.get(k, 0) + x * q
        unit = tuple(Fraction(u.get(k, 0)) for k in range(n))
    return StructureTable(SuperSpace(n, tuple(parity)), table.kind, entries, unit)


def toral(table):
    return sorted(table.toral_columns())


small = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def rebased_tables(draw):
    """A base table permuted with signs and rescaled (toral elements stay
    toral), then with none, one or every toral element b_h sheared to
    b_h + b_e for another b_e of its parity, then perturbed as in
    perturbed_tables, or at an eigenvalue of a toral element (it stays
    toral, and the toral weights stop adding)."""
    name = draw(st.sampled_from(sorted(REBASED)))
    table = rebase_base(name)
    n, par = table.space.dim, table.space.parity
    perm = draw(st.permutations(range(n)))
    lam = [draw(small) for _ in range(n)]
    table = rebased(table, [{perm[i]: lam[i]} for i in range(n)],
                    [{perm.index(a): 1 / lam[perm.index(a)]} for a in range(n)],
                    [par[p] for p in perm])
    par = table.space.parity
    shear = draw(st.sampled_from(["none", "one", "all"]))
    for h in toral(table)[: {"none": 0, "one": 1, "all": n}[shear]]:
        e = draw(st.sampled_from([e for e in range(n) if e != h and par[e] == par[h]]))
        lift = [{i: 1} for i in range(n)]
        inv = [{i: 1} for i in range(n)]
        lift[h], inv[h] = {h: 1, e: 1}, {h: 1, e: -1}
        table = rebased(table, lift, inv, par)
    lie = table.kind == "lie"
    ent = {key: dict(terms) for key, terms in table.entries.items()}
    for _ in range(draw(st.integers(0, 2))):
        hs = toral(table) if lie else []
        if hs and draw(st.booleans()):
            i, j = draw(st.sampled_from(hs)), draw(st.integers(0, n - 1))
            k = j
        else:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            k = draw(st.sampled_from([k for k in range(n) if par[k] == (par[i] + par[j]) % 2]))
        d = draw(small)
        if lie and i == j and par[i] == 0:
            continue  # c_ii^k is forced to 0
        for key, s in (((i, j), 1), ((j, i), -(-1 if par[i] & par[j] else 1))):
            row = ent.setdefault(key, {})
            row[k] = row.get(k, 0) + s * d
            if not lie or i == j:
                break
    entries = {key: tuple(sorted(terms.items())) for key, terms in ent.items()}
    return StructureTable(table.space, table.kind, entries, table.unit)


@given(rebased_tables())
@settings(max_examples=120, deadline=None)
def test_generator_form_matches_pair_loop(table):
    check = _axioms.check_super_jacobi if table.kind == "lie" else _axioms.check_associativity
    try:
        check(table)
        got = None
    except AxiomViolation as exc:
        got = (exc.axiom, exc.indices)
    assert got == pair_loop(table)


@pytest.mark.parametrize("name, count", [("psl33", 10), ("sl21", 4), ("m21", 6)])
def test_generator_counts_are_deterministic(name, count, monkeypatch):
    table = rebase_base(name)
    check = _axioms.check_super_jacobi if table.kind == "lie" else _axioms.check_associativity
    found = []
    generated = _axioms._generated
    monkeypatch.setattr(_axioms, "_generated", lambda *a: found.append(generated(*a)) or found[-1])
    check(table)
    check(table)
    assert found[0] == found[1] and len(found[0]) == count


def test_jacobi_names_the_pair_loop_tuple_when_toral_weights_stop_adding():
    # psl22.sca with c_{9,1}^1 and c_{1,9}^1 doubled: b_9 stays toral, so it
    # seeds the closure unchecked, but its weights no longer add
    text = "".join(LINES["psl22.sca"])
    table = parse_sca(text.replace("sc 1 9 1 -1\n", "sc 1 9 1 -2\n")
                          .replace("sc 9 1 1 1\n", "sc 9 1 1 2\n"))
    assert 8 in table.toral_columns()
    w = table.toral_weights()
    assert any(w[k] != tuple(a + b for a, b in zip(w[i], w[j]))
               for (i, j), terms in table.entries.items() for k, _ in terms)
    with pytest.raises(AxiomViolation) as err:
        _axioms.check_super_jacobi(table)
    assert ("super_jacobi", err.value.indices) == pair_loop(table) == oracle_jacobi(table)


# Jordan tables for the live-triple check; M(1,1)+ and M(2,2)+ come from
# the symmetrized matrix superalgebras
JORDAN = {
    "jp2": lambda: C.construct_jordan("JP", 2),
    "jp3": lambda: C.construct_jordan("JP", 3),
    "m11+": lambda: C.construct_jordan("Mplus", 1),
    "m22+": lambda: C.construct_jordan("Mplus", 2),
}


@cache
def jordan_base(name):
    return JORDAN[name]().table


@st.composite
def perturbed_jordan_tables(draw):
    """A Jordan table scaled by a constant (still Jordan), with a few
    parity-homogeneous changes to c_ij^k, each made alone (breaking
    super-commutativity) or with its partner c_ji^k."""
    table = jordan_base(draw(st.sampled_from(sorted(JORDAN))))
    n, par = table.space.dim, table.space.parity
    scale = draw(st.one_of(st.just(Fraction(1)), small))
    ent = {key: {k: c * scale for k, c in terms} for key, terms in table.entries.items()}
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.sampled_from([k for k in range(n) if par[k] == (par[i] + par[j]) % 2]))
        d = draw(small)
        partner = draw(st.booleans()) and i != j
        for key, s in (((i, j), 1), ((j, i), -1 if par[i] & par[j] else 1))[: 1 + partner]:
            row = ent.setdefault(key, {})
            row[k] = row.get(k, 0) + s * d
    entries = {key: tuple(sorted(terms.items())) for key, terms in ent.items()}
    return StructureTable(table.space, "jordan", entries)


@given(perturbed_jordan_tables())
@settings(max_examples=100, deadline=None)
def test_live_triple_jordan_check_matches_full_scan(table):
    assert (_violation(_axioms.check_super_jordan, table)
            == _violation(check_super_jordan_by_triples, table))


def test_jordan_check_falls_back_to_the_full_sum_on_jp3(monkeypatch):
    # the like terms of JP(3) add up to a nonzero combination of dependent
    # primitive commutators on some triples; the full sum, whose columns
    # the check reads only then, vanishes there
    calls = []
    first = _axioms._first_column
    monkeypatch.setattr(_axioms, "_first_column", lambda *a: calls.append(first(*a)) or calls[-1])
    _axioms.check_super_jordan(jordan_base("jp3"))
    assert calls == [None] * 8


def oracle_unit(table):
    """The first j with u b_j != b_j or b_j u != b_j, through Fraction
    products."""
    e = _basis(table.space.dim)
    for j, ej in enumerate(e):
        if table_product(table, table.unit, ej) != ej or table_product(table, ej, table.unit) != ej:
            return j
    return None


@st.composite
def perturbed_unital_tables(draw):
    """A unital table (Jordan or associative) scaled by a constant, with the
    unit scaled back, a few changed entries, and maybe an even basis element
    added to the unit."""
    table = draw(st.sampled_from([jordan_base("jp2"), jordan_base("m11+"), base_table("m11"),
                                  base_table("matrix11"), base_table("grassmann2")]))
    n, par = table.space.dim, table.space.parity
    scale = draw(small)
    ent = {key: {k: c * scale for k, c in terms} for key, terms in table.entries.items()}
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.sampled_from([k for k in range(n) if par[k] == (par[i] + par[j]) % 2]))
        row = ent.setdefault((i, j), {})
        row[k] = row.get(k, 0) + draw(small)
    unit = [c / scale for c in table.unit]
    if draw(st.booleans()):
        unit[draw(st.sampled_from([h for h in range(n) if not par[h]]))] += draw(small)
    entries = {key: tuple(sorted(terms.items())) for key, terms in ent.items()}
    return StructureTable(table.space, table.kind, entries, tuple(unit))


@given(perturbed_unital_tables())
@settings(max_examples=100, deadline=None)
def test_integer_unit_check_names_the_fraction_witness(table):
    try:
        _axioms.check_unit(table)
        got = None
    except MissingUnit as exc:
        got = str(exc)
    j = oracle_unit(table)
    assert got == (None if j is None else f"unit axiom fails on basis element {j}")
