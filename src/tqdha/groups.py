"""Finite groups and normalized 2-cocycles.

Groups are index tables: elements are integers 0..size-1 with 0 the identity,
and ``FiniteGroup.mul(g, h)`` is the product g*h (for permutation groups this
is function composition, h applied first).  The routes multiply through
``mul``, ``conjugate`` and ``inv``; the dense table ``mult`` that ``mul``
reads is the group's store, and only this module reads it.  Permutations
are stored as 0-based image tuples.

A 2-cocycle is stored the same way, as its distinct values and an integer
table of positions in them; ``cocycle_from_values`` is the one place that
deduplicates a table of scalars.  The cocycle identity is evaluated in one
place, ``Cocycle2.cocycle_failures``: ``validate_cocycle`` reads it with
the first argument at the generators, and the rewriting oracle's ``ttt``
family with the last at its letters.  Only this module reads a cocycle's
table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import product
from math import gcd, lcm, prod
from operator import mul, truediv
from typing import NamedTuple

from .scalars import MAX_CONDUCTOR, ONE, CyclotomicScalar, root_of_unity


# A group is held as its dense |G| x |G| multiplication table, and the cocycle
# table and the checker's unknowns grow with it: S7's table of
# 5,040^2 = 25.4M entries already takes 413 MB.  So no constructor builds a
# table for a larger group.
MAX_GROUP_ORDER = 5040

# ``alpha-table n`` serializes all |S_n|^2 values of the spin cocycle into
# one JSON document: n = 6 writes 518,400 values in about 0.7 s and 104 MB,
# and n = 7 would write 25,401,600, several GB.  So a table past this many
# values is refused before its group is built.
MAX_TABLE_VALUES = 10 ** 6


class GroupConstructionError(ValueError):
    """The input data does not describe a valid finite group."""


def _check_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise GroupConstructionError(f"group order past MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")


class CocycleError(ValueError):
    """A 2-cocycle table is malformed or fails its defining identities."""


# ---------------------------------------------------------------------------
# permutation helpers (0-based image tuples)
# ---------------------------------------------------------------------------


def perm_compose(a: tuple, b: tuple) -> tuple:
    """a after b: (a o b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def perm_sign(a: tuple) -> int:
    """Parity of the permutation: 0 for even, 1 for odd."""
    return sum(len(c) - 1 for c in perm_cycles(a)) & 1


def perm_cycles(a: tuple) -> list[tuple]:
    """Disjoint cycles (fixed points omitted), each starting at its smallest
    element, ordered by smallest element."""
    n = len(a)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if not seen[i] and a[i] != i:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = a[j]
            cycles.append(tuple(cyc))
        seen[i] = True
    return cycles


def perm_from_cycles(n: int, cycles) -> tuple:
    """Permutation of 0..n-1 from a list of cycles (0-based entries)."""
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            img[a] = b
    return tuple(img)


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


class ClassData(NamedTuple):
    """The conjugacy classes of a group: per element g its representative
    ``rep[g]``, the least element of its class, and a ``transporter[g]`` h
    with h g h^-1 = rep[g]; per representative c its centralizer
    ``centralizer[c]`` and ``transversal[c]``, the least element of each
    left coset of Z(c) (so r -> r c r^-1 maps it onto c's class), both
    ascending.  The transporter of a representative is the identity."""

    rep: tuple
    transporter: tuple
    centralizer: dict
    transversal: dict


class FiniteGroup:
    """A finite group on indices 0..size-1 with 0 the identity.  Routes
    multiply through ``mul`` and ``conjugate``, with the inverses ``inv``,
    the ``generators`` and the cached class attributes.  ``mult[g][h]``, the
    dense table of products, is where the products are stored, and only
    this module reads it."""

    def __init__(self, mult, name="group", perms=None, labels=None, generator_indices=None):
        self.size = len(mult)
        if not self.size:
            raise GroupConstructionError("a group has at least one element, its identity")
        self.mult = tuple(tuple(row) for row in mult)
        self.name = name
        self.perms = tuple(perms) if perms is not None else None
        self.labels = tuple(labels) if labels is not None else None
        self.generator_indices = tuple(generator_indices) if generator_indices else ()
        for g in range(self.size):
            if self.mult[0][g] != g or self.mult[g][0] != g:
                raise GroupConstructionError("index 0 is not a two-sided identity")
        inv = []
        for g, row in enumerate(self.mult):
            if 0 not in row:
                raise GroupConstructionError(f"element {g} has no inverse")
            h = row.index(0)
            if self.mult[h][g] != 0:
                raise GroupConstructionError(f"one-sided inverse at element {g}")
            inv.append(h)
        self.inv = tuple(inv)

    def __repr__(self):
        return f"FiniteGroup({self.name}, size={self.size})"

    def mul(self, g: int, h: int) -> int:
        """g h."""
        return self.mult[g][h]

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mult[self.mult[h][g]][self.inv[h]]

    def validate_associativity(self):
        for a in range(self.size):
            ma = self.mult[a]
            for b in range(self.size):
                mab = self.mult[ma[b]]
                mb = self.mult[b]
                for c in range(self.size):
                    if mab[c] != ma[mb[c]]:
                        raise GroupConstructionError(
                            f"associativity fails on triple ({a}, {b}, {c})"
                        )

    # What the group alone determines, computed on first use and held by the
    # group, so it is freed with it; no caller modifies it.

    @cached_property
    def generators(self) -> tuple:
        """The elements every generator-only check and walk runs on: the
        recorded ``generator_indices``, or every element when the group
        records none.  Each such check tests a property that is closed under
        products, so it holds on the subgroup these generate, which is G."""
        return self.generator_indices or tuple(range(self.size))

    @cached_property
    def class_data(self) -> ClassData:
        """One conjugation pass over G per class: scanning h upwards, each new
        conjugate b = h c h^-1 of the class's least element c gets c as its
        representative and h^-1 as its transporter, h joins the transversal
        (the least element of h Z(c), which is {h' : h' c h'^-1 = b}), and the
        h with b = c form Z(c)."""
        size, conjugate, inv = self.size, self.conjugate, self.inv
        rep, transporter = [None] * size, [None] * size
        centralizer, transversal = {}, {}
        for c in range(size):
            if rep[c] is not None:
                continue
            cent, reps = [], []
            for h in range(size):
                b = conjugate(h, c)
                if b == c:
                    cent.append(h)
                if rep[b] is None:
                    rep[b], transporter[b] = c, inv[h]
                    reps.append(h)
            centralizer[c], transversal[c] = tuple(cent), tuple(reps)
        return ClassData(tuple(rep), tuple(transporter), centralizer, transversal)

    @cached_property
    def centralizer_chains(self) -> dict:
        """Z(c) as a chain of subgroups 1 = H_0 < H_1 < ... < H_k = Z(c), for
        each class representative c of ``class_data``, in its order.  Scanning
        Z(c) upwards, each z outside the subgroup H built so far opens a step
        H' = <H, z>, recorded as the least element t of each left coset tH in
        H', ascending.  The first is the identity and the second is z itself,
        since every element of Z(c) below z is in H.  H' is the disjoint union
        of the cosets tH, so each element of Z(c) is exactly one product
        t_k ... t_2 t_1 with t_i from step i; the step sizes are the indices
        |H_i : H_(i-1)|.  Equal centralizers share one chain."""
        mult = self.mult
        shared, out = {}, {}
        for c, cent in self.class_data.centralizer.items():
            steps = shared.get(cent)
            if steps is None:
                steps, gens, inside = [], [], {0}
                for z in cent:
                    if z in inside:
                        continue
                    gens.append(z)
                    grown = _generated(mult, gens)
                    covered, step = set(), []
                    for t in sorted(grown):
                        if t not in covered:
                            step.append(t)
                            covered.update(mult[t][h] for h in inside)
                    steps.append(tuple(step))
                    inside = grown
                steps = shared[cent] = tuple(steps)
            out[c] = steps
        return out

    @cached_property
    def centralizer_generators(self) -> dict:
        """Generators of Z(c) for each class representative c of ``class_data``,
        in its order.  When Z(c) is all of G they are G's ``generators`` (as
        for condition (1) in ``pbw``); otherwise the elements that open the
        steps of ``centralizer_chains``: each element of Z(c), in ascending
        order, that the ones chosen before it do not generate."""
        everything = self.generators
        chains = self.centralizer_chains
        return {c: everything if len(cent) == self.size else tuple(step[1] for step in chains[c])
                for c, cent in self.class_data.centralizer.items()}

    @cached_property
    def conjugation_walk(self) -> tuple:
        """Each conjugacy class reached from its representative c (as in
        ``class_data``, in its order) by conjugation g -> s^-1 g s with G's
        ``generators`` s: the edges (b, s, s^-1 b s) of the breadth-first
        trees, each to an element not reached before, class after class.
        Every element but the representatives is reached once."""
        gens = self.generators
        conjugate, inv = self.conjugate, self.inv
        maps = [[conjugate(inv[s], g) for g in range(self.size)] for s in gens]
        return tuple((b, gens[k], g) for c in self.class_data.centralizer
                     for b, k, g in _walk(maps, c))


def _generated(mult, gens) -> set:
    """The subgroup generated by gens: the closure of {1} under right
    multiplication by them (in a finite group that is closed under
    inverses too)."""
    reached, queue = {0}, [0]
    for a in queue:
        row = mult[a]
        for s in gens:
            b = row[s]
            if b not in reached:
                reached.add(b)
                queue.append(b)
    return reached


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="trivial")


def group_from_table(table, name="table-group") -> FiniteGroup:
    size = len(table)
    _check_order(size)
    for i, row in enumerate(table):
        if len(row) != size:
            raise GroupConstructionError(f"row {i} has length {len(row)}, expected {size}")
        if sorted(row) != list(range(size)):
            raise GroupConstructionError(f"row {i} is not a permutation of 0..{size - 1}")
    g = FiniteGroup(table, name=name)
    g.validate_associativity()
    return g


def _walk(maps, start: int = 0) -> list[tuple[int, int, int]]:
    """The breadth-first tree from index ``start`` under the index maps: its
    edges (a, k, maps[k][a]), each to an index not reached before, in the
    order the walk finds them."""
    seen, queue, edges = {start}, [start], []
    for a in queue:
        for k, f in enumerate(maps):
            b = f[a]
            if b not in seen:
                seen.add(b)
                queue.append(b)
                edges.append((a, k, b))
    return edges


def _table_from_left(size: int, left) -> list:
    """The multiplication table of a group of the given size from the left
    translations L_s of its generators, as index maps (L_s[a] is the index
    of s a), which must reach every element from the identity.
    (s a) b = s (a b) gives row s a of the table as L_s applied to row a.
    The walk from the identity, whose row is 0..size-1, along the L_s
    reaches every row this way."""
    mult = [None] * size
    mult[0] = tuple(range(size))
    for a, k, b in _walk(left):
        mult[b] = tuple(map(left[k].__getitem__, mult[a]))
    return mult


def group_from_permutations(generators, degree=None, name=None) -> FiniteGroup:
    """Closure of permutation generators, canonically ordered: identity first,
    then sorted by image tuple.  Associativity is structural.

    The table is filled from the generators (``_table_from_left``): the
    only permutations composed are a generator s times each element, which
    gives left multiplication by s as a map L_s on indices."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise GroupConstructionError("need a degree for an empty generator list")
        degree = len(gens[0])
    if not 1 <= degree <= MAX_GROUP_ORDER:
        # every element is stored as a degree-long tuple
        raise GroupConstructionError(
            f"degree {degree} is not from 1 to MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise GroupConstructionError(f"generator {g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_compose(g, p)
                if q not in elements:
                    _check_order(len(elements) + 1)
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = sorted(elements)  # identity is lexicographically least
    index = {p: i for i, p in enumerate(ordered)}
    left = [[index[perm_compose(g, p)] for p in ordered] for g in gens]
    return FiniteGroup(
        _table_from_left(len(ordered), left),
        name=name or f"perm-group(deg {degree}, order {len(ordered)})",
        perms=ordered,
        generator_indices=[index[g] for g in gens],
    )


def group_from_cyclic_orders(orders, name=None) -> FiniteGroup:
    """Direct product Z/c1 x ... x Z/ck; elements are exponent tuples in
    mixed-radix order with the identity (0, ..., 0) first, and the
    generators are the unit tuples e_i with c_i > 1.  Each order must be an
    ``int`` (not a bool) of at least 1.

    The table is filled from the generators (``_table_from_left``), with no
    tuple added.  The index of a label a is sum_i a_i w_i with the weight
    w_i = c_(i+1) ... c_k, so e_i has index w_i, and left translation by
    e_i adds 1 to digit i modulo c_i: it maps index x to x + w_i, or to
    x - (c_i - 1) w_i when digit i of x, (x // w_i) mod c_i, is c_i - 1.
    Row e_i + a of the table is that map applied to row a, as
    (e_i + a) + b = e_i + (a + b), and every label is a sum of multiples
    of the e_i, so the walk from the identity, whose row is 0..|G|-1,
    along these maps reaches every row."""
    orders = tuple(orders)
    if any(type(c) is not int for c in orders):
        raise GroupConstructionError(f"cyclic orders must be ints, got {list(orders)!r}")
    if any(c < 1 for c in orders):
        raise GroupConstructionError("cyclic orders must be positive")
    size = prod(orders)
    _check_order(size)
    weights = [prod(orders[i + 1:]) for i in range(len(orders))]
    gens = [(w, c) for w, c in zip(weights, orders) if c > 1]
    left = [[x + w if x // w % c < c - 1 else x - (c - 1) * w for x in range(size)] for w, c in gens]
    return FiniteGroup(
        _table_from_left(size, left),
        name=name or ("Z/" + "xZ/".join(str(c) for c in orders) if orders else "trivial"),
        labels=list(product(*map(range, orders))),
        generator_indices=[w for w, _ in gens],
    )


def symmetric_order(n: int) -> int:
    """n!, refused for n < 1 and for n! past ``MAX_GROUP_ORDER`` (before
    any factorial past the bound is computed)."""
    if n < 1:
        raise GroupConstructionError("n must be at least 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
        _check_order(order)
    return order


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """S_n acting on {0..n-1}, canonically ordered by image tuple.  An n
    that ``symmetric_order`` refuses is refused before any permutation is
    built.  Memoized on n, holding the group alone: the closed forms of
    ``classify`` and every S_n instance must share one group object, since
    ``pbw.require_kappa_on`` and ``KappaMap`` equality compare groups by
    identity."""
    symmetric_order(n)
    if n == 1:
        return FiniteGroup([[0]], name="S1", perms=[(0,)])
    gens = [perm_from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(perm_from_cycles(n, [tuple(range(n))]))
    return group_from_permutations(gens, degree=n, name=f"S{n}")


# ---------------------------------------------------------------------------
# 2-cocycles
# ---------------------------------------------------------------------------


class _PairTable(dict):
    """op(x, y) on pairs of the distinct values of a cocycle table, at key
    i * m + j for x = distinct[i], y = distinct[j] and m = len(distinct).

    Each entry is computed on its first lookup.  Equal entries may be
    distinct objects (only 0 and +-1 are shared, by ``scalars``), so
    readers compare them with ``==``."""

    def __init__(self, distinct, op):
        super().__init__()
        self.distinct, self.op = distinct, op

    def __missing__(self, key):
        i, j = divmod(key, len(self.distinct))
        r = self[key] = self.op(self.distinct[i], self.distinct[j])
        return r


class Cocycle2:
    """A normalized 2-cocycle on a finite group, stored as a tuple
    ``distinct`` of nonzero scalars and an integer table ``index``:
    alpha(g, h) = distinct[index[g][h]].  ``distinct`` may hold values that
    no entry uses (``cocycle_from_rows`` lists every m-th root of unity).
    A table has few distinct values (two for spin(n), at most the root order
    for a bicharacter), so whatever is computed per distinct value or per
    pair of them (the zero check here, the products of
    ``cocycle_failures``, the quotients of ``conj_ratio``) is computed a few
    times rather than |G|^2 or |G|^3 times.  Beyond the table nothing is
    kept per element: ``conj_ratio`` looks each entry up in the quotients
    when it is asked."""

    def __init__(self, group: FiniteGroup, distinct, index, name="cocycle"):
        self.group = group
        self.name = name
        self.distinct = tuple(distinct)
        self.index = tuple(map(tuple, index))
        n = group.size
        if len(self.index) != n or any(len(r) != n for r in self.index):
            raise CocycleError("cocycle table dimensions do not match the group")
        zeros = {k for k, x in enumerate(self.distinct) if x.is_zero()}
        for g, row in enumerate(self.index if zeros else ()):
            if not zeros.isdisjoint(row):
                h = next(h for h, k in enumerate(row) if k in zeros)
                raise CocycleError(f"cocycle value at ({g}, {h}) is zero")
        self._quotients = _PairTable(self.distinct, truediv)
        self._products = _PairTable(self.distinct, mul)

    def __call__(self, g: int, h: int) -> CyclotomicScalar:
        return self.distinct[self.index[g][h]]

    def conj_ratio(self, h: int, g: int) -> CyclotomicScalar:
        """alpha(h, g) / alpha(h g h^-1, h) -- the scalar in t_h t_g t_h^-1.
        One entry, computed on demand: the quotient of two distinct values,
        each such pair divided once (``_quotients``)."""
        m, index = len(self.distinct), self.index
        return self._quotients[index[h][g] * m + index[self.group.conjugate(h, g)][h]]

    def cocycle_failures(self, firsts, lasts):
        """The triples (a, b, c) with a in ``firsts``, b in G and c in
        ``lasts``, in that order, at which the cocycle identity
        alpha(a, b) alpha(ab, c) = alpha(b, c) alpha(a, bc) fails, or the
        group's (ab)c = a(bc) does.

        Each side is a product of two distinct values, computed once per
        pair (``_products``), and the sides are compared with ``x is y or
        x == y``: ``is`` holds for the shared 0 and +-1 of ``scalars``, and
        ``==`` decides every value exactly, also when equal values are
        stored at different orders.  The rows of a and b are read once per
        (a, b)."""
        mult, index, m, products = self.group.mult, self.index, len(self.distinct), self._products
        lasts = tuple(lasts)
        for a in firsts:
            row_a, mult_a = index[a], mult[a]
            for b, (ab, left) in enumerate(zip(mult_a, row_a)):
                row_ab, mult_ab, row_b, mult_b = index[ab], mult[ab], index[b], mult[b]
                left *= m
                for c in lasts:
                    bc = mult_b[c]
                    x, y = products[left + row_ab[c]], products[row_b[c] * m + row_a[bc]]
                    if not (x is y or x == y) or mult_ab[c] != mult_a[bc]:
                        yield a, b, c


def cocycle_from_values(group: FiniteGroup, values, name="cocycle") -> Cocycle2:
    """The cocycle with table values[g][h].  This is the one place that
    deduplicates scalars: values of one layout (order, coeffs, den) become
    one entry of ``distinct``, the first of them in row-major order."""
    shared: dict = {}
    index = [[shared.setdefault((x.order, x.coeffs, x.den), (len(shared), x))[0] for x in row]
             for row in values]
    return Cocycle2(group, [x for _, x in shared.values()], index, name)


def trivial_cocycle(group: FiniteGroup) -> Cocycle2:
    row = (0,) * group.size
    return Cocycle2(group, (ONE,), (row,) * group.size, name="trivial")


def bicharacter_cocycle(group: FiniteGroup, exponents, root_order: int = 2) -> Cocycle2:
    """alpha(a, b) = zeta_m^(sum_ij E[i][j] a_i b_j) on a product of cyclic
    groups carrying exponent-tuple labels, for a positive ``int`` m =
    root_order (a bool is refused).  The exponent a_i b_j is only defined
    modulo the coordinate orders, so E[i][j] * c_i and E[i][j] * c_j must
    both vanish mod m; anything else is rejected.  The table is filled in
    exponents e mod m: the linear form u_a = E^T a, u_a[j] = sum_i E[i][j]
    a_i, is computed once per a, and entry (a, b) is (u_a . b) mod m, which
    is the double sum.  zeta_m^e has order m / gcd(m, e), so values past
    ``MAX_CONDUCTOR`` are refused before any root is built.

    The table is a normalized 2-cocycle by construction, so it needs no
    ``validate_cocycle``.  The labels are those of
    ``group_from_cyclic_orders``, whose product adds them coordinatewise mod
    the orders c_i.  Write
    B(a, b) = sum_ij E[i][j] a_i b_j mod m on labels.  Replacing a_i by
    a_i + c_i adds E[i][j] c_i b_j, which is 0 mod m by the check above,
    and likewise for b_j, so B is well defined on the group and bilinear:
    B(a + b, c) = B(a, c) + B(b, c) and B(a, b + c) = B(a, b) + B(a, c).
    Then both sides of alpha(a, b) alpha(a + b, c) = alpha(b, c)
    alpha(a, b + c) are zeta_m^(B(a, b) + B(a, c) + B(b, c)), and
    B(0, b) = B(a, 0) = 0 makes alpha normalized."""
    if type(root_order) is not int or root_order < 1:
        raise CocycleError(f"root_order must be a positive int, got {root_order!r}")
    if group.labels is None:
        raise CocycleError("bicharacter cocycles need a cyclic-product group")
    k = len(group.labels[0])
    if len(exponents) != k or any(len(r) != k for r in exponents):
        raise CocycleError(f"exponent matrix must be {k}x{k}")
    orders = [max(lab[i] for lab in group.labels) + 1 for i in range(k)]
    for i in range(k):
        for j in range(k):
            e = exponents[i][j]
            if (e * orders[i]) % root_order or (e * orders[j]) % root_order:
                raise CocycleError(
                    f"exponent E[{i}][{j}] = {e} is not well-defined on "
                    f"Z/{orders[i]} x Z/{orders[j]} with a root of order {root_order}"
                )
    forms = [[sum(map(mul, col, a)) for col in zip(*exponents)] for a in group.labels]
    pos: dict = {}  # each exponent that occurs -> its position in distinct
    index = [[pos.setdefault(sum(map(mul, u, b)) % root_order, len(pos)) for b in group.labels]
             for u in forms]
    conductor = reduce(lcm, (root_order // gcd(root_order, e) for e in pos), 1)
    if conductor > MAX_CONDUCTOR:
        raise CocycleError(
            f"the table's values need Q(zeta_{conductor}), past MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    return Cocycle2(group, [root_of_unity(root_order, e) for e in pos], index,
                    name=f"bicharacter(z{root_order})")


def cocycle_from_rows(group: FiniteGroup, root_order: int, rows, name="cocycle") -> Cocycle2:
    """The normalized table alpha with alpha(s, h) = zeta_m^rows[k][h] at
    each generator s = group.generator_indices[k], m = root_order.

    The identity at (s, a, h), alpha(s, a) alpha(sa, h) = alpha(a, h)
    alpha(s, ah), gives the row of sa from the row of a and the generator
    row of s: alpha(sa, h) = alpha(a, h) alpha(s, ah) / alpha(s, a).  Row 1
    is 1, and the walk from 1 by the left translations a -> sa (the rows
    ``G.mult[s]``, as in ``_table_from_left``) reaches every a, so the
    generator rows fix the table.  It is filled in exponents mod m, on
    integers only, along the breadth-first tree of ``_walk`` from 1.  The
    same expression is then computed at each edge (a, s) off that tree and
    compared with the stored row sa; the first mismatch raises
    ``CocycleError`` naming the edge.  Each given row must also read
    alpha(s, 1) = 1.

    These checks prove the table a normalized cocycle.  Let omega =
    d(alpha), omega(a, b, c) = alpha(b, c) alpha(a, bc) / (alpha(a, b)
    alpha(ab, c)).  The fill at an edge (a, s) is exactly omega(s, a, .) =
    1, and the check asserts the same at every other edge, so omega(s, ., .)
    = 1 for each generator s.  Row s of the table is the given row: s is
    reached from 1 at the walk's first step, where the fill gives
    alpha(s, h) = e(h) - e(1) = e(h) (in exponents), and a generator listed
    twice, or the identity listed, is an edge off the tree from 1, checked
    against the row stored first.  Row 1 is 0, and the fill keeps column 1
    at 0 along the walk, as alpha(sa, 1) = alpha(a, 1).  So the table is
    normalized, omega(1, ., .) = 1, and the argument of ``validate_cocycle``
    gives omega = 1 everywhere.  A table that passes needs no
    ``validate_cocycle``, which stays the independent check of tables given
    by value.

    The group table is read by rows only, and the rows are returned as
    built, so no table is transposed or copied."""
    G, m = group, root_order
    if len(rows) != len(G.generator_indices) or any(len(e) != G.size for e in rows):
        raise CocycleError("need one row of |G| exponents per generator")
    for k, e in enumerate(rows):
        if e[0] % m:
            raise CocycleError(f"row {k} is not that of a normalized cocycle")
    maps = [G.mult[s] for s in G.generator_indices]
    tree = _walk(maps)
    if len(tree) != G.size - 1:
        raise CocycleError("the group's generators do not reach every element")
    table = [None] * G.size
    table[0] = (0,) * G.size

    def fill(a, k):  # the row of s_k a, from the row of a
        e, ea = rows[k], rows[k][a]
        return tuple([(x + e[ah] - ea) % m for x, ah in zip(table[a], G.mult[a])])

    for a, k, sa in tree:
        table[sa] = fill(a, k)
    on_tree = {(a, k) for a, k, _ in tree}
    for a in range(G.size):
        for k, s in enumerate(G.generator_indices):
            if (a, k) not in on_tree and fill(a, k) != table[maps[k][a]]:
                raise CocycleError(
                    f"the rows are not those of a cocycle: the identity fails at edge ({a}, {s})")
    return Cocycle2(G, [root_of_unity(m, e) for e in range(m)], table, name=name)


def validate_cocycle(alpha: Cocycle2, max_witnesses: int = 10) -> dict:
    """Check normalization and the 2-cocycle identity
    alpha(a, b) alpha(ab, c) = alpha(b, c) alpha(a, bc).  The
    coboundary-invariant ratio beta(g, h) = alpha(g, h)/alpha(h, g) of a
    commuting pair, which certifies nontriviality of the class, is
    ``alpha.conj_ratio(g, h)``.

    The identity is checked for first arguments a in the identity and the
    generators of G only (every a when the group records no generators), so
    cocycle witnesses name such an a.  That suffices: the associator
    omega = d(alpha), omega(a, b, c) = alpha(b, c) alpha(a, bc) /
    (alpha(a, b) alpha(ab, c)), satisfies d(omega) = 1 for any table of
    nonzero values.  If omega(s, ., .) = 1 for a generator s, then d(omega)
    at (s, b, c, d) reads omega(s b, c, d) = omega(b, c, d).  So
    omega(g, ., .) = omega(1, ., .) for every g, a product of generators,
    and the identity row checks that this is 1.

    The triples are those of ``alpha.cocycle_failures``, the one evaluator
    of the identity, which also fails a triple where (ab)c != a(bc) in the
    group.  Every group this package builds is associative
    (``group_from_table`` checks a table given by value), so that adds no
    failure to a report.  The witnesses are listed in the order of the
    triples, after the normalization ones, and the evaluation stops once
    the list is full and the identity has failed.
    """
    G = alpha.group
    ones = [x.is_one() for x in alpha.distinct]
    report = {"normalized": True, "cocycle": True, "failures": []}
    failures = report["failures"]
    for g in range(G.size):
        if not ones[alpha.index[g][0]] or not ones[alpha.index[0][g]]:
            report["normalized"] = False
            if len(failures) < max_witnesses:
                failures.append(("normalization", g))
    for a, b, c in alpha.cocycle_failures(dict.fromkeys((0, *G.generators)), range(G.size)):
        report["cocycle"] = False
        if len(failures) >= max_witnesses:
            break
        failures.append(("cocycle", a, b, c))
    return report
