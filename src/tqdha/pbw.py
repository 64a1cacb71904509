"""PBW condition checker, exact parameter-space solver, and an independent
Diamond-Lemma rewriting oracle for the filtered quotients H_{q,kappa,alpha}.

The two PBW conditions are linear in kappa, so the space of all valid maps is
the kernel of an explicit sparse system over the unknowns kappa_g(v_i, v_j),
g in G, i < j.  ``_ConditionSites`` is the only place the conditions are
written down, a site at a time: condition (1) at a link (h, g), condition (2)
at an element g.  The action holds one per (q, alpha), and every reader
writes through it, so condition (1)'s images at h are taken once per
problem.  One system is built from it, once per problem: the solver's
``class_local_system``, over the unknowns at class representatives, which
skips condition (2) where condition (1) alone forces kappa to zero.  The
solver's expansion of its kernel over the classes and the checker build
none: the expansion solves the condition-(1) rows at each walk edge, which
it drops, and the checker reads the rows at single sites, each written on
its first use and kept.  The checker multiplies kappa's coordinates with the rows at the
sites that meet kappa's support, in the order of the exhaustive system
(condition (1) at (h, g) for each generator h and every g, then condition
(2) at every g).  The rewriting oracle never looks at the conditions: it
compares the two normal forms of each overlap word.  It reduces the words
of tvv and vvv both ways; those of ttt and ttv have one reduction path a
side, and it reads their normal forms from the closed forms written out
below.

Both stop once their report is settled.  A report keeps the first
``max_witnesses`` failures, in row or word order, and its flags, and a flag
needs only one failure.  The checker evaluates the rows that meet kappa's
support in row order, condition (1) before condition (2), and once a
condition has failed with the list full it skips that condition's remaining
rows.  The oracle decides the words in family and word order and stops at
max(max_witnesses, 1) witnesses (``resolvable`` needs one, even when none is
listed).  The rows and words evaluated up to the stop are the same, in the
same order, with the same exact defects, so the report is that of
evaluating all of them; a kappa that passes has every one evaluated.

* Generators suffice for condition (1).  Condition (1) for h says that kappa
  is fixed by kappa -> t_h kappa(h^-1 ., h^-1 .) t_h^-1.  Conjugation by t_h
  is an automorphism of C^alpha G, and the alpha scalars cancel in
  t_h t_k (.) t_k^-1 t_h^-1, so acting by k and then h is acting by hk.  The
  h that fix kappa thus form a subgroup, and the rows for the generators of
  G cut out the same space as the rows for all of G.  A group that records
  no generators gets rows for every element (``FiniteGroup.generators``).
* Once condition (1) holds, condition (2) at g is condition (2) at every
  conjugate hgh^-1, so one element per class suffices.  Let P in V (x) V be
  spanned by p_ab = v_a v_b - q_ab v_b v_a, and K: V (x) V -> C^alpha G the
  bilinear map v_a (x) v_b -> kappa(v_a, v_b), so K(p_ab) = 2 kappa(v_a, v_b).
  For k > j > i the tensor
      w_kji = p_kj (x) v_i - q_ji p_ki (x) v_j + q_kj q_ki p_ji (x) v_k
            = v_k (x) p_ji - q_kj v_j (x) p_ki + q_ji q_ki v_i (x) p_kj
  lies in W = (P (x) V) n (V (x) P), and Phi = K (x) 1 - 1 (x) K, with its
  products taken in T(V) # C^alpha G (where t_g v = g(v) t_g), sends it to
  twice sum_g E_g t_g, E_g in V the left side of condition (2) at (g, i, j,
  k).  The w_kji span W: a tensor x in W has x_abc = -q_ba x_bac and
  x_abc = -q_cb x_acb, and vanishes on words with a letter twice (x_aab = 0,
  x_aba = -q_ab x_aab), so its C(n, 3) coefficients on strictly decreasing
  words fix it.  P is E_-, the -1 eigenspace of the braiding, and the
  extension check makes h (x) h preserve it for every h (the eigenspace
  statement in ``quantum.check_action_extends``), so h acts on W
  (diagonally, bijectively).  Condition (1) says
  K(h u (x) h v) = t_h K(u (x) v) t_h^-1, so Phi(h w) = t_h Phi(w) t_h^-1,
  and t_h (v t_g) t_h^-1 = h(v) t_h t_g t_h^-1 is a nonzero multiple of
  h(v) t_(hgh^-1).  Hence the t_(hgh^-1) components of Phi(W) are h applied
  to the t_g components up to a scalar: they all vanish, or none does.  So
  with condition (1) for every h (its generator rows suffice, above), the
  rows of condition (2) at class representatives cut out the same kernel,
  and a kappa passes both conditions exactly when it passes condition (1)
  and condition (2) at the representatives.
* The class-local system gives the whole parameter space.  Let rho(h) be
  the map kappa -> t_h kappa(h^-1 ., h^-1 .) t_h^-1 above.  As alpha is a
  2-cocycle, C^alpha G is associative and t_h t_k = alpha(h, k) t_(hk), so
  rho is an action of G.  rho(h) sends the t_g component of kappa to the
  t_(hgh^-1) one, and condition (1) at (h, g) says that kappa_(hgh^-1) is
  the image of kappa_g.  Fix a representative c per class.  A solution of
  condition (1) has each kappa_c fixed by Z(c) and kappa_(hch^-1) =
  rho(h) kappa_c, so its kappa_c determine it.  Conversely, Z(c)-fixed
  kappa_c define kappa_(hch^-1) = rho(h) kappa_c consistently (h' = hz with
  z in Z(c) gives rho(h') kappa_c = rho(h) kappa_c), and the result
  satisfies condition (1), as rho(k) rho(h) = rho(kh).  So
  kappa -> (kappa_c)_c is a linear bijection from the solutions of
  condition (1) onto the tuples of Z(c)-fixed kappa_c.  The z fixing kappa_c
  form a subgroup, so the generators of Z(c) suffice (first bullet), and
  condition (2) at c reads kappa_c only (second bullet).  The solver expands
  each kernel vector along ``FiniteGroup.conjugation_walk``: on an edge
  (b, s, g), g = s^-1 b s != b, each condition-(1) row at (s, g) holds one
  unknown at g, with a nonzero coefficient, and solving the rows for them
  gives kappa_g = rho(s^-1) kappa_b, the value of the one solution with
  these kappa_c whatever the path.  A subspace has one basis of
  ``linalg.kernel_basis``'s shape, which ``linalg.echelon_basis`` finds, so
  the output is that of plain elimination of every row.
* Each overlap word's normal forms are affine in kappa, so each family is
  decided once per problem with kappa left open.  The kappa rule
  v_j v_i -> q_ji v_i v_j + kappa(v_j, v_i) writes terms with two variable
  letters fewer and an overlap word has at most three, so it fires at most
  once on any path, never in ttt and ttv, which are decided in closed form
  (below) and have no columns.  So the rewriting engine fires the three
  rules with kappa = 0 only: its v_j v_i rule writes q_ji v_i v_j and
  records the firing on a term c head v_j v_i tail as (head, j, i, tail, c),
  the kappa term it leaves out.  The work list reduces each term on its own,
  so reducing the deferred c kappa(v_j, v_i) between head and tail alone
  gives the same sum: over the events, c sum_g kappa_g(v_j, v_i)
  NF(head t_g tail).  head t_g tail has at most one variable letter, so its
  reduction records no firing.  With kappa_g(v_j, v_i) = -q_ji x[g, i, j]
  (i < j), left minus right is D_0 + sum_u x_u col_u, the terms of D_0 of
  the word's variable degree and those of the columns two lower, so a word
  resolves exactly when D_0 = 0 and the sum over kappa's coordinates does.
  The columns are kept by word, so a call reads the sum for one word at a
  time, in word order.
* The solver's recheck is independent.  The checker evaluates rows written
  by the writers that wrote the solver's, so the solver re-verifies its
  basis with the oracle families ttv, tvv and vvv instead; ttt is the
  cocycle identity, which holds once a problem is loaded: ``validate_cocycle``
  checks a table given by value, ``cocycle_from_rows``'s check at its
  walk's non-tree edges proves a spin(n) table, and the trivial and
  bicharacter tables satisfy it by construction.

By default the oracle writes the last group letter of each word only at
G's ``generators`` s: t_g t_h t_s, t_g t_s v_i and t_s v_j v_i, for all g,
h and i; vvv has no group letter, and ``exhaustive=True`` writes every
word.  Each step below shows that the last group letters at which a family
resolves are closed under products, hence form a subgroup of the finite
group G, which is all of G once it holds the generators.  The proofs use
the rewriting rules only, none of the checker's lemmas, so the oracle stays
independent.  ttt and ttv are still decided although the load-time checks
cover them: the oracle does not assume what it could check.  It checks each
law through the evaluator of the structure that states it,
``Cocycle2.cocycle_failures`` and ``GroupAction.composition_failures``,
which the load-time checks read with the first argument at the generators
and the oracle with the last letter at its letters, so each law is
evaluated in one place.  The tests' references reduce every word of these
families themselves (``tests/reference.py``), so they stay independent of
both evaluators.

* ttt.  The first step fixes the side; after it each term is two group
  letters, then one, so each side has one reduction path:
      left:  t_g t_h t_k -> alpha(g, h) t_(gh) t_k
                         -> alpha(g, h) alpha(gh, k) t_((gh)k),
      right: t_g t_h t_k -> alpha(h, k) t_g t_(hk)
                         -> alpha(h, k) alpha(g, hk) t_(g(hk)).
  The coefficients are nonzero, so t_g t_h t_k resolves exactly when
  (gh)k = g(hk) in the group table and
  alpha(g, h) alpha(gh, k) = alpha(h, k) alpha(g, hk), call it A(g, h, k);
  ``Cocycle2.cocycle_failures`` tests the two for each word.
  Let k1 and k2 satisfy A(., ., k) for every g and h.  Then A(gh, k1, k2),
  A(g, h, k1), A(g, hk1, k2) and A(h, k1, k2) give in turn
      alpha(g, h) alpha(gh, k1k2) alpha(k1, k2)
          = alpha(g, h) alpha(gh, k1) alpha(ghk1, k2)
          = alpha(h, k1) alpha(g, hk1) alpha(ghk1, k2)
          = alpha(h, k1) alpha(hk1, k2) alpha(g, hk1k2)
          = alpha(k1, k2) alpha(h, k1k2) alpha(g, hk1k2),
  and alpha(k1, k2) != 0, so A(g, h, k1k2) holds.
* ttv.  Write g(v_k) = sum_l g^k_l v_l.  After the first step each term
  has one redex, its pair t v or t t: a variable before a group letter is
  none, and no two variables meet, so the kappa rule never fires.  So each
  side has one reduction path, term by term:
      left:  t_g t_h v_i -> alpha(g, h) t_(gh) v_i
                         -> alpha(g, h) sum_l (gh)^i_l v_l t_(gh),
      right: t_g t_h v_i -> sum_k h^i_k t_g v_k t_h
                         -> sum_k sum_l h^i_k g^k_l v_l t_g t_h
                         -> alpha(g, h) sum_l (sum_k h^i_k g^k_l) v_l t_(gh).
  The v_l t_(gh) are distinct irreducible words and alpha(g, h) != 0, so
  t_g t_h v_i resolves exactly when (gh)^i_l = sum_k h^i_k g^k_l for every
  l, that is (gh)(v_i) = g(h(v_i)); ``GroupAction.composition_failures``
  tests this for each word.  If h1 and h2 satisfy this for every g and i,
  then (g h1 h2)(v) = (g h1)(h2(v)) = g(h1(h2(v))) = g((h1 h2)(v)).
* tvv.  Once ttt and ttv resolve at every element, the rules t_g t_h and
  t_g v_i alone are confluent, so B = T(V) # C^alpha G has the words w t_g
  (w a word in the v_i) as a basis, and reducing with those rules computes
  products in B.  On B_2 = span{w t_g : |w| <= 2} the rule
  v_a v_b -> q_ab v_b v_a + kappa(v_a, v_b) (a > b) reduces every word in
  one way; call the result pi, a projection onto the ordered words.  Let
  r_ab = v_a v_b - q_ab v_b v_a - kappa(v_a, v_b) and
  M = span{r_ab t_g : a > b, g in G}.  Each r_ab t_g is v_a v_b t_g plus
  ordered words, and pi kills it, so B_2 = (ordered words) + M and
  M = ker pi.  Both reductions of t_h v_a v_b (a > b) first compute in B
  and then apply pi, and they differ by pi(t_h r_ab): the word resolves
  exactly when t_h r_ab lies in M.  M t_g lies in M, as
  r_ab t_k t_g = alpha(k, g) r_ab t_(kg).  So if h1 and h2 pass for every
  a > b, then t_(h2) r_ab is a sum of terms c r_cd t_g, and
  alpha(h1, h2) t_(h1 h2) r_ab = t_(h1) t_(h2) r_ab is a sum of terms
  c (t_(h1) r_cd) t_g in M t_g, inside M.

So ttt and ttv at generators give their exhaustive verdicts, and tvv at
generators gives its exhaustive verdict whenever ttt and ttv resolve; a
loaded problem guarantees that, since its cocycle and its action are
validated.  The verdict of all four families is the exhaustive one in every
case: if ttt or ttv fails somewhere, it fails at a generator.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import comb
from typing import NamedTuple

from .groups import Cocycle2, FiniteGroup
from .linalg import SparseSum, bump, echelon_basis, kernel_basis, same_span
from .quantum import GroupAction, QMatrix, check_action_extends
from .scalars import ONE, ZERO, parse_scalar


class ExtensionError(ValueError):
    """The group action does not extend to S_q(V), so the PBW machinery
    does not apply."""


class CrossCheckError(ArithmeticError):
    """Two independent engines disagree on the same problem."""


class KappaMap(SparseSum):
    """A bilinear map kappa: V x V -> C^alpha G with the quantum antisymmetry
    kappa(v_i, v_j) = -q_ij kappa(v_j, v_i), held by its coordinates:
    ``coeffs[(g, i, j)]`` is the coefficient of t_g in kappa(v_i, v_j) for
    i < j, with no zero kept.  A key outside range(|G|) x {0 <= i < j < n}
    is refused.  Sums, ``scale``, equality and ``is_zero`` are
    ``SparseSum``'s: a sum takes two kappa maps of one group, n and q, and
    keeps them."""

    __slots__ = ("group", "n", "q")

    def __init__(self, group: FiniteGroup, n: int, q: QMatrix, coeffs=None):
        elements = range(group.size)
        for key in coeffs or ():
            if not (type(key) is tuple and len(key) == 3 and key[0] in elements
                    and 0 <= key[1] < key[2] < n):
                raise ValueError(f"kappa coordinates must be keyed (g, i, j) with g in "
                                 f"0..{group.size - 1} and 0 <= i < j < {n}, got {key!r}")
        super().__init__(coeffs)
        self.group, self.n, self.q = group, n, q

    def coordinate_row(self) -> dict:
        """The coordinates keyed by a flat integer index (for rank computations)."""
        npairs = self.n * (self.n - 1) // 2
        return {g * npairs + _pair_index(i, j, self.n): c for (g, i, j), c in self.coeffs.items()}

    def to_records(self) -> list:
        """Serialization: one record per pair with a nonzero value, in pair
        order, 1-based indices."""
        by_pair: dict = {}
        for (g, i, j), c in self.coeffs.items():
            by_pair.setdefault((i, j), {})[g] = c
        return [{"i": i + 1, "j": j + 1,
                 "coefficients": {str(g): c.serialize() for g, c in sorted(by_pair[i, j].items())}}
                for i, j in sorted(by_pair)]

    @staticmethod
    def from_records(group, n, q, records) -> "KappaMap":
        # an element's key is its index as str(g) writes it, which int() would
        # also read from " 1", "+1", "01" or "0_1"
        index = {str(g): g for g in range(group.size)}
        coeffs, seen = {}, set()
        for rec in records:
            if not (isinstance(rec, dict) and isinstance(rec.get("coefficients"), dict)
                    and type(rec.get("i")) is int and type(rec.get("j")) is int):
                raise ValueError(f"kappa record {rec!r} needs integer i, j and coefficients")
            if not 1 <= rec["i"] < rec["j"] <= n:
                raise ValueError(f"kappa record {rec!r} needs 1 <= i < j <= {n}")
            i, j = rec["i"] - 1, rec["j"] - 1
            if (i, j) in seen:
                raise ValueError(f"kappa record {rec!r} repeats the pair ({i + 1}, {j + 1})")
            seen.add((i, j))
            for key, s in rec["coefficients"].items():
                if key not in index:
                    raise ValueError(f"kappa record {rec!r}: {key!r} is not a group element "
                                     f"index 0..{group.size - 1}")
                coeffs[index[key], i, j] = parse_scalar(s)
        return KappaMap(group, n, q, coeffs)


def same_space(a, b) -> bool:
    """Whether two lists of kappa maps, each meant as a basis, span the same
    space.  The lengths are compared as well, since a list with a dependent
    member can span the same space as a basis."""
    return len(a) == len(b) and same_span(
        [k.coordinate_row() for k in a], [k.coordinate_row() for k in b]
    )


def require_kappa_on(kappa: KappaMap, action: GroupAction) -> None:
    """Refuse a kappa built on another group object or another n than the
    action's: its coordinates (g, i, j) would index elements and pairs of
    another problem.  Raises ValueError naming both sides."""
    if kappa.group is not action.group or kappa.n != action.n:
        raise ValueError(f"kappa on {kappa.group!r} with n = {kappa.n} does not belong to the "
                         f"action of {action.group!r} with n = {action.n}; a kappa is read "
                         "only against the group object and n of its own problem")


def _pair_index(i: int, j: int, n: int) -> int:
    # lexicographic rank of the pair (i, j), i < j
    return i * n - i * (i + 1) // 2 + (j - i - 1)


# ---------------------------------------------------------------------------
# the condition system, built once per problem
# ---------------------------------------------------------------------------

# What is built once per problem is held by its action (``GroupAction.derived``).


def extension_report(action: GroupAction, q: QMatrix) -> dict:
    """``check_action_extends(action, q)``, computed once per (action, q)."""
    return action.derived(check_action_extends, q)


class ConditionSystem(NamedTuple):
    """Sparse rows over the unknowns x[(g, i, j)] = kappa_g(v_i, v_j), i < j,
    and one tag per row naming its equation: (1, g, h, i, j) for condition
    (1), (2, g, i, j, k, t) for the coefficient of v_t in condition (2)."""

    rows: tuple
    ncols: int
    tags: tuple


class _ConditionSites:
    """The two conditions of one problem, written one site at a time:
    ``condition_one`` at a link (h, g) and ``condition_two`` at an element
    g, each as (row, tag) pairs in row order, from the given column offsets.
    The action holds one per (q, alpha) (``GroupAction.derived``), and it is
    the only writer of the problem's rows: ``parameter_space_rows`` writes
    the solver's system through it, in that system's columns,
    ``_expand_along_classes`` writes the condition-(1) rows of each walk
    edge in columns of its own and drops them, and the checker reads
    ``rows``, which writes a site in global columns (g's block at
    g * npairs) on its first use and keeps it, as ``_OverlapTable`` keeps
    its columns.  It keeps what it
    reads, the action's group and rows, and not the action, which holds it.

    The q products do not depend on g, so they are taken once per problem:
    condition (1)'s right-hand sides once per h (``_condition_one_images``,
    kept in ``images``), and condition (2)'s six factors once per triple
    i < j < k, with which the coefficient of v_t, in the unknowns
    x[g, a, b] = kappa_g(v_a, v_b) (a < b), reads
        x[g,j,k] (g^i_t (-q_kj) + [t = i] q_kj q_ji q_ki)
      + x[g,i,k] (g^j_t q_ki q_ji - [t = j] q_ki q_kj)
      + x[g,i,j] (g^k_t (-q_ji q_kj q_ki) + [t = k] q_ji).
    At each g only the nonzero entries of g's rows i, j and k are read, and
    only the t in {i, j, k} or in the supports of those rows are visited:
    at any other t every term is zero, and the equation gives no row.  So
    the rows are those of a dense evaluation at every t, in the same order,
    with the same keys in the same order and the same tags; each value is
    the same exact product, reassociated.
    """

    def __init__(self, action: GroupAction, q: QMatrix, alpha: Cocycle2):
        n = action.n
        self.group, self.rows_nz, self.n = action.group, action.rows_nz, n
        self.q, self.alpha = q, alpha
        self.npairs, self.pairs = n * (n - 1) // 2, list(combinations(range(n), 2))
        self.images: dict = {}  # h -> _condition_one_images(h)
        self.sites: dict = {}  # (1, h, g) or (2, g) -> its rows, in global columns
        # condition (2): per triple, (pair index, the row r of g read, the
        # factor of g^r_t, the constant at t = r) for each of its three unknowns
        self.triples = []
        for i, j, k in combinations(range(n), 3):
            qji, qki, qkj = q(j, i), q(k, i), q(k, j)
            qkji = qkj * qji * qki
            self.triples.append(((i, j, k), (
                (_pair_index(j, k, n), i, -qkj, qkji),
                (_pair_index(i, k, n), j, qki * qji, -(qki * qkj)),
                (_pair_index(i, j, n), k, -qkji, qji),
            )))

    def _condition_one_images(self, h: int) -> list:
        """Condition (1)'s coefficients at h, the same for every g: per pair
        (i, j), in order, -q_ji and the right-hand side as (pair index of
        (k, l), coefficient), with kappa_g(v_j, v_i) = -q_ji x[g, i, j]."""
        n, q, hrows = self.n, self.q, self.rows_nz[h]
        images = []
        for i, j in self.pairs:
            qji = q(j, i)
            image: dict = {}
            for k, hik in hrows[i]:
                for l, hjl in hrows[j]:
                    if k < l:
                        bump(image, _pair_index(k, l, n), hjl * hik * q(l, k))
            for l, hil in hrows[i]:
                for k, hjk in hrows[j]:
                    if k < l:
                        bump(image, _pair_index(k, l, n), -qji * hil * hjk * q(l, k))
            images.append((-qji, tuple(image.items())))
        return images

    def condition_one(self, h: int, g: int, at_g: int, at_gc: int) -> list:
        """Condition (1) at (h, g), the unknowns at g and hgh^-1 from columns
        at_g and at_gc."""
        if h not in self.images:
            self.images[h] = self._condition_one_images(h)
        ratio, out = self.alpha.conj_ratio(h, g), []
        for p, (minus_qji, image) in enumerate(self.images[h]):
            row: dict = {at_g + p: ratio * minus_qji}
            for kl, c in image:
                bump(row, at_gc + kl, c)
            if row:
                out.append((row, (1, g, h, *self.pairs[p])))
        return out

    def condition_two(self, g: int, at: int) -> list:
        """Condition (2) at g, the unknowns at g from column at."""
        grows = [dict(r) for r in self.rows_nz[g]]
        out = []
        for (i, j, k), terms in self.triples:
            for t in sorted({i, j, k}.union(grows[i], grows[j], grows[k])):
                row: dict = {}
                for p, r, a, b in terms:
                    entry = grows[r].get(t)
                    if entry is not None:
                        bump(row, at + p, entry * a)
                    if t == r:
                        bump(row, at + p, b)
                if row:
                    out.append((row, (2, g, i, j, k, t)))
        return out

    def rows(self, site: tuple) -> list:
        """The rows at the site (1, h, g) or (2, g), in global columns."""
        if site not in self.sites:
            g, npairs = site[-1], self.npairs
            if site[0] == 1:
                gc = self.group.conjugate(site[1], g)
                self.sites[site] = self.condition_one(site[1], g, g * npairs, gc * npairs)
            else:
                self.sites[site] = self.condition_two(g, g * npairs)
        return self.sites[site]


def parameter_space_rows(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, elements, links
) -> ConditionSystem:
    """A homogeneous linear system whose kernel is the parameter space.

    Condition (1), for each (h, g) in ``links`` and i < j:
        alpha(h,g)/alpha(hgh^-1,h) kappa_g(v_j,v_i)
            = sum_{k<l} ddet_ijkl(h) kappa_{hgh^-1}(v_l,v_k).
    Condition (2), for each g in ``elements`` where the one-term
    condition-(1) rows leave an unknown alive (see ``class_local_system``)
    and i < j < k, as an equation in V:
        kappa_g(v_k,v_j)(g(v_i) - q_ji q_ki v_i)
      + kappa_g(v_k,v_i)(q_kj v_j - q_ji g(v_j))
      + kappa_g(v_j,v_i)(q_kj q_ki g(v_k) - v_k) = 0.
    A row's product with kappa's coordinates is lhs - rhs of its equation.
    Equations that hold for every kappa give no row.  Each site's rows are
    written by the action's ``_ConditionSites`` for (q, alpha), the writer
    the checker reads too, so condition (1)'s images at each h are taken
    once per problem.

    The unknowns are x[g, i, j] for the g in ``elements``, the block of
    elements[k] at column k * npairs + (the rank of (i, j)); each link
    (h, g) has g and hgh^-1 among them.
    """
    G = action.group
    npairs = action.n * (action.n - 1) // 2
    block = {g: k * npairs for k, g in enumerate(elements)}
    write = action.derived(_ConditionSites, q, alpha)
    sites = [write.condition_one(h, g, block[g], block[G.conjugate(h, g)]) for h, g in links]
    dead = {col for rows in sites for row, _ in rows if len(row) == 1 for col in row}
    sites += [write.condition_two(g, at) for g, at in block.items()
              if not dead.issuperset(range(at, at + npairs))]
    entries = list(chain.from_iterable(sites))
    return ConditionSystem(tuple(row for row, _ in entries), len(block) * npairs,
                           tuple(tag for _, tag in entries))


def _require_extension(action: GroupAction, q: QMatrix) -> None:
    rep = extension_report(action, q)
    if not rep["symmetric"]:
        raise ExtensionError(
            f"action does not extend to S_q(V); witnesses {rep['symmetric_witnesses']}"
        )


def class_local_system(action: GroupAction, q: QMatrix, alpha: Cocycle2) -> ConditionSystem:
    """The solver's system, which the solver builds once per problem: the
    unknowns at the class representatives c only (in ``class_data`` order),
    condition (1) at (z, c) for the generators z of Z(c)
    (``FiniteGroup.centralizer_generators``), and condition (2) at each c
    where condition (1) leaves an unknown alive.

    Why condition (2) at the other c can be skipped.  A row with a single
    entry (a nonzero scalar, as rows keep no zero) forces its unknown to 0
    in any system that holds it, and condition (2) at c reads the unknowns
    at c only.  So where one-term rows force every unknown at c to 0, each
    condition-(2) row at c holds on the whole kernel, and dropping those
    rows leaves the kernel, and the one basis of ``linalg.kernel_basis``'s
    shape that it has, as they were.
    """
    G = action.group
    reps = tuple(G.class_data.centralizer)
    _require_extension(action, q)
    gens = G.centralizer_generators
    return parameter_space_rows(action, q, alpha, reps, [(z, c) for c in reps for z in gens[c]])


# the violation fields named by a row tag, by condition
_TAG_FIELDS = {
    1: ("condition", "g", "h", "i", "j"),
    2: ("condition", "g", "i", "j", "k", "coefficient_of"),
}


def check_pbw_conditions(
    kappa: KappaMap, action: GroupAction, q: QMatrix, alpha: Cocycle2, max_witnesses: int = 10
) -> dict:
    """Evaluate both PBW conditions exactly: the product of each row of the
    exhaustive system (condition (1) at (h, g) for each generator h and
    every g, then condition (2) at every g) with kappa's coordinates.  A
    nonzero product is a violation, named by the row's tag, with the product
    as its defect; violations are listed in row order, at most
    ``max_witnesses`` of them.  Condition-(1) violations name generators h
    only.

    A row of condition (1) at (h, g) reads kappa_g and kappa_(hgh^-1) only,
    one of condition (2) at g reads kappa_g only, so only the rows at the
    sites that meet kappa's support S can fail.  Those are evaluated in row
    order: condition (1) at (s, g) for each s in ``G.generators`` and g in
    S or s^-1 S s, then condition (2) at g in S.  Each site is written on
    its first use and kept for the problem (``_ConditionSites``).  A
    condition's flag
    needs one failing row, so once a condition has failed with the list
    full, its remaining rows can change nothing and are skipped: after
    condition (1) the evaluation goes on to condition (2), after condition
    (2) it stops.  The rows evaluated before the stop, their order and
    their exact products are those of evaluating every row, so the report
    is the same; a passing kappa has every row that meets its support
    evaluated.  A kappa of another group object or n than the action's is
    refused (``require_kappa_on``).
    """
    require_kappa_on(kappa, action)
    _require_extension(action, q)
    sites = action.derived(_ConditionSites, q, alpha)
    G, x = action.group, kappa.coordinate_row()
    support = {g for g, _, _ in kappa.coeffs}
    conditions = (
        [(1, s, g) for s in G.generators
         for g in sorted(support.union(G.conjugate(G.inv[s], c) for c in support))],
        [(2, g) for g in sorted(support)],
    )
    report = {"condition1": True, "condition2": True, "violations": []}
    violations = report["violations"]
    for condition in conditions:
        for row, tag in chain.from_iterable(map(sites.rows, condition)):
            defect: dict = {}
            for col, c in row.items():
                if col in x:
                    bump(defect, 0, c * x[col])
            if not defect:
                continue
            report[f"condition{tag[0]}"] = False
            if len(violations) < max_witnesses:
                violations.append(dict(zip(_TAG_FIELDS[tag[0]], tag), defect=defect[0].serialize()))
            if len(violations) >= max_witnesses:
                break  # this condition's report is settled
    report["passed"] = report["condition1"] and report["condition2"]
    return report


def _expand_along_classes(solutions, sites: _ConditionSites) -> None:
    """Extend each solution, {element: {pair index: value}} at the class
    representatives, to their classes in place: on each edge (b, s, g) of
    ``FiniteGroup.conjugation_walk`` (g != b, sgs^-1 = b) the condition-(1)
    rows at (s, g), written by ``sites.condition_one`` with g's unknowns
    from column 0 and b's from column npairs and kept by no one, hold one
    unknown at g each, row p the one at pair p, and the rest at b.  Row p
    solved for it reads
        x[g, p] = -(sum of its entries at b times x[b]) / (its entry at g)."""
    npairs = sites.npairs
    for b, s, g in sites.group.conjugation_walk:
        rows = None  # written at the edge's first solution that reaches b
        for x in solutions:
            xb = x.get(b)
            if not xb:
                continue
            rows = rows or sites.condition_one(s, g, 0, npairs)
            xg = x[g] = {}
            for p, (row, _) in enumerate(rows):
                total = ZERO
                for col, c in row.items():
                    v = xb.get(col - npairs)  # None at g's column, which is below npairs
                    if v is not None:
                        total += c * v
                if not total.is_zero():
                    xg[p] = -total / row[p]


def solve_parameter_space(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, recheck: bool = True
) -> list[KappaMap]:
    """The parameter space as KappaMaps, in the basis ``linalg.kernel_basis``
    gives for the exhaustive system: the kernel of ``class_local_system``
    expanded along conjugation and brought to that shape (see the module
    docstring).  Unless disabled, every basis element is re-verified by the
    rewriting oracle's families ttv, tvv and vvv, which do not use the rows."""
    G, n = action.group, action.n
    system = action.derived(class_local_system, q, alpha)
    sites = action.derived(_ConditionSites, q, alpha)  # the writer of the system's rows
    npairs, pairs = sites.npairs, sites.pairs
    reps = tuple(G.class_data.centralizer)  # the system's column blocks
    solutions = []  # per kernel vector, element -> {pair index: value}
    for vec in kernel_basis(system.rows, system.ncols):
        x: dict = {}
        for col, c in enumerate(vec):
            if not c.is_zero():
                r, p = divmod(col, npairs)
                x.setdefault(reps[r], {})[p] = c
        solutions.append(x)
    _expand_along_classes(solutions, sites)
    vectors = [{g * npairs + p: v for g, xg in x.items() for p, v in xg.items()}
               for x in solutions]
    basis = [KappaMap(G, n, q, {(col // npairs, *pairs[col % npairs]): c
                                for col, c in vec.items()})
             for vec in echelon_basis(vectors)]
    if recheck:
        for kappa in basis:
            rep = verify_ambiguities(kappa, action, q, alpha, families=RECHECK_FAMILIES)
            if not rep["resolvable"]:
                raise CrossCheckError(
                    "solver produced a kappa with unresolvable overlaps; "
                    f"witnesses {rep['witnesses'][:3]}"
                )
    return basis


# ---------------------------------------------------------------------------
# Diamond-Lemma rewriting oracle
# ---------------------------------------------------------------------------
#
# Words live in the free algebra on {v_0..v_{n-1}} u {t_g | g in G}; a letter
# is an int: 0 <= x < n is the variable v_x, and n + g is t_g.  The three
# reduction families are
#     t_g v_i  ->  g(v_i) t_g
#     t_g t_h  ->  alpha(g, h) t_{gh}
#     v_j v_i  ->  q_ji v_i v_j + kappa(v_j, v_i)      (j > i)
# applied leftmost-outermost.  Irreducible words are ascending variable runs
# followed by at most one group letter.  The engine fires them at kappa = 0
# and records where the kappa term would go (module docstring).


def _first_redex(letters, n: int):
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if a >= n:
            return p  # t v or t t
        if b < n and a > b:
            return p  # v_j v_i with j > i
    return None


def _apply_rule(letters, p: int, coeff, n: int, action, q, alpha, events):
    """Rewrite the pair at position p of the term coeff * letters; returns
    a list of (rule coefficient, letters).  v_j v_i writes q_ji v_i v_j and
    appends the firing to events as (head, j, i, tail, coeff)."""
    a, b = letters[p], letters[p + 1]
    head, tail = letters[:p], letters[p + 2 :]
    if a >= n and b >= n:
        g, h = a - n, b - n
        return [(alpha(g, h), head + (n + action.group.mul(g, h),) + tail)]
    if a >= n:
        return [(c, head + (k, a) + tail) for k, c in action.rows_nz[a - n][b]]
    events.append((head, a, b, tail, coeff))
    return [(q(a, b), head + (b, a) + tail)]


def _reduce_letter_terms(terms, n, action, q, alpha, events):
    """The sum of the kappa-free normal forms of terms, as {letters:
    scalar}; each firing of v_j v_i goes to events (``_apply_rule``)."""
    out: dict = {}
    work = list(terms)
    while work:
        coeff, letters = work.pop()
        p = _first_redex(letters, n)
        if p is None:
            bump(out, letters, coeff)
            continue
        # each rule coefficient is nonzero, so no product is zero
        for c, w in _apply_rule(letters, p, coeff, n, action, q, alpha, events):
            work.append((coeff * c, w))
    return out


FAMILIES = ("ttt", "ttv", "tvv", "vvv")
RECHECK_FAMILIES = ("ttv", "tvv", "vvv")


def _overlap_words(family: str, n: int, letters):
    """The overlap words of tvv or vvv, as (letters, witness tag): t_h v_j v_i
    with h in ``letters``, and v_k v_j v_i.  ttt and ttv are decided in
    closed form, with no word written (``_CLOSED_FORMS``)."""
    if family == "tvv":
        for h, (i, j) in product(letters, combinations(range(n), 2)):
            yield (n + h, j, i), ("tvv", h, j, i)
    else:
        for i, j, k in combinations(range(n), 3):
            yield (k, j, i), ("vvv", k, j, i)


# The most overlap words ``pbw-check --oracle`` decides: about 3 s of
# work at the 4.8-6.2 million words a second the exhaustive oracle decides
# on twisted S5 (2-core box, Python 3.11).  Twisted S5's 1,801,210 words
# pass it, twisted S6's 376,369,220 do not.
MAX_ORACLE_WORDS = 15 * 10 ** 6


def overlap_word_count(G: FiniteGroup, n: int, exhaustive: bool) -> int:
    """The number of words of every family that ``verify_ambiguities``
    decides, without building one: |G|^2 k + |G| k n + k C(n, 2) + C(n, 3),
    k the number of last group letters (every element when exhaustive, else
    ``G.generators``)."""
    k = G.size if exhaustive else len(G.generators)
    return G.size * G.size * k + G.size * k * n + k * comb(n, 2) + comb(n, 3)


def _rewrite_at(word, p, n, action, q, alpha, events):
    """The kappa-free normal form of word rewritten first at p; kappa terms go to events."""
    terms = _apply_rule(word, p, ONE, n, action, q, alpha, events)
    return _reduce_letter_terms(terms, n, action, q, alpha, events)


def _positions(letters) -> dict:
    """Each distinct letter, in order of first appearance, with its
    positions in ``letters``, which can list a generator twice."""
    at: dict = {}
    for p, s in enumerate(letters):
        at.setdefault(s, []).append(p)
    return at


def _associativity_failures(action, alpha, letters):
    """ttt in closed form (module docstring): the failing words, as {word
    number: tag} in word order, and the number of words.  The words are
    t_g t_h t_k for every g and h and k in ``letters``, numbered in that
    order by the position of k; t_g t_h t_k fails exactly when
    ``alpha.cocycle_failures`` yields (g, h, k), the cocycle's own check of
    the identity and of (gh)k = g(hk)."""
    size, at = action.group.size, _positions(letters)
    failures = {(g * size + h) * len(letters) + p: ("ttt", g, h, k)
                for g, h, k in alpha.cocycle_failures(range(size), at) for p in at[k]}
    return dict(sorted(failures.items())), size * size * len(letters)


def _composition_failures(action, alpha, letters):
    """ttv in closed form (module docstring), in ``_associativity_failures``'
    shape.  The words are t_g t_h v_i for every g, h in ``letters`` and
    every i, numbered in that order by the position of h; t_g t_h v_i fails
    exactly when ``action.composition_failures`` yields (g, h, i), the
    action's own check that (gh)(v_i) = g(h(v_i)).  The factor alpha(g, h)
    of both normal forms is nonzero and drops out, so alpha is not read."""
    size, n, at = action.group.size, action.n, _positions(letters)
    failures = {(g * len(letters) + p) * n + i: ("ttv", g, h, i)
                for g, h, i in action.composition_failures(range(size), at) for p in at[h]}
    return dict(sorted(failures.items())), size * len(letters) * n


# the families that never meet the kappa rule, decided from their normal forms
_CLOSED_FORMS = {"ttt": _associativity_failures, "ttv": _composition_failures}


class _OverlapTable:
    """One overlap family of one problem, decided once with kappa left open
    (see the module docstring): ttt and ttv in closed form
    (``_CLOSED_FORMS``), tvv and vvv by reducing every word both ways.  Only
    the words that fail for every kappa (D_0 != 0) and those with deferred
    kappa terms keep their witness tags; ``checked`` counts them all.  The
    column of an unknown (g, i, j), the kappa part of left minus right per
    unit x[g, i, j], is built on its first use: per word it meets, in word
    order, the word number and that word's (letters, scalar) pairs; ttt and
    ttv defer nothing, so they have none.  Each entry reduces a form
    head t_g tail, whose reduction records no v_j v_i firing (module
    docstring), so the events list it passes stays empty.  The action holds
    the table (``GroupAction.derived``) and the table keeps (q, alpha) only:
    the reductions take the action as an argument, ``column``'s from
    ``verify_ambiguities``."""

    def __init__(self, action, q, alpha, family, exhaustive):
        n, G = action.n, action.group
        letters = range(G.size) if exhaustive else G.generators
        self.n, self.q, self.alpha = n, q, alpha
        self.deferred = {}  # (i, j) -> [(word number, head, tail, factor of x[g, i, j])]
        self.columns = {}  # (g, i, j) -> column
        self.forms = {}  # (head, g, tail) -> normal form of head t_g tail
        if family in _CLOSED_FORMS:
            self.tags, self.checked = _CLOSED_FORMS[family](action, alpha, letters)
            self.fixed = set(self.tags)
        else:
            self.tags = {}  # word number -> witness tag
            self.fixed = set()  # the word numbers with D_0 != 0
            self.checked = self._reduce(enumerate(_overlap_words(family, n, letters)), action)

    def _reduce(self, words, action) -> int:
        """Reduce each numbered word both ways, deferring its kappa terms;
        returns the number of words."""
        n, q, alpha = self.n, self.q, self.alpha
        w = -1
        for w, (word, tag) in words:
            events = []
            left = _rewrite_at(word, 0, n, action, q, alpha, events)
            split = len(events)
            fails = left != _rewrite_at(word, 1, n, action, q, alpha, events)
            if fails:
                self.fixed.add(w)
            if fails or events:
                self.tags[w] = tag
            for k, (head, j, i, tail, c) in enumerate(events):
                # kappa(v_j, v_i) = -q_ji x[g, i, j]; right-hand events count -1
                factor = -q(j, i) * c if k < split else q(j, i) * c
                self.deferred.setdefault((i, j), []).append((w, head, tail, factor))
        return w + 1

    def column(self, action, g, i, j) -> tuple:
        """The column of x[g, i, j]; ``action`` is the one that holds the table."""
        col = self.columns.get((g, i, j))
        if col is None:
            entries: dict = {}  # word number -> {letters: scalar}; words come in order
            for w, head, tail, factor in self.deferred.get((i, j), ()):
                form = self.forms.get((head, g, tail))
                if form is None:
                    form = _reduce_letter_terms([(ONE, head + (self.n + g,) + tail)],
                                                self.n, action, self.q, self.alpha, [])
                    self.forms[head, g, tail] = form
                at_w = entries.setdefault(w, {})
                for letters, c in form.items():
                    bump(at_w, letters, factor * c)
            col = self.columns[g, i, j] = tuple(
                (w, tuple(at_w.items())) for w, at_w in entries.items() if at_w)
        return col


def verify_ambiguities(
    kappa,
    action: GroupAction,
    q: QMatrix,
    alpha: Cocycle2,
    families=None,
    max_witnesses: int = 5,
    exhaustive: bool = False,
) -> dict:
    """Resolve the overlap ambiguities of the reduction system both ways and
    compare normal forms.  The overlap words are t_g t_h t_k, t_g t_h v_i,
    t_h v_j v_i (j > i) and v_k v_j v_i (k > j > i), each reduced once
    starting at the left overlap and once at the right.

    By default the last group letter of a word (k, h and h above) is one of
    G's ``generators`` only.  The module docstring proves that this gives
    the exhaustive verdict of all the families together, and of each family
    alone; for tvv alone that needs ttt and ttv to resolve, as they do for
    every loaded problem.  With
    ``exhaustive`` it ranges over all of G, and ``checked`` counts every
    overlap word, as ``pbw-check --oracle`` reports.

    ``families`` is a nonempty iterable of names from FAMILIES, read once
    (None, the default, means all of them); an empty one, an unknown name or
    a bare string raises ValueError, as does a kappa of another group
    object or n than the action's (``require_kappa_on``).  The families run
    in the order of FAMILIES whatever the order given.  Each family is
    decided once per problem and kind with kappa left open (see the module
    docstring): tvv and vvv by reducing every word, ttt and ttv in closed
    form, with no columns and without reading kappa.
    A call groups the columns of kappa's own coordinates by overlap word,
    which takes no product, and decides the words in word order: a word
    with D_0 != 0 fails, any other fails when the sum of its entries times
    kappa's coordinates is nonzero.  ``resolvable`` needs one witness and
    the report lists the first ``max_witnesses``, so the evaluation stops
    once it holds max(max_witnesses, 1) of them, and the later families add
    only their ``checked``.  The words decided before the stop, their order
    and their exact sums are those of deciding every word, so the report is
    the same; a resolvable kappa has every word decided.
    """
    if isinstance(families, str):
        raise ValueError(f"families must be a collection of names, not the string {families!r}")
    families = FAMILIES if families is None else tuple(families)
    if not families:
        raise ValueError("families must name at least one family; None means all of them")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown overlap families {unknown}; known: {list(FAMILIES)}")
    require_kappa_on(kappa, action)
    checked, witnesses = 0, []
    settled = max(max_witnesses, 1)
    for family in [f for f in FAMILIES if f in families]:
        table = action.derived(_OverlapTable, q, alpha, family, exhaustive)
        checked += table.checked
        if len(witnesses) >= settled:
            continue
        by_word: dict = {}  # word number -> [(x, that word's entries of x's column)]
        if table.deferred:
            for (g, i, j), x in kappa.coeffs.items():
                for w, entries in table.column(action, g, i, j):
                    by_word.setdefault(w, []).append((x, entries))
        for w in sorted(table.fixed.union(by_word)):
            if w not in table.fixed:
                defect: dict = {}
                for x, entries in by_word[w]:
                    for letters, c in entries:
                        bump(defect, letters, x * c)
                if not defect:
                    continue
            witnesses.append(table.tags[w])
            if len(witnesses) >= settled:
                break
    return {"resolvable": not witnesses, "checked": checked, "witnesses": witnesses[:max_witnesses]}
