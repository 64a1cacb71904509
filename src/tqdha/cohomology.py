"""Quantum Koszul complex machinery: the dual differentials d_m*, extraction
of constant Hochschild 2-cocycles as kernels of d_3*, the induced Hochschild
cocycle Theta_2* R_2 Psi_2* on pairs of variables, quantum
skew-symmetrization, and the resulting cohomological computation of the
parameter space, which needs the d_3* kernel at one representative of each
conjugacy class only.

Cochains are elements of S_q(V) t_g (x) Lambda^m_{q^-1}(V*): finite sums of
(monomial exponent gamma, group element g, wedge index beta) with scalar
coefficients; ``Cochain`` holds them for ``apply_dm_star``, the dual
differentials in general.  The d_3* kernels of the constant cochains are
taken from matrices written straight from that function's per-problem
terms (``constant_cocycle_basis``), with no cochain built.  A constant
degree-2 cochain sum c_rs t_g (x) v_r* ^ v_s* (r < s) is held as the kappa
it pairs to, the ``KappaMap`` with kappa(v_r, v_s) = sum c_rs t_g, whose
coordinate (g, r, s) is c_rs: that is
the output of ``constant_cocycle_basis`` and the input and output of the
Reynolds projector.  The twisted G-average of such a map is written once,
in ``composition_image``: t_h eta(h^-1 v_i, h^-1 v_j) t_h^-1 averaged over
h, for every ordered pair at once.  The Reynolds projector onto the
invariant cochains is its quantum skew-symmetrization (proof at
``reynolds_project``).

Every bilinear form V x V -> C^alpha G that the average touches is held in
one form, a plain dict {(g, i, j): c}: c is the coefficient of t_g in the
value at (v_i, v_j), over ordered pairs, with no zero kept and every sum
taken by ``linalg.bump``.  That is ``KappaMap.coeffs``'s layout extended to
i >= j, so Psi(eta), the form with eta's values at i < j and zero
elsewhere, is ``eta.coeffs`` itself; the sums over the centralizer keep the
pairs i = j, and ``composition_image`` returns the pairs i != j.

The average is taken by induction through the centralizer, not term by term
over G.  Since alpha is a 2-cocycle the twisted action is a group action, so
averaging h(f) gives the average of f: each term at t_g is first moved to
its class representative c by one transporter x, x g x^-1 = c.  G is the
disjoint union of the cosets r Z(c) over a transversal r of G/Z(c), and
acting by rz is acting by z and then by r, so the sum over G is the sum over
Z(c), which keeps t_c, followed by the sum over the transversal.  The sum
over Z(c) itself runs through a chain of subgroups, one coset transversal
per step, so it costs the sum of the step indices rather than |Z(c)|.  The
class data and the chains are the group's ``class_data`` and
``centralizer_chains``, computed once per group; the proof in full is at
``composition_image``.  The parameter space keeps a Reynolds image only if
its component at the representative is independent of those kept before,
and expands only the kept ones over their class (proof at
``cohomological_parameter_space``).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .groups import Cocycle2
from .linalg import RowReducer, SparseSum, bump, kernel_basis
from .pbw import (CrossCheckError, ExtensionError, KappaMap, check_pbw_conditions,
                  extension_report, require_kappa_on)
from .quantum import GroupAction, QMatrix, reorder_factor
from .scalars import MINUS_ONE, ONE, rational


class Cochain(SparseSum):
    """Element of (+)_g S_q(V) t_g (x) Lambda^m_{q^-1}(V*), all wedge indices
    of the same weight m; keys are (gamma, g, beta)."""

    __slots__ = ("n", "degree")

    def __init__(self, n: int, degree: int, coeffs=None):
        self.n = n
        self.degree = degree
        clean = {}
        for (gamma, g, beta), c in (coeffs or {}).items():
            if sum(beta) != degree:
                raise ValueError(f"wedge weight {sum(beta)} does not match degree {degree}")
            if not c.is_zero():
                clean[(tuple(gamma), g, tuple(beta))] = c
        self.coeffs = clean

    def __repr__(self):
        parts = []
        for (gamma, g, beta), c in sorted(self.coeffs.items()):
            mono = "".join(f"v{i}^{e}" for i, e in enumerate(gamma) if e) or "1"
            wedge = "^".join(f"v{i}*" for i, b in enumerate(beta) if b) or "1"
            parts.append(f"({c.serialize()}){mono}.t{g}(x){wedge}")
        return "<" + (" + ".join(parts) or "0") + ">"


def apply_dm_star(x: Cochain, action: GroupAction, q: QMatrix) -> Cochain:
    """The dual Koszul differential: a term a t_g (x) (v*)^beta of degree m-1
    maps to

      sum_{i: beta_i = 0} (-1)^(beta_0+..+beta_i)
        [ (prod_{s<=i} q_si^beta_s) v_i a
          - (prod_{s>=i} q_is^beta_s) a g(v_i) ] t_g (x) (v*)^(beta+[i]).

    For a = c v^gamma the sign, the two q products and the normal ordering
    of v_i v^gamma and of v^gamma v_k depend on (q, gamma, beta) alone, not
    on g or c: ``_dm_star_terms`` takes them once per problem, and each term
    multiplies them with c and with the nonzero entries of g's row i only.
    The image is the one of the term-by-term evaluation: each coefficient
    is the same exact product, reassociated, added in the same order.
    """
    out: dict = {}
    for (gamma, g, beta), c in x.coeffs.items():
        grows = action.rows_nz[g]
        for i, newbeta, gam1, left, rights in _dm_star_terms(q, gamma, beta):
            # v_i * v^gamma
            bump(out, (gam1, g, newbeta), c * left)
            # -v^gamma * g(v_i)
            for k, m in grows[i]:
                gam2, minus_right = rights[k]
                bump(out, (gam2, g, newbeta), c * m * minus_right)
    res = x._like(out)  # zero-free, and each newbeta = beta + e_i has weight degree + 1
    res.degree += 1
    return res


@lru_cache(maxsize=1024)
def _dm_star_terms(q: QMatrix, gamma: tuple, beta: tuple) -> tuple:
    """The parts of d_m*(c v^gamma t_g (x) (v*)^beta) that depend on neither
    g nor c, for each i with beta_i = 0: (i, beta + e_i, the monomial of
    v_i v^gamma with its scalar, and per k the monomial of v^gamma v_k with
    its scalar).  Each scalar includes the sign and the q product of its
    side, and the right-hand ones are negated.

    Keyed on the QMatrix object (by identity: it defines no equality) and
    the two exponent tuples.  It stays a module memo because it holds no
    action, group or cocycle: bounded at 1024 entries, it keeps only small
    QMatrix objects alive, and ``constant_cocycle_basis`` and
    ``apply_dm_star`` share its entries for one q."""
    n = len(gamma)
    units = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    # v^gamma v_k, monomial and q factor, for every k
    after = [(tuple(map(add, gamma, e)), reorder_factor(gamma, e, q)) for e in units]
    out = []
    for i in range(n):
        if beta[i]:
            continue
        sign = MINUS_ONE if (sum(beta[: i + 1]) & 1) else ONE
        newbeta = tuple(map(add, beta, units[i]))
        left = ONE
        for s in range(i + 1):
            if beta[s]:
                left = left * q(s, i)
        right = ONE
        for s in range(i, n):
            if beta[s]:
                right = right * q(i, s)
        rights = tuple((gam2, -(sign * right * f2)) for gam2, f2 in after)
        out.append((i, newbeta, tuple(map(add, units[i], gamma)),
                    sign * left * reorder_factor(units[i], gamma, q), rights))
    return tuple(out)


def constant_cocycle_basis(action: GroupAction, q: QMatrix, elements=None) -> list[KappaMap]:
    """Per group element g of elements (default: every element, in order), a
    kernel basis of d_3* restricted to the constant cochains
    span{t_g (x) v_j* ^ v_k*}, each vector as the kappa it pairs to; over all
    g the union spans all constant Hochschild 2-cocycles (the constant part
    of the image of d_2* is zero, so kernel elements represent distinct
    classes).

    The matrix at g is written straight from the per-problem templates
    ``_dm_star_terms(q, 0, beta)``, one per pair column (j, k), beta = e_j +
    e_k: the column of t_g (x) v_j* ^ v_k* gets, for each i not in {j, k},
    the template's left scalar in the row (e_i, beta + e_i) and m times its
    negated right scalar for k' in the row (e_k', beta + e_i), for each
    nonzero entry m = g^i_k' of g's row i.  That is ``apply_dm_star`` of the
    cochain with coefficient 1, with the same products added in the same
    order at each key; the rows come in another order, which
    ``linalg.kernel_basis`` does not see, so the kernel basis is the same.
    """
    _require_extension(action, q)
    n = action.n
    G = action.group
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    zero = (0,) * n
    templates = [_dm_star_terms(q, zero, tuple(int(t in pair) for t in range(n)))
                 for pair in pairs]
    basis: list[KappaMap] = []
    for g in range(G.size) if elements is None else elements:
        grows = action.rows_nz[g]
        rows: dict = {}  # (monomial, beta + e_i) -> {pair column: scalar}
        for col, terms in enumerate(templates):
            for i, newbeta, gam1, left, rights in terms:
                bump(rows.setdefault((gam1, newbeta), {}), col, left)
                for k, m in grows[i]:
                    gam2, minus_right = rights[k]
                    bump(rows.setdefault((gam2, newbeta), {}), col, m * minus_right)
        for vec in kernel_basis(rows.values(), len(pairs)):
            basis.append(KappaMap(G, n, q, {(g, *pair): c for pair, c in zip(pairs, vec)}))
    return basis


# ---------------------------------------------------------------------------
# the induced Hochschild cocycle and the Reynolds projector
# ---------------------------------------------------------------------------


def _require_extension(action: GroupAction, q: QMatrix) -> None:
    rep = extension_report(action, q)
    failures = [
        f"{algebra} (witnesses {rep[kind + '_witnesses']})"
        for kind, algebra in (("symmetric", "S_q(V)"), ("exterior", "Lambda_q(V)"))
        if not rep[kind]
    ]
    if failures:
        raise ExtensionError("action does not extend to " + " nor to ".join(failures))


def composition_image(eta: KappaMap, action: GroupAction, alpha: Cocycle2) -> dict:
    """[Theta_2* R_2 Psi_2*(eta)](v_i (x) v_j) for a constant degree-2 eta,
    at every ordered pair i != j, as one form {(g, i, j): c}: c is the
    coefficient of t_g at (v_i, v_j), with no zero kept.  The value

        (1/|G|) sum_h  t_h eta( Psi_2(1 (x) h^-1(v_i) (x) h^-1(v_j) (x) 1) ) t_h^-1

    with Psi_2 keeping only tensor factors v_k (x) v_l with k < l.

    Computed by induction through the centralizer.  Write Psi(eta) for the
    bilinear form V x V -> C^alpha G with eta's values at k < l and zero at
    every other (k, l), diagonal included: in the same layout, Psi(eta) is
    ``eta.coeffs``.  Write T_h for the twisted action
    on such forms, T_h(f)(u, w) = t_h f(h^-1 u, h^-1 w) t_h^-1, so the sum
    above is (1/|G|) sum_h T_h(Psi(eta)) read off the diagonal.  Since alpha
    is a 2-cocycle, t_h t_k = alpha(h, k) t_hk and the scalar cancels in
    conjugation, so T_h T_k = T_hk: a group action.  Let c be the class
    representative of g and x its transporter, x g x^-1 = c
    (``FiniteGroup.class_data``).  Then

    1. sum_h T_h(f t_g) = sum_h T_hx^-1 (T_x(f t_g)) = sum_h T_h(T_x(f t_g))
       for a scalar form f, and T_x(f t_g) is a scalar form times t_c: each
       term of Psi(eta) is pulled back to its representative once.
    2. G is the disjoint union of the cosets r Z(c) over c's transversal r,
       and T_rz = T_r T_z, so sum_h T_h = sum_r T_r (sum_z T_z), where
       every T_z, z in Z(c), keeps t_c.  The inner sum keeps all n^2
       entries: the matrix of a non-monomial z^-1 mixes the diagonal
       entries of a form into the others.
    3. The inner sum runs through the chain 1 = H_0 < H_1 < ... < H_k = Z(c)
       of ``FiniteGroup.centralizer_chains``.  H_i is the disjoint union of
       the cosets t H_(i-1) over the t of step i, and T_th = T_t T_h, so
       sum_(h in H_i) T_h = sum_t T_t (sum_(h in H_(i-1)) T_h).  Applying
       the steps innermost first, starting from the form itself (the sum
       over H_0 = 1), gives the sum over Z(c).
    4. The outer sum over the transversal gives the result, whose diagonal
       is dropped only now, scaled by 1/|G|.

    That is one T_x per transporter met and, per class met, the sum of the
    step indices |H_i : H_(i-1)| plus |G : Z(c)|, instead of |G| for every
    term of eta: at the identity of S5 the steps cost 2 + 3 + 4 + 5 = 14
    actions instead of 120, at S7 27 instead of 5,040.  The sums are exact,
    so the result is the one of the pass over all of G.  Raises ValueError
    when eta is not a kappa of the action's group and n
    (``pbw.require_kappa_on``).
    """
    require_kappa_on(eta, action)
    return _induced({c: _centralizer_sum(c, form, action, alpha)
                     for c, form in _at_representatives(eta, action, alpha).items()},
                    action, alpha)


def _at_representatives(eta: KappaMap, action: GroupAction, alpha: Cocycle2) -> dict:
    """Psi(eta) pulled back to the class representatives: per class met,
    its representative c and the form at t_c that the terms of eta in c's
    class become under T_x, one T_x per transporter x met."""
    transporter = action.group.class_data.transporter
    by_transporter: dict = {}
    for key, c in eta.coeffs.items():
        by_transporter.setdefault(transporter[key[0]], {})[key] = c
    pulled: dict = {}
    for x, form in by_transporter.items():
        _act(pulled, x, form, action, alpha)
    at_rep: dict = {}
    for key, c in pulled.items():
        at_rep.setdefault(key[0], {})[key] = c
    return at_rep


def _centralizer_sum(c: int, form: dict, action: GroupAction, alpha: Cocycle2) -> dict:
    """sum_z T_z(form) over z in Z(c), through the chain of
    ``FiniteGroup.centralizer_chains``: each step replaces the sum over H by
    sum_t T_t of it, over the step's t, which is the sum over H'."""
    for step in action.group.centralizer_chains[c]:
        grown: dict = {}
        for t in step:
            _act(grown, t, form, action, alpha)
        form = grown
    return form


def _induced(fixed: dict, action: GroupAction, alpha: Cocycle2) -> dict:
    """(1/|G|) sum_r T_r(fixed[c]) over each c of fixed and each r of c's
    transversal, at the ordered pairs i != j: the diagonal keys are summed
    with the others and dropped when the sum is scaled."""
    G = action.group
    transversal = G.class_data.transversal
    acc: dict = {}
    for c, form in fixed.items():
        for r in transversal[c]:
            _act(acc, r, form, action, alpha)
    scale = rational(1) / rational(G.size)
    return {key: scale * c for key, c in acc.items() if key[1] != key[2]}


def _columns(action: GroupAction, g: int) -> list:
    """The sparse columns of g's matrix: column k lists the (i, M[g][i][k])
    with M[g][i][k] != 0, i ascending, read off the rows ``action.rows_nz[g]``."""
    cols = [[] for _ in range(action.n)]
    for i, row in enumerate(action.rows_nz[g]):
        for k, x in row:
            cols[k].append((i, x))
    return cols


def _act(acc: dict, h: int, form: dict, action: GroupAction, alpha: Cocycle2) -> None:
    """Add T_h(form) into acc, where form and acc are bilinear forms
    V x V -> C^alpha G held as {(g, k, l): c}, the coefficient of t_g at
    (v_k, v_l) over ordered pairs (k = l allowed), with no zero kept; every
    sum goes through ``linalg.bump``.  T_h(f)(v_i, v_j) =
    t_h f(h^-1 v_i, h^-1 v_j) t_h^-1: the term (g, k, l), c goes to
    (hgh^-1, i, j) for each i and j whose h^-1(v_i) and h^-1(v_j) have a
    v_k and a v_l component, that is each i and j in columns k and l of
    h^-1's matrix, with c times the conjugation ratio and both entries.
    Those columns are the rows of h^-1 transposed, once per action and
    element (``_columns``, held by the action).  Every pair is kept, i = j
    included.  T_1 is the identity (1 acts by the identity matrix, and
    alpha(1, g) = alpha(g, 1) for any 2-cocycle), so h = 1 adds the form
    itself, with no product."""
    if h == 0:
        for key, c in form.items():
            bump(acc, key, c)
        return
    G = action.group
    cols = action.derived(_columns, G.inv[h])
    for (g, k, l), c in form.items():
        target, c = G.conjugate(h, g), c * alpha.conj_ratio(h, g)
        for i, aik in cols[k]:
            ci = c * aik
            for j, ajl in cols[l]:
                bump(acc, (target, i, j), ci * ajl)


def reynolds_project(x: KappaMap, action: GroupAction, q: QMatrix, alpha: Cocycle2) -> KappaMap:
    """The average (1/|G|) sum_h h(x) of a constant degree-2 cochain x over
    the twisted G-action (twisted conjugation on t_g, contragredient action
    on the dual wedges), computed as skew_symmetrize(composition_image(x)).
    Idempotent, and onto the invariant cochains.  Raises ExtensionError when
    the action does not extend to S_q(V) and Lambda_q(V).

    Why the two agree.  The kappa x is the q-antisymmetric bilinear form
    x(v_r, v_s) = x_rs, x(v_s, v_r) = -q_sr x_rs (r < s), on which h acts by
    (h.f)(u, w) = t_h f(h^-1 u, h^-1 w) t_h^-1; on dual wedges the
    contragredient action is this pull-back along h^-1 (x) h^-1.  Write
    c(v_a (x) v_b) = q_ab v_b (x) v_a for the braiding and
    S(f) = f o (1 - c), so S(f)(v_i, v_j) = f(v_i, v_j) - q_ij f(v_j, v_i)
    is ``skew_symmetrize``; Psi keeps x's values at k < l and zero below.
    First, S o Psi is the identity on q-antisymmetric forms: at i < j it
    gives x_ij - q_ij * 0.  Second, the average commutes with S.  Since
    q_ab q_ba = 1, c is an involution; its -1 eigenspace is spanned by
    v_a (x) v_b - q_ab v_b (x) v_a, the relations of S_q(V), and its +1
    eigenspace by v_a (x) v_b + q_ab v_b (x) v_a and v_a (x) v_a, the
    relations of Lambda_q(V).  The extension check says h (x) h preserves
    both (it decides exactly that, by the eigenspace statement in
    ``quantum.check_action_extends``), so h (x) h commutes with c and
    S(h.f) = h.S(f).  Hence
    S(average(Psi x)) = average(S(Psi x)) = average(x).
    """
    _require_extension(action, q)
    return skew_symmetrize(composition_image(x, action, alpha), q, action.group, x.n)


def skew_symmetrize(form: dict, q: QMatrix, group, n: int) -> KappaMap:
    """kappa(v_i, v_j) = mu_1(v_i, v_j) - q_ij mu_1(v_j, v_i) on pairs i < j,
    for mu_1 given as the form {(g, i, j): c} of ``_act`` (the diagonal
    keys are not read); the result satisfies the quantum antisymmetry by
    construction."""
    coeffs: dict = {}
    for (g, a, b), c in form.items():
        if a < b:
            bump(coeffs, (g, a, b), c)
        elif a > b:
            bump(coeffs, (g, b, a), -q(b, a) * c)
    return KappaMap(group, n, q, coeffs)


def cohomological_parameter_space(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, recheck: bool = True
) -> list[KappaMap]:
    """Parameter space through cohomology: constant 2-cocycle kernel at one
    representative c of each conjugacy class, Reynolds projection (the
    quantum skew-symmetrized induced Hochschild cocycle), and rank filtering
    to an independent invariant spanning set.  Each kept invariant eta is
    the kappa it pairs to, kappa(v_i, v_j) = eta(v_i ^ v_j).

    The representatives suffice.  The extension check at entry makes d_3*
    commute with the twisted action, which maps constant cochains at t_g to
    constant cochains at t_(hgh^-1); so h(K_g) = K_(hgh^-1) for the kernels
    K_g at g.  Since alpha is a 2-cocycle the twisted action is a group
    action, and the Reynolds projector R satisfies R(h(x)) = R(x).  Hence
    R(K_(hch^-1)) = R(K_c): no other member of c's class adds a vector.  The
    output is also the same as with every element: classes are listed with
    their least element first and the kernel is ordered by g, so the rank
    filter has taken all of R(K_c) before it would reach another member.

    The rank filter reads each R(x) at t_c alone, and only a kept x is
    expanded over its class.  For a kernel vector x at c let F be its sum
    over Z(c) (steps 2 and 3 at ``composition_image``); then R(x) is the
    quantum skew-symmetrization of (1/|G|) sum_r T_r(F) over c's
    transversal r.  Of the r only the identity lies in Z(c), so only it
    keeps t_c, and T_1 is the identity (alpha(1, g) = alpha(g, 1) =
    alpha(1, 1) for any 2-cocycle): the t_c-component of R(x) is the
    skew-symmetrization of F's off-diagonal entries, up to the factor
    1/|G|.  Filtering these components keeps the same vectors, in the
    same order, as filtering the R(x) themselves:

    - the R(x) from different classes have disjoint supports, so an R(x)
      lies in the span of the kept vectors before it exactly when it lies
      in the span of the kept ones of its own class;
    - restriction to t_c is injective on G-invariant maps supported on c's
      class, since the value at t_(hch^-1) is T_h of the value at t_c;
      every combination of the R(x) from one class is such a map, so those
      R(x) obey exactly the linear relations of their t_c-components.

    So the transversal sum, the 1/|G| scale and ``skew_symmetrize`` run
    for the kept vectors only, and each kept eta is R(x).

    The idempotence of the Reynolds projector on each kept eta is asserted
    as an internal consistency check of the whole chain.  Unless disabled,
    every kappa is then re-verified by check_pbw_conditions, which
    evaluates the exhaustive conditions at the sites that meet the kappa's
    support; this derivation never reads the condition rows, so that check
    is independent.
    """
    G, n = action.group, action.n
    red = RowReducer()
    basis = []
    for x in constant_cocycle_basis(action, q, list(G.class_data.centralizer)):
        (c, form), = _at_representatives(x, action, alpha).items()  # x is at c alone
        fixed = _centralizer_sum(c, form, action, alpha)
        if red.insert(skew_symmetrize(fixed, q, G, n).coordinate_row()) is None:
            continue
        eta = skew_symmetrize(_induced({c: fixed}, action, alpha), q, G, n)
        if reynolds_project(eta, action, q, alpha) != eta:
            raise CrossCheckError(
                "the Reynolds projector does not fix its own image; engine inconsistency")
        basis.append(eta)
    if recheck:
        for kappa in basis:
            rep = check_pbw_conditions(kappa, action, q, alpha)
            if not rep["passed"]:
                raise CrossCheckError(
                    "cohomological pipeline produced a kappa failing the PBW "
                    f"checker; violations {rep['violations'][:3]}"
                )
    return basis
