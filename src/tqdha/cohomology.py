"""Quantum Koszul complex machinery: the dual differentials d_m*, extraction
of constant Hochschild 2-cocycles as kernels of d_3*, twisted G-invariance via
the Reynolds projector, evaluation of the induced Hochschild cocycle on pairs
of variables, quantum skew-symmetrization, and the resulting cohomological
computation of the parameter space, which needs the d_3* kernel at one
representative of each conjugacy class only.

Cochains are elements of S_q(V) t_g (x) Lambda^m_{q^-1}(V*): finite sums of
(monomial exponent gamma, group element g, wedge index beta) with scalar
coefficients.  The group acts by the linear action on polynomial parts, by
twisted conjugation t_g -> t_h t_g t_h^-1 on group parts, and by the
inverse-transpose (contragredient) action on dual wedges.
"""

from __future__ import annotations

from .groups import Cocycle2, GroupAlgebraElement, twisted_conjugate
from .linalg import RowReducer, SparseSum, bump, kernel_basis
from .pbw import CrossCheckError, ExtensionError, KappaMap, check_pbw_conditions, extension_report
from .quantum import (
    GroupAction,
    QMatrix,
    mono_times_variable,
    variable_times_mono,
)
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

    @staticmethod
    def constant_two(n: int, g: int, r: int, s: int, coeff=ONE) -> "Cochain":
        """t_g (x) v_r* ^ v_s* with r < s."""
        beta = tuple(1 if t in (r, s) else 0 for t in range(n))
        return Cochain(n, 2, {((0,) * n, g, beta): coeff})

    def is_constant(self) -> bool:
        return all(not any(gamma) for (gamma, _, _) in self.coeffs)

    def wedge_value(self, r: int, s: int) -> GroupAlgebraElement:
        """For constant degree-2 cochains: the C^alpha G value on v_r ^ v_s
        (r < s), i.e. sum_g coeff(g, r, s) t_g."""
        coeffs = {}
        for (gamma, g, beta), c in self.coeffs.items():
            if any(gamma):
                raise ValueError("wedge_value needs a constant cochain")
            if beta[r] and beta[s]:
                bump(coeffs, g, c)
        return GroupAlgebraElement(coeffs)

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
    """
    n = x.n
    out: dict = {}
    for (gamma, g, beta), c in x.coeffs.items():
        for i in range(n):
            if beta[i]:
                continue
            sign = MINUS_ONE if (sum(beta[: i + 1]) & 1) else ONE
            newbeta = tuple(b + (1 if t == i else 0) for t, b in enumerate(beta))
            left = ONE
            for s in range(i + 1):
                if beta[s]:
                    left = left * q(s, i)
            right = ONE
            for s in range(i, n):
                if beta[s]:
                    right = right * q(i, s)
            # v_i * v^gamma
            f, gam1 = variable_times_mono(i, gamma, q)
            bump(out, (gam1, g, newbeta), c * sign * left * f)
            # v^gamma * g(v_i)
            for k, m in action.rows_nz[g][i]:
                f2, gam2 = mono_times_variable(gamma, k, q)
                bump(out, (gam2, g, newbeta), -(c * sign * right * m * f2))
    return Cochain(n, x.degree + 1, out)


def _wedge_index(n: int, positions) -> tuple:
    return tuple(1 if t in positions else 0 for t in range(n))


def constant_cocycle_basis(action: GroupAction, q: QMatrix, elements=None) -> list[Cochain]:
    """Per group element g of elements (default: every element, in order), a
    kernel basis of d_3* restricted to the constant cochains
    span{t_g (x) v_j* ^ v_k*}; over all g the union spans all constant
    Hochschild 2-cocycles (the constant part of the image of d_2* is zero, so
    kernel elements represent distinct classes).
    """
    rep = extension_report(action, q)
    if not rep["symmetric"] or not rep["exterior"]:
        raise ExtensionError("action must extend to S_q(V) and Lambda_q(V)")
    n = action.n
    G = action.group
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    basis: list[Cochain] = []
    for g in range(G.size) if elements is None else elements:
        images = [
            apply_dm_star(Cochain.constant_two(n, g, j, k), action, q) for (j, k) in pairs
        ]
        rows = {key: {} for key in sorted({key for img in images for key in img.coeffs})}
        for col, img in enumerate(images):
            for key, c in img.coeffs.items():
                rows[key][col] = c
        for vec in kernel_basis(rows.values(), len(pairs)):
            coeffs = {}
            for col, c in enumerate(vec):
                if not c.is_zero():
                    j, k = pairs[col]
                    coeffs[((0,) * n, g, _wedge_index(n, (j, k)))] = c
            basis.append(Cochain(n, 2, coeffs))
    return basis


# ---------------------------------------------------------------------------
# G-action on cochains and the Reynolds projector
# ---------------------------------------------------------------------------


def _contragredient_wedge2(action: GroupAction, q: QMatrix, h: int, r: int, s: int):
    """h(v_r* ^ v_s*) expanded on the wedge basis: the coefficient of
    v_k* ^ v_l* (k < l) is B[k][r] B[l][s] - q_kl B[l][r] B[k][s], where B is
    the matrix of h^-1 (inverse-transpose action on V*)."""
    hinv = action.group.inv[h]
    colr = action.cols_nz[hinv][r]
    cols = action.cols_nz[hinv][s]
    out = {}
    for k, bkr in colr:
        for l, bls in cols:
            if k == l:
                continue
            if k < l:
                bump(out, (k, l), bkr * bls)
            else:
                bump(out, (l, k), -(q(l, k) * bkr * bls))
    return out


def act_on_cochain(h: int, x: Cochain, action: GroupAction, q: QMatrix, alpha: Cocycle2) -> Cochain:
    """The twisted action of h on a constant degree-2 cochain: twisted
    conjugation on t_g, contragredient action on the dual wedge."""
    if x.degree != 2 or not x.is_constant():
        raise ValueError("the cochain action is implemented for constant degree-2 cochains")
    n = x.n
    G = action.group
    out: dict = {}
    for (gamma, g, beta), c in x.coeffs.items():
        ratio = alpha.conj_ratio(h, g)
        gc = G.conjugate(h, g)
        r, s = [t for t in range(n) if beta[t]]
        for (k, l), wv in _contragredient_wedge2(action, q, h, r, s).items():
            bump(out, (gamma, gc, _wedge_index(n, (k, l))), c * ratio * wv)
    return Cochain(n, 2, out)


def reynolds_project(x: Cochain, action: GroupAction, q: QMatrix, alpha: Cocycle2) -> Cochain:
    """Average of the degree-2 cochain x over the twisted G-action:
    (1/|G|) sum_h h(x).  Idempotent."""
    G = action.group
    total = Cochain(x.n, x.degree)
    for h in range(G.size):
        total = total + act_on_cochain(h, x, action, q, alpha)
    return total.scale(rational(1) / rational(G.size))


# ---------------------------------------------------------------------------
# the induced Hochschild cocycle on pairs of variables
# ---------------------------------------------------------------------------


def composition_image(
    eta: Cochain, i: int, j: int, action: GroupAction, q: QMatrix, alpha: Cocycle2
) -> GroupAlgebraElement:
    """[Theta_2* R_2 Psi_2*(eta)](v_i (x) v_j) for a constant degree-2 eta:

        (1/|G|) sum_g  g( eta( Psi_2(1 (x) g^-1(v_i) (x) g^-1(v_j) (x) 1) ) )

    with Psi_2 keeping only tensor factors v_k (x) v_l with k < l.
    """
    if not eta.is_constant():
        raise ValueError("the induced cocycle is defined for constant cochains")
    G = action.group
    values: dict = {}
    for (gamma, g, beta), c in eta.coeffs.items():
        r, s = [t for t in range(eta.n) if beta[t]]
        bump(values.setdefault((r, s), {}), g, c)
    pair_elts = {k: GroupAlgebraElement(v) for k, v in values.items()}
    acc = GroupAlgebraElement.zero()
    for g in range(G.size):
        ginv = G.inv[g]
        rows = action.rows_nz[ginv]
        for k, aik in rows[i]:
            for l, ajl in rows[j]:
                if k >= l:
                    continue
                base = pair_elts.get((k, l))
                if base is None:
                    continue
                acc = acc + twisted_conjugate(g, base, alpha).scale(aik * ajl)
    return acc.scale(rational(1) / rational(G.size))


def skew_symmetrize(mu_pairs: dict, q: QMatrix, group, n: int) -> KappaMap:
    """kappa(v_i, v_j) = mu_1(v_i, v_j) - q_ij mu_1(v_j, v_i) on pairs i < j;
    the result automatically satisfies the quantum antisymmetry."""
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            a = mu_pairs.get((i, j), GroupAlgebraElement.zero())
            b = mu_pairs.get((j, i), GroupAlgebraElement.zero())
            values[(i, j)] = a - b.scale(q(i, j))
    return KappaMap(group, n, q, values)


def cohomological_parameter_space(
    action: GroupAction, q: QMatrix, alpha: Cocycle2, recheck: bool = True
) -> list[KappaMap]:
    """Parameter space through cohomology: constant 2-cocycle kernel at one
    representative c of each conjugacy class, Reynolds projection, rank
    filtering to an independent invariant spanning set, then the induced
    Hochschild cocycle and its quantum skew-symmetrization.

    The representatives suffice.  The extension check at entry makes d_3*
    commute with the twisted action, which maps constant cochains at t_g to
    constant cochains at t_(hgh^-1); so h(K_g) = K_(hgh^-1) for the kernels
    K_g at g.  Since alpha is a 2-cocycle the twisted action is a group
    action, and the Reynolds projector R satisfies R(h(x)) = R(x).  Hence
    R(K_(hch^-1)) = R(K_c): no other member of c's class adds a vector.  The
    output is also the same as with every element: classes are listed with
    their least element first and the kernel is ordered by g, so the rank
    filter has taken all of R(K_c) before it would reach another member.

    For each invariant representative eta the computed kappa must agree with
    the direct pairing kappa(v_i, v_j) = eta(v_i ^ v_j); that identity is
    asserted, as an internal consistency check of the whole chain.  Unless
    disabled, every kappa is then re-verified by check_pbw_conditions, whose
    verdict needs condition (2) at class representatives only (see the
    ``pbw`` module docstring); this derivation never reads the condition
    rows, so that check is independent.
    """
    n = action.n
    G = action.group
    reps = [cls[0] for cls in G.conjugacy_classes()]
    red = RowReducer()
    invariants = []
    for c in constant_cocycle_basis(action, q, reps):
        eta = reynolds_project(c, action, q, alpha)
        if red.insert(eta.coeffs) is not None:
            invariants.append(eta)
    basis = []
    for eta in invariants:
        mu = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    mu[(i, j)] = composition_image(eta, i, j, action, q, alpha)
        kappa = skew_symmetrize(mu, q, G, n)
        for i in range(n):
            for j in range(i + 1, n):
                if kappa.value(i, j) != eta.wedge_value(i, j):
                    raise CrossCheckError(
                        "skew-symmetrized induced cocycle disagrees with the "
                        f"wedge pairing at ({i}, {j}); engine inconsistency"
                    )
        basis.append(kappa)
    if recheck:
        for kappa in basis:
            rep = check_pbw_conditions(kappa, action, q, alpha, representatives=True)
            if not rep["passed"]:
                raise CrossCheckError(
                    "cohomological pipeline produced a kappa failing the PBW "
                    f"checker; violations {rep['violations'][:3]}"
                )
    return basis
