"""Symmetric-extendibility test by the smooth dual of a projection problem.

A bipartite state rho on A (x) B is symmetrically extendible when some PSD
matrix X on A (x) B (x) B' is invariant under swapping B and B' and
reduces to rho when B' is traced out. The solver looks for the extension
of least Frobenius norm,

  min 1/2 ||X||^2  over X >= 0, X = P X P, X swap-invariant, Tr_B' X = rho,

and works on its dual (Malick, SIAM J. Matrix Anal. Appl. 26, 2004). P is
the forced-support projector: any PSD extension of a rank-deficient rho
vanishes on ker(rho) (x) B' and, by swap symmetry, on its swapped image,
so every extension lives in the range of P (None when that is everything).
On swap-invariant matrices the reduction Tr_B' and the lift
lift(y) = sym(y (x) I_B') are adjoint, so the dual is the smooth,
unconstrained convex function of a Hermitian y on A (x) B

  theta(y) = 1/2 ||X(y)||^2 - Re<rho, y>,   X(y) = Pi_+(P lift(y) P),

with gradient Tr_B' X(y) - rho; Pi_+ clamps negative eigenvalues. The
L-BFGS driver ``_lbfgs``, shared with ``param``, minimizes it; it keeps its
pairs in the compact form of Byrd, Nocedal and Schnabel, so a step costs
two products with the stored pairs and a store one more. Each evaluation
costs one eigh, of size dim P, of B^dag lift(y) B (B an orthonormal basis
of range P, the identity when P is everything; empty for a pure entangled
rho). When P is not everything, that matrix comes from one product of y
with B and its swapped copy, never from the side x side lift. Its
eigenpairs (w, U) give the factor F = B U sqrt(w_+) of X(y) = F F^dag, and
so the gradient and the three exits; a candidate is formed only at an
exit, as the swap average of the Hermitian part of F F^dag (or of the face
solution below). Each average adds an entry to its image under the
symmetry, and floating-point addition commutes, so the candidate is
bitwise Hermitian and bitwise swap-invariant; it differs from the matrix
averaged only by rounding:

  * Feasible: X(y) is PSD and swap-invariant, so once the gradient norm
    (the marginal residual) is at most tol, X(y) is an extension within
    tol. Its residuals are re-measured before the exit by
    ``verify_certificate``, a code path independent of the solver, and only
    a candidate it finds within tol ends the solve; its swap residual is
    exactly 0.
  * Feasible by face: the columns of F are orthogonal, so F's range Q
    comes free with every evaluation. Where the rank of F changes (its
    range moves there), the least-norm swap-invariant X on range Q with
    Tr_B' X = rho is one dense least-squares solve (``_Geometry.face``).
    No try is made on the whole space of a full-rank target, where the
    answer is lift(y0), nor where the solve would cost more than an eigh
    at side MAX_SIDE. A try whose residual or -lambda_min is above tol is
    dropped before any side^3 check; otherwise ``verify_certificate``
    decides it as above.
    Often the positive eigenspace of lift(y) is the extension's range
    long before the gradient is below tol, as at y0 near the isotropic
    boundary, and this candidate's marginal is exact to rounding.
  * Infeasible: for Hermitian W on AB, every extendible sigma has
    Tr(W sigma) >= lambda_min(lift W) (Doherty, Parrilo and Spedalieri,
    PRA 69, 022308, 2004), so a negative margin Tr(W rho) - lambda_min
    proves rho has no extension. Any extension X of rho satisfies
    Re<rho, y> = <X, P lift(y) P> <= lambda_max(P lift(y) P), which is at
    most max(w_max, 0), so the free test max(w_max, 0) < Re<rho, y> cannot
    hold for an extendible rho; the dual is unbounded below exactly when
    rho is not extendible, and its descent then drives y into this region.
    When the test fires, W = -y is tried; within a face, if the free margin
    is below minus that try's rounding bound, so is W = -y + c K, K the
    projector onto ker(rho): Tr(K rho) = 0 and lift(K) >= 0 vanishes exactly
    on range P, so a large enough c moves lambda_min(lift W) onto the face,
    and only a witness that ``verify_witness`` certifies ends the solve.

The dual starts at y0 = (2 rho - rho_A (x) I_B/d_B) / d_B, where
Tr_B' lift(y0) = rho exactly: lift(y0) is the least-norm swap-invariant
matrix with marginal rho. No target is special-cased; for rho_A (x) I/d_B,
lift(y0) = rho_A (x) I (x) I/d_B^2 is PSD and the first evaluation is
Feasible. The solve runs in the dtype of ``DensityMatrix.matrix``: for a real
target (float64) y, the factor, the gradient, the L-BFGS memory and the
candidate are float64.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .constructions import isotropic
from .linalg import InputError, _require_bipartite, _require_count, _require_fraction, _require_tol
from .quantum import DensityMatrix

FEASIBLE = "Feasible"
INFEASIBLE_NUMERICAL = "InfeasibleNumerical"
INCONCLUSIVE = "Inconclusive"

MAX_SIDE = 1024
LBFGS_MEMORY = 20

__all__ = [
    "FEASIBLE",
    "INFEASIBLE_NUMERICAL",
    "INCONCLUSIVE",
    "ExtensionProblem",
    "ExtensionCertificate",
    "CertificateResiduals",
    "WitnessCheck",
    "solve_extension",
    "verify_certificate",
    "verify_witness",
    "SweepRow",
    "SweepResult",
    "run_isotropic_sweep",
]


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    target: DensityMatrix
    tol: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        _require_bipartite(self.target.dims)
        _require_tol("tol", self.tol)
        _require_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class CertificateResiduals:
    """PSD, swap and marginal residuals of a candidate extension, as
    ``verify_certificate`` measures them; combined is the largest."""

    psd: float
    swap: float
    pt: float

    @property
    def combined(self) -> float:
        return max(self.psd, self.swap, self.pt)


@dataclass(eq=False)
class ExtensionCertificate:
    """Solver output: candidate extension, residuals, and a verdict.

    verdict is one of Feasible / InfeasibleNumerical / Inconclusive.
    candidate is X(y) at the exit, averaged so that it is exactly Hermitian
    and exactly invariant under the swap of B and B' (np.array_equal with
    its conjugate transpose and with its swapped copy). residuals are the
    ``CertificateResiduals`` that ``verify_certificate`` returns for
    candidate at the exit, whichever rule ended the solve;
    Feasible means their combined value is at or below the requested tol.
    stop_reason says which rule ended the solve: "tol" (Feasible, X(y) at a
    gradient norm within tol), "face" (Feasible, the least-norm extension
    on the range of X(y), whose marginal is exact to rounding), "witness"
    (InfeasibleNumerical, proved by a dual witness) or "budget"
    (Inconclusive). On a witness exit, witness holds W and witness_margin
    its margin as recomputed by ``verify_witness``; both are None otherwise.
    iterations counts dual evaluations. history records each accepted
    L-BFGS step as (evaluation, theta, gradient norm): theta strictly
    decreases along it, and the gradient norm is the marginal residual of
    that step's candidate.
    """

    candidate: np.ndarray
    residuals: CertificateResiduals
    iterations: int
    verdict: str
    stop_reason: str
    history: list = field(default_factory=list)
    witness: np.ndarray = None
    witness_margin: float = None


@dataclass(frozen=True)
class WitnessCheck:
    """Margin Tr(W rho) - lambda_min(sym(W (x) I_B')) and a bound on its
    floating-point error; a margin below -error_bound proves the target
    has no symmetric extension."""

    margin: float
    error_bound: float

    @property
    def certified(self) -> bool:
        return self.margin < -self.error_bound


class _Geometry:
    """Extension geometry on A (x) B (x) B' for the solver and the distance:
    swap average, reduction Tr_B', lift Y -> sym(Y (x) I_B'). For a target
    matrix (a ``DensityMatrix.matrix``, whose dtype sets the arithmetic) it
    also carries an orthonormal basis (side x dim P) of the forced range P
    and the projector ker onto ker(target); both None if P is all.
    A side d_A d_B**2 above MAX_SIDE is an InputError, raised before any eigh:
    this is the size check of both the extension solve and the distance."""

    def __init__(self, dims, rho=None, tol=None):
        d_a, d_b = dims
        self.d_a, self.d_b = d_a, d_b
        self.d_ab = d_a * d_b
        self.side = self.d_ab * d_b
        if self.side > MAX_SIDE:
            raise InputError(f"extension side {self.side} exceeds supported maximum {MAX_SIDE}")
        self.shape6 = (d_a, d_b, d_b) * 2
        self.eye_b = np.eye(d_b)
        self.rho, self.basis, self.ker = rho, None, None
        if rho is not None:
            self._support_basis(tol)

    def _support_basis(self, tol: float):
        # For |psi> in ker(rho), positivity of X and Tr_B' X = rho force
        # X (|psi> (x) |k>) = 0; swap invariance forces the same on the
        # swapped image, so range P is the intersection of the two ranges:
        # the eigenvalue-1 eigenspace of the average of the two projectors.
        w, u = np.linalg.eigh(self.rho)
        thresh = max(1e-12, 1e-4 * tol) * max(1.0, float(w.max()))
        supp = u[:, w > thresh]
        if supp.shape[1] == self.d_ab:
            return
        supp_proj = supp @ supp.conj().T
        wt, ut = np.linalg.eigh(self.lift(supp_proj))
        self.basis = ut[:, wt > 1.0 - 5e-10]
        ker = np.eye(self.d_ab) - supp_proj
        self.ker = (ker + ker.conj().T) / 2
        # B and V B (V swaps B and B') with rows (ab, b') split so that index
        # ab leads: pair[ab, (i, b', k)], i = 0 for B and 1 for V B
        dim_p = self.basis.shape[1]
        b = self.basis.reshape(self.d_a, self.d_b, self.d_b, dim_p)
        pair = np.stack((b, b.transpose(0, 2, 1, 3)), axis=2)
        self.pair = pair.reshape(self.d_ab, 2 * self.d_b * dim_p)
        self.pair_h = pair.reshape(2 * self.side, dim_p).conj().T

    def swap_avg(self, m):
        flipped = m.reshape(self.shape6).transpose(0, 2, 1, 3, 5, 4)
        return (m + flipped.reshape(self.side, self.side)) / 2

    def ptrace_last(self, m):
        t = m.reshape(self.d_ab, self.d_b, self.d_ab, self.d_b)
        return np.trace(t, axis1=1, axis2=3)

    def kron_eye(self, y):
        # y (x) I_B by broadcasting: same values as np.kron, several times
        # faster at these sizes
        n = y.shape[0] * self.d_b
        return (y[:, None, :, None] * self.eye_b[None, :, None, :]).reshape(n, n)

    def lift(self, y):
        return self.swap_avg(self.kron_eye(y))

    def compress(self, y):
        """B^dag lift(y) B, or lift(y) when basis is None. Since
        lift(y) = (y (x) I + V (y (x) I) V) / 2, it is
        (B^dag (y (x) I) B + (V B)^dag (y (x) I) V B) / 2: one product of y
        with B and V B side by side and one contraction, so the side x side
        lift is never formed."""
        if self.basis is None:
            return self.lift(y)
        z = (y @ self.pair).reshape(self.pair_h.shape[::-1])
        return self.pair_h @ z / 2

    def dual(self, y):
        """From one eigh of B^dag lift(y) B (B = basis, the identity when
        None): theta(y), its gradient Tr_B' X(y) - rho, a factor F of
        X(y) = F F^dag and the free margin max(w_max, 0) - Re<rho, y>."""
        w, u = np.linalg.eigh(self.compress(y))
        pos = w > 0
        f = u[:, pos] * np.sqrt(w[pos])
        f = f if self.basis is None else self.basis @ f
        fr = f.reshape(self.d_ab, -1)
        rho_y = float(np.vdot(self.rho, y).real)
        value = 0.5 * float(w[pos] @ w[pos]) - rho_y
        return value, fr @ fr.conj().T - self.rho, f, w.max(initial=0.0) - rho_y

    def face(self, q, tol):
        """The least-norm swap-invariant X on the face spanned by q (side x r,
        orthonormal columns spanning a range that V maps onto itself) with
        Tr_B' X = rho. None when its least-squares residual or -lambda_min is
        above tol, or when its solve would cost more than an eigh at side
        MAX_SIDE.

        In a basis of eigenvectors of V on the face, q_+ (V = +1) and q_-
        (V = -1), a swap-invariant X is q_+ Z_+ q_+^dag + q_- Z_- q_-^dag, and
        Tr_B'(q_i q_j^dag)[a, c] = sum_b' q_i[(a, b')] conj(q_j[(c, b')]).
        So Tr_B' X = rho is a dense system of m = d_AB^2 rows and n columns,
        one per entry of Z_+ and Z_-. One np.linalg.lstsq, about
        m n min(m, n) flops, gives its least-norm solution, which is
        Hermitian since Tr_B' X^dag = (Tr_B' X)^dag."""
        d_ab, d_b, r = self.d_ab, self.d_b, q.shape[1]
        swapped = q.reshape(self.d_a, d_b, d_b, r).transpose(0, 2, 1, 3).reshape(q.shape)
        sign, e = np.linalg.eigh(q.conj().T @ swapped)
        blocks = [q @ e[:, sign > 0], q @ e[:, sign <= 0]]
        sizes = [b.shape[1] for b in blocks]
        m, n = d_ab * d_ab, sum(k * k for k in sizes)
        if m * n * min(m, n) > MAX_SIDE**3:
            return None
        columns = []
        for b, k in zip(blocks, sizes):
            t = b.reshape(d_ab, d_b, k).transpose(0, 2, 1).reshape(d_ab * k, d_b)
            c = (t @ t.conj().T).reshape(d_ab, k, d_ab, k).transpose(0, 2, 1, 3)
            columns.append(c.reshape(m, k * k))
        a = np.hstack(columns)
        z = np.linalg.lstsq(a, self.rho.ravel(), rcond=None)[0]
        if np.linalg.norm(a @ z - self.rho.ravel()) > tol:
            return None
        x = 0.0
        for b, k, zb in zip(blocks, sizes, np.split(z, [sizes[0] ** 2])):
            zb = zb.reshape(k, k)
            zb = (zb + zb.conj().T) / 2
            if k and np.linalg.eigvalsh(zb)[0] < -tol:
                return None
            x = x + b @ zb @ b.conj().T
        return x


class _PairMemory:
    """The last LBFGS_MEMORY pairs (s, g_diff) of an L-BFGS run in the
    compact form of Byrd, Nocedal and Schnabel (Math. Program. 63, 1994).

    A pair is held as the float64 views of its arrays, so Re<a, b> is a
    dot. Slot j of a ring buffer holds s_j in row 2j and g_diff_j in row
    2j + 1. Beside them, indexed by slot: r_inv, the inverse of
    R = triu(<s_i, g_diff_j>) taken in order of age; yy = <g_diff_i, g_diff_j>;
    and the curvatures <s_j, g_diff_j>. The inverse of a trailing block of a
    triangular matrix is the trailing block of its inverse, so dropping the
    oldest pair drops its row and column of r_inv, and storing a pair costs
    one product with the stored rows and O(m^2) more. Only the rows of
    stored pairs are read or written.
    """

    def __init__(self):
        self.rows, self.stored = None, 0

    def store(self, s, g_diff, curvature):
        if self.rows is None:  # allocated at the first pair: most short solves store none
            m = LBFGS_MEMORY
            self.rows = np.empty((2 * m, s.size))
            self.r_inv, self.yy = np.zeros((m, m)), np.zeros((m, m))
            self.curv, self.coef = np.zeros(m), np.zeros((m, 2))
        j = self.stored % LBFGS_MEMORY  # the oldest pair's slot once all are full
        self.stored += 1
        k = min(self.stored, LBFGS_MEMORY)
        self.rows[2 * j], self.rows[2 * j + 1] = s, g_diff
        prod = self.rows[: 2 * k].dot(g_diff)
        sy, yy = prod[0::2], prod[1::2]
        sy[j] = 0.0
        r_inv = self.r_inv[:k, :k]
        r_inv[j] = 0.0
        r_inv[:, j] = r_inv.dot(sy) * (-1.0 / curvature)
        r_inv[j, j] = 1.0 / curvature
        self.yy[j, :k] = self.yy[:k, j] = yy
        self.curv[j] = curvature
        # scaling of the initial inverse Hessian, from the latest pair
        self.gamma = float(curvature / yy[j])

    def direction(self, grad):
        """Minus the L-BFGS inverse-Hessian estimate times grad:
        -gamma grad - S v + gamma G u, with S and G the stored s and g_diff,
        u = r_inv S^T grad and v = r_inv^T ((D + gamma G^T G) u - gamma G^T grad),
        D the curvatures."""
        k = min(self.stored, LBFGS_MEMORY)
        if not k:
            return -grad
        gamma, rows, r_inv = self.gamma, self.rows[: 2 * k], self.r_inv[:k, :k]
        pq = rows.dot(grad)
        u = r_inv.dot(pq[0::2])
        coef = self.coef[:k]
        coef[:, 0] = (gamma * (pq[1::2] - self.yy[:k, :k].dot(u)) - self.curv[:k] * u).dot(r_inv)
        coef[:, 1] = gamma * u
        step = coef.ravel().dot(rows)
        step -= gamma * grad
        return step


def _lbfgs(evaluate, x0, max_iter):
    """L-BFGS with Armijo backtracking from x0; evaluate(x) returns
    (value, grad, *extra). Yields (k, point, accepted, value, grad, extra)
    for each evaluation k <= max_iter, line-search trials included, until
    the caller breaks out. A non-descent direction restarts along -grad.
    grad has the shape and dtype (float64 or complex128) of x; the
    iteration runs on their float64 views, where Re<a, b> is a dot."""
    shape, dtype = x0.shape, x0.dtype
    x = trial = x0.reshape(-1).view(np.float64)
    value, t, slope = np.inf, 1.0, 0.0
    memory = _PairMemory()
    for k in range(1, max_iter + 1):
        point = trial.view(dtype).reshape(shape)
        trial_value, trial_grad, *extra = evaluate(point)
        accepted = not trial_value > value + 1e-4 * t * slope
        yield k, point, accepted, trial_value, trial_grad, extra
        if not accepted:
            t /= 2  # Armijo sufficient decrease failed: backtrack
        else:
            g = trial_grad.reshape(-1).view(np.float64)
            if k > 1:
                s, g_diff = trial - x, g - grad
                curvature = s.dot(g_diff)
                if curvature > 0:
                    memory.store(s, g_diff, curvature)
            x, value, grad = trial, trial_value, g
            direction = memory.direction(grad)
            t, slope = 1.0, grad.dot(direction)
            if slope >= 0:  # not a descent direction: restart along -grad
                memory = _PairMemory()
                direction, slope = -grad, -grad.dot(grad)
        trial = x + t * direction


def solve_extension(problem: ExtensionProblem) -> ExtensionCertificate:
    """Search for a symmetric extension of the target state.

    L-BFGS with Armijo backtracking minimizes the dual theta from
    y0 = (2 target - target_A (x) I/d_B) / d_B, whose lift is the least-norm
    swap-invariant matrix with marginal target (see the module docstring);
    real for a real target, complex otherwise. Every dual evaluation,
    line-search trials included, counts against ``max_iter`` and is
    checked for both exits: a gradient norm at or below tol whose
    candidate X(y) ``verify_certificate`` re-measures within tol ends the
    solve as Feasible, and a negative free margin that ``verify_witness``
    confirms for W = -y (or, within a face, W = -y + c K) ends it as
    InfeasibleNumerical. At an accepted step where the rank of X(y) has
    changed since the last try, and X(y) is not full rank on the whole
    space, the least-norm extension on its range (``_Geometry.face``)
    ends the solve as Feasible by "face" when ``verify_certificate``
    re-measures it within tol. Every exit stores the residuals
    ``verify_certificate`` returns for its candidate. When the
    budget runs out the verdict is Inconclusive, with the last candidate.
    """
    target = problem.target
    geo = _Geometry(target.dims, target.matrix, problem.tol)
    rho, tol, d_b = geo.rho, problem.tol, geo.d_b
    history = []

    def finish(x, verdict, iterations, stop_reason, witness=None, margin=None):
        return ExtensionCertificate(x, verify_certificate(x, target), iterations, verdict,
                                    stop_reason, history, witness, margin)

    def candidate(x):
        return geo.swap_avg((x + x.conj().T) / 2)

    def witness(y, free_margin):
        check = verify_witness(-y, target)
        if check.certified:
            return -y, check.margin
        # A free margin within the rounding bound of -y is noise (Feasible
        # rank-deficient targets trip the test at about -1e-16) that no face
        # try can confirm. Doubling c from ||y|| is large enough to push
        # lambda_min onto range P, small enough to keep the bound below the margin.
        if geo.ker is not None and free_margin < -check.error_bound:
            c = np.linalg.norm(y)
            for j in range(30):
                check = verify_witness(w_op := -y + c * 2.0**j * geo.ker, target)
                if check.certified:
                    return w_op, check.margin
        return None

    y0 = (2 * rho - geo.kron_eye(linalg.partial_trace(rho, target.dims, 0)) / d_b) / d_b
    face_rank = None
    for k, y, accepted, value, grad, (f, free_margin) in _lbfgs(geo.dual, y0, problem.max_iter):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            cert = finish(candidate(f @ f.conj().T), FEASIBLE, k, "tol")
            if cert.residuals.combined <= tol:
                return cert
        if free_margin < 0:
            found = witness(y, free_margin)
            if found is not None:
                x = f @ f.conj().T
                return finish(candidate(x), INFEASIBLE_NUMERICAL, k, "witness", *found)
        if not accepted:
            continue
        history.append((k, value, grad_norm))
        # The least-norm extension on the range of f depends only on that
        # range, which moves where the rank of f changes. On the whole space
        # (rank side, no basis) it is lift(y0), which evaluation 1 tested.
        r = f.shape[1]
        if r != face_rank and (geo.basis is not None or r < geo.side):
            face_rank = r
            x = geo.face(f / np.linalg.norm(f, axis=0), tol)
            if x is not None:
                cert = finish(candidate(x), FEASIBLE, k, "face")
                if cert.residuals.combined <= tol:
                    return cert
    return finish(candidate(f @ f.conj().T), INCONCLUSIVE, problem.max_iter, "budget")


def verify_certificate(x, target: DensityMatrix) -> CertificateResiduals:
    """Recompute the three residuals of a candidate extension from scratch.

    Independent of the solver: the swap residual goes through an explicit
    index permutation and the marginal through block summation, so this
    path also validates externally supplied extensions. It decides the
    solver's Feasible exit. A real input stays float64 (a complex one is
    complex128), so a real candidate costs a real eigvalsh.
    """
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    d_a, d_b = target.dims
    side = d_a * d_b * d_b
    if x.shape != (side, side):
        raise ValueError(f"candidate shape {x.shape} does not match ({side}, {side})")

    wmin = float(np.linalg.eigvalsh((x + x.conj().T) / 2).min())
    psd = max(0.0, -wmin)

    p = linalg.swap_permutation(d_a, d_b)
    swap = float(np.linalg.norm(x - x[np.ix_(p, p)]))

    t = x.reshape(d_a * d_b, d_b, d_a * d_b, d_b)
    reduced = sum(t[:, k, :, k] for k in range(d_b))
    pt = float(np.linalg.norm(reduced - target.matrix))

    return CertificateResiduals(psd=psd, swap=swap, pt=pt)


def verify_witness(w, target: DensityMatrix) -> WitnessCheck:
    """Recompute the margin of a dual witness from scratch.

    For Hermitian W on AB, every extendible sigma has Tr(W sigma) >= c =
    lambda_min(M), M = sym(W (x) I_B'), so a margin Tr(W rho) - c below
    -error_bound proves the target rho has no symmetric extension. Only
    the Hermitian part of w is used. Independent of the solver: the lift
    goes through np.kron and an explicit index permutation. A real w stays
    float64 (a complex one is complex128), and the bound below holds in
    either arithmetic.

    error_bound bounds the rounding error of the computed margin, with
    eps the machine epsilon and n = d_A d_B:
      * forming M: the Kronecker product with I and the permutation are
        exact, and the average rounds each entry once, a
        perturbation of at most eps ||M||_F (M stays exactly Hermitian);
      * eigvalsh is backward stable, so by Weyl's inequality its smallest
        eigenvalue is off by at most p(side) eps ||M||_2, p a modestly
        growing function (LAPACK Users' Guide, section 4.7); side stands
        in for p, and ||M||_F >= ||M||_2;
      * Tr(W rho) sums n^2 complex products, off by at most
        n^2 eps ||W||_F ||rho||_F (summation bound and Cauchy-Schwarz).
    The total is eps ((side + 1) ||M||_F + n^2 ||W||_F ||rho||_F).
    """
    w = np.asarray(w, dtype=complex if np.iscomplexobj(w) else float)
    d_a, d_b = target.dims
    n = d_a * d_b
    side = n * d_b
    if w.shape != (n, n):
        raise ValueError(f"witness shape {w.shape} does not match ({n}, {n})")
    w = (w + w.conj().T) / 2
    rho = target.matrix

    lifted = np.kron(w, np.eye(d_b))
    p = linalg.swap_permutation(d_a, d_b)
    m = (lifted + lifted[np.ix_(p, p)]) / 2
    c = float(np.linalg.eigvalsh(m)[0])
    value = float(np.real(np.sum(w * rho.T)))

    eps = np.finfo(float).eps
    norm_m = float(np.linalg.norm(m))
    norm_trace = float(np.linalg.norm(w) * np.linalg.norm(rho))
    bound = float(eps * ((side + 1) * norm_m + n * n * norm_trace))
    return WitnessCheck(margin=value - c, error_bound=bound)


@dataclass(frozen=True)
class SweepRow:
    fidelity: float
    certificate: ExtensionCertificate


@dataclass(eq=False)
class SweepResult:
    """Isotropic solves in increasing fidelity. bracket is the pair of rows
    (largest Feasible, smallest InfeasibleNumerical above it), or None if
    there is none; boundary is its midpoint, with no interpolation."""

    d: int
    rows: list

    @property
    def bracket(self):
        lo = max((r for r in self.rows if r.certificate.verdict == FEASIBLE),
                 key=lambda r: r.fidelity, default=None)
        above = [r for r in self.rows if lo is not None and r.fidelity > lo.fidelity
                 and r.certificate.verdict == INFEASIBLE_NUMERICAL]
        return (lo, min(above, key=lambda r: r.fidelity)) if above else None

    @property
    def boundary(self):
        return None if self.bracket is None else sum(r.fidelity for r in self.bracket) / 2


def run_isotropic_sweep(
    d: int,
    f_min: float,
    f_max: float,
    steps: int,
    tol: float = ExtensionProblem.tol,
    max_iter: int = ExtensionProblem.max_iter,
) -> SweepResult:
    """Solve the isotropic family on an even grid of fidelities; the
    result's ``bracket`` and ``boundary`` locate the extendibility boundary."""
    d = _require_count("dimension", d, 2)
    _require_count("steps", steps, 1)
    f_min, f_max = _require_fraction("f_min", f_min), _require_fraction("f_max", f_max)
    if f_min > f_max:
        raise InputError(f"bad fidelity range [{f_min}, {f_max}]")
    rows = []
    for f in np.linspace(f_min, f_max, steps):  # steps = 1 gives [f_min]
        problem = ExtensionProblem(isotropic(d, float(f)), tol=tol, max_iter=max_iter)
        rows.append(SweepRow(float(f), solve_extension(problem)))
    return SweepResult(d=d, rows=rows)
