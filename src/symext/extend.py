"""Symmetric-extendibility test by cyclic projection feasibility.

A bipartite state on A (x) B is symmetrically extendible when some PSD,
trace-one matrix on A (x) B (x) B' is invariant under swapping B and B'
and reduces to the state when B' is traced out. The solver works in
Hermitian-matrix space with three convex sets:

  C1  the PSD cone                       (eigenvalue clamp)
  C2  the forced-support subspace        (see below; skipped when trivial)
  C3  the affine set of swap-invariant matrices with Tr_B' X = target
                                         (exact closed-form projection)

The projection onto C3 first averages with the swapped copy, S = sym(X),
then removes the lift sym(Y (x) I_B') of the marginal deficit. On the
swap-invariant subspace the reduction Tr_B' and the lift are adjoint, and
Tr_B' sym(Y (x) I_B') = (d_B Y + Tr_B(Y) (x) I_B) / 2, which inverts in
closed form: with Z = Tr_B'(S) - target, Y_A = Tr_B(Z) / d_B and
Y = (2 Z - Y_A (x) I_B) / d_B.

C2 exploits that any PSD extension of a rank-deficient target must vanish
on ker(target) (x) B' and, by swap symmetry, on its swapped image, so all
feasible points live in a fixed subspace. Projecting onto it each cycle
does not change the intersection but removes the slowly-decaying kernel
modes that otherwise dominate the iteration count.

Stage one runs Dykstra's cyclic projections over C1, C2, C3 for
STAGE1_ITERS steps. Only the cone keeps a correction term: the other two
sets are a subspace and an affine set with exact projections, for which
Dykstra's correction has no effect. Each step ends on C3, so the iterate
is checked directly. If that stage ends without a verdict, Douglas-Rachford
on C1 vs. C3 takes over from Dykstra's last iterate and spends the rest of
the budget; its candidates are the C3 projections of its cone points.

Infeasible verdicts come from the dual of the extension problem (Doherty,
Parrilo and Spedalieri, PRA 69, 022308, 2004). For any Hermitian W on AB,
every extendible sigma has Tr(W sigma) >= c = lambda_min(sym(W (x) I_B')),
so a negative margin Tr(W rho) - c proves that rho has no extension.
Candidate witnesses W = sigma - rho come from Frank-Wolfe steps on
1/2 ||sigma - rho||^2 over the extendible set, whose linear subproblem is
the same closed-form eigenvector oracle as the distance's: one step from
sigma = I/d_AB before the cyclic loop, one more at each residual check. A
witness ends the solve only after ``verify_witness`` confirms its margin
beyond a floating-point error bound. Targets the witness does not reach
still end on the residual plateau (best combined residual at least 10x
tol, down less than 1% over the trailing quarter), which is numerical
evidence only; ``stop_reason`` tells the two apart.

Feasible verdicts are certificates: the candidate extension is returned and
its residuals can be re-derived independently with ``verify_certificate``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .constructions import isotropic
from .quantum import DensityMatrix, KrausChannel, apply_channel, choi_from_kraus

FEASIBLE = "Feasible"
INFEASIBLE_NUMERICAL = "InfeasibleNumerical"
INCONCLUSIVE = "Inconclusive"

MAX_SIDE = 1024
STAGE1_ITERS = 3000
STALL_MIN_ITER = 2000
STALL_FACTOR = 10.0
STALL_DECREASE = 0.01

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
    "ChannelTestResult",
    "test_channel",
    "max_extendible_fidelity",
    "MapClosureRecord",
    "bob_side_map_preserves",
    "SweepRow",
    "SweepResult",
    "run_isotropic_sweep",
]


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    target: DensityMatrix
    tol: float = 1e-7
    max_iter: int = 20000
    log_every: int = 25

    def __post_init__(self):
        if len(self.target.dims) != 2:
            raise ValueError(f"target must be bipartite, got dims {self.target.dims}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1 or self.log_every < 1:
            raise ValueError("max_iter and log_every must be positive")


@dataclass(eq=False)
class ExtensionCertificate:
    """Solver output: candidate extension, residuals, and a verdict.

    verdict is one of Feasible / InfeasibleNumerical / Inconclusive;
    Feasible means all three residuals are at or below the requested tol.
    stop_reason says which rule ended the solve: "tol" (Feasible), "witness"
    (InfeasibleNumerical proved by a dual witness), "plateau"
    (InfeasibleNumerical on residual evidence only) or "budget"
    (Inconclusive). On a witness exit, witness holds W and witness_margin
    its margin as recomputed by ``verify_witness``; both are None otherwise.
    history holds (iteration, psd, swap, pt) samples at the logging cadence.
    """

    candidate: np.ndarray
    psd_residual: float
    swap_residual: float
    pt_residual: float
    iterations: int
    verdict: str
    stop_reason: str
    history: list = field(default_factory=list)
    witness: np.ndarray = None
    witness_margin: float = None

    @property
    def combined_residual(self) -> float:
        return max(self.psd_residual, self.swap_residual, self.pt_residual)


@dataclass(frozen=True)
class CertificateResiduals:
    psd: float
    swap: float
    pt: float

    @property
    def combined(self) -> float:
        return max(self.psd, self.swap, self.pt)


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
    """Extension geometry on A (x) B (x) B', shared by the solver and the
    Frank-Wolfe oracle: swap average, reduction Tr_B', lift
    Y -> sym(Y (x) I_B'). Given a target state it also carries the exact
    projection onto C3 and the forced-support projector of C2."""

    def __init__(self, dims, rho=None, tol=None):
        d_a, d_b = dims
        self.d_a, self.d_b = d_a, d_b
        self.d_ab = d_a * d_b
        self.side = self.d_ab * d_b
        self.shape6 = (d_a, d_b, d_b) * 2
        self.eye_b = np.eye(d_b)
        self.rho = None if rho is None else np.asarray(rho)
        self.pi_t = None if rho is None else self._support_projector(tol)

    def _support_projector(self, tol: float):
        # For |psi> in ker(rho), positivity of X and Tr_B' X = rho force
        # X (|psi> (x) |k>) = 0; swap invariance forces the same on the
        # swapped image. None when the forced subspace is everything.
        w, u = np.linalg.eigh(self.rho)
        thresh = max(1e-12, 1e-4 * tol) * max(1.0, float(w.max()))
        supp = u[:, w > thresh]
        if supp.shape[1] == self.d_ab:
            return None
        pi1 = self.kron_eye(supp @ supp.conj().T)
        pi2 = linalg.swap_conjugate(pi1, (self.d_a, self.d_b, self.d_b), 1, 2)
        wt, ut = np.linalg.eigh(pi1 + pi2)
        basis = ut[:, wt > 2.0 - 1e-9]
        pi = basis @ basis.conj().T
        return (pi + pi.conj().T) / 2

    def swap_avg(self, m):
        flipped = m.reshape(self.shape6).transpose(0, 2, 1, 3, 5, 4)
        return (m + flipped.reshape(self.side, self.side)) / 2

    def support_apply(self, m):
        if self.pi_t is None:
            return m
        out = self.pi_t @ m @ self.pi_t
        return (out + out.conj().T) / 2

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

    def lmo(self, g):
        """Closed-form linear minimization over the extendible set.

        min over extendible sigma of <G, sigma> is c = lambda_min(lift G),
        attained at the reduction s of the swap-symmetrized projector onto
        a minimizing eigenvector. Returns (c, s).
        """
        m = self.lift(g)
        w, u = np.linalg.eigh((m + m.conj().T) / 2)
        v = u[:, 0]
        s = self.ptrace_last(self.swap_avg(np.outer(v, v.conj())))
        return float(w[0]), (s + s.conj().T) / 2

    def witness_step(self, sigma):
        """One Frank-Wolfe step on 1/2 ||sigma - rho||^2 over the extendible set.

        The gradient W = sigma - rho is the candidate witness, and the
        oracle's value c gives its margin Tr(W rho) - c. The objective is
        quadratic along the step direction, so the line search is exact:
        t = <W, sigma - s> / ||sigma - s||^2, clipped to [0, 1].
        Returns (W, margin, next sigma).
        """
        w_op = sigma - self.rho
        c, s = self.lmo(w_op)
        margin = float(np.real(linalg.hs_inner(w_op, self.rho))) - c
        step = sigma - s
        norm2 = float(np.real(linalg.hs_inner(step, step)))
        t = 0.0
        if norm2 > 0:
            t = min(1.0, max(0.0, float(np.real(linalg.hs_inner(w_op, step))) / norm2))
        return w_op, margin, sigma - t * step

    def psd_project(self, m):
        w, u = np.linalg.eigh(m)
        y = (u * np.clip(w, 0.0, None)) @ u.conj().T
        return (y + y.conj().T) / 2

    def affine_project(self, m):
        """Exact projection onto C3, the swap-invariant matrices with
        Tr_B' X = rho (closed form in the module docstring)."""
        s = self.swap_avg(m)
        z = self.ptrace_last(s) - self.rho
        t = z.reshape(self.d_a, self.d_b, self.d_a, self.d_b)
        y_a = np.trace(t, axis1=1, axis2=3) / self.d_b
        y = (2 * z - self.kron_eye(y_a)) / self.d_b
        return s - self.lift(y)

    def residual_triple(self, m):
        swap_res = 2.0 * linalg.hs_norm(m - self.swap_avg(m))
        pt_res = linalg.hs_norm(self.ptrace_last(m) - self.rho)
        wmin = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
        return (max(0.0, -wmin), swap_res, pt_res)


def _stalled(history, k, best_combined, tol):
    """Plateau rule on the running-best combined residual.

    Using the best value seen keeps the reported certificate consistent
    with the verdict: a plateau exit always carries a best
    candidate whose combined residual is still at least 10x tol.
    """
    if k < STALL_MIN_ITER or best_combined < STALL_FACTOR * tol:
        return False
    past = [h for h in history if h[0] <= 0.75 * k]
    if not past:
        return False
    ref = min(max(h[1], h[2], h[3]) for h in past)
    return ref > 0 and (ref - best_combined) < STALL_DECREASE * ref


def solve_extension(problem: ExtensionProblem) -> ExtensionCertificate:
    """Search for a symmetric extension of the target state.

    The start point target (x) I/d_B is checked first; it is already an
    extension when the target is rho_A (x) I/d_B. Before the first step, one witness step from
    sigma = I/d_AB tries W = I/d_AB - target. Stage one then runs Dykstra's cyclic projections
    over C1, C2 and C3 from the start point; only the cone keeps a
    correction. Every ``log_every`` steps the residuals of the
    current C3 point are measured: at or below tol it is returned as
    Feasible. Otherwise one more witness step runs, and a witness that
    ``verify_witness`` confirms ends the solve as InfeasibleNumerical. The
    plateau rule (combined residual at least 10x tol, down less than 1%
    over the trailing quarter) is the fallback for targets no witness
    reaches.

    If that stage ends unresolved, a Douglas-Rachford stage on C1 and C3,
    started at Dykstra's last iterate, consumes the remaining budget; its
    candidate is the C3 projection of its cone point, checked the same way,
    so a Feasible verdict always carries a verified candidate regardless of
    which stage produced it.
    """
    target = problem.target
    d_a, d_b = target.dims
    side = d_a * d_b * d_b
    if side > MAX_SIDE:
        raise ValueError(f"extension side {side} exceeds supported maximum {MAX_SIDE}")
    geo = _Geometry(target.dims, target.matrix, problem.tol)

    x = np.kron(target.matrix, geo.eye_b / d_b)
    p = np.zeros_like(x)
    sigma = np.eye(geo.d_ab, dtype=complex) / geo.d_ab

    history = []
    start = geo.residual_triple(x)
    best = (max(start), x, start)

    def finish(verdict, iterations, stop_reason, witness=None, margin=None):
        _, candidate, residuals = best
        return ExtensionCertificate(
            candidate=candidate,
            psd_residual=residuals[0],
            swap_residual=residuals[1],
            pt_residual=residuals[2],
            iterations=iterations,
            verdict=verdict,
            stop_reason=stop_reason,
            history=history,
            witness=witness,
            witness_margin=margin,
        )

    def witness_exit(iterations):
        nonlocal sigma
        w_op, margin, sigma = geo.witness_step(sigma)
        if margin >= 0:
            return None
        check = verify_witness(w_op, target)
        if not check.certified:
            return None
        return finish(INFEASIBLE_NUMERICAL, iterations, "witness", w_op, check.margin)

    if best[0] <= problem.tol:
        return finish(FEASIBLE, 0, "tol")
    done = witness_exit(0)
    if done is not None:
        return done

    for k in range(1, problem.max_iter + 1):
        if k <= STAGE1_ITERS:
            # Dykstra: C1 with correction p, then C2 and C3 without
            s = x + p
            y = geo.psd_project(s)
            p = s - y
            x = z = geo.affine_project(geo.support_apply(y))
        else:
            # Douglas-Rachford: x is the cone point, z the governing sequence
            xb = geo.affine_project(z)
            x = geo.psd_project(2 * xb - z)
            z = z + x - xb

        if k % problem.log_every == 0 or k == problem.max_iter:
            cand = x if k <= STAGE1_ITERS else geo.affine_project(x)
            triple = geo.residual_triple(cand)
            history.append((k,) + triple)
            if max(triple) < best[0]:
                best = (max(triple), cand, triple)
            if best[0] <= problem.tol:
                return finish(FEASIBLE, k, "tol")
            done = witness_exit(k)
            if done is not None:
                return done
            if _stalled(history, k, best[0], problem.tol):
                return finish(INFEASIBLE_NUMERICAL, k, "plateau")

    return finish(INCONCLUSIVE, problem.max_iter, "budget")


def verify_certificate(x, target: DensityMatrix) -> CertificateResiduals:
    """Recompute the three residuals of a candidate extension from scratch.

    Independent of the solver: the swap residual goes through an explicit
    permutation matrix and the marginal through block summation, so this
    path also validates externally supplied extensions.
    """
    x = np.asarray(x, dtype=complex)
    d_a, d_b = target.dims
    side = d_a * d_b * d_b
    if x.shape != (side, side):
        raise ValueError(f"candidate shape {x.shape} does not match ({side}, {side})")

    wmin = float(np.linalg.eigvalsh((x + x.conj().T) / 2).min())
    psd = max(0.0, -wmin)

    v = linalg.swap_operator((d_a, d_b, d_b), 1, 2)
    swap = float(np.linalg.norm(x - v @ x @ v))

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
    goes through np.kron and an explicit permutation matrix.

    error_bound bounds the rounding error of the computed margin, with
    eps the machine epsilon and n = d_A d_B:
      * forming M: the Kronecker product with I and the permutation
        products are exact, and the average rounds each entry once, a
        perturbation of at most eps ||M||_F (M stays exactly Hermitian);
      * eigvalsh is backward stable, so by Weyl's inequality its smallest
        eigenvalue is off by at most p(side) eps ||M||_2, p a modestly
        growing function (LAPACK Users' Guide, section 4.7); side stands
        in for p, and ||M||_F >= ||M||_2;
      * Tr(W rho) sums n^2 complex products, off by at most
        n^2 eps ||W||_F ||rho||_F (summation bound and Cauchy-Schwarz).
    The total is eps ((side + 1) ||M||_F + n^2 ||W||_F ||rho||_F).
    """
    w = np.asarray(w, dtype=complex)
    d_a, d_b = target.dims
    n = d_a * d_b
    side = n * d_b
    if w.shape != (n, n):
        raise ValueError(f"witness shape {w.shape} does not match ({n}, {n})")
    w = (w + w.conj().T) / 2
    rho = target.matrix

    lifted = np.kron(w, np.eye(d_b))
    v = linalg.swap_operator((d_a, d_b, d_b), 1, 2)
    m = (lifted + v @ lifted @ v) / 2
    c = float(np.linalg.eigvalsh(m)[0])
    value = float(np.real(np.sum(w * rho.T)))

    eps = np.finfo(float).eps
    norm_m = float(np.linalg.norm(m))
    norm_trace = float(np.linalg.norm(w) * np.linalg.norm(rho))
    bound = float(eps * ((side + 1) * norm_m + n * n * norm_trace))
    return WitnessCheck(margin=value - c, error_bound=bound)


@dataclass(eq=False)
class ChannelTestResult:
    choi: DensityMatrix
    certificate: ExtensionCertificate
    capacity_zero_certified: bool
    message: str


def test_channel(ch: KrausChannel, tol: float = 1e-7, max_iter: int = 20000) -> ChannelTestResult:
    """Decide whether a channel provably has zero one-way quantum capacity.

    A symmetric extension of the channel's Choi state certifies zero
    capacity; failure to find one proves nothing, so the negative branch
    reports the test as inconclusive for capacity.
    """
    choi = choi_from_kraus(ch).state
    cert = solve_extension(ExtensionProblem(target=choi, tol=tol, max_iter=max_iter))
    if cert.verdict == FEASIBLE:
        msg = "one-way capacity Q-> = 0 (certified by symmetric extension)"
        certified = True
    else:
        msg = "test inconclusive for capacity (no symmetric extension found)"
        certified = False
    return ChannelTestResult(
        choi=choi, certificate=cert, capacity_zero_certified=certified, message=msg
    )


def max_extendible_fidelity(
    d: int, tol: float = 5e-3, solver_tol: float = 1e-7, max_iter: int = 20000
) -> float:
    """Bisect the extendibility boundary of the isotropic family.

    Twirling preserves both fidelity and extendibility, so the isotropic
    family is extremal and this boundary answers the maximal-fidelity
    question for zero-capacity states. Converges to (d+1)/(2d).
    """
    d = int(d)
    if not 2 <= d <= 5:
        raise ValueError(f"dimension must be in [2, 5], got {d}")
    lo, hi = 1.0 / d, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        cert = solve_extension(
            ExtensionProblem(target=isotropic(d, mid), tol=solver_tol, max_iter=max_iter)
        )
        if cert.verdict == FEASIBLE:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(eq=False)
class MapClosureRecord:
    verdict_before: str
    verdict_after: str
    preserved: bool


def bob_side_map_preserves(
    rho: DensityMatrix, ch: KrausChannel, tol: float = 1e-7, max_iter: int = 20000
) -> MapClosureRecord:
    """Check that a trace-preserving map on B keeps a state extendible."""
    before = solve_extension(ExtensionProblem(target=rho, tol=tol, max_iter=max_iter))
    mapped = apply_channel(ch, rho, which=1)
    after = solve_extension(ExtensionProblem(target=mapped, tol=tol, max_iter=max_iter))
    preserved = not (before.verdict == FEASIBLE and after.verdict != FEASIBLE)
    return MapClosureRecord(
        verdict_before=before.verdict, verdict_after=after.verdict, preserved=preserved
    )


@dataclass(frozen=True)
class SweepRow:
    fidelity: float
    verdict: str
    psd_residual: float
    swap_residual: float
    pt_residual: float
    iterations: int


@dataclass(eq=False)
class SweepResult:
    d: int
    rows: list
    boundary: float = None


def _sweep_point(args):
    d, f, tol, max_iter = args
    cert = solve_extension(
        ExtensionProblem(target=isotropic(d, f), tol=tol, max_iter=max_iter)
    )
    return SweepRow(
        fidelity=f,
        verdict=cert.verdict,
        psd_residual=cert.psd_residual,
        swap_residual=cert.swap_residual,
        pt_residual=cert.pt_residual,
        iterations=cert.iterations,
    )


def run_isotropic_sweep(
    d: int,
    f_min: float,
    f_max: float,
    steps: int,
    tol: float = 1e-7,
    max_iter: int = 20000,
    parallel: bool = False,
) -> SweepResult:
    """Grid the isotropic family and estimate the extendibility boundary.

    The boundary estimate is the midpoint between the largest Feasible
    fidelity and the smallest InfeasibleNumerical fidelity above it; no
    interpolation beyond the grid resolution is attempted.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not 0.0 <= f_min <= f_max <= 1.0:
        raise ValueError(f"bad fidelity range [{f_min}, {f_max}]")
    grid = [f_min] if steps == 1 else list(np.linspace(f_min, f_max, steps))
    jobs = [(int(d), float(f), tol, max_iter) for f in grid]
    if parallel:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    rows.sort(key=lambda r: r.fidelity)

    boundary = None
    if steps > 1:
        feas = [r.fidelity for r in rows if r.verdict == FEASIBLE]
        if feas:
            last_feasible = max(feas)
            infeas = [
                r.fidelity
                for r in rows
                if r.verdict == INFEASIBLE_NUMERICAL and r.fidelity > last_feasible
            ]
            if infeas:
                boundary = (last_feasible + min(infeas)) / 2
    return SweepResult(d=int(d), rows=rows, boundary=boundary)
