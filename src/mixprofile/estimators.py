"""Disclosure-attack estimators.

All attacks model the expected output counts of receiver ``j`` as
``A @ r_j`` where ``A`` is the observed input matrix (threshold mix) or the
expected-departure matrix (pool mix) and ``r_j`` stacks the transition
probabilities into receiver ``j``.  The least-squares attacks see a trace
only through its :class:`NormalEquations`: the batch and recursive solvers
minimise the squared prediction error receiver by receiver; the constrained
solver additionally projects every sender profile onto the probability
simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    InvalidParameterError,
    InvalidScenarioError,
    ParseError,
    SingularSystemError,
    SolverDivergedError,
)
from .mixsim import Trace
from .observe import expected_departures

LSDA = "lsda"
CLSDA = "clsda"
RLS = "rls"
SDA = "sda"
ZCLIP = "zclip"
METHODS = (LSDA, CLSDA, RLS, SDA, ZCLIP)

INIT_UNIFORM = "uniform"
INIT_PROJECTED = "unconstrained_projected"

#: relative diagonal jitter applied when the explicit ridge fallback is enabled
RIDGE_SCALE = 1e-10
#: rounds per block that :func:`rls` feeds into the normal equations
RLS_BLOCK = 1024
#: projected steps with an unchanged support before :func:`clsda` turns to its face
FACE_SETTLE = 3


@dataclass(frozen=True)
class ProfileEstimate:
    """Estimated transition matrix plus solver metadata.

    ``P_hat[i, j]`` estimates the probability that sender ``i`` writes to
    receiver ``j``.  Unconstrained methods may produce negative entries,
    usually for receivers that are not contacts of the sender.  ``residual``
    is the squared prediction error of the fit, ``||Y - A @ P_hat||_F**2``,
    computed in Gram form from the normal equations.
    """

    P_hat: np.ndarray
    method: str
    iterations: int = 1
    residual: float = float("nan")
    converged: bool = True
    objective_history: np.ndarray | None = None


@dataclass(frozen=True)
class SolverOptions:
    """Options for :func:`clsda`'s projected-gradient and conjugate-gradient solver.

    The projected step size is ``step_scale / lambda_max`` where ``lambda_max``
    is the largest eigenvalue of the Gram matrix.  ``step_scale <= 1`` is the
    range in which the accelerated (momentum) steps converge at their fast rate;
    up to 2 the plain steps still decrease the objective, and momentum steps
    that overshoot are replaced by plain ones.  The solver converges once a
    projected step's relative Frobenius change, ``|P_{k+1} - P_k| / |P_k|``, is
    at most ``tol``; a conjugate-gradient run on a face ends at the same change.
    ``max_iter`` caps the steps of both kinds, one Gram product each (a momentum
    step replaced by a plain one counts once).  ``init`` picks the start: the
    uniform profile, or the unconstrained least-squares solution projected
    onto the simplex.
    """

    step_scale: float = 1.0
    max_iter: int = 5000
    tol: float = 1e-9
    init: str = INIT_UNIFORM

    def __post_init__(self):
        if not 0.0 < self.step_scale < 2.0:
            raise InvalidParameterError("step_scale must lie in (0, 2)")
        if self.max_iter < 0:
            raise InvalidParameterError("max_iter must be >= 0")
        if self.tol <= 0.0:
            raise InvalidParameterError("tol must be positive")
        if self.init not in (INIT_UNIFORM, INIT_PROJECTED):
            raise InvalidParameterError(f"unknown init {self.init!r}")


def _gram_factor(gram: np.ndarray, ridge: bool):
    """Cholesky factor of a PSD Gram matrix.

    LAPACK can report success on an exactly singular matrix with a rounding-
    level pivot, so the factor diagonal is checked explicitly.  A rank-
    deficient matrix raises :class:`SingularSystemError` unless ``ridge``
    enables the diagonal jitter fallback.
    """
    n = gram.shape[0]
    try:
        factor = sla.cho_factor(gram, lower=True, check_finite=False)
        diag = np.abs(np.diagonal(factor[0]))
        if diag.min() > diag.max() * np.sqrt(n * np.finfo(float).eps):
            return factor
    except np.linalg.LinAlgError:
        pass
    if not ridge:
        rank = int(np.linalg.matrix_rank(gram))
        raise SingularSystemError(f"gram matrix is rank deficient: rank {rank} of {n}")
    jitter = RIDGE_SCALE * float(np.trace(gram)) / n
    return sla.cho_factor(gram + jitter * np.eye(n), lower=True, check_finite=False)


class NormalEquations:
    """Sufficient statistics of the least-squares attacks.

    Every least-squares attack sees a trace only through ``gram = A.T @ A``,
    ``cross = A.T @ Y``, ``y_sq = ||Y||_F**2`` and the number of ``rounds``,
    where ``A`` is ``U`` for a threshold mix and ``U_hat`` for a pool mix.
    Rounds are added in blocks of rows (one row is a block of height 1).  Any
    split of a trace into blocks gives the same sums, exactly for integer ``A``.
    """

    def __init__(self, n_senders: int, n_receivers: int):
        self.gram = np.zeros((n_senders, n_senders))
        self.cross = np.zeros((n_senders, n_receivers))
        self.y_sq = 0.0
        self.rounds = 0

    @classmethod
    def from_trace(cls, trace: Trace, f_hat=None, block: int | None = None) -> NormalEquations:
        """Accumulate a whole trace, ``block`` rounds at a time (default: all at once)."""
        a = expected_departures(trace, f_hat=f_hat).U_hat
        eq = cls(trace.n_senders, trace.n_receivers)
        step = block or trace.rho
        for start in range(0, trace.rho, step):
            eq.update(a[start : start + step], trace.Y[start : start + step])
        return eq

    def update(self, a_rows: np.ndarray, y_rows: np.ndarray) -> None:
        """Add a block of rounds: its rows of the design matrix and of ``Y``."""
        a = np.atleast_2d(np.asarray(a_rows, dtype=float))
        y = np.atleast_2d(np.asarray(y_rows, dtype=float))
        self.gram += a.T @ a
        self.cross += a.T @ y
        self.y_sq += float(np.vdot(y, y))
        self.rounds += a.shape[0]

    def solve(self, ridge: bool = False) -> np.ndarray:
        """Solve ``gram @ P = cross`` with one Cholesky factorization."""
        return sla.cho_solve(_gram_factor(self.gram, ridge), self.cross, check_finite=False)

    def residual(self, p: np.ndarray, gp: np.ndarray | None = None) -> float:
        """``||Y - A @ p||_F**2`` in Gram form, clamped at 0; ``gp`` may pass ``gram @ p``."""
        gp = self.gram @ p if gp is None else gp
        return max(self.y_sq - 2.0 * float(np.vdot(p, self.cross)) + float(np.vdot(p, gp)), 0.0)

    def lambda_max(self) -> float:
        """Largest eigenvalue of the Gram matrix."""
        top = len(self.gram) - 1
        return float(sla.eigvalsh(self.gram, subset_by_index=[top, top])[0])


def lsda(trace: Trace, ridge: bool = False, f_hat: np.ndarray | None = None) -> ProfileEstimate:
    """Unconstrained least-squares profile estimate.

    Solves the normal equations ``(A.T @ A) r_j = A.T @ y_j`` for every
    receiver ``j`` with a single Cholesky factorization of the Gram matrix
    shared across receivers.  Raises :class:`SingularSystemError` when the
    Gram matrix is rank deficient unless ``ridge`` enables the diagonal
    jitter fallback.
    """
    eq = NormalEquations.from_trace(trace, f_hat=f_hat)
    p_hat = eq.solve(ridge)
    return ProfileEstimate(P_hat=p_hat, method=LSDA, iterations=1, residual=eq.residual(p_hat))


def _project_rows(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex."""
    u = np.sort(mat, axis=1)[:, ::-1]
    shift = np.cumsum(u, axis=1)
    shift -= 1.0
    shift /= np.arange(1, mat.shape[1] + 1)
    # the feasibility condition u > shift holds on a prefix of each sorted row
    n_pos = np.count_nonzero(u > shift, axis=1)
    out = mat - shift[np.arange(mat.shape[0]), n_pos - 1][:, None]
    return np.maximum(out, 0.0, out=out)


def _face_tangent(x: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Zero ``x`` off the 0/1 mask ``face``, then subtract each row's mean over it."""
    x = x * face
    x -= face * (x.sum(axis=1, keepdims=True) / face.sum(axis=1, keepdims=True))
    return x


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-and-threshold method; exact in O(n log n).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidParameterError("expected a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("entries must be finite")
    return _project_rows(v[None, :])[0]


def clsda(
    trace: Trace,
    opts: SolverOptions | None = None,
    f_hat: np.ndarray | None = None,
) -> ProfileEstimate:
    """Simplex-constrained least-squares estimate by projected and conjugate gradient.

    Minimises ``||Y - A @ P||_F**2`` with every sender row of ``P`` on the
    probability simplex, working only on the normal equations
    ``G = A.T @ A``, ``C = A.T @ Y``.  A projected step extrapolates
    ``Z = P_k + beta_k * (P_k - P_{k-1})`` with the FISTA momentum
    ``beta_k = (t_k - 1) / t_{k+1}``, ``t_{k+1} = (1 + sqrt(1 + 4 t_k**2)) / 2``,
    ``t_1 = 1`` (Beck & Teboulle 2009), and steps ``P_{k+1} = proj(Z - mu *
    (G @ Z - C))`` with ``mu = step_scale / lambda_max(G)``; ``G @ Z`` comes
    from the stored ``G @ P_k`` and ``G @ P_{k-1}``.  The momentum restarts
    (``t = 1``) when ``<Z - P_{k+1}, P_{k+1} - P_k> > 0`` (gradient restart;
    O'Donoghue & Candès 2015), and a momentum step that raises the objective
    is redone as a plain step from ``P_k``.

    Once the support ``S = P > 0`` has stayed the same for :data:`FACE_SETTLE`
    projected steps, conjugate gradient runs on the face ``{P[~S] = 0, rows
    sum to 1}`` (GPCG; Moré & Toraldo 1991), where the Gram's isolated top
    eigenvalue costs about one extra step instead of setting the step size.
    Projected steps resume, without momentum, after a step that stops at an
    entry reaching 0 (set to exactly 0) or changes ``P`` by at most ``tol``.

    Each step of either kind costs one Gram product and counts in
    ``iterations``; ``objective_history`` holds every accepted objective, and
    a plain or conjugate-gradient step that raises it raises
    :class:`SolverDivergedError`.  Only a projected step with a relative
    Frobenius change of at most ``tol`` sets ``converged``, so a converged
    estimate is a projection; a run cut by ``max_iter`` also ends on the simplices.
    """
    if opts is None:
        opts = SolverOptions()
    eq = NormalEquations.from_trace(trace, f_hat=f_hat)
    gram, cross = eq.gram, eq.cross

    lam = eq.lambda_max()
    if lam <= 0.0:
        raise SingularSystemError("design matrix is identically zero")
    mu = opts.step_scale / lam

    def projected_step(z, gz):
        p = _project_rows(z - mu * (gz - cross))
        gp = gram @ p
        return p, gp, eq.residual(p, gp)

    if opts.init == INIT_UNIFORM:
        p = np.full(cross.shape, 1.0 / cross.shape[1])
    else:
        p = _project_rows(eq.solve())

    gp = gram @ p
    objective = eq.residual(p, gp)
    p_prev, gp_prev, t = p, gp, 1.0
    history = [objective]
    converged = False
    iterations = settled = 0
    face = None  # 0/1 mask of the support while conjugate gradient runs on its face
    for iterations in range(1, opts.max_iter + 1):
        if face is None and settled >= FACE_SETTLE:
            face, d, rr = (p > 0.0).astype(float), 0.0, np.inf
        if face is None:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            z, gz = p + beta * (p - p_prev), gp + beta * (gp - gp_prev)
            p_new, gp_new, obj_new = projected_step(z, gz)
            if beta > 0.0 and obj_new > objective:
                # the momentum overshot: drop it and redo the step from P_k; only a
                # plain step's rise is judged by the divergence guard below
                t_next, z = 1.0, p
                p_new, gp_new, obj_new = projected_step(p, gp)
            if np.vdot(z - p_new, p_new - p) > 0.0:
                t_next = 1.0
        else:
            r = _face_tangent(cross - gp, face)
            rr, rr_prev = float(np.vdot(r, r)), rr
            d = r + (rr / rr_prev) * d
            gd = gram @ d
            dgd = float(np.vdot(d, gd))
            a = rr / dgd if dgd > 0.0 else 0.0
            # ratio test: stop the step at the first entry to reach 0
            ratios = np.divide(p, -d, out=np.full_like(p, np.inf), where=d < 0.0)
            block = int(np.argmin(ratios))
            blocked = bool(ratios.flat[block] <= a)
            a = min(a, ratios.flat[block])
            p_new, gp_new = np.maximum(p + a * d, 0.0), gp + a * gd
            if blocked:
                p_new.flat[block] = 0.0
            obj_new = eq.residual(p_new, gp_new)
        if obj_new > objective + 1e-9 * (1.0 + abs(objective)):
            raise SolverDivergedError(
                f"clsda objective increased at iteration {iterations}: "
                f"{objective!r} -> {obj_new!r}"
            )
        step = float(np.linalg.norm(p_new - p)) / max(float(np.linalg.norm(p)), 1e-300)
        if face is None:
            settled = settled + 1 if np.array_equal(p_new > 0.0, p > 0.0) else 0
            p_prev, gp_prev, t = p, gp, t_next
        p, gp, objective = p_new, gp_new, obj_new
        history.append(objective)
        if face is None and step <= opts.tol:
            converged = True
            break
        if face is not None and (blocked or step <= opts.tol):
            face, settled, p_prev, gp_prev, t = None, 0, p, gp, 1.0

    return ProfileEstimate(
        P_hat=p,
        method=CLSDA,
        iterations=iterations,
        residual=objective,
        converged=converged,
        objective_history=np.asarray(history),
    )


def rls(trace: Trace, ridge: bool = False, f_hat: np.ndarray | None = None) -> ProfileEstimate:
    """Recursive least-squares estimate: the trace streamed in blocks of rounds.

    Feeds :data:`RLS_BLOCK` rounds at a time into :class:`NormalEquations`
    and solves once at the end; equal to :func:`lsda` within numerical
    precision (exactly for a threshold trace).  ``iterations`` counts rounds.
    """
    eq = NormalEquations.from_trace(trace, f_hat=f_hat, block=RLS_BLOCK)
    p = eq.solve(ridge)
    return ProfileEstimate(P_hat=p, method=RLS, iterations=eq.rounds, residual=eq.residual(p))


def sda(trace: Trace, t: int, n_users: int) -> np.ndarray:
    """Classic statistical disclosure estimate of the first user's profile.

    Requires the scenario in which user 0 sends exactly one message per
    observed round while the remaining senders behave uniformly; returns
    ``mean_r(y_j) - (t - 1)/n_users`` per receiver ``j``.  Entries may be
    negative.
    """
    if n_users < 1:
        raise InvalidParameterError("n_users must be >= 1")
    x_first = trace.U[:, 0]
    bad = np.nonzero(x_first != 1)[0]
    if bad.size:
        raise InvalidScenarioError(
            f"round {int(bad[0])} has x_0={int(x_first[bad[0]])}; the statistical "
            "attack needs exactly one message from the target per round"
        )
    return trace.Y.mean(axis=0) - (t - 1) / n_users


def zero_clip(est: ProfileEstimate) -> ProfileEstimate:
    """Clip negative probabilities to zero and renormalize each sender row.

    Rows that become identically zero fall back to the uniform profile.
    Feasible rows pass through unchanged, so the operation is idempotent.
    """
    p = np.maximum(est.P_hat, 0.0)
    sums = p.sum(axis=1)
    zero = sums == 0.0
    sums[zero] = 1.0
    p = p / sums[:, None]
    if np.any(zero):
        p[zero] = 1.0 / p.shape[1]
    return ProfileEstimate(
        P_hat=p,
        method=ZCLIP,
        iterations=est.iterations,
        residual=float("nan"),
        converged=est.converged,
    )


def save_estimate(est: ProfileEstimate, path) -> None:
    """Write an estimate file: a metadata header plus dense matrix rows."""
    with open(path, "w") as fh:
        fh.write(
            f"# estimate method={est.method} iterations={est.iterations} "
            f"residual={est.residual:.17g} converged={est.converged} "
            f"n_senders={est.P_hat.shape[0]} n_receivers={est.P_hat.shape[1]}\n"
        )
        row_format = " ".join(["%.17g"] * est.P_hat.shape[1]) + "\n"
        fh.writelines(row_format % tuple(row) for row in est.P_hat.tolist())


def load_estimate(path) -> ProfileEstimate:
    """Read an estimate file written by :func:`save_estimate`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# estimate "):
        raise ParseError("missing estimate header", line_no=1)
    header = dict(tok.partition("=")[::2] for tok in lines[0][len("# estimate ") :].split())
    try:
        method = header["method"]
        iterations = int(header["iterations"])
        residual = float(header["residual"])
        converged = header["converged"] == "True"
        shape = (int(header["n_senders"]), int(header["n_receivers"]))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header: {exc}", line_no=1) from exc
    if min(shape) < 1:
        raise ParseError("n_senders and n_receivers must be >= 1", line_no=1)
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError as exc:
            raise ParseError(f"bad matrix entry: {exc}", line_no=line_no) from exc
        if len(rows[-1]) != shape[1]:
            raise ParseError(f"expected {shape[1]} entries, got {len(rows[-1])}", line_no=line_no)
    p_hat = np.array(rows).reshape(len(rows), shape[1])
    if not (finite := np.isfinite(p_hat).all(axis=1)).all():
        raise ParseError("non-finite matrix entry", line_no=int(np.argmin(finite)) + 2)
    if p_hat.shape != shape:
        raise ParseError(f"matrix shape {p_hat.shape} does not match header {shape}")
    return ProfileEstimate(p_hat, method, iterations, residual, converged)
