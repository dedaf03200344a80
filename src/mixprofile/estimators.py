"""Disclosure-attack estimators.

The least-squares attacks model the expected output counts of receiver
``j`` as ``A @ r_j`` where ``A`` is the observed input matrix (threshold mix)
or the expected-departure matrix (pool mix) and ``r_j`` stacks the
transition probabilities into receiver ``j``.  Every attack sees a trace
only through its :class:`NormalEquations`, built a block of rounds at a
time: the batch and recursive solvers minimise the squared prediction error
receiver by receiver; the constrained solver also projects every sender
profile onto the probability simplex; the statistical attack reads rows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, InvalidScenarioError, ParseError, SingularSystemError,
                     SolverDivergedError, _decode_utf8, _open_utf8, check, choice, integer)
from .mixsim import THRESHOLD, Trace, _header_fields, _read_blocks
from .observe import departure_blocks
from .observe import expected_departures  # noqa: F401  bench/tracing.py wraps it under this module

LSDA = "lsda"
CLSDA = "clsda"
RLS = "rls"
SDA = "sda"
ZCLIP = "zclip"
METHODS = (LSDA, CLSDA, RLS, SDA, ZCLIP)

#: rounds per block of :meth:`NormalEquations.from_trace`, for every least-squares attack; 256
#: builds 300-user pool statistics about 15% slower than 512 to 2,048
RLS_BLOCK = 1024
#: projected steps with an unchanged support before :func:`clsda` turns to its face
FACE_SETTLE = 3
#: sorted columns of a row that :func:`_project_rows` reads before it widens its scan
PROJECT_PREFIX = 64
#: steps of :func:`clsda`, projected or conjugate-gradient, before it stops unconverged
MAX_ITER = 5000
#: relative Frobenius change ``|Q - P_k| / |P_k|`` of a step at which :func:`clsda` converges
TOL = 1e-9


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


def _check_rank(gram: np.ndarray) -> None:
    """Raise :class:`SingularSystemError` unless a Cholesky factor of ``gram`` shows full rank.

    LAPACK can report success on an exactly singular matrix with a rounding-
    level pivot, so the factor diagonal is checked explicitly.  The error gives
    the rank and names the senders the trace does not identify: those with a
    share above ``sqrt(n * eps)`` in the null space of one symmetric SVD.  A
    factor that fails the check has ``lambda_min <= n * eps * lambda_max``, so
    the weakest direction is in that null space, also where rounding says not.
    """
    n, eps = gram.shape[0], np.finfo(float).eps
    tol = np.sqrt(n * eps)
    try:
        diag = np.abs(np.diagonal(np.linalg.cholesky(gram)))
        if diag.min() > diag.max() * tol:
            return
    except np.linalg.LinAlgError:
        pass
    _, s, vh = np.linalg.svd(gram, hermitian=True)  # s descending
    rank = min(int(np.count_nonzero(s > s[0] * n * eps)), n - 1)
    senders = np.flatnonzero(np.sum(vh[rank:] ** 2, axis=0) > tol).tolist()
    raise SingularSystemError(f"gram matrix is rank deficient: rank {rank} of {n}; "
                              f"senders {senders} are not identified by this trace")


class NormalEquations:
    """Sufficient statistics of the least-squares attacks.

    Every least-squares attack sees a trace only through ``gram = A.T @ A``,
    ``cross = A.T @ Y``, ``y_sq = ||Y||_F**2`` and the number of ``rounds``,
    where ``A`` is ``U`` for a threshold mix and ``U_hat`` for a pool mix.
    Rounds are added in blocks of rows (one row is a block of height 1).  Any
    split of a trace into blocks gives the same sums, exactly for integer ``A``.
    :meth:`from_trace` is the one way the attacks build them: a block of rounds
    at a time, so that neither ``U_hat`` nor a float copy of ``Y`` is ever
    held whole.  Change them only through :meth:`update`, which drops the
    solution or refusal :meth:`solve` keeps.
    """

    def __init__(self, n_senders: int, n_receivers: int):
        self.gram = np.zeros((n_senders, n_senders))
        self.cross = np.zeros((n_senders, n_receivers))
        self.y_sq = 0.0
        self.rounds = 0
        self._solved = None  # the solution of gram @ P = cross, until the next update
        self._refused = None  # or the message of the rank check that refused it

    @classmethod
    def from_trace(cls, trace: Trace) -> NormalEquations:
        """Accumulate a whole trace :data:`RLS_BLOCK` rounds at a time.

        Each block of :func:`~mixprofile.observe.departure_blocks` is added with
        the same rows of ``Y``.  Threshold sums are exact, so any block size
        gives the same statistics bit for bit; pool sums move in their last
        bits, within 1e-12 relative of a whole-trace build.
        """
        block = RLS_BLOCK
        eq = cls(trace.n_senders, trace.n_receivers)
        for start, a in zip(range(0, trace.rho, block), departure_blocks(trace, block)):
            eq.update(a, trace.Y[start : start + block])
        return eq

    def update(self, a_rows: np.ndarray, y_rows: np.ndarray) -> None:
        """Add a block of rounds: its rows of the design matrix and of ``Y``.

        A block whose two parts differ in rows, or are not ``n_senders`` and
        ``n_receivers`` wide, raises :class:`InvalidParameterError` and leaves
        the statistics unchanged.
        """
        a = np.atleast_2d(np.asarray(a_rows, dtype=float))
        y = np.atleast_2d(np.asarray(y_rows, dtype=float))
        n_senders, n_receivers = self.cross.shape
        if len(a) != len(y) or a.shape[1:] != (n_senders,) or y.shape[1:] != (n_receivers,):
            raise InvalidParameterError(
                f"a block of design rows {a.shape} and Y rows {y.shape} does not fit "
                f"{n_senders} senders and {n_receivers} receivers"
            )
        self.gram += a.T @ a
        self.cross += a.T @ y
        self.y_sq += float(np.vdot(y, y))
        self.rounds += a.shape[0]
        self._solved = self._refused = None

    def solve(self) -> np.ndarray:
        """Solve ``gram @ P = cross`` for every receiver at once, after the rank check.

        The solution, or the rank check's refusal, is kept until :meth:`update`:
        each call gets a copy of the one, or a fresh :class:`SingularSystemError`
        with the other's message.
        """
        if self._refused is not None:
            raise SingularSystemError(self._refused)
        if self._solved is None:
            try:
                _check_rank(self.gram)
            except SingularSystemError as exc:
                self._refused = str(exc)
                raise
            self._solved = np.linalg.solve(self.gram, self.cross)
        return self._solved.copy()

    def residual(self, p: np.ndarray, gp: np.ndarray | None = None) -> float:
        """``||Y - A @ p||_F**2`` in Gram form, clamped at 0; ``gp`` may pass ``gram @ p``."""
        gp = self.gram @ p if gp is None else gp
        return max(self.y_sq - 2.0 * float(np.vdot(p, self.cross)) + float(np.vdot(p, gp)), 0.0)

    def lambda_max(self) -> float:
        """Largest eigenvalue of the Gram matrix."""
        return float(np.linalg.eigvalsh(self.gram)[-1])


#: each live trace's whole-batch normal equations; an entry dies with its trace
_EQUATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _equations(trace: Trace) -> NormalEquations:
    """The trace's :class:`NormalEquations`, built on first use (its ``U`` and ``Y``
    are read-only, so they cannot go stale)."""
    eq = _EQUATIONS.get(trace)
    if eq is None:
        eq = _EQUATIONS[trace] = NormalEquations.from_trace(trace)
    return eq


def lsda(trace: Trace) -> ProfileEstimate:
    """Unconstrained least-squares profile estimate.

    Solves the normal equations ``(A.T @ A) r_j = A.T @ y_j`` for every
    receiver ``j`` in one solve shared across receivers, after a Cholesky
    factorization has checked the Gram matrix's rank.  A rank-deficient Gram
    matrix raises :class:`SingularSystemError`, which names the senders the
    trace does not identify.  The normal equations are built once per
    ``trace`` object, :data:`RLS_BLOCK` rounds at a time, and shared with
    later :func:`lsda`, :func:`clsda`, :func:`rls` and :func:`sda` calls on
    it, as is their solution or its refusal.
    """
    eq = _equations(trace)
    p_hat = eq.solve()
    return ProfileEstimate(P_hat=p_hat, method=LSDA, iterations=1, residual=eq.residual(p_hat))


def _project_rows(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex.

    The support of a row is the leading run of its sorted entries ``u_k``
    above ``(u_1 + ... + u_k - 1) / k``.  Each row is sorted in full, but the
    run is looked for in its first :data:`PROJECT_PREFIX` sorted entries only;
    rows whose run fills them are retried at twice the width.
    """
    u = np.sort(mat, axis=1)[:, ::-1]
    shift = np.empty(mat.shape[0])
    rows, head = np.arange(mat.shape[0]), u[:, :PROJECT_PREFIX]
    while rows.size:
        width = head.shape[1]
        css = np.cumsum(head, axis=1)
        css -= 1.0
        css /= np.arange(1, width + 1)
        above = head > css
        n_pos = above.argmin(axis=1)  # the first entry off the support
        run = above[np.arange(rows.size), n_pos]  # no entry is: the run fills the head
        n_pos[run] = width
        done = ~run | (width == mat.shape[1])
        shift[rows[done]] = css[done, n_pos[done] - 1]
        rows = rows[~done]
        head = u[rows, : 2 * width]
    out = mat - shift[:, None]
    return np.maximum(out, 0.0, out=out)


def _face_tangent(x: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Zero ``x`` off the 0/1 mask ``face``, then subtract each row's mean over it."""
    x = x * face
    x -= face * (x.sum(axis=1, keepdims=True) / face.sum(axis=1, keepdims=True))
    return x


def clsda(trace: Trace) -> ProfileEstimate:
    """Simplex-constrained least-squares estimate by projected and conjugate gradient.

    Minimises ``||Y - A @ P||_F**2`` with every sender row of ``P`` on the
    probability simplex, working only on the normal equations
    ``G = A.T @ A``, ``C = A.T @ Y``.  The run starts from the unconstrained
    least-squares solution projected onto the simplices, or from the uniform
    profile when the Gram matrix is rank deficient.  A projected step goes to
    ``Q = proj(P_k - sigma_k * (G @ P_k - C))`` and takes ``P_{k+1} = P_k + a *
    D``, ``D = Q - P_k``, with the ``a`` in ``[0, 1]`` that minimises the
    objective along ``D`` (an exact line search: the objective is quadratic).
    The first step is plain, ``sigma_1 = 1 / lambda_max(G)``, which needs no
    search (``a = 1``); after it ``sigma_{k+1} = <D, D> / <D, G @ D>`` is the
    Barzilai-Borwein step (Barzilai & Borwein 1988) of spectral projected
    gradient (Birgin, Martinez & Raydan 2000), never shorter than the plain one.

    Once the support ``S = P > 0`` has stayed the same for :data:`FACE_SETTLE`
    projected steps, conjugate gradient runs on the face ``{P[~S] = 0, rows
    sum to 1}`` (GPCG; Moré & Toraldo 1991), where the Gram's isolated top
    eigenvalue costs about one extra step instead of setting the step size.
    Projected steps resume after a step that stops at an entry reaching 0 (set
    to exactly 0) or changes ``P`` by at most :data:`TOL`.

    Each step of either kind costs one Gram product and counts in
    ``iterations``; ``objective_history`` holds every accepted objective, and
    a step that raises it raises :class:`SolverDivergedError`.  Only a
    projected step with ``|D| / |P_k|`` at most :data:`TOL` sets ``converged``;
    it is taken in full, so a converged estimate is a projection.  A run cut
    after :data:`MAX_ITER` steps also ends on the simplices.
    The normal equations and their unconstrained solution are those
    :func:`lsda` shares for the same ``trace`` object.
    """
    eq = _equations(trace)
    gram, cross = eq.gram, eq.cross

    lam = eq.lambda_max()
    if lam <= 0.0:
        raise SingularSystemError("design matrix is identically zero")

    try:
        p = _project_rows(eq.solve())
    except SingularSystemError:
        p = np.full(cross.shape, 1.0 / cross.shape[1])

    gp = gram @ p
    objective = eq.residual(p, gp)
    mu = 1.0 / lam
    sigma = mu  # the next projected step's length
    support = p > 0.0  # of the last projected step's P
    history = [objective]
    converged = False
    iterations = settled = 0
    face = None  # 0/1 mask of the support while conjugate gradient runs on its face
    for iterations in range(1, MAX_ITER + 1):
        if face is None and settled >= FACE_SETTLE:
            face, d, rr = support.astype(float), 0.0, np.inf
        p_norm = max(float(np.linalg.norm(p)), 1e-300)
        if face is None:
            g = gp - cross
            q = _project_rows(p - sigma * g)
            d = q - p
            gd = gram @ d
            dd, dgd = float(np.vdot(d, d)), float(np.vdot(d, gd))
            step = np.sqrt(dd) / p_norm
            a = 1.0  # in full: a plain step, one along a flat direction and one that converges
            if sigma > mu and dgd > 0.0 and step > TOL:
                a = min(max(-float(np.vdot(d, g)) / dgd, 0.0), 1.0)
            p_new, gp_new = (q, gp + gd) if a == 1.0 else (p + a * d, gp + a * gd)
            sigma = dd / dgd if dgd > 0.0 else mu
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
            step = float(np.linalg.norm(p_new - p)) / p_norm
        obj_new = eq.residual(p_new, gp_new)
        if obj_new > objective + 1e-9 * (1.0 + abs(objective)):
            raise SolverDivergedError(
                f"clsda objective increased at iteration {iterations}: "
                f"{objective!r} -> {obj_new!r}"
            )
        if face is None:
            support_new = p_new > 0.0
            settled = settled + 1 if np.array_equal(support_new, support) else 0
            support = support_new
        p, gp, objective = p_new, gp_new, obj_new
        history.append(objective)
        if face is None and step <= TOL:
            converged = True
            break
        if face is not None and (blocked or step <= TOL):
            face, settled, support = None, 0, p > 0.0

    return ProfileEstimate(
        P_hat=p,
        method=CLSDA,
        iterations=iterations,
        residual=objective,
        converged=converged,
        objective_history=np.asarray(history),
    )


def rls(trace: Trace) -> ProfileEstimate:
    """Recursive least-squares estimate: the trace streamed in blocks of rounds.

    Reads the shared :class:`NormalEquations`, fed :data:`RLS_BLOCK` rounds at
    a time, and their solution, so it equals :func:`lsda` bit for bit; only
    ``iterations`` differs, counting rounds.
    """
    eq = _equations(trace)
    p = eq.solve()
    return ProfileEstimate(P_hat=p, method=RLS, iterations=eq.rounds, residual=eq.residual(p))


def sda(trace: Trace) -> ProfileEstimate:
    """Statistical disclosure estimate of every sender's profile (Danezis 2003).

    SDA sends all but sender ``i``'s messages to uniform receivers, so
    ``E[Y[r]] = U[r, i] * p_i + (t - U[r, i]) / N``.  Weighting round ``r`` by
    ``U[r, i]`` (Mathewson & Dingledine 2004) gives ``p_i = C_i / G_ii -
    ((G @ 1)_i - G_ii) / (G_ii * N)`` from the shared ``G`` and ``C``, its last
    term one division, so that one message from ``i`` in every round gives the
    classic ``mean_r(Y[r]) - (t - 1) / N`` bit for bit.  A sender with no
    messages gets the uniform row.  A pool trace, whose ``U`` is not observed,
    raises :class:`InvalidScenarioError`.  ``iterations`` counts rounds.
    """
    if trace.config.kind != THRESHOLD:
        raise InvalidScenarioError(f"sda needs a {THRESHOLD} trace, got {trace.config.kind}")
    eq, n = _equations(trace), trace.n_receivers
    gii = np.diagonal(eq.gram)
    heard = gii > 0.0
    rest = eq.gram.sum(axis=1) - gii
    p = np.full(eq.cross.shape, 1.0 / n)
    p[heard] = eq.cross[heard] / gii[heard, None] - (rest[heard] / (gii[heard] * n))[:, None]
    return ProfileEstimate(P_hat=p, method=SDA, iterations=eq.rounds, residual=eq.residual(p))


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
    return ProfileEstimate(P_hat=p, method=ZCLIP, iterations=est.iterations,
                           converged=est.converged)


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


def _parse_rows(lines: list, r0: int, shape: tuple) -> np.ndarray:
    """Rows ``r0, r0+1, ...`` of an estimate matrix of ``shape`` from their lines.

    A row beyond ``shape[0]``, a row of other than ``shape[1]`` entries and a
    non-numeric or non-finite entry raise ValueError.
    """
    rows = [line.split() for line in lines]
    if r0 + len(rows) > shape[0] or any(len(row) != shape[1] for row in rows):
        raise ValueError(f"expected {shape[0]} rows of {shape[1]} entries, "
                         f"got {len(rows[0])} entries in row {r0 + 1}")
    p = np.array([[float(v) for v in row] for row in rows])
    if not np.isfinite(p).all():
        raise ValueError("non-finite matrix entry")
    return p


def load_estimate(path) -> ProfileEstimate:
    """Read an estimate file written by :func:`save_estimate`.

    A bad header, including a ``method`` not in :data:`METHODS`, raises
    :class:`ParseError` at line 1.  The rows are parsed by
    :func:`~mixprofile.mixsim._read_blocks`, so a bad row names its line; too
    few rows raise without one.
    """
    with _open_utf8(path) as fh:
        header = _header_fields(_decode_utf8(fh.readline()), "estimate")
        try:
            method, converged = header["method"], header["converged"] == "True"
            iterations, residual = int(header["iterations"]), float(header["residual"])
            shape = (int(header["n_senders"]), int(header["n_receivers"]))
            check("method", method, choice(METHODS))
            check("converged", header["converged"], choice(("True", "False")))
            check("iterations", iterations, integer(0))
            check("n_senders", shape[0], integer(1))
            check("n_receivers", shape[1], integer(1))
            check("residual", residual, (lambda v: not v < 0, "nan or a number >= 0"))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad header: {exc}", line_no=1) from exc
        blocks = _read_blocks(fh, lambda lines, r0: _parse_rows(lines, r0, shape), 2)
    if (n_rows := sum(map(len, blocks))) < shape[0]:
        raise ParseError(f"{n_rows} matrix rows for n_senders={shape[0]}")
    return ProfileEstimate(np.concatenate(blocks), method, iterations, residual, converged)
