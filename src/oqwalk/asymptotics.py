"""Asymptotic law of the position process: CLT parameters and rate functions.

The drift of a minimal enclosure is the shift average in its invariant state.
Both the diffusion matrix and the rate functions come from one object, the
log spectral radius log lambda_u of the deformed channel compressed to a
subspace: the covariance is its Hessian at u = 0 and a rate function is its
Legendre transform. One routine (``_PerronCalculus``) differentiates the
Perron root in closed form, from one Perron pair and one bordered
Poisson-type solve, for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelView, PerronData, WalkModel, hunvec, hvec, perron
from .errors import NoConvergenceError, NumericalDegeneracyError, SingularMatrixError
from .linalg import (
    Subspace,
    project_subspace,
    solve_linear,
    subspace_intersection,
)
from .structure import (
    DiagonalState,
    SpaceDecomposition,
    _count_fixed,
    absorption,
    fixed_space_dim,  # unused here; perfbench/reducible.py imports it from this module
    reachable_space,
    transient_space,
    weights,
)

U_MAX = 20.0  # radius of the ball the Legendre ascent searches
WEIGHT_FLOOR = 1e-12  # blocks and enclosures of no more weight are left out
GRAD_TOL = 1e-11  # stationarity of x.u - log lambda_u
BRACKET_TOL = 1e-14  # bound on the value lost inside a final 1-D bracket
RATE_TIE = 1e-12  # relative gap under which two block rates count as tied
NONSMOOTH_CAVEAT = (
    "lower bound holds on exposed points of the rate function only, when the "
    "deformed log spectral radius fails to be smooth"
)


@dataclass(frozen=True)
class GaussianComponent:
    """Mean growth rate and covariance of one limit Gaussian."""

    mean_rate: np.ndarray  # (d,)
    covariance: np.ndarray  # (d, d) symmetric PSD

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean_rate, dtype=float))
        c = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise ValueError("mean rate and covariance must be finite")
        if np.linalg.norm(c - c.T) > 1e-10:
            raise ValueError("covariance must be symmetric")
        if float(np.min(np.linalg.eigvalsh(0.5 * (c + c.T)))) < -1e-9:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean_rate", m)
        object.__setattr__(self, "covariance", 0.5 * (c + c.T))


@dataclass(frozen=True)
class MixtureModel:
    """Predicted law of the rescaled displacement at a finite horizon.

    Component (a, g) contributes weight a of a Gaussian with mean
    sqrt(horizon) * g.mean_rate and covariance g.covariance.
    """

    components: list  # [(weight, GaussianComponent)]
    horizon: int

    def __post_init__(self):
        if not self.components:
            raise ValueError("a mixture needs at least one component")
        if self.horizon < 0:
            raise ValueError(f"horizon {self.horizon} is negative")
        if not all(np.isfinite(w) for w, _ in self.components):
            raise ValueError("weights must be finite")
        total = sum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w < -1e-12 for w, _ in self.components):
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True)
class RateEvaluation:
    """One evaluation of a large-deviation rate function."""

    point: np.ndarray
    value: float
    maximizer: np.ndarray
    per_block: list = field(default_factory=list)  # (id, value, maximizer)
    label: str = ""
    note: str = ""
    block_id: str = ""  # per_block entry that gave ``value``


def drift(model: WalkModel, tau: np.ndarray) -> np.ndarray:
    """Shift average sum_i Tr(L_i tau L_i*) s_i for an invariant state tau."""
    probs = np.array(
        [float(np.trace(l @ tau @ l.conj().T).real) for l in model.kraus]
    )
    return probs @ model.shifts.astype(float)


class _PerronCalculus:
    """u-derivatives of the Perron root lam of T_u = view.matrix at view.u.

    With the Perron pair T_u tau = lam tau, w* T_u = lam w*, the pairing
    p = <w, tau>, and T_j, T_jk the s_j- and s_j s_k-weighted superoperators:
    lam_j = <w, T_j tau> / p; tau_k solves the bordered Poisson system
    (lam - T_u + tau w* / p) tau_k = T_k tau - lam_k tau, which also fixes
    <w, tau_k> = 0; and
    lam_jk = (<w, T_jk tau> + <w, T_j tau_k> + <w, T_k tau_j>) / p.

    At u = 0 on an enclosure the channel is trace preserving: lam = 1, w is
    proportional to the identity, tau_k is the zero-trace Poisson solution of
    the CLT and lam_jk - lam_j lam_k is the covariance of the limit Gaussian.
    """

    def __init__(self, view: ChannelView, pd: PerronData):
        self.view, self.lam = view, pd.value
        self.tau, self.w = hvec(pd.state), hvec(pd.dual_weight)
        self.pairing = float(self.w @ self.tau)
        if self.pairing <= 1e-10:
            raise NoConvergenceError("left/right eigenvector pairing degenerate")
        kr = view.compressed_kraus
        kr_dag = kr.conj().transpose(0, 2, 1)
        # coordinates of each term: K_i tau K_i* and the dual K_i* W K_i
        self.terms_tau = hvec(kr @ pd.state @ kr_dag)
        self.terms_w = hvec(kr_dag @ pd.dual_weight @ kr)
        self.shifts = view.model.shifts.astype(float)
        self.ws = view.weights[:, None] * self.shifts  # e^{u.s_i} s_ij
        self.paired = self.terms_tau @ self.w  # <w, K_i tau K_i*>
        self.lam_j = self.ws.T @ self.paired / self.pairing

    def poisson(self) -> np.ndarray:
        """The coordinates of tau_k as columns, from one bordered solve;
        raises SingularMatrixError when the dominant eigenvalue is degenerate."""
        tau, w = self.tau, self.w
        bord = self.lam * np.eye(tau.size) - self.view.matrix
        bord += np.outer(tau, w) / self.pairing
        return solve_linear(bord, self.terms_tau.T @ self.ws - np.outer(tau, self.lam_j))

    def second(self, tau_k: np.ndarray) -> np.ndarray:
        """lam_jk from the columns tau_k of ``poisson``."""
        cross = (self.ws.T @ self.terms_w) @ tau_k  # <w, T_j tau_k>
        moment = self.ws.T @ (self.shifts * self.paired[:, None])  # <w, T_jk tau>
        return (moment + cross + cross.T) / self.pairing


def _enclosure_calculus(model: WalkModel, enclosure: Subspace) -> _PerronCalculus:
    """Perron calculus at u = 0 of an irreducible enclosure.

    The enclosure is irreducible when the restricted channel has a
    one-dimensional fixed space; its spectrum comes from the eigensolve that
    also gives the Perron pair.
    """
    view = ChannelView(model, enclosure)
    if view.dim == 0:
        raise NumericalDegeneracyError("empty enclosure")
    pd = perron(view)
    if _count_fixed(pd.eigenvalues) != 1:
        raise NumericalDegeneracyError("restricted channel has a degenerate fixed space")
    return _PerronCalculus(view, pd)


def poisson_solve(
    model: WalkModel, enclosure: Subspace, u, *, calculus: _PerronCalculus | None = None
) -> np.ndarray:
    """Zero-trace eta with (Id - channel)(eta) = shift-weighted drift residue.

    Concretely, with the channel restricted to the enclosure and
    L'(sigma) = sum_i (u.s_i) K_i sigma K_i*, solves
    (Id - channel)(eta) = L'(tau) - Tr(L'(tau)) tau, Tr(eta) = 0,
    which is uniquely solvable exactly when the restricted channel has a
    one-dimensional fixed space. eta is linear in u: a stack of directions
    (rows of a (m, d) array) gets its m solutions, shape (m, k, k), from one
    bordered solve. ``calculus`` passes in the enclosure's
    ``_enclosure_calculus`` when the caller needs its Perron pair as well,
    so that the pair is computed once.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    directions = np.atleast_2d(u)
    calc = calculus if calculus is not None else _enclosure_calculus(model, enclosure)
    if calc.view.dim == 1:
        etas = np.zeros((len(directions), 1, 1), dtype=complex)
    else:
        etas = hunvec((calc.poisson() @ directions.T).T)
        trace = np.max(np.abs(np.trace(etas, axis1=1, axis2=2)))
        if trace > 1e-10:
            raise NoConvergenceError(f"trace of Poisson solution {trace:.2e}")
    return etas if u.ndim == 2 else etas[0]


def _clt_derivatives(model: WalkModel, enclosure: Subspace):
    """lam_j and lam_jk at u = 0 on an irreducible enclosure: the drift m and
    the second moment D + m m^T of the limit Gaussian, from one Perron pair
    and one bordered solve."""
    calc = _enclosure_calculus(model, enclosure)
    etas = poisson_solve(model, enclosure, np.eye(model.lattice_dim), calculus=calc)
    return calc.lam_j, calc.second(hvec(etas).T)


def lambda_derivatives(model: WalkModel, enclosure: Subspace, u) -> tuple[float, float]:
    """First and second derivative at t=0 of the deformed spectral radius
    along t -> t*u: the projections m.u and u^T (D + m m^T) u of the drift m
    and the covariance D (see ``diffusion``)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    m, second_moment = _clt_derivatives(model, enclosure)
    return float(m @ u), float(u @ second_moment @ u)


def diffusion(model: WalkModel, enclosure: Subspace) -> np.ndarray:
    """Covariance matrix of the limit Gaussian of an irreducible enclosure:
    the Hessian lam_jk - lam_j lam_k of log lambda_u at u = 0, from one Perron
    pair and the Poisson solutions of all coordinate directions."""
    m, second_moment = _clt_derivatives(model, enclosure)
    return second_moment - np.outer(m, m)


def clt_mixture(
    model: WalkModel,
    decomposition: SpaceDecomposition,
    rho: DiagonalState,
    horizon: int,
) -> MixtureModel:
    """Gaussian-mixture prediction for the rescaled displacement at a horizon."""
    block_weights, _ = weights(model, decomposition, rho)
    components = []
    for w, block in zip(block_weights, decomposition.blocks):
        if w <= WEIGHT_FLOOR:
            continue
        m = drift(model, block.invariant_state)
        cov = diffusion(model, block.minimal_enclosures[0])
        try:
            components.append((w, GaussianComponent(m, cov)))
        except ValueError as exc:  # computed, so not a caller's value
            raise NumericalDegeneracyError(str(exc)) from exc
    # renormalize away the dropped mass (at most len(blocks) * WEIGHT_FLOOR)
    total = sum(w for w, _ in components)
    components = [(w / total, g) for w, g in components]
    return MixtureModel(components=components, horizon=horizon)


def log_lambda(model: WalkModel, subspace: Subspace, u) -> float:
    """Log spectral radius of the deformed channel compressed to a subspace."""
    if subspace.dim == 0:
        return float("-inf")
    m = ChannelView(model, subspace, u).matrix
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    return float(np.log(radius))


def _log_lambda_derivatives(model: WalkModel, subspace: Subspace, u):
    """log lambda_u with its gradient and Hessian, from one Perron pair and
    one bordered solve (see ``_PerronCalculus``).

    The Hessian is None when the bordered system is singular (a degenerate
    dominant eigenvalue, as at a kink lam_V = lam_W of a bounds-only
    compression). When the Perron pair itself is unusable the gradient falls
    back to central differences of log_lambda, again without a Hessian.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    view = ChannelView(model, subspace, u)
    try:
        calc = _PerronCalculus(view, perron(view))
    except NoConvergenceError:
        value = log_lambda(model, subspace, u)
        return value, _central_gradient(model, subspace, u), None
    lam, lam_j = calc.lam, calc.lam_j
    value, grad = float(np.log(lam)), lam_j / lam
    try:
        lam_jk = calc.second(calc.poisson())
    except SingularMatrixError:
        return value, grad, None
    return value, grad, lam_jk / lam - np.outer(lam_j, lam_j) / lam**2


def _central_gradient(model: WalkModel, subspace: Subspace, u) -> np.ndarray:
    step = 1e-6
    grad = np.zeros(u.size)
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = step
        grad[j] = (
            log_lambda(model, subspace, u + e) - log_lambda(model, subspace, u - e)
        ) / (2 * step)
    return grad


def _clip_to_ball(u: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(u))
    if norm <= radius:
        return u
    return u * (radius / norm)


def _ascent_1d(evaluate) -> np.ndarray:
    """Maximizer of a concave f on [-U_MAX, U_MAX]; ``evaluate(u)`` returns
    f, f' and f'' (None where unusable) at the 1-vector u.

    f' changes sign at most once, so its sign at 0 picks the side; when f'
    keeps that sign at the end of the side, the maximizer is the end.
    Otherwise Newton runs inside a bracket [lo, hi] with f'(lo) > 0 > f'(hi),
    bisecting when f'' is unusable, when a step leaves the bracket, or when
    steps stop halving (rtsafe of Press et al., Numerical Recipes).
    """

    def scalar(u):
        f, g, h = evaluate(np.array([u]))
        usable = h is not None and h[0, 0] < 0  # False on NaN
        return f, float(g[0]), float(h[0, 0]) if usable else None

    f, g, h = scalar(0.0)
    if abs(g) <= GRAD_TOL:
        return np.zeros(1)
    side = 1.0 if g > 0 else -1.0
    end = side * U_MAX
    f_end, g_end, _ = scalar(end)
    if side * g_end > -GRAD_TOL:
        return np.array([end])
    (lo, g_lo), (hi, g_hi) = sorted([(0.0, g), (end, g_end)])
    best = max((f, 0.0), (f_end, end))
    u, step_old, step = 0.0, hi - lo, hi - lo
    for _ in range(200):
        trial = u - g / h if h is not None else np.nan
        if not lo < trial < hi or abs(trial - u) > 0.5 * abs(step_old):
            trial = 0.5 * (lo + hi)
        step_old, step = step, trial - u
        u = trial
        f, g, h = scalar(u)
        if abs(g) <= GRAD_TOL:
            return np.array([u])
        best = max(best, (f, u))
        if g > 0:
            lo, g_lo = u, g
        else:
            hi, g_hi = u, g
        # (hi - lo)(f'(lo) - f'(hi)) bounds the value lost anywhere in the
        # bracket; at a kink of log lambda_Q f' never vanishes
        if (hi - lo) * (g_lo - g_hi) <= BRACKET_TOL:
            break
    # Near a kink the two dominant eigenvalues nearly coincide and f' is
    # unreliable within about sqrt(eps) of it, so keep the best point seen.
    return np.array([best[1]])


def _ascent_nd(evaluate, d: int) -> np.ndarray:
    """Damped Newton ascent of a concave f over the ball ||u|| <= U_MAX, with
    Armijo backtracking; ``evaluate(u)`` returns f, f' and f'' (or None, when
    the step falls back to plain ascent)."""
    u = np.zeros(d)
    val, g, h = evaluate(u)
    for _ in range(60):
        if np.linalg.norm(g) <= GRAD_TOL:
            break
        step = g
        if h is not None:
            mu = 1e-12
            while True:
                try:
                    step = np.linalg.solve(-0.5 * (h + h.T) + mu * np.eye(d), g)
                    break
                except np.linalg.LinAlgError:
                    mu = max(mu * 10, 1e-10)
            if not np.all(np.isfinite(step)) or float(step @ g) <= 0:
                step = g  # fall back to plain ascent
        t = 1.0
        while t > 2.0**-40:
            trial = _clip_to_ball(u + t * step, U_MAX)
            tval, tg, th = evaluate(trial)
            if tval > val + 1e-4 * t * float(g @ step):
                u, val, g, h = trial, tval, tg, th
                break
            t *= 0.5
        else:
            break
    return u


def legendre(model: WalkModel, subspace: Subspace, x) -> RateEvaluation:
    """sup over ||u|| <= U_MAX of x.u - log lambda_u by one concave ascent
    from u = 0 with the analytic gradient and Hessian of log lambda_u.

    log lambda_u is convex, so the objective is concave and its one local
    maximum is global. A maximizer pinned to the search boundary with the
    objective still increasing signals a point outside the closure of the
    gradient range; the value is then reported as +inf.

    The evaluations at the points every ascent visits, u = 0 and in d = 1
    also u = +-U_MAX, do not depend on x; they are memoized per model and
    compression (``_anchor``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    points = [np.zeros(d)] + ([np.array([U_MAX]), np.array([-U_MAX])] if d == 1 else [])
    anchors = {u.tobytes() for u in points}

    def evaluate(u):
        if u.tobytes() in anchors:
            value, g, h = _anchor(model, subspace, u)
        else:
            value, g, h = _log_lambda_derivatives(model, subspace, u)
        return float(x @ u) - value, x - g, None if h is None else -h

    best_u = _ascent_1d(evaluate) if d == 1 else _ascent_nd(evaluate, d)

    note = ""
    value = max(float(x @ best_u) - log_lambda(model, subspace, best_u), 0.0)
    if np.linalg.norm(best_u) >= U_MAX - 1e-6:
        slope = float(evaluate(best_u)[1] @ (best_u / np.linalg.norm(best_u)))
        if slope > 1e-7:
            value = float("inf")
            note = "objective unbounded on the search region; rate possibly infinite"
        else:
            note = "maximizer on the search boundary; rate possibly infinite"
    return RateEvaluation(point=x, value=value, maximizer=best_u, note=note)


def _anchor(model: WalkModel, subspace: Subspace, u: np.ndarray):
    """``_log_lambda_derivatives`` at a point that every Legendre ascent on
    the compression visits, memoized per model (``WalkModel.cached``) and
    keyed, as ``absorption`` is, by the shape and bytes of the compression's
    basis, plus the bytes of u. The stored arrays are read-only."""
    basis = subspace.basis

    def build():
        value, grad, hess = _log_lambda_derivatives(model, subspace, u)
        grad.flags.writeable = False
        if hess is not None:
            hess.flags.writeable = False
        return value, grad, hess

    return model.cached(("legendre-anchor", basis.shape, basis.tobytes(), u.tobytes()), build)


def rate_function(
    model: WalkModel,
    decomposition: SpaceDecomposition,
    rho: DiagonalState,
    points,
) -> list:
    """Rates of exponential decay of the displacement-per-step law, one
    RateEvaluation per row of ``points`` (an (m, d) array; a single point
    may be given as a d-vector).

    Fully recurrent models admit an exact large-deviation principle: the rate
    is the minimum of the block rates over blocks carrying weight. With a
    nontrivial transient space only upper and lower bounds are available,
    computed on the absorption-support compressions of the reachable space,
    and the result is labeled accordingly. The weights, the reachable space
    and the compressions depend on (model, rho) only, so each is built once
    per call and shared by every point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[-1] != model.lattice_dim:
        raise ValueError(f"points need {model.lattice_dim} components")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    block_weights, enclosure_weights = weights(model, decomposition, rho)
    ids, blocks = decomposition.block_ids(), decomposition.blocks
    if decomposition.is_recurrent:
        # block and minimal enclosure share the deformed spectral radius
        parts = [
            (bid, block.minimal_enclosures[0])
            for bid, w, block in zip(ids, block_weights, blocks)
            if w > WEIGHT_FLOOR
        ]
        label, note = "exact-LDP", ""
    else:
        reachable = reachable_space(model, rho)
        parts = [
            (f"{bid}/min-{j}", _reachable_compression(model, sub, reachable))
            for bid, row, block in zip(ids, enclosure_weights, blocks)
            for j, (w, sub) in enumerate(zip(row, block.minimal_enclosures))
            if w > WEIGHT_FLOOR
        ]
        label, note = "bounds-only", NONSMOOTH_CAVEAT

    results = []
    for x in points:
        evs = {pid: legendre(model, sub, x) for pid, sub in parts}
        per_block = [(pid, ev.value, ev.maximizer) for pid, ev in evs.items()]
        bid, value, maximizer = _lowest_rate(per_block)
        # the reported part's boundary note first, then the label's caveat
        notes = "; ".join(text for text in (evs[bid].note, note) if text)
        results.append(
            RateEvaluation(x, value, maximizer, per_block, label, notes, block_id=bid)
        )
    return results


def _reachable_compression(
    model: WalkModel, enclosure: Subspace, reachable: Subspace
) -> Subspace:
    """Support of the enclosure's absorption operator projected into the
    reachable space: the compression whose log lambda bounds the rates."""
    p_tilde = absorption(model, enclosure).support().projector()
    return project_subspace(p_tilde, reachable)


def _lowest_rate(per_block: list) -> tuple:
    """First (id, value, maximizer) entry within RATE_TIE of the minimum value.

    Minimal enclosures of one multiplicity block share their rate up to
    roundoff; taking the first of them keeps the reported block id from
    following the last bits.
    """
    low = min(value for _, value, _ in per_block)
    tol = RATE_TIE * max(abs(low), 1.0)
    return next(item for item in per_block if item[1] <= low + tol)


def lambda_split_check(
    model: WalkModel, enclosure: Subspace, rho: DiagonalState, u
) -> tuple[float, float, float]:
    """Deformed spectral radius on the reachable compression versus its
    recurrent and transient contributions; checks the max identity. An
    enclosure ``rho`` does not reach (empty compression) is a ValueError."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    tra = transient_space(model)
    q = _reachable_compression(model, enclosure, reachable_space(model, rho))
    if not q.dim:
        raise ValueError("the state does not reach this enclosure: its compression is empty")
    w_space = subspace_intersection(q, tra)

    lam_q = float(np.exp(log_lambda(model, q, u)))
    lam_v = float(np.exp(log_lambda(model, enclosure, u)))
    lam_w = float(np.exp(log_lambda(model, w_space, u))) if w_space.dim else 0.0

    expected = max(lam_v, lam_w)
    if abs(lam_q - expected) > 1e-8 * max(1.0, lam_q):
        raise NumericalDegeneracyError(
            f"spectral radius {lam_q} differs from max{{{lam_v}, {lam_w}}}"
        )
    return lam_q, lam_v, lam_w
