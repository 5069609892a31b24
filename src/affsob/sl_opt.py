"""Minimization of smoothness energies over volume-preserving linear maps.

The energy of f composed with T, as T ranges over the determinant-one group,
attains its minimum; at a minimizer every direction carries a comparable
share of the energy.  This module provides the descent machinery: a matrix
manifold retraction T -> T exp(-eta B) with B trace free, exact gradients,
critical-point residuals, and the stretch-one-direction step whose strict
descent certifies that a direction was too weak.

Nothing here composes a field.  With det T = 1, changes of variables let
samples of f taken once at T = I serve every T (see
seminorms._sample_objective):

- s = 1: the integral of |T^t grad f(Tx)|^p equals that of |T^t grad f|^p
  over the original box, and for a single Gaussian a sphere integral of
  |T^t A^(1/2) theta|^p;
- fractional s: |f o T|_{s,p}^p = int_S |T^{-1} eta|^{-(N+sp)} D(f, eta)
  dsigma(eta), so one directional profile of f suffices;
- integer s >= 2: the s-th derivative of f o T along xi is that of f along
  T xi, applied to the order-s partials of f on the original box.

Each branch is one fixed-sample objective with an exact gradient: a moment
at s = 1 and at fractional s, eigenvalue perturbation of the top Hessian
eigenvalue at order 2, and Danskin's theorem at the maximising scan
direction at order >= 3.  Fixed samples keep the discrete objective
continuous in T, which the Armijo search needs near convergence.  The same
objective gives objective(), the value minimize reports and the
certificates; numeric_gradient checks its gradients.  At fractional s the
sphere rule resolves |T^{-1} eta|^{-(N+sp)} only for moderately conditioned
T, and at s = 1 a single Gaussian's sphere rule only T with
cond(T^t A^(1/2)) up to four times cond(A^(1/2)): the descent rejects
trials beyond that, and the public functions raise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import AnalyticField, NumericalFailureError, SmoothnessParams
from .quadrature import QuadratureBundle
from .seminorms import _row_norms, _sample_objective, directional_profile

_DET_TOL = 1e-9

# _descend's Armijo line search; it stops when |B|_F <= _GRAD_TOL * objective
_GRAD_TOL = 1e-6
_INITIAL_STEP = 1.0
_BACKTRACK = 0.5
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 40
# numeric_gradient's central-difference step along the retraction
_FD_EPSILON = 1e-5


class UnimodularTransform:
    """Square matrix with determinant one (renormalized on construction)."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("transform must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("transform has non-finite entries")
        det = np.linalg.det(m)
        if det <= 0:
            raise ValueError(f"determinant must be positive, got {det!r}")
        if abs(det - 1.0) > _DET_TOL:
            m = m / det ** (1.0 / m.shape[0])
        self.matrix = m

    @classmethod
    def identity(cls, dimension: int) -> "UnimodularTransform":
        return cls(np.eye(dimension))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"UnimodularTransform({self.matrix!r})"


def _as_matrix(T) -> np.ndarray:
    if isinstance(T, UnimodularTransform):
        return T.matrix
    return UnimodularTransform(np.asarray(T, dtype=float)).matrix


@dataclass(frozen=True)
class OptimizerOptions:
    """The iteration limit of minimize; its line search is fixed."""

    max_iters: int = 500

    def __post_init__(self):
        if self.max_iters <= 0:
            raise ValueError("the iteration limit must be positive")


@dataclass
class OptimizerTrace:
    objectives: list = dataclass_field(default_factory=list)
    grad_norms: list = dataclass_field(default_factory=list)
    step_sizes: list = dataclass_field(default_factory=list)
    transform_hashes: list = dataclass_field(default_factory=list)
    terminal_reason: str = ""

    def record(self, objective: float, grad_norm: float, step: float,
               matrix: np.ndarray) -> None:
        if self.objectives and objective > self.objectives[-1] + 1e-12:
            raise NumericalFailureError("objective increased along the trace")
        self.objectives.append(float(objective))
        self.grad_norms.append(float(grad_norm))
        self.step_sizes.append(float(step))
        digest = hashlib.md5(np.ascontiguousarray(matrix).tobytes()).hexdigest()
        self.transform_hashes.append(digest[:12])

    def __len__(self) -> int:
        return len(self.objectives)


def sl_basis(dimension: int) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the trace-free matrices."""
    out = []
    for i in range(dimension):
        for j in range(i + 1, dimension):
            sym = np.zeros((dimension, dimension))
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2.0)
            skew = np.zeros((dimension, dimension))
            skew[i, j] = 1.0 / np.sqrt(2.0)
            skew[j, i] = -1.0 / np.sqrt(2.0)
            out.extend([sym, skew])
    diff = np.zeros((dimension - 1, dimension))
    for k in range(dimension - 1):
        diff[k, k], diff[k, k + 1] = 1.0, -1.0
    q = np.linalg.qr(diff.T)[0].T
    for k in range(dimension - 1):
        out.append(np.diag(q[k]))
    return out


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Scaling and squaring with a machine-tolerance Taylor core."""
    a = np.asarray(a, dtype=float)
    # the infinity norms are the largest absolute row sums, as
    # np.linalg.norm(x, ord=np.inf) computes them, without its wrapper
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b = a / 2.0 ** squarings
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if np.abs(term).sum(axis=1).max() < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def polar_align(T) -> np.ndarray:
    """Strip the free orthogonal factor: return the symmetric positive part
    P of T = P O.  Composition with a rotation never moves the energy, so P
    represents the same minimizer in a comparable normal form."""
    m = _as_matrix(T)
    u, s, vt = np.linalg.svd(m)
    return (u * s) @ u.T


def _check_resolved(ctx, matrix: np.ndarray) -> None:
    if not ctx.trusted(matrix):
        raise NumericalFailureError("the sphere quadrature does not resolve "
                                    "f o T at this transform")


def _resolved_value(ctx, matrix: np.ndarray) -> float:
    _check_resolved(ctx, matrix)
    return ctx.value(matrix)


def objective(field, T, params: SmoothnessParams, quads: QuadratureBundle) -> float:
    """|f o T|_{s,p} from samples of f taken at T = I, with no composed
    field: the descent's objective, seminorms._sample_objective.  Raises
    NumericalFailureError where those samples do not resolve f o T."""
    return _resolved_value(_sample_objective(field, params, quads),
                           _as_matrix(T))


def numeric_gradient(field, T, params: SmoothnessParams,
                     quads: QuadratureBundle) -> np.ndarray:
    """Central differences of the objective along a trace-free basis,
    probed through the retraction T exp(eps M)."""
    m = _as_matrix(T)
    grad = np.zeros_like(m)
    for basis in sl_basis(m.shape[0]):
        plus = objective(field, m @ matrix_exp(_FD_EPSILON * basis), params,
                         quads)
        minus = objective(field, m @ matrix_exp(-_FD_EPSILON * basis), params,
                          quads)
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericalFailureError("objective non-finite at gradient probe")
        grad = grad + (plus - minus) / (2.0 * _FD_EPSILON) * basis
    return grad


def random_unimodular(rng: np.random.Generator, dimension: int,
                      condition_range: tuple[float, float] = (1.0, 4.0)) -> np.ndarray:
    """Rotation x stretch x rotation with log-uniform condition number."""
    lo, hi = condition_range
    kappa = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    q1 = np.linalg.qr(rng.standard_normal((dimension, dimension)))[0]
    q2 = np.linalg.qr(rng.standard_normal((dimension, dimension)))[0]
    for q in (q1, q2):
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
    stretches = np.geomspace(np.sqrt(kappa), 1.0 / np.sqrt(kappa), dimension)
    stretches /= np.prod(stretches) ** (1.0 / dimension)
    return q1 @ np.diag(stretches) @ q2


def _renormalize(matrix: np.ndarray) -> np.ndarray | None:
    """matrix scaled to determinant one, or None when it is not finite or
    its determinant is not positive."""
    if not np.all(np.isfinite(matrix)):
        return None
    det = np.linalg.det(matrix)
    if not (np.isfinite(det) and det > 0):
        return None
    return matrix / det ** (1.0 / matrix.shape[0])


def _descend(ctx, T: np.ndarray, value: float, max_iters: int):
    """Armijo descent from T, whose objective is value: (last T, trace)."""
    trace = OptimizerTrace()
    for _ in range(max_iters):
        B = ctx.gradient(T)
        gnorm = float(np.linalg.norm(B))
        trace.record(value, gnorm, 0.0, T)
        if gnorm <= _GRAD_TOL * max(value, 1e-300):
            trace.terminal_reason = "gradient tolerance reached"
            return T, trace
        step = _INITIAL_STEP
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            # a step so long that exp(-step B) overflows is a rejected trial
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = _renormalize(T @ matrix_exp(-step * B))
            resolved = candidate is not None and ctx.trusted(candidate)
            trial = ctx.value(candidate) if resolved else np.inf
            if np.isfinite(trial) and trial <= value - _ARMIJO_C * step * gnorm ** 2:
                T, value = candidate, trial
                trace.step_sizes[-1] = step
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            trace.terminal_reason = (
                "no descent at floating precision" if resolved else
                "every descent step leaves the transforms the quadrature "
                "resolves") + "; best point so far returned"
            return T, trace
    trace.terminal_reason = "iteration limit reached"
    return T, trace


def minimize(field, params: SmoothnessParams, opts: OptimizerOptions,
             quads: QuadratureBundle):
    """Minimize T -> |f o T|_{W^{s,p}} over determinant-one matrices.

    Monotone Armijo descent from T = I with the retraction T exp(-eta B) on
    the fixed-sample objective of seminorms._sample_objective, where B is
    its exact gradient; opts sets only the iteration limit.  Returns (T*, value, trace) with T* polar-aligned (its
    free rotation factor removed) and value that same objective at T*.
    """
    if not isinstance(field, AnalyticField):
        raise ValueError(f"minimize needs an AnalyticField, got "
                         f"{type(field).__name__}")
    n = field.dimension
    ctx = _sample_objective(field, params, quads)
    base_value = ctx.value(np.eye(n))
    if not np.isfinite(base_value):
        raise NumericalFailureError("non-finite objective at the identity")
    if base_value <= 0.0:
        raise ValueError("field has no smoothness energy to minimize")

    T, trace = _descend(ctx, np.eye(n), base_value, opts.max_iters)
    aligned = polar_align(T)
    return UnimodularTransform(aligned), ctx.value(aligned), trace


def critical_residuals(field, T, p: float, quads: QuadratureBundle):
    """First order criticality defects at T, both normalized by the energy:
    r_general maxes |<S, M>| over a trace-free basis, r_diag compares the
    first diagonal moment against the equidistributed share tr(S)/N.
    Raises NumericalFailureError where the samples do not resolve f o T."""
    ctx = _sample_objective(field, SmoothnessParams(1.0, p), quads)
    m = _as_matrix(T)
    _check_resolved(ctx, m)
    s = ctx.moment(m)
    total = np.trace(s)
    if total <= 0:
        raise ValueError("field has no smoothness energy at this transform")
    r_general = max(abs(np.sum(s * basis)) for basis in sl_basis(ctx.dimension))
    r_diag = abs(total / ctx.dimension - s[0, 0])
    return r_general / total, r_diag / total


def descent_step(field, params: SmoothnessParams, xi: np.ndarray, lam: float,
                 quads: QuadratureBundle):
    """Stretch the direction xi by lambda and shrink the complement by
    lambda^{-1/(N-1)}; report the objective before and after.  Strict
    decrease certifies that xi carried too small a share of the energy."""
    if lam <= 1.0:
        raise ValueError("the stretch factor must exceed 1")
    xi = np.asarray(xi, dtype=float)
    norm_sq = xi @ xi
    if norm_sq == 0:
        raise ValueError("direction must be nonzero")
    n = xi.shape[0]
    mu = lam ** (-1.0 / (n - 1))
    # lambda along xi, mu on its orthogonal complement
    T = mu * np.eye(n) + (lam - mu) * np.outer(xi, xi) / norm_sq
    ctx = _sample_objective(field, params, quads)
    return (UnimodularTransform(T), ctx.value(np.eye(n)),
            _resolved_value(ctx, T))


@dataclass(frozen=True)
class DirectionalBoundReport:
    min_ratio: float
    max_ratio: float
    threshold: float
    passed: bool
    weak_direction: np.ndarray


def directional_lower_bound_check(field, T_star, params: SmoothnessParams,
                                  quads: QuadratureBundle,
                                  threshold: float | None = None) -> DirectionalBoundReport:
    """At a (near) minimizer every direction must carry a definite share:
    min and max of D(f o T*, xi)^{1/p} / |f o T*| over the pulled-back
    sphere nodes xi_j = T*^{-1} eta_j / |T*^{-1} eta_j|, the weak direction
    being the xi_j of least share.  On both branches D(f o T, xi) =
    |T xi|^{sp} D(f, T xi / |T xi|), so one profile of f gives
    D(f o T*, xi_j) = |T*^{-1} eta_j|^{-sp} D(f, eta_j).

    The default acceptance floor is half the explicit first order lower
    bound constant when that formula applies, otherwise strict positivity.
    """
    m = _as_matrix(T_star)
    profile = directional_profile(field, params, quads)
    total = _resolved_value(
        _sample_objective(field, params, quads, profile=profile), m)
    if total <= 0:
        raise ValueError("field has no smoothness energy at this transform")
    pulled = profile.sphere.nodes @ np.linalg.inv(m).T
    lengths = _row_norms(pulled)
    shares = lengths ** (-params.s * params.p) * profile.values
    ratios = shares ** (1.0 / params.p) / total
    if threshold is None:
        if not params.fractional and params.difference_order == 1:
            from .constants import c1_first_approach
            threshold = 0.5 * c1_first_approach(field.dimension)[0]
        else:
            threshold = 0.0
    min_idx = int(np.argmin(ratios))
    min_ratio = float(ratios[min_idx])
    passed = min_ratio >= threshold if threshold > 0 else min_ratio > 0
    return DirectionalBoundReport(min_ratio, float(np.max(ratios)),
                                  float(threshold), bool(passed),
                                  pulled[min_idx] / lengths[min_idx])


__all__ = [
    "UnimodularTransform", "OptimizerOptions", "OptimizerTrace",
    "DirectionalBoundReport", "sl_basis", "matrix_exp", "polar_align",
    "objective", "numeric_gradient", "random_unimodular",
    "minimize", "critical_residuals", "descent_step",
    "directional_lower_bound_check",
]
