"""Minimization of smoothness energies over volume-preserving linear maps.

The energy of f composed with T, as T ranges over the determinant-one group,
attains its minimum; at a minimizer every direction carries a comparable
share of the energy.  This module provides the descent machinery: a matrix
manifold retraction T -> T exp(-eta B) with B trace free, exact gradients,
critical-point residuals, and the stretch-one-direction step whose strict
descent certifies that a direction was too weak.

The descent never composes a field.  With det T = 1, changes of variables
let samples of f taken once at T = I serve every T (see
seminorms._sample_objective):

- s = 1: the integral of |T^t grad f(Tx)|^p equals that of |T^t grad f|^p
  over the original box;
- fractional s: |f o T|_{s,p}^p = int_S |T^{-1} eta|^{-(N+sp)} D(f, eta)
  dsigma(eta), so one directional profile of f suffices;
- integer s >= 2: the s-th derivative of f o T along xi is that of f along
  T xi, applied to the order-s partials of f on the original box.

Each branch is one fixed-sample objective with an exact gradient: a moment
at s = 1 and at fractional s, eigenvalue perturbation of the top Hessian
eigenvalue at order 2, and Danskin's theorem at the maximising scan
direction at order >= 3.  Fixed samples keep the discrete objective
continuous in T, which the Armijo search needs near convergence.
numeric_gradient (central differences) is kept as an independent check of
those gradients.  The public objective() sticks to the literal composition
path and is used for the reported values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import AnalyticField, NumericalFailureError, SmoothnessParams
from .quadrature import QuadratureBundle
from .seminorms import _sample_objective, directional_profile, seminorm

_DET_TOL = 1e-9


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
    max_iters: int = 500
    grad_tol: float = 1e-6       # relative: stop when |B|_F <= grad_tol * objective
    initial_step: float = 1.0
    backtrack: float = 0.5
    armijo_c: float = 1e-4
    max_backtracks: int = 40
    restarts: int = 0

    def __post_init__(self):
        if self.max_iters <= 0 or self.grad_tol <= 0 or self.initial_step <= 0:
            raise ValueError("iteration limits and tolerances must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if self.armijo_c <= 0 or self.max_backtracks <= 0:
            raise ValueError("line-search parameters must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


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
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b = a / 2.0 ** squarings
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18:
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


def objective(field, T, params: SmoothnessParams, quads: QuadratureBundle) -> float:
    """Energy of the exact composition f(Tx)."""
    m = _as_matrix(T)
    return seminorm(field.affine_compose(m), params, quads)


def exact_gradient_s1(field, T, p: float, quads: QuadratureBundle) -> np.ndarray:
    """Gradient of T -> |f o T|_{W^{1,p}} along the retraction T exp(eps M),
    projected onto the trace-free tangent.  For p < 2 the integrand is taken
    on the set where the gradient does not vanish, which identifies the
    almost-everywhere derivative."""
    ctx = _sample_objective(field, SmoothnessParams(1.0, p), quads)
    return ctx.gradient(_as_matrix(T))


def numeric_gradient(field, T, params: SmoothnessParams,
                     quads: QuadratureBundle, fd_epsilon: float = 1e-5,
                     _value_fn=None) -> np.ndarray:
    """Central differences of the objective along a trace-free basis,
    probed through the retraction T exp(eps M)."""
    m = _as_matrix(T)
    value_fn = _value_fn or (lambda mat: objective(field, mat, params, quads))
    grad = np.zeros_like(m)
    for basis in sl_basis(m.shape[0]):
        plus = value_fn(m @ matrix_exp(fd_epsilon * basis))
        minus = value_fn(m @ matrix_exp(-fd_epsilon * basis))
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericalFailureError("objective non-finite at gradient probe")
        grad = grad + (plus - minus) / (2.0 * fd_epsilon) * basis
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


def _descend(ctx, start: np.ndarray, opts: OptimizerOptions):
    trace = OptimizerTrace()
    T = _renormalize(start.copy())
    if T is None:
        raise NumericalFailureError("start point is not in the unimodular group")
    value = ctx.value(T)
    if not np.isfinite(value):
        raise NumericalFailureError("objective non-finite at the start point")
    for _ in range(opts.max_iters):
        B = ctx.gradient(T)
        gnorm = float(np.linalg.norm(B))
        trace.record(value, gnorm, 0.0, T)
        if gnorm <= opts.grad_tol * max(value, 1e-300):
            trace.terminal_reason = "gradient tolerance reached"
            return T, value, trace
        step = opts.initial_step
        accepted = False
        for _ in range(opts.max_backtracks):
            # a step so long that exp(-step B) overflows is a rejected trial
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = _renormalize(T @ matrix_exp(-step * B))
            trial = np.inf if candidate is None else ctx.value(candidate)
            if np.isfinite(trial) and trial <= value - opts.armijo_c * step * gnorm ** 2:
                T, value = candidate, trial
                trace.step_sizes[-1] = step
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            trace.terminal_reason = ("no descent at floating precision; "
                                     "best point so far returned")
            return T, value, trace
    trace.terminal_reason = "iteration limit reached"
    return T, value, trace


def minimize(field, params: SmoothnessParams, opts: OptimizerOptions,
             quads: QuadratureBundle):
    """Minimize T -> |f o T|_{W^{s,p}} over determinant-one matrices.

    Monotone Armijo descent with the retraction T exp(-eta B) on the
    fixed-sample objective of seminorms._sample_objective, where B is its
    exact gradient.  Returns (T*, value, trace) with T* polar-aligned (its
    free rotation factor removed) and value recomputed through the public
    composition objective.
    """
    if not isinstance(field, AnalyticField):
        raise ValueError(f"minimize needs an AnalyticField, got "
                         f"{type(field).__name__}")
    n = field.dimension
    if params.fractional:
        # composing with the identity is exact, so the context's profile
        # gives objective(field, I) bit for bit
        profile = directional_profile(field, params, quads)
        base_value = seminorm(field, params, quads, profile=profile)
        ctx = _sample_objective(field, params, quads, profile=profile)
    else:
        # the integer semi-norm is this objective at the identity
        ctx = _sample_objective(field, params, quads)
        base_value = ctx.value(np.eye(n))
    if not np.isfinite(base_value):
        raise NumericalFailureError("non-finite objective at the identity")
    if base_value <= 0.0:
        raise ValueError("field has no smoothness energy to minimize")

    starts = [np.eye(n)]
    rng = np.random.default_rng(7)
    starts += [random_unimodular(rng, n) for _ in range(opts.restarts)]

    best = None
    for start in starts:
        T, value, trace = _descend(ctx, start, opts)
        if best is None or value < best[1]:
            best = (T, value, trace)
    T, fast_value, trace = best

    aligned = polar_align(T)
    final_value = objective(field, aligned, params, quads)
    if final_value > base_value:
        # quadrature-level disagreement between the iteration context and
        # the composition path: the identity is then the certified point
        return UnimodularTransform(np.eye(n)), base_value, trace
    return UnimodularTransform(aligned), final_value, trace


def critical_residuals(field, T, p: float, quads: QuadratureBundle):
    """First order criticality defects at T, both normalized by the energy:
    r_general maxes |<S, M>| over a trace-free basis, r_diag compares the
    first diagonal moment against the equidistributed share tr(S)/N."""
    ctx = _sample_objective(field, SmoothnessParams(1.0, p), quads)
    s = ctx.moment(_as_matrix(T))
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
    n = xi.shape[0]
    rotation = _rotation_to_first_axis(xi)
    mu = lam ** (-1.0 / (n - 1))
    diag = np.full(n, mu)
    diag[0] = lam
    T = rotation.T @ np.diag(diag) @ rotation
    old_value = objective(field, np.eye(n), params, quads)
    new_value = objective(field, T, params, quads)
    return UnimodularTransform(T), old_value, new_value


def _rotation_to_first_axis(xi: np.ndarray) -> np.ndarray:
    """Proper rotation O with O xi = e1."""
    n = xi.shape[0]
    norm = np.linalg.norm(xi)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    unit = xi / norm
    v = unit - np.eye(n)[0]
    if v @ v < 1e-24:
        return np.eye(n)
    H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    if np.linalg.det(H) < 0:
        H[-1] = -H[-1]
    return H


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
    min and max over sphere nodes of D(f o T*, xi)^{1/p} / |f o T*|.

    The default acceptance floor is half the explicit first order lower
    bound constant when that formula applies, otherwise strict positivity.
    """
    m = _as_matrix(T_star)
    composed = field.affine_compose(m) if isinstance(field, AnalyticField) \
        else field.compose_affine(m)
    profile = directional_profile(composed, params, quads)
    total = seminorm(composed, params, quads, profile=profile)
    if total <= 0:
        raise ValueError("field has no smoothness energy at this transform")
    ratios = profile.values ** (1.0 / params.p) / total
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
                                  profile.sphere.nodes[min_idx].copy())


__all__ = [
    "UnimodularTransform", "OptimizerOptions", "OptimizerTrace",
    "DirectionalBoundReport", "sl_basis", "matrix_exp", "polar_align",
    "objective", "exact_gradient_s1", "numeric_gradient", "random_unimodular",
    "minimize", "critical_residuals", "descent_step",
    "directional_lower_bound_check",
]
