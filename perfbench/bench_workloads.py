"""Seeded operation lists for the three benchmark workloads.

Every operation is one `affsob` command (energy, optimize or verify) with
the configuration it reads and the facts its oracle needs.  The seed only
moves what leaves an operation's cost alone: the orientation of each
generated field (in 2-D by a symmetry of the circle rules), the placement
of its mixture partner and its polynomial and amplitude coefficients.  Term count, degree and condition number are
fixed per slot, so the work per operation, and with it the timings, stay
comparable from one seed to the next while the numbers the oracles check
change.
"""
from __future__ import annotations

import math

import numpy as np

from bench_oracles import mixture_terms

# the inequality suite's fractional tiers: box 36, sphere 32, 16 panels,
# and the same scaled by two
BASE = {"box_nodes": 36, "sphere_nodes": 32, "t_panels": 16}
DOUBLED = {"box_nodes": 72, "sphere_nodes": 64, "t_panels": 32}
# a coarser tier on which the Armijo search of `aniso` probes a transform
# extreme enough to break field validation
SMALL = {"box_nodes": 24, "sphere_nodes": 16, "t_panels": 12}

FRAC_SP = [(0.5, 2.0), (1.5, 2.0), (0.5, 4.0), (1.5, 4.0)]
INT_SP = [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 1.0), (2.0, 2.0),
          (2.0, 3.0)]

# closed-form tolerances: the base tier matches the Fourier form to ~4e-7,
# the doubled tier and the derivative branch to ~1e-12
_ORACLE_TOL = {"base": 1e-5, "doubled": 1e-9, "integer": 1e-10}
# a radial field's profile is constant up to quadrature noise, which on
# the derivative branch reaches ~2e-6 at p = 1 (|d_xi f| has a kink)
_RADIAL_TOL = {"base": 1e-6, "doubled": 1e-9, "integer": 1e-5}


def _rotation(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Random proper rotation.  In 2-D the angle is a multiple of pi/16,
    which maps the 32- and 64-node circle rules onto themselves: a rotated
    field then costs the same work as the unrotated one, and its optimizer
    path is the rotated path, with the same number of Armijo trials."""
    if dimension == 2:
        theta = math.pi / 16.0 * rng.integers(16)
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])
    q, r = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _precision(rng, dimension: int, condition: float) -> list:
    eig = np.geomspace(math.sqrt(condition), 1.0 / math.sqrt(condition),
                       dimension)
    rot = _rotation(rng, dimension)
    return (rot @ np.diag(eig) @ rot.T).tolist()


def _key(exponents) -> str:
    return ",".join(str(e) for e in exponents)


def _term(coefficient, mean, precision, polynomial) -> dict:
    return {"coefficient": float(coefficient), "mean": [float(x) for x in mean],
            "precision": precision, "polynomial": polynomial}


def seeded_field(rng: np.random.Generator, slot: str,
                 dimension: int = 2) -> dict:
    """Inline Gaussian-polynomial field of a fixed shape class.

    gauss:   one term, degree 0, condition 2;
    mixture: two terms, degree 0, conditions 2 and 1.5, centres 1.6 apart;
    poly2:   one term, degree 2 (a rotated Hermite-type factor), condition 3.
    """
    zero = _key((0,) * dimension)
    amp = rng.uniform(0.8, 1.25)
    if slot == "gauss":
        terms = [_term(amp, np.zeros(dimension),
                       _precision(rng, dimension, 2.0), {zero: 1.0})]
    elif slot == "mixture":
        axis = _rotation(rng, dimension)[:, 0]
        second = rng.uniform(0.5, 0.9) * rng.choice([-1.0, 1.0])
        terms = [_term(amp, -0.8 * axis, _precision(rng, dimension, 2.0),
                       {zero: 1.0}),
                 _term(second, 0.8 * axis, _precision(rng, dimension, 1.5),
                       {zero: 1.0})]
    elif slot == "poly2":
        rot = _rotation(rng, dimension)
        u = rot[:, 0]
        # q(x) = (u.x)^2 - c0 + small linear part, expanded in monomials
        poly: dict[str, float] = {zero: -rng.uniform(0.7, 1.3)}
        for i in range(dimension):
            for j in range(dimension):
                e = [0] * dimension
                e[i] += 1
                e[j] += 1
                poly[_key(e)] = poly.get(_key(e), 0.0) + float(u[i] * u[j])
        lin = rng.uniform(-0.3, 0.3, dimension)
        for i in range(dimension):
            k = _key(np.eye(dimension, dtype=int)[i])
            poly[k] = poly.get(k, 0.0) + float(lin[i])
        terms = [_term(amp, np.zeros(dimension),
                       _precision(rng, dimension, 3.0), poly)]
    else:
        raise ValueError(f"unknown slot {slot!r}")
    return {"terms": terms}


def _family_spec() -> dict:
    from affsob.family import load_family_spec
    return load_family_spec()["members"]


def _energy_op(name, field, spec, s, p, tier, quadrature=None, dimension=2):
    fractional = abs(s - round(s)) > 1e-12
    level = tier if fractional else "integer"
    config = {"dimension": dimension, "s": s, "p": p, "field": field}
    if quadrature is not None:
        config["quadrature"] = quadrature
    op = {"id": f"energy/{name}/s{s:g}/p{p:g}/{tier}", "kind": "energy",
          "config": config, "s": s, "p": p,
          "radial": name == "radial", "radial_tol": _RADIAL_TOL[level]}
    if p == 2.0:
        terms = mixture_terms(spec)
        if terms is not None:
            op["oracle_terms"] = terms
            op["oracle_tol"] = _ORACLE_TOL[level]
    return op


def _optimize_op(name, field, s, p, quadrature, optimizer, **oracle):
    config = {"dimension": 2, "s": s, "p": p, "field": field,
              "optimizer": optimizer}
    if quadrature is not None:
        config["quadrature"] = quadrature
    return {"id": f"optimize/{name}/s{s:g}/p{p:g}", "kind": "optimize",
            "config": config, "s": s, "p": p, **oracle}


def _verify_op(suite: str) -> dict:
    return {"id": f"verify/{suite}", "kind": "verify", "suite": suite}


def _frac_energy(rng, family):
    ops = []
    for name in ("radial", "aniso", "hermite", "twobump"):
        for s, p in FRAC_SP:
            ops.append(_energy_op(name, name, family[name], s, p, "base", BASE))
    for slot in ("gauss", "mixture", "poly2"):
        spec = seeded_field(rng, slot)
        for s, p in FRAC_SP:
            ops.append(_energy_op(slot, spec, spec, s, p, "base", BASE))
    # the doubled tier quadruples each direction's box and doubles the
    # swept directions, so its line_values blocks split across chunks
    ops.append(_energy_op("radial", "radial", family["radial"], 0.5, 2.0,
                          "doubled", DOUBLED))
    spec = seeded_field(rng, "gauss")
    ops.append(_energy_op("gauss", spec, spec, 0.5, 2.0, "doubled", DOUBLED))
    return ops


def _unit_gauss(rng) -> dict:
    """Condition-2 Gaussian for the optimizer, moved by a symmetry of the
    square (a quarter turn and a reflection) and a sign.

    The descent's trial count reacts to rounding-level changes of the
    objective, and a general rotation changes how box node counts round,
    so only exact symmetries keep the work per operation fixed.  The
    amplitude stays one: the first step exp(-B) grows with it.
    """
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    turn = np.linalg.matrix_power(quarter, int(rng.integers(4)))
    if rng.integers(2):
        turn = turn @ np.diag([1.0, -1.0])
    theta = 3.0 * math.pi / 16.0
    c, s = math.cos(theta), math.sin(theta)
    base = np.array([[c, -s], [s, c]]) @ np.diag([2.0 ** 0.5, 2.0 ** -0.5]) \
        @ np.array([[c, s], [-s, c]])
    return {"terms": [_term(rng.choice([-1.0, 1.0]), np.zeros(2),
                            (turn @ base @ turn.T).tolist(), {"0,0": 1.0})]}


def _frac_optimize(rng, family):
    opts = {"max_iters": 2}
    ops = [_optimize_op(name, name, 0.5, 3.0, BASE, opts)
           for name in ("shear1", "hermite")]
    for k in range(2):
        ops.append(_optimize_op(f"gauss{k}", _unit_gauss(rng), 0.5, 3.0, BASE,
                                opts))
    # two inputs that fail today; each run repeats them and reports how
    # they failed, outside the timed and counted operations
    ops.append(_optimize_op("aniso-small", "aniso", 0.5, 3.0, SMALL, opts,
                            known_failure="ValueError"))
    ops.append(_optimize_op("aniso", "aniso", 0.75, 1.5, BASE, opts,
                            known_failure="exit:3"))
    return ops


def _integer(rng, family):
    ops = []
    for name in ("radial", "aniso", "shear1", "hermite", "twobump", "bump"):
        for s, p in INT_SP:
            ops.append(_energy_op(name, name, family[name], s, p, "default"))
    for slot in ("gauss", "mixture", "poly2"):
        spec = seeded_field(rng, slot)
        for s, p in INT_SP:
            ops.append(_energy_op(slot, spec, spec, s, p, "default"))
    spec3 = seeded_field(rng, "gauss", dimension=3)
    ops.append(_energy_op("gauss3d", spec3, spec3, 1.0, 2.0, "default",
                          dimension=3))
    # s = 1 runs the exact-gradient context, s = 2 the second-order context
    # with numeric gradients (capped at 5 iterations)
    ops.append(_optimize_op("aniso", "aniso", 1.0, 2.0, None, {},
                            minimum=math.sqrt(math.pi), minimum_tol=1e-3))
    for name in ("shear2", "twobump"):
        ops.append(_optimize_op(name, name, 1.0, 3.0, None, {}))
    ops.append(_optimize_op("hermite", "hermite", 1.0, 1.5, None, {}))
    ops.append(_optimize_op("gauss", _unit_gauss(rng), 1.0, 1.5, None, {}))
    for name in ("aniso", "shear1", "shear2", "hermite", "twobump"):
        ops.append(_optimize_op(name, name, 2.0, 2.0, None, {"max_iters": 5}))
    ops.append(_verify_op("optimizer"))
    ops.append(_verify_op("noimpro"))
    return ops


_BUILDERS = {"frac-energy": _frac_energy, "frac-optimize": _frac_optimize,
             "integer": _integer}


def build_operations(workload: str, seed: int) -> list[dict]:
    """The workload's fixed operation list for one seed."""
    names = list(_BUILDERS)
    if workload not in names:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(names)}")
    rng = np.random.default_rng([seed, names.index(workload)])
    return _BUILDERS[workload](rng, _family_spec())
