"""Independent checks for every benchmark operation.

The p = 2 oracle is the Fourier form of the directional energy
(Di Nezza, Palatucci, Valdinoci, "Hitchhiker's guide to the fractional
Sobolev spaces", Prop. 3.4).  With Plancherel,

    ||Delta^m_{t xi} f||_2^2 = (2 pi)^-N int (2 sin(t w.xi / 2))^(2m) |f^(w)|^2 dw,

and the t-integral against t^(-2s-1) factors into C(s, m) |w.xi|^(2s), so

    D(f, xi) = C(s, m) (2 pi)^-N int |w.xi|^(2s) |f^(w)|^2 dw.

On the derivative branch (integer s) the same integral holds with C = 1.
For a Gaussian mixture, |f^|^2 is the Fourier transform of the
autocorrelation of f: a sum over term pairs of Gaussians with a phase, and
each pair integrates in closed form through one Kummer function.  Nothing
here touches the library's box sweep or radial rule.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


def difference_constant(s: float, m: int) -> float:
    """C(s, m) = int_0^inf r^(-2s-1) (2 sin(r/2))^(2m) dr for 0 < s < m.

    (2 - 2 cos r)^m = w_0 + sum_k w_k cos(k r) with w_k = 2 (-1)^k C(2m, m+k);
    each cos(k r) - 1 contributes -k^(2s) pi / (2 Gamma(1 + 2s) sin(pi s)).
    """
    if not 0.0 < s < m:
        raise ValueError("need 0 < s < m")
    weighted = sum(2.0 * (-1.0) ** k * math.comb(2 * m, m + k) * k ** (2.0 * s)
                   for k in range(1, m + 1))
    return -weighted * math.pi / (2.0 * math.gamma(1.0 + 2.0 * s)
                                  * math.sin(math.pi * s))


def _kummer_negative(a: float, b: float, x: float) -> float:
    """1F1(a; b; -x) for x >= 0 through Kummer's transformation
    e^-x 1F1(b - a; b; x), whose series has no large alternating terms."""
    c = b - a
    term = 1.0
    total = 1.0
    n = 0
    while True:
        term *= (c + n) / (b + n) * x / (n + 1)
        total += term
        n += 1
        if n > x and abs(term) <= 1e-17 * abs(total):
            break
        if n > 10_000:
            raise ArithmeticError("Kummer series did not converge")
    return math.exp(-x) * total


def _abs_moment_cos(s: float, sigma2: float, kappa: float) -> float:
    """E[|u|^(2s) cos(kappa u)] for u ~ N(0, sigma2)."""
    moment = sigma2 ** s * 2.0 ** s * math.gamma(s + 0.5) / math.sqrt(math.pi)
    return moment * _kummer_negative(s + 0.5, 0.5, 0.5 * kappa ** 2 * sigma2)


def gaussian_mixture_energy(terms, xi: np.ndarray, s: float, fractional: bool,
                            order: int) -> float:
    """D(f, xi) at p = 2 for f = sum a_i exp(-(x - mu_i)^T A_i (x - mu_i) / 2).

    `terms` holds (a_i, mu_i, A_i); `order` is the difference order m on the
    fractional branch and is ignored on the derivative branch.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    scale = difference_constant(s, order) if fractional else 1.0
    total = 0.0
    for a_i, mu_i, A_i in terms:
        for a_j, mu_j, A_j in terms:
            cov = np.linalg.inv(np.linalg.inv(A_i) + np.linalg.inv(A_j))
            delta = np.asarray(mu_i, float) - np.asarray(mu_j, float)
            sigma2 = float(xi @ cov @ xi)
            gamma = float(xi @ cov @ delta)
            tau2 = float(delta @ cov @ delta)
            damping = math.exp(-0.5 * (tau2 - gamma ** 2 / sigma2))
            pair = (a_i * a_j * (2.0 * math.pi) ** (n / 2.0)
                    * math.sqrt(np.linalg.det(cov))
                    / math.sqrt(np.linalg.det(A_i) * np.linalg.det(A_j)))
            total += pair * damping * _abs_moment_cos(s, sigma2, gamma / sigma2)
    return scale * total


def mixture_terms(field_spec: dict):
    """(a, mu, A) triples of an inline spec whose polynomials are constants,
    or None when some term carries a non-constant polynomial."""
    out = []
    for term in field_spec["terms"]:
        poly = term["polynomial"]
        zero = ",".join("0" * len(term["mean"]))
        if set(poly) != {zero}:
            return None
        out.append((float(term["coefficient"]) * float(poly[zero]),
                    np.asarray(term["mean"], float),
                    np.asarray(term["precision"], float)))
    return out


# -- per-operation checks --------------------------------------------------
#
# Each check takes the operation, its captured stdout and the text of its
# output file, and returns None when the output is accepted or a short
# reason when it is rejected.

def check_energy(op: dict, stdout: str, out_text: str) -> str | None:
    payload = json.loads(out_text)
    energy = payload["affine_energy"]
    fractional = abs(op["s"] - round(op["s"])) > 1e-12
    norm = payload["seminorm"] if fractional else payload["starred_seminorm"]
    if not (math.isfinite(energy) and math.isfinite(norm) and energy > 0):
        return "non-finite or vanishing energy"
    # Jensen: the power mean with a negative exponent sits below the
    # arithmetic mean on the same sphere rule, with equality for a constant
    # (radial) profile
    if energy > norm * (1.0 + 1e-12):
        return f"Jensen bound violated: energy {energy!r} > norm {norm!r}"
    if op["radial"] and abs(energy - norm) > op["radial_tol"] * norm:
        return f"radial field misses Jensen equality: {energy!r} vs {norm!r}"
    terms = op.get("oracle_terms")
    if terms is not None:
        dirs = np.asarray(payload["profile"]["directions"], float)
        vals = np.asarray(payload["profile"]["values"], float)
        order = int(math.floor(op["s"])) + 1 if fractional else int(op["s"])
        ref = np.array([gaussian_mixture_energy(terms, d, op["s"], fractional,
                                                order) for d in dirs])
        err = float(np.max(np.abs(vals - ref) / np.abs(ref)))
        if not err <= op["oracle_tol"]:
            return f"profile off the closed form by {err:.3g} relative"
    return None


def _optimize_stdout(stdout: str):
    lines = stdout.strip().splitlines()
    head = lines[0].split()
    value, start = float(head[2]), float(head[4].rstrip(")"))
    rows = [[float(x) for x in line.split()] for line in lines[1:]]
    return value, start, np.array(rows)


def check_optimize(op: dict, stdout: str, out_text: str) -> str | None:
    value, start, matrix = _optimize_stdout(stdout)
    det = float(np.linalg.det(matrix))
    if abs(det - 1.0) > 1e-9:
        return f"det T = {det!r}"
    if not (math.isfinite(value) and value <= start * (1.0 + 1e-12)):
        return f"final value {value!r} above start {start!r}"
    rows = list(csv.DictReader(io.StringIO(out_text)))
    trace = [float(r["objective"]) for r in rows]
    if any(b > a + 1e-12 for a, b in zip(trace, trace[1:])):
        return "objective trace increases"
    target = op.get("minimum")
    if target is not None and abs(value - target) > op["minimum_tol"] * target:
        return f"minimum {value!r} differs from {target!r}"
    return None


def check_verify(op: dict, stdout: str, out_text: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out_text)))
    if not rows:
        return "verification table is empty"
    failed = [r["check_id"] for r in rows if r["pass"] != "true"]
    return f"failed rows {failed}" if failed else None


CHECKS = {"energy": check_energy, "optimize": check_optimize,
          "verify": check_verify}
