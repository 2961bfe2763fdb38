"""Scalar extremum searches on a bracket: Brent's derivative-free minimization
(golden section with parabolic acceleration) and a Brent-Dekker root of a slope;
and one discrete search, the least residue of a linear sequence."""

import math

import numpy as np

from .errors import ConvergenceError

_GOLD = 0.5 * (3.0 - math.sqrt(5.0))
# Floor of the root tolerance, relative to |x|: a few units in the last place.
_ROOT_RTOL = 4.0 * 2.0**-52


def minimize_scalar(f, a, b, xtol=1e-10, max_iter=200):
    """Minimize f on [a, b] to max(xtol, 4 ulp of max(|a|, |b|)) in the abscissa.

    Brent-style: golden-section steps, replaced by a parabolic step through
    the three best points whenever that step is well behaved. Assumes a
    single local minimum in the bracket. Returns (x, f(x)); raises
    ConvergenceError when max_iter evaluations past the first fall short.
    """
    if not b > a:
        raise ValueError("bracket must satisfy a < b")
    x = w = v = a + _GOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    tol1 = max(xtol, _ROOT_RTOL * max(abs(a), abs(b)))
    tol2 = 2.0 * tol1
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            # Parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_old = e
            e = d
            if abs(p) < abs(0.5 * q * e_old) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = (b - x) if x < m else (a - x)
            d = _GOLD * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0.0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise ConvergenceError(f"minimum not found to xtol = {xtol:g} within {max_iter} iterations")


def slope_root(g, a, b, xtol, what, max_iter=100):
    """Minimizer on [a, b] of a function whose slope is g, to xtol.

    g must be negative left of the minimizer and positive right of it;
    only its sign and its values are used. The root is found by
    Brent-Dekker: secant or inverse quadratic interpolation, replaced by
    bisection whenever that step is not well behaved, on a bracket that
    always holds a sign change. The result lies within max(xtol, 4 ulp)
    of the sign change. When g does not change sign on [a, b], returns
    the end g descends to: a if g(a) >= 0, else b if g(b) <= 0. Returns
    (x, g(x)); raises ConvergenceError naming the locus kind what when
    max_iter evaluations past the two ends do not reach xtol.
    """
    if not b > a:
        raise ValueError("bracket must satisfy a < b")
    fa, fb = g(a), g(b)
    if fa >= 0.0:
        return a, fa
    if fb <= 0.0:
        return b, fb
    # b is the best estimate; [b, c] holds the sign change; a is b's predecessor.
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol1 = 0.5 * max(xtol, _ROOT_RTOL * abs(b))
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) < tol1:
            return b, fb
        if abs(prev_step) > tol1 and abs(fb) < abs(fa):
            if a == c:
                trial = -fb * (b - a) / (fb - fa)
            else:
                # Inverse quadratic interpolation through a, b and c.
                da = (fa - fb) / (a - b)
                dc = (fc - fb) / (c - b)
                trial = -fb * (fc * dc - fa * da) / (dc * da * (fc - fa))
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - tol1):
                prev_step, step = step, trial
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol1 else math.copysign(tol1, half)
        fb = g(b)
        if (fb < 0.0) != (fa < 0.0):
            c, fc = a, fa
            step = prev_step = b - a
    raise ConvergenceError(
        f"{what} locus: slope root not found to xtol = {xtol:g} within {max_iter} iterations"
    )


def modular_minimum(a, b, m, n):
    """(v, k): the least v = (a k + b) mod m over integers 0 <= k < n, and
    the least k that attains it, in exact integer arithmetic.

    Euclid-like: when 2a <= m the sequence rises by a and wraps past m, so
    each lap's first term is its least; the y-th wrap starts at
    (b - m y) mod a, a sequence mod a. Otherwise it falls by c = m - a and
    each run's last term is its least; the z-th run ends at (m z + b) mod c.
    Either way the modulus and the count at least halve, so the search takes
    O(log min(m, n)) steps. Raises ValueError unless m and n are positive.
    """
    if not (m >= 1 and n >= 1):
        raise ValueError(f"modulus and count must be positive, got m = {m}, n = {n}")
    a, b = a % m, b % m
    if a == 0 or n == 1:
        return b, 0
    if 2 * a <= m:
        laps = (a * (n - 1) + b) // m
        if laps == 0:
            return b, 0
        # The recursion reads the module attribute, so a wrapped search sees each step.
        v, y = modular_minimum(-m, b - m, a, laps)
        return (v, (m * (y + 1) - b + a - 1) // a) if v < b else (b, 0)
    c = m - a
    last = (a * (n - 1) + b) % m
    runs = (c * n - b - 1) // m + 1
    if runs == 0:
        return last, n - 1
    v, z = modular_minimum(m, b, c, runs)
    return (v, (m * z + b) // c) if v <= last else (last, n - 1)


def parabolic_vertex(x0, y0, x1, y1, x2, y2):
    """Abscissa of the vertex of the parabola through three points.

    Falls back to x1 when the three points are collinear. Arrays are taken
    elementwise, with the same arithmetic as scalars: squares are products,
    never pow, so both agree to the last bit.
    """
    d0, d2 = x1 - x0, x1 - x2
    denom = d0 * (y1 - y2) - d2 * (y1 - y0)
    num = d0 * d0 * (y1 - y2) - d2 * d2 * (y1 - y0)
    if isinstance(denom, float):
        return x1 if denom == 0.0 else x1 - 0.5 * num / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, x1, x1 - 0.5 * num / denom)
