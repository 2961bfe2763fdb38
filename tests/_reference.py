"""The driven Lambda system at high precision, for the tests and tools/parity.py.

Nothing here imports lambda_crossing, so a reference shares no formula with
the code it judges, in this checkout or another.
"""

import mpmath


class Spectrum:
    """One mpmath.eigsy at dps digits: the ascending levels e[k], eigenvector
    rows v[j][k] (bare state j, level k), gaps (e2 - e1, e3 - e2), squared
    overlaps weights[j][k], residues c_k = v[0][k] v[2][k] and the supremum
    over t of the 1 -> 3 transfer, (sum_k |c_k|)^2, at most 1. Each is
    derived here only, at dps digits."""

    def __init__(self, e, v, dps):
        self.e, self.v, self.dps = e, v, dps
        with mpmath.workdps(dps):
            self.gaps = (e[1] - e[0], e[2] - e[1])
            self.weights = [[x**2 for x in row] for row in self.v]
            self.residues = [self.v[0][k] * self.v[2][k] for k in range(3)]
            self.supremum = min(sum(abs(c) for c in self.residues) ** 2, 1)

    def transfer(self, t):
        """P(t) = |sum_k c_k exp(-i e_k t)|^2, the 1 -> 3 transfer at time t."""
        c, e = self.residues, self.e
        with mpmath.workdps(self.dps):
            return abs(sum(c[k] * mpmath.expj(-e[k] * mpmath.mpf(t)) for k in range(3))) ** 2

    def slope(self, kind):
        """The delta1-slope whose root is the locus of kind, with its sign:
        d(e3 - e2) ("structural") or d((e2 - e1)(e3 - e2)) ("dynamical"), from
        d e_k / d delta1 = v[0][k]^2 - 1 (Hellmann-Feynman), whose -1 cancels."""
        (h, g), de = self.gaps, self.weights[0]
        with mpmath.workdps(self.dps):
            dg = de[2] - de[1]
            return dg if kind == "structural" else (de[1] - de[0]) * g + h * dg


def levels(matrix, dps=50):
    """The Spectrum of a real symmetric 3x3 matrix, given as nested lists."""
    with mpmath.workdps(dps):
        e, v = mpmath.eigsy(mpmath.matrix(matrix))
    return Spectrum([e[k] for k in range(3)], [[v[j, k] for k in range(3)] for j in range(3)],
                    dps)


def spectrum(omega1, omega2, delta1, delta2, dps=50):
    """The Spectrum of H = [[0, a, 0], [a, -delta1, b], [0, b, delta2 - delta1]],
    a, b = omega1 / 2, omega2 / 2, built in mpf from floats or mpf values."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(omega1) / 2, mpmath.mpf(omega2) / 2
        d1, d2 = mpmath.mpf(delta1), mpmath.mpf(delta2)
        return levels([[0, a, 0], [a, -d1, b], [0, b, d2 - d1]], dps)
