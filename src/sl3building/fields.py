"""Small prime fields for exhaustive cross-checks.

Elements of F_p are plain ints in range(p); only the handful of operations
needed for 3x3 matrix work over the field are provided.
"""

from __future__ import annotations

from .padic_linalg import is_prime


class FiniteField:
    """Arithmetic in F_q for q prime."""

    def __init__(self, q):
        if not is_prime(q):
            raise ValueError(f"supported orders: primes, got {q}")
        self.q = q

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def add(self, a, b):
        return (a + b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.q)

    # 3x3 matrix helpers over the field -------------------------------------

    def mat_vec(self, m, v):
        return tuple(self._dot(row, v) for row in m)

    def _dot(self, u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def det3(self, m):
        (a, b, c), (d, e, f), (g, h, i) = m
        t1 = self.mul(a, self.sub(self.mul(e, i), self.mul(f, h)))
        t2 = self.mul(b, self.sub(self.mul(d, i), self.mul(f, g)))
        t3 = self.mul(c, self.sub(self.mul(d, h), self.mul(e, g)))
        return self.add(self.sub(t1, t2), t3)

    def proportional(self, u, v):
        """Whether two nonzero vectors span the same line."""
        k = next(i for i, e in enumerate(u) if e != 0)
        if v[k] == 0:
            return False
        r = self.mul(v[k], self.inv(u[k]))
        return all(self.mul(u[i], r) == v[i] for i in range(3))
