"""Exact linear algebra over Q or F_p on the kernel form of field elements.

A vector is a tuple as a `TowerElem` stores it (see `galoiskit.tower`): over
Q, int numerators and then one positive denominator, in lowest terms; over
F_p, residues in [0, p).  Each routine takes the characteristic p, 0 for Q.
A matrix is (rows, den): int rows over one positive denominator, 1 over F_p.
`Echelon` is the one elimination, fraction-free (Bareiss, *Math. Comp.* 22,
1968; Cohen, GTM 138, section 2.2): a vector is multiplied by a row's pivot
entry before the row is taken off, then divided by its content over Q or
reduced mod p over F_p, in one loop for both fields.  Minimal polynomials,
primitive-element coordinates, fixed and generated subfields, membership
and the canonical bases of subfields run on it, with no `Fraction`.
"""

from __future__ import annotations

import math
import operator


def kernel(ints, den: int, p: int = 0) -> tuple:
    """The vector ints/den in kernel form: over Q (den > 0) all divided by
    their gcd, over F_p (den 1) reduced mod p."""
    if p:
        return tuple([x % p for x in ints])
    g = math.gcd(den, *ints)
    return (*ints, den) if g == 1 else (*[c // g for c in ints], den // g)


def matrix(cols, p: int) -> tuple:
    """(rows, den): the matrix whose columns are the vectors cols."""
    den = 1 if p else math.lcm(*[c[-1] for c in cols])
    return list(zip(*[c if p else [x * (den // c[-1]) for x in c[:-1]] for c in cols])), den


def mat_mul_vec(mat, vec, p: int) -> tuple:
    """The vector mat times vec (a row stops at the numerators of vec)."""
    rows, den = mat
    return kernel([sum(map(operator.mul, row, vec)) for row in rows], 1 if p else den * vec[-1], p)


def fixes(mat, vec, p: int) -> bool:
    """Whether mat times vec is vec, row by row until a row differs."""
    rows, den = mat
    diffs = (sum(map(operator.mul, row, vec)) - den * x for row, x in zip(rows, vec))
    return not any(d % p if p else d for d in diffs)


class Echelon:
    """Incremental elimination of vectors with n coordinates over Q (p = 0) or
    F_p.  A row is (pivot, entries): n values, zero left of the pivot and at
    the pivots of the rows before it, positive (Q) or 1 (F_p) at its own; a
    row of `add` then has n + 1 slots, values = sum of slot i times added
    vector i.  An echelon grows by `add` or by `insert` (no slots), not both."""

    def __init__(self, n: int, p: int):
        self.n, self.p, self.rows = n, p, []

    def _eliminate(self, v, rows) -> list:
        """v cleared at the pivot of each row in turn (a row stops at v's end)."""
        p = self.p
        for pivot, row in rows:
            if f := v[pivot]:
                s = row[pivot]
                v = [s * a - f * b for a, b in zip(v, row)]
                if p:
                    v = [a % p for a in v]
                elif (g := math.gcd(*v)) > 1:
                    v = [a // g for a in v]
        return v

    def _push(self, v):
        pivot = next(j for j, a in enumerate(v) if a)
        if self.p:
            inv = pow(v[pivot], -1, self.p)
            v = [a * inv % self.p for a in v]
        elif (g := math.gcd(*v) if v[pivot] > 0 else -math.gcd(*v)) != 1:
            v = [a // g for a in v]
        self.rows.append((pivot, v))

    def add(self, vec):
        """vec's combination of the added vectors (a kernel vector, one entry
        per row), or None when vec is independent and becomes a row.  Its slot
        m = len(rows) starts at its denominator t (1 over F_p): values = t vec
        + sum of c_i added_i, so a zero residual gives vec = sum -c_i/t added_i."""
        n, m = self.n, len(self.rows)
        v = self._eliminate([*vec[:n]] + [0] * m + [1 if self.p else vec[n]] + [0] * (n - m), self.rows)
        if any(v[:n]):
            self._push(v)
            return None
        return kernel([-c for c in v[n : n + m]], v[n + m], self.p)

    def insert(self, vec) -> bool:
        """Whether vec is independent of the rows; if so it becomes a row."""
        if independent := any(v := self._eliminate(list(vec[: self.n]), self.rows)):
            self._push(v)
        return independent

    def contains(self, vec) -> bool:
        """Whether vec lies in the span: a zero residual."""
        return not any(self._eliminate(list(vec[: self.n]), self.rows))

    def basis(self) -> list:
        """The reduced row echelon basis, as kernel vectors by ascending pivot:
        in descending pivot order a row needs clearing at later pivots only."""
        done = []
        for pivot, row in sorted(self.rows, reverse=True):  # pivots are distinct
            done.append((pivot, self._eliminate(row[: self.n], done)))
        return [kernel(row, row[pivot], self.p) for pivot, row in reversed(done)]
