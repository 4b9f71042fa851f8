"""Exact linear algebra over a field object (QQ, F_p, or a tower).

Matrices are lists of row lists of field elements.  Everything pivots with
exact field division, so results are exact for `Fraction` and `TowerElem`
scalars alike (an F_p scalar is the one-residue `TowerElem`).  `Echelon` is
the one Gaussian elimination: it reduces one vector at a time and keeps each
row's combination of the vectors added so far.  Minimal polynomials (the
first dependency among powers), coordinates in the powers of a primitive
element, membership in a subspace (a zero residual) and the canonical
reduced row echelon bases that subfields are compared by (`Echelon.basis`)
all run on it.
"""

from __future__ import annotations

from .errors import InternalInvariant


def mat_mul_vec(rows, vec, zero):
    """rows times vec, over the nonzero entries of vec only."""
    support = [(j, b) for j, b in enumerate(vec) if b]
    out = []
    for row in rows:
        acc = zero
        for j, b in support:
            a = row[j]
            if a:
                acc = acc + a * b
        out.append(acc)
    return out


class Echelon:
    """Incremental Gaussian elimination that tracks combinations (Cohen,
    GTM 138, section 2.2).  Each row is (pivot column, row scaled to 1 at the
    pivot, its coefficients in the vectors added so far); a row is zero at the
    pivots of the rows before it, so one pass in order reduces a vector."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # one per added vector: only independent ones are added

    def reduce(self, vec):
        """(residual, c) with vec = residual + sum of c[i] * added[i] and the
        residual zero at every pivot."""
        v = list(vec)
        comb = [self.field.zero()] * len(self.rows)
        for pivot, row, row_comb in self.rows:
            f = v[pivot]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
                comb[: len(row_comb)] = [a + f * b for a, b in zip(comb, row_comb)]
        return v, comb

    def add(self, vec):
        """The combination of the added vectors equal to vec when there is
        one; otherwise vec becomes a new pivot row and the result is None."""
        v, comb = self.reduce(vec)
        pivot = next((j for j, a in enumerate(v) if a), None)
        if pivot is None:
            return comb
        if len(self.rows) == len(v):
            raise InternalInvariant(f"more than {len(v)} independent vectors of length {len(v)}")
        inv = self.field.one() / v[pivot]
        self.rows.append((pivot, [inv * a for a in v], [-inv * c for c in comb] + [inv]))
        return None

    def basis(self):
        """The reduced row echelon basis of the span, rows by ascending pivot.
        A row is zero left of its pivot, so in descending pivot order each
        row only needs clearing at the later pivots, whose rows are done."""
        done = []
        for pivot, row, _ in sorted(self.rows, key=lambda r: r[0], reverse=True):
            for p, other in done:
                f = row[p]
                if f:
                    row = [a - f * b for a, b in zip(row, other)]
            done.append((pivot, row))
        return [row for _, row in reversed(done)]
