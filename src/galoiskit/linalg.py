"""Exact linear algebra over a field object (QQ, F_p, or a tower).

Matrices are lists of row lists of field elements.  Everything pivots with
exact field division, so results are exact for Fraction, FpElem and tower
scalars alike.  `rref` gives the canonical bases that subfields are compared
by, and the kernels of fixed fields.  `Echelon` reduces one vector at a time
and keeps each row's combination of the vectors added so far: minimal
polynomials (the first dependency among powers), coordinates in the powers
of a primitive element and generated subfields all run on it.
"""

from __future__ import annotations

from .errors import InternalInvariant


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + rows[r:], pivots


def row_space_basis(field, rows):
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    reduced, pivots = rref(field, rows)
    return [reduced[i] for i in range(len(pivots))]


def in_row_space(field, basis_rref, vec):
    """Membership test against an RREF basis: reduce vec and check for zero."""
    v = list(vec)
    for row in basis_rref:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None and v[lead]:
            factor = v[lead]
            v = [a - factor * b for a, b in zip(v, row)]
    return not any(v)


def nullspace(field, rows, ncols=None):
    """Basis of {x : A x = 0} as a list of vectors (RREF-canonical)."""
    if ncols is None:
        if not rows:
            raise ValueError("nullspace of empty matrix needs ncols")
        ncols = len(rows[0])
    reduced, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(v)
    return basis


def mat_mul_vec(rows, vec, zero):
    out = []
    for row in rows:
        acc = zero
        for a, b in zip(row, vec):
            if a and b:
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
