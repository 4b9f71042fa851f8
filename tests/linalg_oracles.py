"""Linear algebra on field scalars, kept as oracles for `galoiskit.linalg`.

`rref` is textbook Gaussian elimination: it clears each pivot column in
every other row as it goes; the tests compare `Echelon.basis`, subfield
membership, fixed fields and the solve routines of the tower against it.
`Echelon` is the incremental elimination on `Fraction`s (or F_p scalars)
that the fraction-free kernel replaced, with its combinations; the tests
compare the kernel's combinations, residuals and bases against it.
`mat_mul_vec` and `scalar_matrix` read the kernel's int matrices as
matrices of base scalars.
"""


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




def mat_mul_vec(rows, vec, zero):
    """rows times vec on field scalars: the oracle for `linalg.mat_mul_vec`."""
    return [sum((a * b for a, b in zip(row, vec)), zero) for row in rows]


def scalar_matrix(base, mat):
    """The (int rows, den) matrix of `galoiskit.linalg` as rows of base scalars."""
    rows, den = mat
    return [base._view(row if base.characteristic else (*row, den)) for row in rows]


class Echelon:
    """Incremental Gaussian elimination on field scalars (`Fraction`s, F_p
    scalars) that tracks combinations: the oracle for the fraction-free
    `linalg.Echelon`.  Each row is (pivot column, row scaled to 1 at the
    pivot, its coefficients in the vectors added so far); a row is zero at
    the pivots of the rows before it, so one pass in order reduces a vector."""

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
        inv = self.field.one() / v[pivot]
        self.rows.append((pivot, [inv * a for a in v], [-inv * c for c in comb] + [inv]))
        return None

    def basis(self):
        """The reduced row echelon basis of the span, rows by ascending pivot."""
        done = []
        for pivot, row, _ in sorted(self.rows, key=lambda r: r[0], reverse=True):
            for p, other in done:
                f = row[p]
                if f:
                    row = [a - f * b for a, b in zip(row, other)]
            done.append((pivot, row))
        return [row for _, row in reversed(done)]
