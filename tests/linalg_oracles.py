"""Textbook Gaussian elimination, kept as an oracle for `linalg.Echelon`.

`rref` clears each pivot column in every other row as it goes; the tests
compare `Echelon.basis`, subfield membership, fixed fields and the solve
routines of the tower against it.
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


