"""The one elimination kernel: `Echelon` against the textbook RREF oracle."""

import random
from fractions import Fraction

from galoiskit.linalg import Echelon
from galoiskit.numbers import QQ, PrimeField
from linalg_oracles import in_row_space, row_space_basis

FIELDS = (QQ, PrimeField(2), PrimeField(5), PrimeField(1031))


def _scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return field.from_int(rng.randrange(field.p))


def _matrices(field, rng):
    """Random matrices of every shape the kernel meets: full rank, rank
    deficient (rows combined from fewer rows), with zero and duplicate rows,
    and with no rows at all."""
    yield []
    for _ in range(40):
        ncols, nrows = rng.randint(1, 7), rng.randint(1, 9)
        if rng.random() < 0.5:
            rows = [[_scalar(field, rng) for _ in range(ncols)] for _ in range(nrows)]
        else:
            gens = [[_scalar(field, rng) for _ in range(ncols)] for _ in range(rng.randint(0, min(ncols, nrows)))]
            rows = [[sum((c * g[j] for c, g in zip(cs, gens)), field.zero()) for j in range(ncols)]
                    for cs in ([_scalar(field, rng) for _ in gens] for _ in range(nrows))]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [field.zero()] * ncols)
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        yield rows


def _cases():
    rng = random.Random(33)
    return [(field, rows) for field in FIELDS for rows in _matrices(field, rng)]


def _disagreements(cases):
    """The cases whose echelon basis is not the oracle's RREF basis."""
    bad = []
    for field, rows in cases:
        echelon = Echelon(field)
        for row in rows:
            echelon.add(row)
        if echelon.basis() != row_space_basis(field, rows):
            bad.append((field, rows))
    return bad


def test_basis_is_the_oracle_rref():
    cases = _cases()
    assert not _disagreements(cases)
    ranks = {len(row_space_basis(field, rows)) for field, rows in cases}
    assert ranks >= set(range(8))


def test_zero_residual_is_membership():
    rng = random.Random(34)
    counts = [0, 0]
    for field, rows in _cases():
        if not rows:
            continue
        echelon = Echelon(field)
        for row in rows:
            echelon.add(row)
        basis = echelon.basis()
        ncols = len(rows[0])
        inside = [sum((_scalar(field, rng) * r[j] for r in rows), field.zero()) for j in range(ncols)]
        for vec in (inside, [_scalar(field, rng) for _ in range(ncols)]):
            member = not any(echelon.reduce(vec)[0])
            assert member == in_row_space(field, basis, vec)
            counts[member] += 1
    assert min(counts) >= 20, counts


def test_a_basis_without_back_substitution_fails(monkeypatch):
    # rows by ascending pivot, as added: in echelon form, but not reduced
    monkeypatch.setattr(Echelon, "basis", lambda self: [row for _, row, _ in sorted(self.rows, key=lambda r: r[0])])
    assert _disagreements(_cases())
