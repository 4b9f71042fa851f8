"""The one elimination kernel: the fraction-free `Echelon` on kernel vectors
against the `Fraction` elimination and the textbook RREF oracles."""

import math
import random
from fractions import Fraction

from galoiskit.linalg import Echelon, fixes, kernel, mat_mul_vec, matrix
from galoiskit.numbers import QQ, PrimeField
from linalg_oracles import Echelon as ScalarEchelon
from linalg_oracles import in_row_space, row_space_basis, scalar_matrix
from linalg_oracles import mat_mul_vec as scalar_mat_mul_vec

FIELDS = (QQ, PrimeField(2), PrimeField(5), PrimeField(1031))


def _scalar(field, rng):
    """Over Q: small or 100-bit numerators over denominators 1 to 7."""
    if field is QQ:
        top = rng.choice((4, 4, 4, 2**100))
        return Fraction(rng.randint(-top, top), rng.randint(1, 7))
    return field.from_int(rng.randrange(field.p))


def _combination(field, rng, vecs, n):
    return [sum((_scalar(field, rng) * v[j] for v in vecs), field.zero()) for j in range(n)]


def _sequences(field, rng):
    """Seeded vector sequences of every shape the kernel meets: rank 0 to n
    (n <= 7), with repeated, zero and dependent vectors among independent
    ones, and the empty sequence."""
    yield 1, []
    for _ in range(40):
        n = rng.randint(1, 7)
        gens = [[_scalar(field, rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
        seq = list(gens)
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(("repeat", "zero", "dependent"))
            if kind == "zero" or not seq:
                extra = [field.zero()] * n
            elif kind == "repeat":
                extra = list(rng.choice(seq))
            else:
                extra = _combination(field, rng, rng.sample(seq, rng.randint(1, len(seq))), n)
            seq.insert(rng.randrange(len(seq) + 1), extra)
        yield n, seq


def _cases():
    rng = random.Random(39)
    return [(field, n, seq) for field in FIELDS for n, seq in _sequences(field, rng)]


def _disagreements(cases):
    """The cases where the kernel's `add` combinations or basis differ from
    the `Fraction` elimination's, or its basis from the RREF oracle's."""
    bad = []
    for field, n, seq in cases:
        ours, theirs = Echelon(n, field.characteristic), ScalarEchelon(field)
        for vec in seq:
            comb, expected = ours.add(field._concat(vec)), theirs.add(vec)
            if (comb is None) != (expected is None) or comb is not None and field._view(comb) != expected:
                bad.append((field, seq))
                break
        else:
            basis = [field._view(v) for v in ours.basis()]
            if basis != theirs.basis() or basis != row_space_basis(field, seq):
                bad.append((field, seq))
    return bad


def test_basis_is_the_oracle_rref():
    # the basis is the RREF oracle's and the `Fraction` elimination's, and so
    # is every `add` combination; ranks 0 to 7, numerators past 64 bits
    cases = _cases()
    assert not _disagreements(cases)
    ranks = {(field.characteristic, len(row_space_basis(field, seq))) for field, _, seq in cases}
    assert {r for p, r in ranks if p == 0} >= set(range(8))
    assert {r for p, r in ranks if p == 1031} >= set(range(8))
    assert any(abs(c.numerator) > 2**64 for field, _, seq in cases if field is QQ for v in seq for c in v)


def test_zero_residual_is_membership():
    # for a vector inside the span and one (almost always) outside it:
    # `contains` is a zero residual, and inside `add` gives the oracle's
    # coefficients
    rng = random.Random(40)
    counts = [0, 0]
    for field, n, seq in _cases():
        ours, theirs = Echelon(n, field.characteristic), ScalarEchelon(field)
        for vec in seq:
            ours.add(field._concat(vec))
            theirs.add(vec)
        basis = row_space_basis(field, seq)
        inside = _combination(field, rng, seq, n) if seq else [field.zero()] * n
        for vec in (inside, [_scalar(field, rng) for _ in range(n)]):
            residual, comb = theirs.reduce(vec)
            member = not any(residual)
            assert ours.contains(field._concat(vec)) == member == in_row_space(field, basis, vec)
            if member:  # `add` of a vector in the span is a lookup
                assert field._view(ours.add(field._concat(vec))) == comb
            counts[member] += 1
    assert min(counts) >= 40, counts


def test_insert_spans_what_add_spans():
    # `insert` keeps no combinations: the same verdicts, basis and membership
    for field, n, seq in _cases():
        grown, added = Echelon(n, field.characteristic), Echelon(n, field.characteristic)
        for vec in seq:
            v = field._concat(vec)
            assert grown.insert(v) == (added.add(v) is None)
        assert grown.basis() == added.basis()
        assert all(len(row) == n for _, row in grown.rows)
        assert all(grown.contains(field._concat(vec)) for vec in seq)


def test_reduced_vectors_are_primitive_and_rows_normalised():
    # each reduction step divides by the content over Q (reduces mod p over
    # F_p): a vector of content 6 that meets a pivot comes out with content 1
    # (in [0, p)); a row has a positive pivot entry over Q and 1 over F_p
    met = 0
    for field, n, seq in _cases():
        p = field.characteristic
        echelon = Echelon(n, p)
        for vec in seq:
            v = [6 * a for a in field._concat(vec)[:n]]
            reduced = echelon._eliminate(v, echelon.rows)
            if any(v[pivot] for pivot, _ in echelon.rows):
                assert all(0 <= a < p for a in reduced) if p else math.gcd(*reduced) in (0, 1)
                met += 1
            echelon.add(field._concat(vec))
        for pivot, row in echelon.rows:
            assert not any(row[:pivot]) and (row[pivot] == 1 if p else row[pivot] > 0 and math.gcd(*row) == 1)
    assert met >= 100, met


def test_a_basis_without_back_substitution_fails(monkeypatch):
    # rows by ascending pivot, as added: in echelon form, but not reduced
    monkeypatch.setattr(
        Echelon, "basis",
        lambda self: [kernel(row[: self.n], row[pivot], self.p) for pivot, row in sorted(self.rows, key=lambda r: r[0])],
    )
    assert _disagreements(_cases())


def test_matrix_times_vector_matches_the_scalar_product():
    # columns with denominators 1 to 7 (or residues), vectors likewise
    rng = random.Random(41)
    for field in FIELDS:
        for _ in range(30):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            cols = [[_scalar(field, rng) for _ in range(n)] for _ in range(m)]
            mat = matrix([field._concat(c) for c in cols], field.characteristic)
            rows = scalar_matrix(field, mat)
            assert rows == [list(r) for r in zip(*cols)]
            vec = [_scalar(field, rng) for _ in range(m)]
            got = mat_mul_vec(mat, field._concat(vec), field.characteristic)
            assert field._view(got) == scalar_mat_mul_vec(rows, vec, field.zero())


def test_fixes_is_a_fixed_vector():
    # square matrices with denominators (or residues): a permutation of the
    # coordinates, scaled by a unit c, fixes the vectors with v[perm[j]] = v[j]
    # when c = 1; `fixes` agrees with the full product on those and on others
    rng = random.Random(42)
    counts = [0, 0]
    for field in FIELDS:
        p = field.characteristic
        for _ in range(60):
            n = rng.randint(1, 6)
            perm = list(range(n))
            rng.shuffle(perm)
            c = rng.choice((field.one(), field.one(), _scalar(field, rng) or field.one()))
            cols = [[c if i == perm[j] else field.zero() for i in range(n)] for j in range(n)]
            mat = matrix([field._concat(col) for col in cols], p)
            value = [None] * n  # one scalar on each cycle of perm
            for j in range(n):
                x, k = _scalar(field, rng), j
                while value[k] is None:
                    value[k], k = x, perm[k]
            for vec in (value, [_scalar(field, rng) for _ in range(n)]):
                v = field._concat(vec)
                fixed = mat_mul_vec(mat, v, p) == v
                assert fixes(mat, v, p) == fixed
                counts[fixed] += 1
    assert min(counts) >= 20, counts
