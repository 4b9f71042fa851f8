"""The product of a tower as it ran before integer numerators, kept as an
oracle for `Tower._mul`.

`fraction_product` recurses level by level on `Fraction` coordinate tuples:
it convolves the length-m slices of the operands with the lower level's
product and reduces by the monic minimal polynomial, whose coefficients are
lower coordinate tuples.  Q itself is the level with slices of length 1,
where the product is one `Fraction` product.  It uses only sums, differences
and products, so on int residues it computes a product over F_p up to a
final reduction mod p (`residue_product`).
"""

import itertools

from galoiskit.tower import Tower


def fraction_product(T, a, b):
    """a*b for the `Fraction` coordinate tuples a and b of the tower T over Q,
    as `T.sort_key` gives them (unreduced integers for residue tuples over
    F_p)."""
    lower, d = T.lower, T.level_degree
    m = T.absolute_degree() // d
    if isinstance(lower, Tower):
        mul = lambda x, y: fraction_product(lower, x, y)
        mod = [lower.sort_key(c) for c in T.minpoly.coeffs[:-1]]
    else:
        mul = lambda x, y: (x[0] * y[0],)
        mod = [(lower.sort_key(c),) for c in T.minpoly.coeffs[:-1]]
    zero = (0,) * m
    out = [zero] * (2 * d - 1)
    for i, j in itertools.product(range(d), repeat=2):
        xy = mul(a[i * m : i * m + m], b[j * m : j * m + m])
        out[i + j] = tuple([u + v for u, v in zip(out[i + j], xy)])
    for k in range(2 * d - 2, d - 1, -1):
        for j, mj in enumerate(mod):
            cm = mul(out[k], mj)
            out[k - d + j] = tuple([u - v for u, v in zip(out[k - d + j], cm)])
    return tuple(itertools.chain.from_iterable(out[:d]))


def residue_product(T, a, b):
    """a*b for the residue tuples a and b of the tower T over F_p."""
    return tuple([c % T.characteristic for c in fraction_product(T, a, b)])
