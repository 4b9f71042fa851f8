"""galoiskit: exact computational Galois theory.

Splitting fields and Galois groups of polynomials over Q and F_p, the Galois
correspondence with machine-checkable verification, solvability-by-radicals
and ruler-and-compass verdicts, and the structure theory of finite fields.
All arithmetic is exact; there is no floating point anywhere.
"""

from .numbers import (
    QQ,
    PrimeField,
    divisors,
    factor_integer,
    is_fermat_prime,
    is_prime,
)
from .poly import (
    NEG_INFINITY,
    Poly,
    content_primitive,
    discriminant,
    gcd_ext,
    poly_gcd,
    render,
    resultant,
    squarefree_part,
)
from .factor import (
    Factorization,
    IrreducibilityCertificate,
    cyclotomic_p,
    eisenstein,
    factor_ff,
    factor_fp,
    factor_over_extension,
    factor_q,
    is_irreducible_ff,
    is_irreducible_q,
    mod_p_certificate,
    rational_roots,
    roots_fp,
)
from .tower import Tower, TowerElem, adjoin_root
from .splitting import (
    SplittingField,
    splitting_field_fp,
    splitting_field_q,
    verify_splits,
)
from .galois import (
    Automorphism,
    FiniteGroup,
    GaloisGroup,
    Subgroup,
    automorphisms,
    apply_automorphism,
    derived_series,
    from_permutations,
    is_normal_subgroup,
    is_solvable,
    is_transitive,
    isomorphism_type,
    orbits,
    quotient_group,
    subgroups,
)
from .correspondence import (
    Subfield,
    fixed_field,
    gal_over,
    is_normal_intermediate,
    quotient_check,
    subfield_generated_by,
    verify_correspondence,
)
from .finitefield import (
    GF,
    find_irreducible,
    frobenius,
    frobenius_order,
    gf,
    is_primitive_root,
    multiplicative_generator,
    subfields,
    unique_pth_root,
)
from .apps import (
    ConstructibilityVerdict,
    SolvabilityVerdict,
    classic_problems,
    constructible_degree_check,
    count_real_roots,
    kummer_abelian_checks,
    ngon_constructible,
    quintic_a5_certificate,
    solvable_by_radicals,
    sp_criterion,
    sturm_chain,
)
from .cli import parse_poly

__version__ = "0.1.0"
