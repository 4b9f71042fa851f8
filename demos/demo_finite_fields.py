"""The finite-field world end to end: GF(4) by hand, GF(p^12) lattices,
Frobenius, and primitive roots.

Finite fields are the friendly half of Galois theory: one field per prime
power, cyclic Galois groups generated by x -> x^p, and exactly one subfield
per divisor of the degree.
"""

from galoiskit import (
    Subgroup,
    automorphisms,
    find_irreducible,
    frobenius,
    frobenius_order,
    gf,
    is_primitive_root,
    multiplicative_generator,
    isomorphism_type,
    render,
    splitting_field_fp,
    subfields,
    unique_pth_root,
)
from galoiskit.galois import subgroup_table

F4 = gf(2, 2)
a = F4.generator()
print(f"GF(4) built from the canonical irreducible {render(F4.modulus)}")
print("elements:", ", ".join(F4.element_str(x) for x in F4.elements()))
print("alpha^2 =", F4.element_str(a * a), " (the defining relation)")
print("Frobenius x -> x^2 swaps alpha and 1 + alpha:",
      F4.element_str(frobenius(F4, a)))
print("every element has exactly one square root; sqrt(alpha) =",
      F4.element_str(unique_pth_root(F4, a)))

print()
for p in (2, 3):
    F = gf(p, 12)
    orders = [s.order for _, s in subfields(F)]
    print(f"GF({p}^12): one subfield per divisor of 12 -> orders {orders}")
print("GF(2^3) has no 4-element subfield:",
      [s.order for _, s in subfields(gf(2, 3))])

print()
F = gf(3, 4)
print(f"GF(3^4): Frobenius has order {frobenius_order(F)}; the Galois group")
# Gal(GF(3^4) : F_3) is the group of Frobenius powers on the roots of the
# defining polynomial; the subgroup frobenius^2 generates fixes GF(9)
sf = splitting_field_fp(F.modulus)
G = automorphisms(sf)
frob = [phi.root_perm for phi in G.elements].index(sf.frobenius)
H = Subgroup(tuple(sorted(G.generated_subgroup([G.table[frob][frob]]))))
print(f"over the order-9 subfield is {isomorphism_type(subgroup_table(G, H))} generated by frobenius^2")

print()
F8 = gf(2, 3)
gen = multiplicative_generator(F8)
print(f"GF(8)* is cyclic; generator {F8.element_str(gen)} has order 7:")
cur = F8.one()
powers = []
for _ in range(7):
    cur = cur * gen
    powers.append(F8.element_str(cur))
print("  powers:", ", ".join(powers))
print("3 is a primitive root mod 7:", is_primitive_root(3, 7))
print("2 is not (2^3 = 1 mod 7):  ", is_primitive_root(2, 7))
print()
print("irreducible of degree 100 over F_31 exists; the canonical degree-8")
print("one over F_2 is", render(find_irreducible(2, 8)))
