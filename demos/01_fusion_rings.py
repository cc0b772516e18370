#!/usr/bin/env python3
"""Fusion rings: axioms, products, duals, blocks, and enumeration.

A fusion ring is a based ring with nonnegative integer structure
constants, an involution on its labels, and a distinguished set of unit
components.  This walkthrough builds the classic small examples and
pokes at the structure the axioms impose.
"""

from verlinde import (block_decomposition, dual_vector,
                      enumerate_fusion_rings, inner_product, multiply,
                      verify_axioms, verify_frobenius_pairing)
from verlinde.fusion import (cyclic_ring, direct_product, fibonacci_ring,
                             trivial_ring)

# The Fibonacci ring: two labels 1 and tau, with tau * tau = 1 + tau.
fib = fibonacci_ring()
print("Fibonacci ring on labels", fib.names)
print("axioms:", verify_axioms(fib).render())

tau = fib.basis_vector(1)
print("tau * tau ->", multiply(fib, tau, tau), " (multiplicities of 1, tau)")

# The involution is trivial here; on Z/3 it is inversion.
z3 = cyclic_ring(3)
print("\nZ/3 group ring, dual permutation:", z3.dual)
print("dual of Q_1:", dual_vector(z3, z3.basis_vector(1)))

# The pairing <Q_a, Q_b> counts morphisms and is a permutation matrix.
print("pairing matrix of Z/3:")
for a in range(3):
    print("  ", [inner_product(z3, z3.basis_vector(a), z3.basis_vector(b))
                 for b in range(3)])
print("frobenius pairing check:", verify_frobenius_pairing(z3).render())

# A reducible unit makes the ring a direct product of blocks.
product = direct_product(fib, cyclic_ring(2))
print("\nFibonacci x Z/2 has unit components", product.unit)
print("blocks:", block_decomposition(product))
cross = multiply(product, product.basis_vector(1), product.basis_vector(3))
print("cross-block product tau * g ->", cross, "(vanishes)")

# Rank-2 enumeration recovers exactly Z/2 and Fibonacci.
print("\nall rank-2 rings with coefficients <= 1:")
for ring in enumerate_fusion_rings(2, 1):
    print("  tau*tau ->", multiply(ring, ring.basis_vector(1),
                                   ring.basis_vector(1)))

print("\nrank-1 sanity check:", enumerate_fusion_rings(1, 3)[0].table
      == trivial_ring().table)
