#!/usr/bin/env python3
"""Frobenius algebras and their closed-surface invariants.

An algebra with a counit whose derived pairing eps(e_i e_j) is
nondegenerate evaluates every closed surface to a scalar: eps(w^g) for
the handle element w.  The same number falls out of composing the
elementary cobordism generators layer by layer, in any valid
presentation, and in any basis.
"""

import random

from verlinde import (CobordismWord, canonical_genus_word, evaluate_word,
                      frobenius_from_fusion, genus_invariant,
                      invariance_suite, pairing_matrix, validate_frobenius)
from verlinde.fusion import fibonacci_ring
from verlinde.tqft import (handle_element, random_genus_word,
                           random_invertible, transport_basis)
from verlinde.corpus import corpus_path
from verlinde.formats import parse

# The group algebra of Z/2 with the delta counit.
z2 = parse("algebra", corpus_path("z2group.algebra").read_text(),
           source="z2group.algebra").payload
print("Z/2 group algebra validates:", validate_frobenius(z2).ok)
print("pairing:", pairing_matrix(z2).entries)
print("handle element:", handle_element(z2))
print("invariants for genus 0..4:",
      [genus_invariant(z2, g) for g in range(5)])

# The same numbers from cobordism words.
torus_word = canonical_genus_word(1)
print("\ntorus word layers:", torus_word.layers)
print("torus word value:", evaluate_word(z2, torus_word))
print("pairing-trace presentation [cup; cap]:",
      evaluate_word(z2, CobordismWord((("cup",), ("cap",)))))

# Invariance: a random rational basis change moves no invariant, and
# every presentation of a surface gives the same number.  The suite
# compares the canonical word, a few re-bracketed ones and 10 random
# connected words with the handle formula.
rng = random.Random(0)
moved = transport_basis(z2, random_invertible(z2.dim, rng))
print("\nafter a random basis change:",
      [genus_invariant(moved, g) for g in range(5)])
word = random_genus_word(2, rng)
print("a random genus-2 word:",
      "; ".join(" ".join(layer) for layer in word.layers),
      "=", evaluate_word(z2, word))
print("invariance suite:", invariance_suite(z2, trials=10, seed=0).render())

# Fusion rings give Frobenius algebras; the torus invariant is the rank.
fib = frobenius_from_fusion(fibonacci_ring())
print("\nFibonacci fusion algebra invariants:",
      [genus_invariant(fib, g) for g in range(5)])
