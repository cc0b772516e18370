#!/usr/bin/env python3
"""Presented categories, additive and idempotent completion, separability.

A presented category stores a rational basis per hom space and a
structure-constant table for composition.  The additive completion makes
objects into sequences and morphisms into matrices; the Karoubi
completion splits idempotents into objects (p, e) with morphism triples
(e', f, e).  At the one-object level this recovers algebras, the
trace-form semisimplicity test, and separability idempotents.
"""

from fractions import Fraction

from verlinde.categories import (field_category, indecomposable_objects,
                                 iso_classes, karoubi_completion,
                                 karoubi_object_name, mat_completion,
                                 matrix_algebra_category, validate_category)
from verlinde.tqft import (cyclic_table, dual_numbers_algebra, group_algebra,
                           group_separability_idempotent,
                           trace_form_semisimple,
                           verify_separability_idempotent)

# The ground field as a one-object category, additively completed.
k = field_category()
mat = mat_completion(k, bound=2)
print("Mat completion of k up to length 2:")
print("  objects:", mat.objects)
print("  End([x,x]) has dimension", mat.hom_dim("[x,x]", "[x,x]"),
      "(the 2x2 matrix algebra)")
print("  category axioms:", validate_category(mat).render())

# Karoubi completion of the 2x2 matrix algebra: the rank-one projector
# diag(1, 0) becomes an object with one-dimensional endomorphisms.
mat2 = matrix_algebra_category(2)
kar = karoubi_completion(mat2)
split = karoubi_object_name("x", (1, 0, 0, 0))
print("\nKaroubi completion of Mat_2(k):", len(kar.objects), "objects")
print("  End of the split object", split, "has dimension",
      kar.hom_dim(split, split))
classes = iso_classes(kar, indecomposable_objects(kar))
print("  indecomposables fall into", len(classes), "isomorphism class(es)")

# The triple law in action: embed diag(1,0) as a retract of the identity.
ident = ("x", tuple(mat2.identity_coeffs("x").get(b, Fraction(0))
                    for b in mat2.hom("x", "x")))
proj = ("x", (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
e = mat2.morphism("x", "x", dict(zip(mat2.hom("x", "x"), proj[1])))
onto = kar.embed(ident, proj, e)
into = kar.embed(proj, ident, e)
print("  retraction composes to the identity of the splitting:",
      kar.compose(onto, into) == kar.identity(kar.object_of(proj)))

# Semisimplicity by the trace form, separability by explicit idempotents.
z3 = group_algebra(cyclic_table(3))
flag, gram = trace_form_semisimple(z3)
print("\nQ[Z/3] trace form rank:", gram.rank(), "-> semisimple:", flag)
flag, gram = trace_form_semisimple(dual_numbers_algebra())
print("Q[x]/(x^2) trace form rank:", gram.rank(), "-> semisimple:", flag)

table = cyclic_table(2)
report = verify_separability_idempotent(
    group_algebra(table), group_separability_idempotent(table))
print("\nseparability idempotent for Q[Z/2]:", report.render())
