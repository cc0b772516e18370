#!/usr/bin/env python3
"""Regenerate the shipped corpus files in canonical serialized form.

Run from the repository root:  python3 tools/make_corpus.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from verlinde import categories, formats, fusion, surfaces, tqft

OUT = Path(__file__).resolve().parents[1] / "src" / "verlinde" / "corpus"


def s3_representation_ring() -> fusion.FusionRing:
    """Irreducible representations of S3: trivial, sign, standard."""
    return fusion.FusionRing(
        dual=(0, 1, 2), unit=(0,),
        table=[[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
               [[0, 0, 1], [0, 0, 1], [1, 1, 1]]],
        names=("triv", "sign", "std"))


def named_rings() -> dict[str, fusion.FusionRing]:
    fib = fusion.fibonacci_ring()
    z2 = fusion.cyclic_ring(2)
    return {
        "trivial": fusion.trivial_ring(),
        "z2": z2,
        "z3": fusion.cyclic_ring(3),
        "fib": fib,
        "s3rep": s3_representation_ring(),
        "fib_x_z2": fusion.direct_product(
            fib, z2, names=("fib:1", "fib:tau", "z2:1", "z2:g")),
    }


def named_algebras() -> dict[str, tqft.FrobeniusAlgebra]:
    def frob(alg: tqft.Algebra, counit) -> tqft.FrobeniusAlgebra:
        return tqft.FrobeniusAlgebra(
            names=alg.names, mult=alg.mult, unit=alg.unit,
            counit=tuple(Fraction(c) for c in counit))

    z2 = tqft.group_algebra(tqft.cyclic_table(2), names=("1", "g"))
    z3 = tqft.group_algebra(tqft.cyclic_table(3), names=("1", "g", "gg"))
    mat2 = tqft.matrix_algebra(2)
    return {
        "ground": frob(tqft.field_algebra(), (1,)),
        "ksquared": frob(tqft.product_field_algebra(2), (1, 1)),
        "dual_numbers": frob(tqft.dual_numbers_algebra(), (0, 1)),
        "z2group": frob(z2, (1, 0)),
        "z3group": frob(z3, (1, 0, 0)),
        "mat2": frob(mat2, (1, 0, 0, 1)),
        "fib": tqft.frobenius_from_fusion(fusion.fibonacci_ring()),
    }


def named_categories() -> dict[str, categories.PresentedCategory]:
    return {
        "onepoint": categories.field_category(),
        "mat2": categories.matrix_algebra_category(2),
    }


def fib_surfaces() -> dict[str, surfaces.ColouredSurface]:
    S = surfaces.ColouredSurface
    return {
        "sphere": S(0),
        "torus": S(1),
        "genus2": S(2),
        "genus3": S(3),
        "disk_unit": S(0, (0,)),
        "disk_tau": S(0, (1,)),
        "cylinder_tau": S(0, (1, 1)),
        "pants_tau": S(0, (1, 1, 1)),
    }


def words() -> dict[str, tqft.CobordismWord]:
    W = tqft.CobordismWord
    return {
        "sphere": W((("unit",), ("counit",))),
        "torus": tqft.canonical_genus_word(1),
        "torus_swapped": W(
            (("unit",), ("comult",), ("swap",), ("mult",), ("counit",))),
        "torus_cupcap": W((("cup",), ("cap",))),
        "genus2": tqft.canonical_genus_word(2),
    }


def idempotents() -> dict[str, object]:
    return {
        "z2group": tqft.group_separability_idempotent(tqft.cyclic_table(2)),
        "mat2": tqft.matrix_separability_idempotent(2),
        "ksquared": tqft.product_field_separability_idempotent(2),
    }


def documents() -> dict[str, str]:
    """Every corpus file name with its canonical serialized text."""
    docs = {}
    for name, ring in named_rings().items():
        docs[f"{name}.fusion"] = formats.serialize("fusion", ring)
    for name, algebra in named_algebras().items():
        docs[f"{name}.algebra"] = formats.serialize("algebra", algebra)
    for name, cat in named_categories().items():
        docs[f"{name}.category"] = formats.serialize("category", cat)
    docs["fib.surfaces"] = formats.serialize("surface-list", fib_surfaces())
    docs["fib.twist"] = formats.serialize(
        "twist", {0: surfaces.Twist.one(),
                  1: surfaces.Twist.root_of_unity(5, 2)})
    for name, word in words().items():
        docs[f"{name}.word"] = formats.serialize("word", word)
    for name, e in idempotents().items():
        docs[f"{name}.idem"] = formats.serialize("idempotent", e)
    return docs


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in documents().items():
        path = OUT / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(OUT.parents[2])}")


if __name__ == "__main__":
    main()
