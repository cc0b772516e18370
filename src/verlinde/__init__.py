"""Exact computation with fusion rings, surface dimensions, and 2d TQFTs.

The package decategorifies the structure a 1+1 dimensional cobordism
action puts on a linear category: fusion rings with involution
(`fusion`), dimension counts for coloured surfaces via gluing
(`surfaces`), Frobenius-algebra surface invariants and cobordism-word
evaluation (`tqft`), and presented linear categories with additive and
idempotent completion (`categories`).  All arithmetic is exact rational
(`exact`); every identity is tested with equality, never tolerance.
"""

from .exact import (DimensionMismatchError, Matrix, Rational,
                    SingularMatrixError, rat)
from .report import Report, SearchTooLargeError
from .fusion import (BlockStructureError, FusionRing, block_decomposition,
                     cyclic_ring, direct_product, dual_vector,
                     enumerate_fusion_rings, fibonacci_ring, inner_product,
                     multiply, product_vector, restrict_to_labels,
                     trivial_ring, verify_axioms, verify_frobenius_pairing)
from .surfaces import (ColouredSurface, ModularReport, Twist, TwistData,
                       TwistFormatError, check_nontriviality, dim_V,
                       dim_V_disjoint, handle_vector, modular_report,
                       render_report_machine, render_report_text,
                       validate_twists, verify_gluing_consistency)
from .tqft import (CobordismWord, DegeneratePairingError, FrobeniusAlgebra,
                   WordTensor, WordTypeError, canonical_genus_word,
                   evaluate_word, frobenius_from_fusion, genus_invariant,
                   invariance_suite, pairing_matrix, validate_frobenius)
from .categories import (Algebra, CategoryFormatError, Morphism,
                         PresentedCategory, karoubi_completion,
                         karoubi_idempotents, mat_completion, tensor_product,
                         trace_form_semisimple, validate_category,
                         verify_separability_idempotent)
from .formats import Document, ParseError, SemanticError, parse, serialize
from .corpus import corpus_dir, corpus_path, list_corpus

__version__ = "0.1.0"
