"""The three workloads: one round of questions each, rebuilt per round.

A question is the sequence of public `verlinde` calls that the matching
subcommand makes, starting from a text document parsed by
`formats.parse`.  `ask` makes the calls (timed); `check` compares the
answer with the oracles (not timed) and returns None when it is right,
else a description of what is wrong.  Library functions are looked up
on their modules at call time, so the tracer's wrappers see every call.

Every round of a workload asks the same operations on the same sizes;
only the seeded details (relabellings, surfaces, seeds of randomised
checks, matrix entries, names, question order) change from round to
round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import gen
import oracle

GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))


@dataclass
class Question:
    kind: str
    key: tuple
    ask: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    known_fault: bool = False


def _expect(cond: bool, message: str) -> "str | None":
    return None if cond else message


# ---------------------------------------------------------------------------
# rings: fusion and surfaces


class Rings:
    """Axioms, reports, dimension sweeps, high genus and enumeration.

    Every ring is relabelled by a fresh random permutation, and every
    (ring, genus, boundary) is drawn anew, so apart from the enumeration
    arguments, the toy-ring questions and rare relabelling collisions no
    question repeats within a run: a memo table has nothing to reuse.
    """

    VALIDATE_CYCLIC = (7, 10, 13)
    VALIDATE_FIB_CYCLIC = (4, 6)
    SWEEP_SHAPES = ((0, 4), (1, 3), (2, 2), (3, 1))
    REPORT_SHAPES = ((0, 3), (1, 2), (2, 2), (3, 1), (3, 0))
    ENUMERATE = ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
    TRIALS = 5

    def __init__(self, lib, root):
        self.lib = lib
        self.corpus = {}
        for name, blocks in gen.CORPUS_RINGS.items():
            ring = gen.parse_ring(gen.corpus_text(root, name), blocks)
            oracle.check_blocks(ring)
            self.corpus[name] = ring
        self.enumerated = {}

    # -- question builders -------------------------------------------------

    def validate(self, ring: gen.Ring, broken: bool = False) -> Question:
        text, L = ring.text(), self.lib

        def ask():
            r = L.formats.parse("fusion", text).payload
            axioms = L.fusion.verify_axioms(r)
            pairing = L.fusion.verify_frobenius_pairing(r)
            return axioms.ok, len(axioms.entries), pairing.ok

        def check(ans):
            if broken:
                return _expect(not ans[0] and ans[1] > 0,
                               "perturbed ring passed verify_axioms")
            return _expect(ans == (True, 0, True),
                           f"valid ring rejected {ans}")
        return Question("validate-broken" if broken else "validate",
                        ("validate", text), ask, check)

    def dim_verify(self, ring, genus, boundary, seed) -> Question:
        text, L = ring.text(), self.lib

        def ask():
            r = L.formats.parse("fusion", text).payload
            if not L.fusion.verify_axioms(r).ok:
                return None
            surface = L.surfaces.ColouredSurface(genus, boundary)
            value = L.surfaces.dim_V(r, surface)
            glue = L.surfaces.verify_gluing_consistency(
                r, surface, trials=self.TRIALS, seed=seed)
            return value, glue.ok

        def check(ans):
            want = oracle.dim(ring, genus, boundary)
            return _expect(ans == (want, True),
                           f"dim V(g={genus}; {boundary}) = {ans}, "
                           f"oracle {want}")
        return Question("dim-verify", ("dim", text, genus, boundary), ask,
                        check)

    def dim_high(self, ring, genus, boundary) -> Question:
        text, L = ring.text(), self.lib

        def ask():
            r = L.formats.parse("fusion", text).payload
            if not L.fusion.verify_axioms(r).ok:
                return None
            return L.surfaces.dim_V(r, L.surfaces.ColouredSurface(genus,
                                                                  boundary))

        def check(ans):
            want = oracle.dim(ring, genus, boundary)
            return _expect(ans == want, f"dim V(g={genus}; {boundary}) = "
                           f"{ans}, oracle {want}")
        return Question("dim-high-genus", ("dim", text, genus, boundary), ask,
                        check)

    def report(self, ring, table) -> Question:
        text, L = ring.text(), self.lib
        table = dict(table)
        for g in range(3):
            table[f"closed_g{g}"] = (g, ())
        surfaces_text = "".join(
            f"surface {name}: genus {g} boundary"
            + "".join(f" {c}" for c in b) + "\n"
            for name, (g, b) in sorted(table.items()))

        def ask():
            r = L.formats.parse("fusion", text).payload
            surfs = L.formats.parse("surface-list", surfaces_text).payload
            return L.surfaces.modular_report(r, surfaces=surfs)

        def check(rep):
            blocks = [ring.block_of(u) for u in ring.unit]
            if not rep.axiom_report.ok:
                return "valid ring failed the report's axiom check"
            got = [(set(b.labels), b.torus_dim, b.nontrivial)
                   for b in rep.blocks]
            want = [(set(b.labels), oracle.block_dim(ring, b, 1, ()), True)
                    for b in blocks]
            if got != want or rep.functor_count != len(blocks):
                return f"block table {got} != {want}"
            if rep.torus_dim != oracle.dim(ring, 1, ()):
                return f"torus dim {rep.torus_dim}"
            for e in rep.surfaces:
                g, b = table[e.name]
                per = [oracle.block_dim(ring, blk, g, b)
                       if all(c in blk.labels for c in b) else 0
                       for blk in blocks]
                if (e.total, list(e.per_block)) != (sum(per), per):
                    return (f"surface {e.name}: {e.total} {e.per_block}, "
                            f"oracle {per}")
            return _expect(len(rep.surfaces) == len(table),
                           "report lost surfaces")
        return Question("report", ("report", text, surfaces_text), ask, check)

    def enumerate(self, rank, max_coeff) -> Question:
        L = self.lib

        def ask():
            rings = L.fusion.enumerate_fusion_rings(rank, max_coeff)
            return [L.formats.serialize("fusion", r) for r in rings]

        def check(texts):
            forms = []
            for t in texts:
                r = gen.parse_ring(t, ())
                if not oracle.axioms_hold(r.rank, r.dual, r.unit, r.N):
                    return f"enumerated ring fails the axioms:\n{t}"
                forms.append(oracle.canonical_form(r.rank, r.dual, r.N))
            key = (rank, max_coeff)
            if key not in self.enumerated:
                self.enumerated[key] = oracle.enumerate_rings(rank, max_coeff)
            want = self.enumerated[key]
            distinct = len(set(forms)) == len(forms)
            return _expect(distinct and set(forms) == want,
                           f"enumerate({rank}, {max_coeff}) gave {len(forms)}"
                           f" rings, oracle {len(want)}")
        return Question("enumerate", ("enumerate", rank, max_coeff), ask,
                        check)

    def toy_gluing(self, seed) -> Question:
        """Negative control: the gluing check must catch the toy ring."""
        text, L = gen.toy_ring().text(), self.lib

        def ask():
            r = L.formats.parse("fusion", text).payload
            return len(L.surfaces.verify_gluing_consistency(
                r, L.surfaces.ColouredSurface(0, (1, 2, 1)),
                trials=self.TRIALS, seed=seed).entries)

        return Question("gluing-broken", ("toy-gluing", seed), ask,
                        lambda n: _expect(n > 0, "toy ring passed gluing"))

    def toy_dim(self) -> Question:
        """Known fault: dim_V memoises on the sorted boundary multiset.

        Folded in order, (1, 2, 1) on the toy ring gives 1; dim_V answers
        0.  Passes once dim_V returns 1 or raises a `verlinde` error.
        """
        toy, L = gen.toy_ring(), self.lib
        text = toy.text()

        def ask():
            r = L.formats.parse("fusion", text).payload
            try:
                return L.surfaces.dim_V(r, L.surfaces.ColouredSurface(
                    0, (1, 2, 1)))
            except Exception as err:
                if type(err).__module__.split(".")[0] == "verlinde":
                    return type(err).__name__
                raise

        want = oracle.convolution_dim(toy, 0, (1, 2, 1))
        return Question(
            "dim-toy", ("toy-dim",), ask,
            lambda ans: _expect(ans == want or isinstance(ans, str),
                                f"dim_V on toy ring (1,2,1) = {ans}, "
                                f"in-order evaluation gives {want}"),
            known_fault=True)

    # -- one round ---------------------------------------------------------

    def round(self, rng: random.Random, seen) -> list[Question]:
        """One round; `seen` holds the keys of the run's earlier questions."""
        C = self.corpus
        fib = gen.fibonacci()

        taken = set(seen)

        def fresh(make):
            """Redraw until the question is new to the run (bounded)."""
            for _ in range(50):
                q = make()
                if q.key not in taken:
                    break
            taken.add(q.key)
            return q

        qs = []
        for n in self.VALIDATE_CYCLIC:
            qs.append(fresh(lambda: self.validate(
                gen.cyclic(n).shuffled(rng))))
        for n in self.VALIDATE_FIB_CYCLIC:
            qs.append(fresh(lambda: self.validate(
                gen.direct_sum(fib, gen.cyclic(n)).shuffled(rng))))
        for pair in (("s3rep", "fib_x_z2"), ("z3", "fib")):
            qs.append(fresh(lambda: self.validate(gen.direct_sum(
                *(C[f"{name}.fusion"] for name in pair)).shuffled(rng))))
        qs.append(self.validate(gen.perturbed(gen.cyclic(6).shuffled(rng),
                                              rng), broken=True))

        for parts in ((fib, gen.cyclic(3)), (C["s3rep.fusion"], gen.cyclic(4)),
                      (C["fib_x_z2.fusion"], gen.cyclic(3))):
            def make_report():
                ring = gen.direct_sum(*parts).shuffled(rng)
                table = {f"s{k}": (g, self._colours(ring, rng, m))
                         for k, (g, m) in enumerate(self.REPORT_SHAPES)}
                return self.report(ring, table)
            qs.append(fresh(make_report))

        # Rings of rank >= 4 get the same four (genus, colours) shapes every
        # round, so rounds cost the same; on the smallest rings, where cost
        # hardly depends on the shape, each redraw picks a new one.
        for ring in (C["z2.fusion"], C["z3.fusion"], C["fib.fusion"],
                     C["s3rep.fusion"], C["fib_x_z2.fusion"], gen.cyclic(4),
                     gen.cyclic(5), gen.direct_sum(fib, gen.cyclic(2)),
                     gen.direct_sum(gen.cyclic(2), gen.cyclic(3))):
            for shape in self.SWEEP_SHAPES:
                def make_sweep():
                    genus, count = shape if ring.rank >= 4 else (
                        rng.randint(0, 3), rng.randint(0, 4))
                    if ring.rank > 4:
                        genus = min(genus, 2)
                    r = ring.shuffled(rng)
                    return self.dim_verify(r, genus,
                                           self._colours(r, rng, count),
                                           rng.randrange(1 << 30))
                qs.append(fresh(make_sweep))

        for ring in (fib, C["fib_x_z2.fusion"], gen.cyclic(5),
                     gen.direct_sum(fib, gen.cyclic(3))):
            def make_high():
                r = ring.shuffled(rng)
                return self.dim_high(r, 2000 + rng.randrange(100),
                                     self._colours(r, rng, 2))
            qs.append(fresh(make_high))

        qs += [self.enumerate(*rc) for rc in self.ENUMERATE]
        qs.append(self.toy_gluing(rng.randrange(1 << 30)))
        qs.append(self.toy_dim())
        rng.shuffle(qs)
        return qs

    @staticmethod
    def _colours(ring, rng, count):
        """`count` colours from one block, so most dimensions are nonzero."""
        pool = rng.choice(ring.blocks).labels
        return tuple(rng.choice(pool) for _ in range(count))


# ---------------------------------------------------------------------------
# frobenius: tqft and exact


class Frobenius:
    """Frobenius validation, invariants, cobordism words and dense matrices.

    The algebras are the same every round, and every invariance suite
    recomputes the algebra's reference invariants: those repeats are
    what a cache in `tqft` would serve.
    """

    SUITE_TRIALS = 5
    # The long loop of invariance suites runs on the four two-dimensional
    # algebras.  Those questions all cost about the same and make up
    # nearly half of a round, so the median question lies among them and
    # op_p50_ms does not jump between unlike neighbours.
    LONG_LOOP = 16
    MATRIX_DIMS = (10, 20, 30, 40)

    def __init__(self, lib, root):
        self.lib = lib
        self.corpus = {}
        for name, make in gen.CORPUS_ALGEBRAS.items():
            text = gen.corpus_text(root, name)
            alg = make()
            if not gen.same_structure(gen.parse_algebra(text), alg):
                raise ValueError(f"corpus {name} is not the stock algebra")
            self.corpus[name] = (text, alg)

    def _algebra_calls(self, text, fusion):
        L = self.lib
        if fusion:
            ring = L.formats.parse("fusion", text).payload
            return L.tqft.frobenius_from_fusion(ring)
        return L.formats.parse("algebra", text).payload

    def validate(self, text, alg, seed, fusion=False) -> Question:
        L = self.lib

        def ask():
            a = self._algebra_calls(text, fusion)
            report = L.tqft.validate_frobenius(a)
            suite = L.tqft.invariance_suite(a, trials=self.SUITE_TRIALS,
                                            seed=seed, max_genus=2)
            return report.ok, suite.ok

        return Question("validate-algebra", ("validate", text, seed), ask,
                        lambda ans: _expect(ans == (True, True),
                                            f"valid algebra rejected {ans}"))

    def invariants(self, text, alg, fusion=False) -> Question:
        L = self.lib

        def ask():
            a = self._algebra_calls(text, fusion)
            if not L.tqft.validate_frobenius(a).ok:
                return None
            return [L.tqft.genus_invariant(a, g) for g in range(4)]

        def check(ans):
            want = [oracle.genus_invariant(alg, g) for g in range(4)]
            return _expect(ans == want, f"invariants {ans}, oracle {want}")
        return Question("invariant", ("invariant", text), ask, check)

    def word(self, text, alg, layers, genus, fusion=False) -> Question:
        L = self.lib
        word_text = gen.word_text(layers)

        def ask():
            a = self._algebra_calls(text, fusion)
            if not L.tqft.validate_frobenius(a).ok:
                return None
            w = L.formats.parse("word", word_text).payload
            return L.tqft.evaluate_word(a, w)

        def check(ans):
            want = oracle.genus_invariant(alg, genus)
            return _expect(ans == want, f"word of genus {genus} = {ans}, "
                           f"oracle {want}")
        return Question("evalword", ("word", text, word_text), ask, check)

    def degenerate(self, rng) -> Question:
        """Negative control: a counit that kills one idempotent."""
        lambdas = [Fraction(rng.randint(1, 4)) for _ in range(3)]
        lambdas[rng.randrange(3)] = Fraction(0)
        text, L = gen.product_alg(lambdas).text(), self.lib

        def ask():
            a = L.formats.parse("algebra", text).payload
            return len(L.tqft.validate_frobenius(a).entries)

        return Question("validate-broken", ("degenerate", text), ask,
                        lambda n: _expect(n > 0, "degenerate counit passed"))

    def matrices(self, d, rng) -> Question:
        """Inverse and product of an invertible M; ranks of N and N^T N.

        M = L U with unit-triangular L, U; N = L diag(1^r, 0) U has rank
        r = 3d/4, and so has its Gram matrix.
        """
        rows = gen.invertible(d, rng)
        r = 3 * d // 4
        text, L = gen.matrix_text(rows), self.lib
        low_rank = gen.matrix_text(gen.of_rank(d, r, rng))

        def ask():
            m = L.formats.parse("idempotent", text).payload
            inv = m.inverse()
            n = L.formats.parse("idempotent", low_rank).payload
            return inv, m @ inv, n.rank(), (n.transpose() @ n).rank()

        def check(ans):
            inv, prod, rank_n, rank_gram = ans
            if (rank_n, rank_gram) != (r, r):
                return f"ranks {rank_n}, {rank_gram}; built with {r}"
            return _expect(
                oracle.is_identity(prod.entries)
                and oracle.is_identity(gen.matmul(rows, inv.entries)),
                f"{d}x{d} inverse is wrong")
        return Question("matrices", ("matrices", text, low_rank), ask, check)

    def round(self, rng: random.Random, seen) -> list[Question]:
        algebras = [(text, alg, False) for text, alg in self.corpus.values()]
        lam = [Fraction(rng.randint(1, 6), rng.randint(1, 3))
               for _ in range(7)]
        for alg in (gen.matrix_alg(3), gen.cyclic_group(4),
                    gen.cyclic_group(6), gen.s3_group(),
                    gen.product_alg(lam[:3]), gen.product_alg(lam[3:])):
            algebras.append((alg.text(), alg, False))
        for ring in (gen.cyclic(5).shuffled(rng),
                     gen.direct_sum(gen.fibonacci(), gen.cyclic(3))
                     .shuffled(rng)):
            algebras.append((ring.text(), gen.fusion_alg(ring), True))

        qs = []
        for i, (text, alg, fusion) in enumerate(algebras):
            suites = (self.LONG_LOOP if alg.dim == 2 else
                      1 if alg.dim >= 9 else 2)
            for _ in range(suites):
                qs.append(self.validate(text, alg, rng.randrange(1 << 30),
                                        fusion))
            qs.append(self.invariants(text, alg, fusion))
            genus = 2 + i % 5
            qs.append(self.word(text, alg, gen.canonical_word(genus), genus,
                                fusion))
            if i % 4 == 1:
                for layers in gen.alternate_words(1 + i % 3):
                    qs.append(self.word(text, alg, layers, 1 + i % 3, fusion))
        for text, alg, fusion in algebras:
            if alg.closed[0] in ("matrix", "group") and alg.dim >= 4:
                for k in (3, 4, 5):
                    if alg.dim ** (k - 1) <= 729:
                        qs.append(self.word(text, alg, gen.wide_word(k),
                                            k - 1, fusion))
        qs += [self.matrices(d, rng) for d in self.MATRIX_DIMS]
        qs.append(self.degenerate(rng))
        rng.shuffle(qs)
        return qs


# ---------------------------------------------------------------------------
# completions: categories and formats


class Completions:
    """Mat and Karoubi completions, tensor products, separability.

    A completion question validates the base, builds the completion,
    validates the result, serializes it and parses it back, so the
    builders and the validator of `categories` are timed together.
    """

    MAT_BOUNDS = {"field": (1, 2, 3, 4), "k2": (1, 2), "k3": (1, 2),
                  "k4": (1,), "z2": (1, 2), "z3": (1, 2), "z4": (1,),
                  "m2": (1, 2)}
    KAROUBI = ("field", "k2", "k3", "z2", "z3", "z4", "m2")
    TENSOR = ("field", "k2", "k3", "z2", "z3", "z4", "m2")
    SEPARABLE = ("m2", "m3", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "s3",
                 "k2", "k3", "k4", "k5", "k6", "k7", "k8")

    def __init__(self, lib, root):
        self.lib = lib
        self.corpus = {}
        for key, name, make in (("field", "onepoint.category",
                                 lambda: gen.product_alg((1,))),
                                ("m2", "mat2.category",
                                 lambda: gen.matrix_alg(2))):
            text = gen.corpus_text(root, name)
            alg = make()
            if not gen.same_structure(gen.parse_category_algebra(text)[1],
                                      alg):
                raise ValueError(f"corpus {name} is not the stock algebra")
            self.corpus[key] = (text, alg)

    @staticmethod
    def stock(key):
        if key[0] == "k":
            return gen.product_alg((1,) * int(key[1:]))
        if key[0] == "z":
            return gen.cyclic_group(int(key[1:]))
        if key[0] == "m":
            return gen.matrix_alg(int(key[1:]))
        return gen.s3_group()

    def bases(self, rng):
        """Category text and algebra per base; generated ones get new names."""
        out = dict(self.corpus)
        for key in ("k2", "k3", "k4", "z2", "z3", "z4"):
            alg = self.stock(key)
            out[key] = (alg.category_text(rng.choice("xyzpq"),
                                          rng.choice("abcd")), alg)
        return out

    def complete(self, key, text, alg, mode, bound=0) -> Question:
        L = self.lib

        def ask():
            cat = L.formats.parse("category", text).payload
            base_ok = L.categories.validate_category(cat).ok
            if mode == "mat":
                done = L.categories.mat_completion(cat, bound)
            else:
                done = L.categories.karoubi_completion(cat, grid=GRID)
            ok = L.categories.validate_category(done).ok
            back = L.formats.parse(
                "category", L.formats.serialize("category", done)).payload
            return base_ok, ok, done, back

        def check(ans):
            base_ok, ok, done, back = ans
            if not (base_ok and ok):
                return f"validation failed: base {base_ok}, completed {ok}"
            if back != done:
                return "parse(serialize(C)) differs from C"
            if mode == "mat":
                return self._check_mat(done, alg, bound)
            return self._check_karoubi(key, done, alg)
        return Question(f"complete-{mode}", ("complete", key, mode, bound),
                        ask, check)

    @staticmethod
    def _check_mat(done, alg, bound):
        if len(done.objects) != bound + 1:
            return f"{len(done.objects)} objects for bound {bound}"
        for p in done.objects:
            for q in done.objects:
                want = p.count(",") + (p != "[]")
                want *= (q.count(",") + (q != "[]")) * alg.dim
                if done.hom_dim(p, q) != want:
                    return f"dim Hom({p},{q}) = {done.hom_dim(p, q)}, {want}"
        return None

    @staticmethod
    def _check_karoubi(key, done, alg):
        want = oracle.grid_idempotents(alg, GRID)
        got = {tuple(c) for _, c in done.pairs}
        if got != want or len(done.pairs) != len(want):
            return f"{len(done.pairs)} Karoubi objects, oracle {len(want)}"
        for pair_e in done.pairs:
            for pair_f in done.pairs:
                e, f = pair_e[1], pair_f[1]
                if key == "m2":
                    dim = (oracle.matrix_rank_2x2(e)
                           * oracle.matrix_rank_2x2(f))
                else:
                    dim = oracle.corner_dim(alg, e, f)
                src, dst = done.object_of(pair_e), done.object_of(pair_f)
                if done.hom_dim(src, dst) != dim:
                    return f"dim Hom({src},{dst}) = {done.hom_dim(src, dst)}"
        return None

    def tensor(self, a, b) -> Question:
        (ta, aa), (tb, ab) = a, b
        L = self.lib

        def ask():
            ca = L.formats.parse("category", ta).payload
            cb = L.formats.parse("category", tb).payload
            t = L.categories.tensor_product(ca, cb)
            return t, L.categories.validate_category(t).ok

        def check(ans):
            t, ok = ans
            (obj,) = t.objects
            return _expect(ok and t.hom_dim(obj, obj) == aa.dim * ab.dim,
                           f"tensor product: valid {ok}, "
                           f"dim {t.hom_dim(obj, obj)}")
        return Question("tensor", ("tensor", ta, tb), ask, check)

    def separable(self, alg, normalised=True) -> Question:
        text = alg.text()
        idem = gen.matrix_text(gen.separability_element(alg, normalised))
        L = self.lib

        def ask():
            frob = L.formats.parse("algebra", text).payload
            a = L.categories.Algebra(names=frob.names, mult=frob.mult,
                                     unit=frob.unit)
            e = L.formats.parse("idempotent", idem).payload
            report = L.categories.verify_separability_idempotent(a, e)
            semisimple, gram = L.categories.trace_form_semisimple(a)
            return len(report.entries), semisimple, gram.rank()

        if not normalised:
            return Question("separable-broken", ("separable", text, idem),
                            ask, lambda ans: _expect(
                                ans[0] > 0, "M_2 element without 1/n passed"))

        def check(ans):
            # group algebras, k^m and M_k are semisimple over Q: the trace
            # form has full rank
            return _expect(ans == (0, True, alg.dim),
                           f"separability {ans}, expected (0, True, "
                           f"{alg.dim})")
        return Question("check-separable", ("separable", text, idem), ask,
                        check)

    def broken_category(self, rng) -> Question:
        """Negative control: M_2 with one structure constant doubled."""
        alg = gen.matrix_alg(2)
        mult = dict(alg.mult)
        k = rng.choice(sorted(mult))
        mult[k] = Fraction(2)
        text = gen.Alg(alg.names, mult, alg.unit, alg.counit).category_text()
        L = self.lib

        def ask():
            cat = L.formats.parse("category", text).payload
            return len(L.categories.validate_category(cat).entries)

        return Question("validate-broken", ("broken", text), ask,
                        lambda n: _expect(n > 0, "perturbed M_2 passed"))

    def round(self, rng: random.Random, seen) -> list[Question]:
        bases = self.bases(rng)
        qs = []
        for key, bounds in self.MAT_BOUNDS.items():
            text, alg = bases[key]
            qs += [self.complete(key, text, alg, "mat", b) for b in bounds]
        for key in self.KAROUBI:
            text, alg = bases[key]
            qs.append(self.complete(key, text, alg, "karoubi"))
        for i, a in enumerate(self.TENSOR):
            for b in self.TENSOR[i:]:
                qs.append(self.tensor(bases[a], bases[b]))
        for key in self.SEPARABLE:
            qs.append(self.separable(self.stock(key)))
        qs.append(self.separable(gen.matrix_alg(2), normalised=False))
        qs.append(self.broken_category(rng))
        rng.shuffle(qs)
        return qs


WORKLOADS = {"rings": Rings, "frobenius": Frobenius,
             "completions": Completions}
