"""Spans and counts around the coarse public functions of each layer.

`Tracer.install` replaces each function named in `TRACED` by a timing
wrapper, on its home module and under every name another `verlinde`
module (or the package) imports it by, so nested calls become child
spans and a layer's self time leaves out the layers it calls.  Per-
element helpers (`fusion.multiply`, `PresentedCategory.compose`,
`Tensor3.__getitem__`) are left alone: at their call counts tracing
would cost more than the work, so their time stays in the caller's
layer.  Spans and counts stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("exact", "fusion", "surfaces", "tqft", "categories", "formats")


def _axiom_equations(stats, args, kwargs, result):
    # involution, commutativity, associativity, reciprocity, unit law
    n = args[0].rank
    stats["fusion.axiom_equations"] += 2 * n + 2 * n ** 3 + n ** 4


def _gluing_reevaluations(stats, args, kwargs, result):
    trials = kwargs.get("trials", args[2] if len(args) > 2 else 8)
    surface = args[1]
    stats["surfaces.gluing_reevaluations"] += (
        2 * trials + (trials if surface.genus else 0) + len(surface.boundary))


def _word_layers(stats, args, kwargs, result):
    stats["tqft.word_layers"] += len(args[1].layers)


def _assoc_triples(stats, args, kwargs, result):
    dims = {pq: len(basis) for pq, basis in args[0].hom_pairs()}
    into, out = defaultdict(int), defaultdict(int)
    for (p, q), d in dims.items():
        into[q] += d
        out[p] += d
    stats["categories.assoc_triples"] += sum(
        into[p] * d * out[q] for (p, q), d in dims.items())


def _karoubi(stats, args, kwargs, result):
    cat = args[0]
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    if grid is not None and kwargs.get("idempotents") is None:
        stats["categories.karoubi_candidates"] += sum(
            len(grid) ** cat.hom_dim(p, p) for p in cat.objects)
    stats["categories.karoubi_objects"] += len(result.objects)


def _parse_bytes(stats, args, kwargs, result):
    stats["formats.bytes"] += len(args[1].encode())


def _serialize_bytes(stats, args, kwargs, result):
    stats["formats.bytes"] += len(result.encode())


# (layer, home module, attribute, metric name, count hook)
TRACED = (
    ("exact", "exact", "Matrix.rank", "exact.rank", None),
    ("exact", "exact", "Matrix.inverse", "exact.inverse", None),
    ("exact", "exact", "Matrix.__matmul__", "exact.matmul", None),
    ("fusion", "fusion", "verify_axioms", "fusion.verify_axioms",
     _axiom_equations),
    ("fusion", "fusion", "verify_frobenius_pairing",
     "fusion.verify_frobenius_pairing", None),
    ("fusion", "fusion", "enumerate_fusion_rings", "fusion.enumerate", None),
    ("fusion", "fusion", "block_decomposition", "fusion.block_decomposition",
     None),
    ("fusion", "fusion", "restrict_to_labels", "fusion.restrict_to_labels",
     None),
    ("surfaces", "surfaces", "dim_V", "surfaces.dim_V", None),
    ("surfaces", "surfaces", "verify_gluing_consistency",
     "surfaces.verify_gluing_consistency", _gluing_reevaluations),
    ("surfaces", "surfaces", "modular_report", "surfaces.modular_report",
     None),
    ("tqft", "tqft", "validate_frobenius", "tqft.validate_frobenius", None),
    ("tqft", "tqft", "genus_invariant", "tqft.genus_invariant", None),
    ("tqft", "tqft", "invariance_suite", "tqft.invariance_suite", None),
    ("tqft", "tqft", "transport_basis", "tqft.transport_basis", None),
    ("tqft", "tqft", "evaluate_word", "tqft.evaluate_word", _word_layers),
    ("tqft", "tqft", "frobenius_from_fusion", "tqft.frobenius_from_fusion",
     None),
    ("categories", "categories", "validate_category",
     "categories.validate_category", _assoc_triples),
    ("categories", "categories", "mat_completion", "categories.mat_completion",
     None),
    ("categories", "categories", "karoubi_completion",
     "categories.karoubi_completion", _karoubi),
    ("categories", "categories", "tensor_product", "categories.tensor_product",
     None),
    ("categories", "categories", "verify_separability_idempotent",
     "categories.verify_separability_idempotent", None),
    ("categories", "categories", "trace_form_semisimple",
     "categories.trace_form_semisimple", None),
    ("formats", "formats", "parse", "formats.parse", _parse_bytes),
    ("formats", "formats", "serialize", "formats.serialize",
     _serialize_bytes),
)

COUNTS = ("fusion.axiom_equations", "surfaces.gluing_reevaluations",
          "tqft.word_layers", "categories.assoc_triples",
          "categories.karoubi_candidates", "categories.karoubi_objects",
          "formats.bytes")


class Tracer:
    """In-memory spans: (id, parent id, question, name, start, end)."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[tuple] = []
        self.stack: list[list] = []   # [span id, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = defaultdict(float)
        self.question = -1
        self._undo: list[tuple] = []

    def _wrap(self, layer, metric, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.spans.append(None)
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.spans[span_id] = (span_id, parent, tracer.question,
                                         metric, start, end)
                tracer.stats[metric + ".calls"] += 1
                tracer.stats[metric + ".s"] += dur
            if count is not None:
                count(tracer.stats, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [getattr(self.lib, name) for name in
                   ("pkg", "exact", "fusion", "surfaces", "tqft",
                    "categories", "formats")]
        for layer, home, attr, metric, count in TRACED:
            owner = getattr(self.lib, home)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, metric, original, count)
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        self._undo.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "question", "name",
                                  "start", "end"],
                       "spans": self.spans,
                       "self_s": dict(self.self_s),
                       "stats": dict(self.stats)}, fh)
