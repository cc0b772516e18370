"""Command-line surface tying the modules together.

Subcommands: validate, blocks, dim, invariant, evalword, enumerate,
complete, check-separable, report.  Output is deterministic byte for
byte given identical inputs; every random check is driven by --seed.
Exit status 0 exactly when all performed checks pass; parse and load
errors exit with status 2.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import categories, formats, fusion, surfaces, tqft

DEFAULT_SEED = 20020


class _CliError(Exception):
    """Load or usage problem: exit status 2."""


class _CheckFailed(Exception):
    """An axiom precondition failed; its report was printed: exit status 1."""


def _load(path: str, need: str | None,
          kind: str | None = None) -> formats.Document:
    """Parse `path` as `kind`, else as its extension names, else as
    `need`, the one kind the command reads there; a kind other than
    `need` is refused unparsed.  Only `validate`, which reads every
    kind, has no `need`, so only it asks for --kind."""
    guessed = kind or formats.kind_for_path(path) or need
    if guessed is None:
        raise _CliError(
            f"{path}: cannot infer document kind from extension; "
            "pass --kind")
    if need is not None and guessed != need:
        raise _CliError(f"{path}: a file of kind {guessed}, where kind "
                        f"{need} is needed")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _CliError(f"{path}: {err.strerror or err}") from err
    return formats.parse(guessed, text, source=path)


def _print_report(report, label: str, machine: bool) -> bool:
    if machine:
        print(f"{label}.ok = {str(report.ok).lower()}")
        for entry in report.entries:
            print(f"{label}.violation = {entry}")
    else:
        if report.ok:
            print(f"{label}: ok")
        else:
            print(f"{label}: {len(report.entries)} violation(s)")
            for entry in report.entries:
                print(f"  {entry}")
    return report.ok


def _require_valid(doc: formats.Document, check, kind: str):
    report = check(doc.payload)
    if not report.ok:
        for entry in report.entries:
            print(f"  {entry}")
        raise _CheckFailed(f"{doc.source}: {kind} axioms fail")
    return doc.payload


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    ok = True
    for path in args.files:
        doc = _load(path, None, args.kind)
        if doc.kind == "fusion":
            report = fusion.verify_axioms(doc.payload)
        elif doc.kind == "algebra":
            report = tqft.validate_frobenius(doc.payload)
            if report.ok:
                report.merge(tqft.invariance_suite(
                    doc.payload, trials=args.trials, seed=args.seed,
                    max_genus=min(args.max_genus, 3)))
        elif doc.kind == "category":
            report = categories.validate_category(doc.payload)
        else:
            # surface lists, twists, words and idempotents have no check
            # of their own
            print(f"{path}.checked = false" if args.machine
                  else f"{path}: not checked")
            continue
        ok = _print_report(report, path, args.machine) and ok
    return 0 if ok else 1


def _cmd_blocks(args) -> int:
    doc = _load(args.file, "fusion", args.kind)
    ring = _require_valid(doc, fusion.verify_axioms, "fusion")
    blocks = fusion.block_decomposition(ring)
    for i, block in enumerate(blocks):
        labels = " ".join(str(a) for a in block)
        named = " ".join(ring.names[a] for a in block)
        if args.machine:
            print(f"block.{i}.labels = {labels}")
        else:
            print(f"block {i} (unit {ring.unit[i]}): {named}")
    return 0


def _cmd_dim(args) -> int:
    doc = _load(args.ring, "fusion", args.kind)
    table = (_load(args.surfaces, "surface-list").payload
             if args.surfaces else {})
    ring = _require_valid(doc, fusion.verify_axioms, "fusion")
    ok = True
    if args.genus is not None:
        surface = surfaces.ColouredSurface(args.genus,
                                           tuple(args.boundary or ()))
        print(surfaces.dim_V(ring, surface))
        if args.verify:
            report = surfaces.verify_gluing_consistency(
                ring, surface, trials=args.trials, seed=args.seed)
            ok = _print_report(report, "gluing", args.machine) and ok
    for name in sorted(table):
        surface = table[name]
        value = surfaces.dim_V(ring, surface)
        if args.machine:
            print(f"surface.{name}.dim = {value}")
        else:
            print(f"dim V({name}) = {value}")
        if args.verify:
            report = surfaces.verify_gluing_consistency(
                ring, surface, trials=args.trials, seed=args.seed)
            ok = _print_report(report, f"gluing.{name}", args.machine) and ok
    if args.genus is None and not args.surfaces:
        raise _CliError("dim: pass --genus or --surfaces")
    return 0 if ok else 1


def _cmd_invariant(args) -> int:
    doc = _load(args.algebra, "algebra", args.kind)
    algebra = _require_valid(doc, tqft.validate_frobenius, "frobenius")
    if args.genus is not None:
        print(tqft.genus_invariant(algebra, args.genus))
    else:
        values = tqft._genus_invariants(algebra, args.max_genus)
        for g, value in enumerate(values):
            if args.machine:
                print(f"genus.{g}.invariant = {value}")
            else:
                print(f"Z(genus {g}) = {value}")
    return 0


def _cmd_evalword(args) -> int:
    adoc = _load(args.algebra, "algebra")
    word = _load(args.word, "word").payload
    algebra = _require_valid(adoc, tqft.validate_frobenius, "frobenius")
    try:
        result = tqft.evaluate_word(algebra, word)
    except tqft.WordTypeError as err:
        raise _CliError(f"{args.word}: {err}") from err
    if isinstance(result, tqft.WordTensor):
        for key, value in result.entries:
            idx = " ".join(str(i) for i in key)
            print(f"[{idx}] = {value}")
    else:
        print(result)
    return 0


def _cmd_enumerate(args) -> int:
    rings = fusion.enumerate_fusion_rings(args.rank, args.max_coeff)
    chunks = [formats.serialize("fusion", ring) for ring in rings]
    sys.stdout.write("\n".join(chunks))
    return 0


def _grid(text: str) -> tuple[Fraction, ...]:
    """The --grid values: each comma-separated token read as the file
    formats read a rational coefficient."""
    try:
        return tuple(formats._fraction(t, "--grid", 0)
                     for t in text.split(","))
    except formats.ParseError as err:
        raise _CliError(f"--grid {text}: {err.reason}") from None


def _cmd_complete(args) -> int:
    doc = _load(args.file, "category", args.kind)
    cat = doc.payload
    base_report = categories.validate_category(cat)
    if not base_report.ok:
        _print_report(base_report, args.file, args.machine)
        return 1
    if args.mode == "mat":
        completed = categories.mat_completion(cat, args.bound)
    else:
        completed = categories.karoubi_completion(cat,
                                                  grid=_grid(args.grid))
    check = categories.validate_category(completed)
    sys.stdout.write(formats.serialize("category", completed))
    if not check.ok:
        _print_report(check, "completed", args.machine)
        return 1
    return 0


def _cmd_check_separable(args) -> int:
    algebra = _load(args.algebra, "algebra").payload
    edoc = _load(args.idempotent, "idempotent")
    report = categories.verify_separability_idempotent(algebra, edoc.payload)
    semisimple, gram = categories.trace_form_semisimple(algebra)
    if args.machine:
        print(f"semisimple = {str(semisimple).lower()}")
        print(f"trace_form.rank = {gram.rank()}")
    else:
        print(f"trace form rank {gram.rank()} of {algebra.dim}: "
              f"{'semisimple' if semisimple else 'not semisimple'}")
    ok = _print_report(report, args.idempotent, args.machine)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    doc = _load(args.ring, "fusion", args.kind)
    ring = doc.payload
    if args.max_genus < 0:
        raise ValueError(f"max_genus {args.max_genus} must be >= 0")
    table: dict[str, surfaces.ColouredSurface] = {}
    for g in range(args.max_genus + 1):
        table[f"closed_g{g}"] = surfaces.ColouredSurface(g)
    if args.surfaces:
        table.update(_load(args.surfaces, "surface-list").payload)
    twists = None
    if args.twists:
        mapping = _load(args.twists, "twist").payload
        twists = surfaces.TwistData.from_mapping(ring.rank, mapping)
    rep = surfaces.modular_report(ring, twists=twists, surfaces=table)
    if args.machine:
        print(surfaces.render_report_machine(rep))
    else:
        print(surfaces.render_report_text(rep))
    ok = rep.axiom_report.ok and (rep.twist_report is None
                                  or rep.twist_report.ok)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verlinde",
        description="exact fusion-ring, surface-dimension, and 2d TQFT "
                    "calculations")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all randomised checks")
    parser.add_argument("--machine", action="store_true",
                        help="flat key = value output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="axiom checks for data files")
    p.add_argument("files", nargs="+")
    p.add_argument("--kind", choices=formats.KINDS)
    p.add_argument("--trials", type=int, default=5,
                   help="random surface presentations per algebra")
    p.add_argument("--max-genus", type=int, default=2)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("blocks", help="unit-component block decomposition")
    p.add_argument("file")
    p.add_argument("--kind", choices=formats.KINDS)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("dim", help="coloured-surface dimensions")
    p.add_argument("ring")
    p.add_argument("--kind", choices=formats.KINDS)
    p.add_argument("--genus", type=int)
    p.add_argument("--boundary", type=int, nargs="*")
    p.add_argument("--surfaces", help="surface-list file")
    p.add_argument("--verify", action="store_true",
                   help="also run the gluing consistency checks")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("invariant", help="closed-surface algebra invariants")
    p.add_argument("algebra")
    p.add_argument("--kind", choices=formats.KINDS)
    p.add_argument("--genus", type=int)
    p.add_argument("--max-genus", type=int, default=3)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("evalword", help="evaluate a cobordism word")
    p.add_argument("algebra")
    p.add_argument("word")
    p.set_defaults(func=_cmd_evalword)

    p = sub.add_parser("enumerate", help="enumerate small fusion rings")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-coeff", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("complete", help="additive or idempotent completion")
    p.add_argument("file")
    p.add_argument("--kind", choices=formats.KINDS)
    p.add_argument("--mode", choices=("mat", "karoubi"), required=True)
    p.add_argument("--bound", type=int, default=3,
                   help="sequence length bound for mat completion")
    p.add_argument("--grid", default="0,1,-1,1/2",
                   help="idempotent coefficient grid for karoubi completion")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("check-separable",
                       help="verify a separability idempotent")
    p.add_argument("algebra")
    p.add_argument("idempotent")
    p.set_defaults(func=_cmd_check_separable)

    p = sub.add_parser("report", help="full modular-functor report")
    p.add_argument("ring")
    p.add_argument("--kind", choices=formats.KINDS)
    p.add_argument("--surfaces")
    p.add_argument("--twists")
    p.add_argument("--max-genus", type=int, default=2)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact answers (high-genus dimensions) exceed the int -> str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except _CheckFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (_CliError, formats.ParseError, categories.CategoryFormatError,
            fusion.BlockStructureError, tqft.DegeneratePairingError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
