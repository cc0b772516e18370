"""Every documented CLI invocation, compared byte-for-byte to its record."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from verlinde import categories, corpus, fusion, tqft
from verlinde.categories import mat_completion, matrix_algebra_category
from verlinde.cli import main
from verlinde.formats import serialize
from verlinde.fusion import fibonacci_ring
from verlinde.surfaces import ColouredSurface, dim_V

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def run(capsys, monkeypatch):
    """Run the CLI from inside the corpus directory, capture stdout."""
    monkeypatch.chdir(corpus.corpus_dir())

    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


GOLDEN_COMMANDS = [
    ("cli/dim_genus1_fib.txt",
     ("dim", "--genus", "1", "fib.fusion")),
    ("cli/invariant_genus2_z2group.txt",
     ("invariant", "--genus", "2", "z2group.algebra")),
    ("cli/validate_fib.txt", ("validate", "fib.fusion")),
    ("cli/validate_unchecked.txt",
     ("validate", "fib.surfaces", "fib.twist", "torus.word")),
    ("enumerate_rank2_maxcoeff1.txt",
     ("enumerate", "--rank", "2", "--max-coeff", "1")),
    ("cli/blocks_fib_x_z2.txt", ("blocks", "fib_x_z2.fusion")),
    ("cli/report_fib_machine.txt",
     ("--machine", "report", "fib.fusion", "--twists", "fib.twist",
      "--surfaces", "fib.surfaces", "--max-genus", "3")),
    ("cli/evalword_ksquared_torus.txt",
     ("evalword", "ksquared.algebra", "torus.word")),
    ("cli/complete_mat_onepoint.txt",
     ("complete", "--mode", "mat", "--bound", "2", "onepoint.category")),
    ("cli/invariant_table_mat2.txt",
     ("invariant", "mat2.algebra", "--max-genus", "3")),
    ("cli/dim_surfaces_fib.txt",
     ("dim", "--surfaces", "fib.surfaces", "fib.fusion")),
    ("cli/check_separable_mat2.txt",
     ("check-separable", "mat2.algebra", "mat2.idem")),
]


@pytest.mark.parametrize("golden,args", GOLDEN_COMMANDS,
                         ids=[g for g, _ in GOLDEN_COMMANDS])
def test_documented_commands_match_recorded_output(run, golden, args):
    code, out, err = run(*args)
    assert code == 0
    assert err == ""
    assert out == (DATA / golden).read_text(encoding="utf-8")


def test_documented_commands_are_deterministic(run):
    outputs = [run("report", "fib_x_z2.fusion")[1] for _ in range(2)]
    assert outputs[0] == outputs[1]


def test_validate_all_corpus_files_exits_zero(run):
    # files with no check of their own say so instead of "ok"
    names = corpus.list_corpus()
    code, out, err = run("validate", *names)
    assert code == 0
    unchecked = (".surfaces", ".twist", ".word", ".idem")
    assert out.splitlines() == [
        f"{name}: not checked" if name.endswith(unchecked) else f"{name}: ok"
        for name in names]
    _, out, _ = run("--machine", "validate", "fib.twist", "fib.fusion")
    assert out == "fib.twist.checked = false\nfib.fusion.ok = true\n"


def test_validate_runs_the_invariance_words_without_trials(run,
                                                          monkeypatch):
    # with no random presentation drawn, the canonical and alternate
    # words are still compared with the handle formula
    assert run("validate", "--trials", "0", "mat2.algebra")[0] == 0
    # the suite evaluates all its words in one pass, not word by word
    monkeypatch.setattr(tqft, "_evaluate_words",
                        lambda algebra, words: [-1] * len(words))
    code, out, _ = run("validate", "--trials", "0", "mat2.algebra")
    assert code == 1
    assert "canonical word at genus 0 evaluates to -1" in out


def test_validate_names_a_counit_that_is_not_a_trace(run, tmp_path,
                                                     monkeypatch):
    # mat2.algebra with eps = tr(diag(1, 2) x): a valid Frobenius algebra
    # whose swapped-handle words are left out, with one entry saying why
    text = corpus.corpus_path("mat2.algebra").read_text(encoding="utf-8")
    assert "counit 3 1\n" in text
    (tmp_path / "skew.algebra").write_text(
        text.replace("counit 3 1\n", "counit 3 2\n"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run("validate", "skew.algebra")
    assert code == 1
    assert out == ("skew.algebra: 1 violation(s)\n"
                   "  counit is not a trace: eps(e_1 e_2) != eps(e_2 e_1)\n")


def test_validate_refuses_a_negative_trial_count(run):
    code, _, err = run("validate", "--trials", "-2", "mat2.algebra")
    assert code == 2
    assert "trials -2" in err


def test_exit_status_one_on_axiom_failure(run, tmp_path, monkeypatch):
    bad = tmp_path / "bad.fusion"
    bad.write_text("rank 2\ndual 0 1\nunit 0\nN 0 0 0 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run("validate", "bad.fusion")
    assert code == 1
    assert "violation" in out


def test_a_huge_size_header_is_a_load_error(run, tmp_path, monkeypatch):
    dim = "1" + "0" * 60
    (tmp_path / "huge.algebra").write_text(f"dim {dim}\nmult 0 0 0 1\n",
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run("invariant", "--genus", "1", "huge.algebra")
    assert (code, out) == (2, "")
    assert err == (f"error: huge.algebra:1: size {dim}: size^3 cells are "
                   "more than MAX_DENSE_CELLS = 4194304\n")


@pytest.mark.parametrize("name, text", [
    ("long.algebra", "dim 2\nmult 0 0 {} 1\n"),
    ("long.fusion", "rank 2\nunit 0\nN {} 0 0 1\n"),
])
def test_a_long_index_token_is_a_quick_load_error(run, tmp_path, monkeypatch,
                                                  name, text):
    # cli.main lifts the digit limit; the token never reaches int()
    (tmp_path / name).write_text(text.format("1" + "0" * 99_999),
                                 encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    command = "invariant" if name.endswith("algebra") else "validate"
    start = time.perf_counter()
    code, out, err = run(command, name)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    line = text.count("\n")
    assert err == (f"error: {name}:{line}: a token of 100000 characters is "
                   "longer than MAX_TOKEN_CHARS = 4300\n")


def test_validate_lists_a_reciprocity_failure_once(run, tmp_path,
                                                   monkeypatch):
    # Fibonacci with N[1][1][0] = 2: the involution holds, and of the
    # reciprocity equations only the two that read N[1][1][0] fail
    bad = tmp_path / "bad.fusion"
    bad.write_text("rank 2\ndual 0 0\ndual 1 1\nunit 0\nN 0 0 0 1\n"
                   "N 0 1 1 1\nN 1 0 1 1\nN 1 1 0 2\nN 1 1 1 1\n",
                   encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run("validate", "bad.fusion")
    assert code == 1
    assert out.splitlines() == [
        "bad.fusion: 2 violation(s)",
        "  frobenius symmetry: N[1][0][1] = 1 != 2 = N[1][1][0]",
        "  frobenius symmetry: N[1][1][0] = 2 != 1 = N[0][1][1]"]


def test_exit_status_two_on_parse_error(run, tmp_path, monkeypatch):
    bad = tmp_path / "bad.fusion"
    bad.write_text("rank 1\ndual 0 0\nunit 0\nN 0 0 0 -1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run("validate", "bad.fusion")
    assert code == 2
    assert "negative coefficient" in err


def test_exit_status_one_when_dim_precondition_fails(run, tmp_path,
                                                     monkeypatch):
    bad = tmp_path / "bad.fusion"
    bad.write_text("rank 2\ndual 0 1\nunit 0\nN 0 0 0 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run("dim", "--genus", "1", "bad.fusion")
    assert code == 1
    assert "fusion axioms fail" in err


def test_exit_status_two_on_missing_flags(run):
    code, _, err = run("dim", "fib.fusion")
    assert code == 2
    assert "pass --genus or --surfaces" in err


def test_missing_dim_flags_are_refused_before_the_ring_is_read(
        run, tmp_path, monkeypatch):
    # s3rep.fusion without N 2 2 1 1 fails six axiom equations; the usage
    # error must still come first, with no axiom failure printed
    text = (corpus.corpus_dir() / "s3rep.fusion").read_text(encoding="utf-8")
    assert "N 2 2 1 1\n" in text
    (tmp_path / "broken.fusion").write_text(
        text.replace("N 2 2 1 1\n", ""), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run("dim", "broken.fusion")
    assert (code, out) == (2, "")
    assert err == "error: dim: pass --genus or --surfaces\n"
    assert run("dim", "--genus", "1", "broken.fusion")[0] == 1


def test_unknown_extension_requires_kind(run, tmp_path, monkeypatch):
    f = tmp_path / "ring.data"
    f.write_text("rank 1\ndual 0 0\nunit 0\nN 0 0 0 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run("validate", "ring.data")
    assert code == 2
    code, out, _ = run("validate", "--kind", "fusion", "ring.data")
    assert code == 0


WRONG_KIND = [
    (("check-separable", "fib.fusion", "mat2.idem"), "fib.fusion"),
    (("check-separable", "mat2.algebra", "fib.fusion"), "fib.fusion"),
    (("invariant", "fib.fusion"), "fib.fusion"),
    (("dim", "mat2.algebra", "--genus", "1"), "mat2.algebra"),
    (("blocks", "mat2.category"), "mat2.category"),
    (("complete", "fib.fusion", "--mode", "mat"), "fib.fusion"),
    (("evalword", "fib.algebra", "fib.fusion"), "fib.fusion"),
    (("report", "fib.algebra"), "fib.algebra"),
    (("dim", "fib.fusion", "--genus", "1", "--surfaces", "fib.twist"),
     "fib.twist"),
    (("report", "fib.fusion", "--surfaces", "fib.twist"), "fib.twist"),
    (("report", "fib.fusion", "--twists", "fib.surfaces"), "fib.surfaces"),
]


@pytest.mark.parametrize("args,path", WRONG_KIND,
                         ids=[" ".join(a) for a, _ in WRONG_KIND])
def test_a_file_of_the_wrong_kind_is_a_load_error(run, args, path):
    code, out, err = run(*args)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


ONE_KIND_ARGUMENTS = [
    ("evalword", "fib.algebra", "sphere.word"),
    ("evalword", "ksquared.algebra", "torus.word"),
    ("check-separable", "mat2.algebra", "mat2.idem"),
    ("dim", "fib.fusion", "--surfaces", "fib.surfaces"),
    ("report", "fib.fusion", "--surfaces", "fib.surfaces",
     "--twists", "fib.twist"),
    ("blocks", "fib_x_z2.fusion"),
    ("invariant", "fib.algebra"),
    ("complete", "onepoint.category", "--mode", "mat"),
]


@pytest.mark.parametrize("args", ONE_KIND_ARGUMENTS, ids=" ".join)
def test_a_txt_file_is_read_as_the_one_kind_its_argument_holds(
        run, args, tmp_path, monkeypatch):
    # each corpus file copied to <stem>_<extension>.txt gives the output
    # of the original, with the new names
    expected = run(*args)
    assert expected[0] == 0
    renamed = {}
    for arg in args:
        if "." in arg:
            stem, ext = arg.rsplit(".", 1)
            renamed[arg] = f"{stem}_{ext}.txt"
            (tmp_path / renamed[arg]).write_text(
                corpus.corpus_path(arg).read_text("utf-8"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(*(renamed.get(arg, arg) for arg in args))
    for old, new in renamed.items():
        expected = tuple(part.replace(old, new) if isinstance(part, str)
                         else part for part in expected)
    assert (code, out, err) == expected


def test_validate_still_needs_kind_for_a_txt_file(run, tmp_path,
                                                  monkeypatch):
    (tmp_path / "fib.txt").write_text(
        corpus.corpus_path("fib.algebra").read_text("utf-8"),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run("validate", "fib.txt")
    assert (code, out) == (2, "")
    assert err == ("error: fib.txt: cannot infer document kind from "
                   "extension; pass --kind\n")
    code, out, _ = run("validate", "--kind", "algebra", "fib.txt")
    assert (code, out) == (0, "fib.txt: ok\n")


def test_dim_with_boundary_flag(run):
    code, out, _ = run("dim", "fib.fusion", "--genus", "0",
                       "--boundary", "1", "1", "1")
    assert code == 0
    assert out == "1\n"


def test_dim_verify_runs_gluing_checks(run):
    code, out, _ = run("dim", "--genus", "2", "--verify", "fib.fusion")
    assert code == 0
    assert "gluing: ok" in out


def test_check_separable_corpus(run):
    for algebra, idem in (("z2group.algebra", "z2group.idem"),
                          ("mat2.algebra", "mat2.idem"),
                          ("ksquared.algebra", "ksquared.idem")):
        code, out, _ = run("check-separable", algebra, idem)
        assert code == 0
        assert "semisimple" in out


def test_check_separable_detects_failure(run, tmp_path, monkeypatch):
    bad = tmp_path / "bad.idem"
    bad.write_text("dim 2\ne 0 0 1\n", encoding="utf-8")
    code, out, _ = run("check-separable", "z2group.algebra", str(bad))
    assert code == 1


def test_complete_karoubi_splits_and_validates(run):
    code, out, _ = run("complete", "--mode", "karoubi", "mat2.category")
    assert code == 0
    assert "object x(1,0,0,0)" in out


@pytest.mark.parametrize("grid, token", [("0,1/0", "1/0"), ("0,,1", ""),
                                         ("1,half", "half")])
def test_complete_karoubi_refuses_a_grid_token_that_is_not_rational(
        run, grid, token):
    code, out, err = run("complete", "--mode", "karoubi", "--grid", grid,
                         "mat2.category")
    assert (code, out) == (2, "")
    assert err == (f"error: --grid {grid}: expected a rational p/q, "
                   f"got {token!r}\n")


def test_complete_karoubi_reads_repeated_grid_values_once(run):
    code, out, err = run("complete", "--mode", "karoubi", "--grid", "0,1,1",
                         "mat2.category")
    assert (code, err) == (0, "")
    assert (code, out, err) == run("complete", "--mode", "karoubi",
                                   "--grid", "1,0", "mat2.category")
    assert out.count("object ") == 8


def test_complete_karoubi_refuses_an_oversized_search(run, tmp_path,
                                                      monkeypatch):
    big = mat_completion(matrix_algebra_category(2), 2)
    (tmp_path / "big.category").write_text(serialize("category", big),
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    # a tried candidate fails the test at once instead of searching 4^16
    monkeypatch.setattr(categories, "_solves", None)
    monkeypatch.setattr(categories, "_idempotent", None)
    code, out, err = run("complete", "--mode", "karoubi", "big.category")
    assert code == 2
    assert "4^16" in err


def test_complete_mat_refuses_past_the_object_limit_at_the_default_bound(
        run, tmp_path, monkeypatch):
    # five objects: 1 + 5 + 25 + 125 = 156 sequences of length <= 3
    five = mat_completion(matrix_algebra_category(1), 4)
    assert len(five.objects) == 5
    (tmp_path / "five.category").write_text(serialize("category", five),
                                            encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    # a built sequence fails the test at once
    monkeypatch.setattr(categories, "mat_object_name", None)
    code, out, err = run("complete", "--mode", "mat", "five.category")
    assert code == 2
    assert out == ""
    assert err == ("error: Mat completion with bound 3 would have 156 "
                   "objects, more than 128\n")


def test_report_text_mode_counts_functors(run):
    code, out, _ = run("report", "fib_x_z2.fusion")
    assert code == 0
    assert "modular functors determined = 2" in out


def test_enumerate_golden_is_exactly_z2_and_fibonacci():
    text = (DATA / "enumerate_rank2_maxcoeff1.txt").read_text("utf-8")
    from verlinde import formats
    chunks = [c for c in text.split("\n\n") if c.strip()]
    rings = [formats.parse("fusion", c).payload for c in chunks]
    assert len(rings) == 2
    from conftest import load
    assert rings[0].table == load("z2.fusion").table
    assert rings[1].table == load("fib.fusion").table


def test_enumerate_refuses_with_its_estimate(run):
    _, work = fusion._enumeration_estimate(5, 2)
    code, out, err = run("enumerate", "--rank", "5", "--max-coeff", "2")
    assert (code, out) == (2, "")
    assert err == (
        "error: enumerating rank 5 with max_coeff 2 would try 34867844010 "
        f"candidate tensors, an estimated {work} steps, more than "
        "MAX_ENUMERATION_CANDIDATES = "
        f"{fusion.MAX_ENUMERATION_CANDIDATES}\n")


def test_dim_prints_integers_past_the_digit_limit(run):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run("dim", "--genus", "20000", "fib.fusion")
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    expected = dim_V(fibonacci_ring(), ColouredSurface(20000, ()))
    if limit is not None:
        assert len(out) > limit
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{expected}\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_invariant_at_genus_20000_equals_the_surface_dimension(run):
    # the algebra of the Fibonacci ring evaluates a closed surface to the
    # dimension of its space, by the same squaring kernel
    code, out, err = run("invariant", "fib.algebra", "--genus", "20000")
    assert (code, err) == (0, "")
    assert out == run("dim", "fib.fusion", "--genus", "20000")[1]


def test_invariant_table_is_one_pass_of_the_genus_invariants(
        run, monkeypatch):
    # the table never asks for one genus at a time
    monkeypatch.setattr(tqft, "genus_invariant", None)
    code, out, _ = run("--machine", "invariant", "fib.algebra",
                       "--max-genus", "4")
    assert code == 0
    assert out.splitlines() == [f"genus.{g}.invariant = {v}" for g, v in
                                enumerate((1, 2, 5, 15, 50))]


@pytest.mark.parametrize("args", [
    ("invariant", "fib.algebra", "--max-genus", "-1"),
    ("report", "fib.fusion", "--max-genus", "-1"),
    ("validate", "fib.algebra", "--max-genus", "-1"),
])
def test_a_negative_max_genus_exits_two(run, args):
    assert run(*args) == (2, "", "error: max_genus -1 must be >= 0\n")
