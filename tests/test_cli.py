"""Command-line interface: exit codes, report shape, cache workflow."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st


def report_of(result):
    return json.loads(result.output)


def strict_report_of(result):
    """The report as strict JSON: NaN and Infinity are refused."""

    def refuse(token):
        raise ValueError(f"non-finite number {token} in report")

    return json.loads(result.output, parse_constant=refuse)


def test_xn_check_passes():
    result = run_cli(["--format", "json", "xn", "check", "--n", "3"])
    assert result.exit_code == 0
    report = report_of(result)
    assert report["schema"] == "tautring-report-1"
    assert report["summary"]["status"] == "pass"
    assert report["summary"]["hilbert"] == [1, 6, 6, 1]
    assert all(c["status"] == "pass" for c in report["checks"])


def _checkout_env():
    """An environment in which a new interpreter imports this checkout's
    ``tautring``."""
    import tautring

    src = os.path.dirname(os.path.dirname(os.path.abspath(tautring.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh_python(code):
    """Run ``code`` in a new interpreter (:func:`_checkout_env`); returns
    its standard output."""
    done = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                          check=True, capture_output=True, text=True)
    return done.stdout


def test_importing_the_cli_loads_no_heavy_modules():
    # start-up cost: the front end uses argparse, the value classes are
    # hand-written, so neither click nor dataclasses (and with it inspect)
    # is imported on the way to a report, nor hashlib (which loads
    # OpenSSL's _hashlib)
    code = ("import json, sys; before = set(sys.modules); import tautring.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    loaded = set(json.loads(_fresh_python(code)))
    assert "tautring.cli" in loaded
    assert not loaded & {"click", "dataclasses", "inspect", "hashlib", "_hashlib"}


def test_no_command_loads_openssl(tmp_path):
    # every digest (cache entry names, payload digests, content hashes) is
    # CPython's own SHA-256, so no command loads OpenSSL, and the digests
    # still read the pinned values
    from test_algebra import PINNED_HASHES

    cache_dir = str(tmp_path / "cache")
    code = f"""if True:
        import contextlib, io, json, sys
        from tautring.cli import main
        from tautring.xn import xn_presentation
        reports = []
        for args in (["bridge", "--n", "2"], ["xn", "check", "--n", "3"],
                     ["fm", "check", "--n", "3", "--mode", "blocks"],
                     ["--cache-dir", {cache_dir!r}, "xn", "check", "--n", "3"],
                     ["--cache-dir", {cache_dir!r}, "xn", "check", "--n", "3"],
                     ["fm", "presentation", "--n", "3"]):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    main(["--format", "json"] + args, prog_name="tautring")
            except SystemExit as exc:
                assert exc.code == 0, (args, exc.code)
            reports.append(json.loads(out.getvalue()))
        print(json.dumps([sorted({{"hashlib", "_hashlib"}} & set(sys.modules)),
                          xn_presentation(3).content_hash,
                          [r["cache"] for r in reports[3:5]],
                          reports[5]["summary"]["content_hash"]]))
    """
    hashing, content_hash, (cold, warm), fm3_hash = json.loads(_fresh_python(code))
    assert hashing == []
    assert content_hash == PINNED_HASHES["xn:3"]
    assert fm3_hash == PINNED_HASHES["fm:3"]
    assert (cold["hits"], cold["misses"]) == (0, 4)
    assert (warm["hits"], warm["misses"]) == (4, 0)


def test_cache_entries_keep_their_names(tmp_path):
    # the cache key digest of every X^3 basis; a change here orphans every
    # stored entry
    cache_dir = tmp_path / "cache"
    result = run_cli(["--format", "json", "--cache-dir", str(cache_dir),
                      "xn", "check", "--n", "3"])
    assert result.exit_code == 0
    assert sorted(os.listdir(cache_dir)) == [
        "45a1f2b896a369903c3aa7645971ee11b693ba9c6450da1b47891220a9ce6409.json",
        "ed68c927964cc18161021b1250d2e9969e150784e38f5ef412fb77ef7bde54d4.json",
        "f8310278d92bca290e09176700fd6dce865e7f7ee3cf72600925ddac7c945fce.json",
        "fc8080cfffbb648e332c2c0603449e6bf550f14d960acdcf1f53b008bd4ee99a.json",
    ]
    # the count and bytes of these entries, as the removed listing API read
    # them; the benchmark reads this block
    assert report_of(result)["cache"] == {
        "directory": str(cache_dir), "entry_count": 4, "total_bytes": 1674,
        "hits": 0, "misses": 4,
    }


# one run of each outcome: a pass, a failed check (the tests break the
# relation), usage errors from the parser and from a command, and a
# size-guard refusal (under a ceiling of 50 columns)
EACH_OUTCOME = pytest.mark.parametrize("args, code", [
    (["xn", "check", "--n", "2"], 0),
    (["xn", "faber-relation"], 1),
    (["xn", "check", "--n", "0"], 2),
    (["bridge", "--n", "2", "--alphas", "1"], 2),
    (["xn", "check", "--n", "4"], 3),
])


@EACH_OUTCOME
def test_main_exits_with_the_documented_code(args, code, monkeypatch, capsys,
                                             lower_ceiling):
    # the call the benchmark's tracer makes: the code comes from SystemExit
    from tautring import cli as cli_module
    from tautring.xn import a_poly

    if code == 3:
        lower_ceiling(50)
    monkeypatch.setattr(cli_module.xn_mod, "verify_faber_relation", lambda: a_poly(1))
    with pytest.raises(SystemExit) as exc:
        cli_module.main(["--format", "json"] + args, prog_name="tautring",
                        standalone_mode=False)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("usage: tautring")
    else:
        assert json.loads(out)["summary"]["status"] == (
            {0: "pass", 1: "fail", 3: "size-guard"}[code])


@EACH_OUTCOME
def test_main_emits_one_report_per_run_and_none_on_a_usage_error(args, code, monkeypatch,
                                                                 lower_ceiling):
    # the commands return their checks, and main prints the one report,
    # named by the parser's path of the command
    from tautring import cli as cli_module
    from tautring.xn import a_poly

    if code == 3:
        lower_ceiling(50)
    seen, real = [], cli_module.emit
    monkeypatch.setattr(cli_module, "emit",
                        lambda run, command, *rest, **kw: seen.append(command)
                        or real(run, command, *rest, **kw))
    monkeypatch.setattr(cli_module.xn_mod, "verify_faber_relation", lambda: a_poly(1))
    result = run_cli(["--format", "json"] + args)
    assert result.exit_code == code
    assert seen == ([] if code == 2 else [" ".join(args[:2])])


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_non_finite_number_never_prints_as_a_report(fmt, monkeypatch):
    # the report is serialized as strict JSON before anything is printed,
    # so the run fails and standard output stays empty
    from tautring import cli as cli_module

    monkeypatch.setattr(cli_module, "xn_faber_relation", lambda run: (
        {}, [cli_module.check("finite", True)], {"value": float("nan")}))
    out = io.StringIO()
    with pytest.raises(ValueError), contextlib.redirect_stdout(out):
        cli_module.main(["--format", fmt, "xn", "faber-relation"], prog_name="tautring")
    assert out.getvalue() == ""


@pytest.mark.parametrize("args, n", [
    (["xn", "check", "--n", "40"], 40),
    (["xn", "hilbert", "--n", "30", "--max-degree", "2"], 30),
], ids=["xn check --n 40", "xn hilbert --n 30"])
def test_a_power_ring_presentation_is_refused_before_it_is_built(args, n):
    # 15 cubic terms for each six of the n points, counted by one closed
    # form before any relation is multiplied out
    from math import comb

    start = time.perf_counter()
    result = run_cli(["--format", "json"] + args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3
    (guard,) = strict_report_of(result)["checks"]
    assert (guard["name"], guard["label"], guard["degree"], guard["unit"]) == (
        "size-guard", f"xn:{n}", None, "six-point terms")
    assert guard["count"] == 15 * comb(n, 6) > guard["ceiling"]


@pytest.mark.parametrize("args", [
    ["fm", "presentation", "--n", "9"],
    ["fm", "check", "--n", "9", "--mode", "full"],
    ["bridge", "--n", "9"],
], ids=" ".join)
def test_a_compactified_presentation_is_refused_before_it_is_built(args):
    # the relation terms of X[9] are bounded from subset counts before any
    # relation is multiplied out; the sum stops at the first bound past the
    # ceiling, so its count is a partial sum; X[8] is the first refused
    from tautring import fm

    start = time.perf_counter()
    result = run_cli(["--format", "json"] + args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3
    (guard,) = strict_report_of(result)["checks"]
    assert (guard["name"], guard["label"], guard["degree"], guard["unit"]) == (
        "size-guard", "fm:9", None, "relation terms")
    assert guard["ceiling"] < guard["count"] <= sum(fm._relation_terms(9))
    assert sum(fm._relation_terms(7)) <= guard["ceiling"] < sum(fm._relation_terms(8))


@pytest.mark.parametrize("args, label, degree, count, unit", [
    (["fm", "standard", "--n", "10", "--degree", "5"], "fm:10", 5, 9_065_799,
     "standard monomials"),
    (["xn", "six-point", "--n", "12", "--degree", "6"], "xn:12", 6, 400_969_800,
     "six-point terms"),
], ids=["fm standard --n 10 --degree 5", "xn six-point --n 12 --degree 6"])
def test_an_enumeration_is_refused_before_it_starts(args, label, degree, count, unit,
                                                    monkeypatch):
    # the standard monomials of X[10] in degree 5 are counted by D-part
    # shape, and the products of the matching sums of X^12 with the degree-3
    # standard monomials by one closed form; nothing is enumerated
    from tautring import fm, xn

    def refuse(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(fm, "_dparts", refuse)
    monkeypatch.setattr(xn, "enumerate_standard_xn", refuse)
    start = time.perf_counter()
    result = run_cli(["--format", "json"] + args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3
    (guard,) = strict_report_of(result)["checks"]
    assert (guard["name"], guard["label"], guard["degree"], guard["unit"]) == (
        "size-guard", label, degree, unit)
    assert guard["count"] == count > guard["ceiling"]


def _engine_presentations():
    from tautring.fm import fm_presentation
    from tautring.xn import xn_presentation

    from test_algebra import (_asymmetric, _one_generator_ring, _socle_in_the_ideal,
                              _zero_degree_two)

    return ([(xn_presentation(n), "gorenstein") for n in range(1, 6)]
            + [(fm_presentation(n), "gorenstein") for n in range(1, 5)]
            + [(pres, "defective") for pres in (
                _zero_degree_two(), _socle_in_the_ideal(), _asymmetric(),
                _one_generator_ring().presentation)])


@pytest.mark.parametrize("presentation, expected", _engine_presentations(),
                         ids=lambda value: getattr(value, "label", None))
def test_the_verdict_reads_the_checks_of_the_exit_code(presentation, expected):
    # summary.verdict is "gorenstein" exactly when every engine check passed
    from tautring import cli as cli_module

    checks, summary = cli_module._engine_checks(cli_module.RunContext("json", None),
                                                presentation)
    every_check_passed = all(c["status"] == "pass" for c in checks)
    assert summary["verdict"] == ("gorenstein" if every_check_passed else "defective")
    assert summary["verdict"] == expected
    assert [c["name"] for c in checks] == [
        "socle-dimension", "vanishing-above-socle",
        *(f"pairing-degree-{d}" for d in range(presentation.socle_degree + 1))]


def test_a_reader_that_stops_early_gets_exit_one_and_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "tautring.cli", "--format", "json",
         "fm", "standard", "--n", "4", "--degree", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env())
    proc.stdout.close()  # before the child has written anything
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize("args, code", [
    (["--cache-dir", "{file}/sub", "xn", "check", "--n", "2"], 2),
    (["--cache-dir", "{file}", "xn", "check", "--n", "2"], 2),
    (["fm", "dual", "--monomial", "[1]"], 2),
    (["fm", "dual", "--monomial", '{"n": "3"}'], 2),
    (["fm", "dual", "--monomial", '{"n": 3, "A": [1], "D": 5}'], 2),
    (["fm", "dual", "--monomial", '{"n": 3, "D": [[[1,2,3], "1"]]}'], 2),
    # JSON true and 3.0 equal the integers 1 and 3, but are not indices
    (["fm", "dual", "--monomial", '{"n": 4, "A": [true, 3.0]}'], 2),
    (["fm", "dual", "--monomial", '{"n": 4, "B": [[1, 2.0]]}'], 2),
    (["fm", "dual", "--monomial", '{"n": 4, "D": [[[1,2,3], 1.0]]}'], 2),
    (["fm", "dual", "--monomial", '{"n": 4, "D": [[[1,2,3.0], 1]]}'], 2),
    # a repeated index or pair is not merged: a1*a1 = 0 and b12*b12 = -4 a1 a2
    (["fm", "dual", "--monomial", '{"n": 3, "A": [1, 1]}'], 2),
    (["fm", "dual", "--monomial", '{"n": 4, "B": [[1, 2], [2, 1]]}'], 2),
    # a misspelled key is not read as absent, and --n does not override "n"
    (["fm", "dual", "--monomial", '{"n": 3, "a": [1]}'], 2),
    (["fm", "dual", "--n", "5", "--monomial", '{"n": 3, "D": [[[1,2,3],1]]}'], 2),
    # a zero exponent does not hide a bad index set
    (["fm", "dual", "--monomial", '{"n": 4, "D": [[[1,2],0]]}'], 2),
    # an empty entry is not skipped: "1,,1" does not evaluate [1, 1]
    (["hodge", "eval", "--alphas", "1,,1"], 2),
    (["hodge", "eval", "--alphas", "1,1,"], 2),
    # hodge is a group whose one command is eval
    (["hodge", "--alphas", "1,1"], 2),
    (["bridge", "--n", "2", "--alphas", ""], 2),
    # the column ceiling is the constant algebra.SIZE_CEILING, not a flag
    (["--size-ceiling", "50", "xn", "check", "--n", "2"], 2),
    (["fm", "standard", "--n", "13", "--degree", "1"], 3),
], ids=lambda value: value if isinstance(value, int) else " ".join(value))
def test_bad_input_exits_two_or_three_without_a_traceback(args, code, tmp_path):
    # "{file}" names an existing file, so "{file}/sub" cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    done = subprocess.run(
        [sys.executable, "-m", "tautring.cli", "--format", "json"]
        + [arg.replace("{file}", str(blocker)) for arg in args],
        env=_checkout_env(), capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        assert done.stdout == "" and done.stderr.startswith("usage: tautring")
    else:
        assert json.loads(done.stdout)["summary"]["status"] == "size-guard"


def test_usage_error_exits_two():
    result = run_cli(["xn", "check", "--n", "0"])
    assert result.exit_code == 2


def test_size_guard_exits_three(lower_ceiling):
    lower_ceiling(50)
    result = run_cli(["--format", "json", "xn", "check", "--n", "4"])
    assert result.exit_code == 3
    report = strict_report_of(result)
    assert report["summary"]["status"] == "size-guard"
    assert report["command"] == "xn check"
    assert report["inputs"] == {"n": 4}
    assert report["checks"][0]["name"] == "size-guard"
    assert report["checks"][0]["ceiling"] == 50
    assert report["checks"][0]["count"] > 50  # degree 3 has 90 columns


def test_blocks_mode_honours_the_size_ceiling(lower_ceiling):
    # the dimensions of the power rings X^S of the blocks are computed under
    # the engine's ceiling, which bounds their standard monomials
    lower_ceiling(5)
    result = run_cli(["--format", "json", "fm", "check", "--n", "5", "--mode", "blocks"])
    assert result.exit_code == 3
    report = strict_report_of(result)
    assert report["summary"]["status"] == "size-guard"
    assert report["inputs"] == {"n": 5, "mode": "blocks"}
    guard = report["checks"][0]
    assert guard["name"] == "size-guard" and guard["ceiling"] == 5
    assert guard["label"].startswith("xn:") and guard["unit"] == "standard monomials"


# the unit of the count and ceiling of each command's refusal below (fm
# standard and xn six-point also refuse in the units of
# test_an_enumeration_is_refused_before_it_starts)
GUARD_UNITS = {"xn check": "columns", "fm check": "standard monomials",
               "fm standard": "points", "xn matching-gram": "Gram entries",
               "xn six-point": "standard monomials", "hodge eval": "Bernoulli terms"}


@pytest.mark.parametrize("args, lowered, accepted", [
    # the engine's column ceiling, lowered: degree 2 of X^4 (39 columns) is
    # built, degree 3 (90) refused
    (["xn", "check", "--n", "4"], 50, 39),
    # the standard monomials of the blocks' X^S, under the lowered ceiling:
    # degree 1 of X^5 (15) is served, degree 2 (55) refused
    (["fm", "check", "--n", "5", "--mode", "blocks"], 15, 15),
    # a bound on the ground set: n = 12 is enumerated
    (["fm", "standard", "--n", "13", "--degree", "1"], None, 12),
    # Gram entries: the 945 x 945 Gram of m = 5 is computed
    (["xn", "matching-gram", "--m", "6"], None, 945 ** 2),
    # the columns of the six-point vectors: degree 3 of X^6 (215 standard
    # monomials) is refused under 200, degree 2 (120) would be served
    (["xn", "six-point", "--n", "6", "--degree", "3"], 200, 120),
    # the Fraction terms of the Bernoulli row: B_4 of genus 2 (10 terms) is
    # computed, B_6 of genus 3 (21) refused
    (["hodge", "eval", "--g", "3", "--alphas", "2"], 10, 10),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_a_size_guard_counts_in_the_unit_of_its_ceiling(args, lowered, accepted,
                                                        lower_ceiling):
    # a refused count exceeds the ceiling and the largest request served
    # does not (the matching Gram once reported entries against a bound on m)
    if lowered is not None:
        lower_ceiling(lowered)
    result = run_cli(["--format", "json"] + args)
    assert result.exit_code == 3
    report = strict_report_of(result)
    (guard,) = report["checks"]
    assert guard["name"] == "size-guard", guard
    assert guard["unit"] == GUARD_UNITS[report["command"]], guard
    assert guard["count"] > guard["ceiling"], guard
    assert accepted <= guard["ceiling"], guard


def test_hilbert_far_above_the_socle_is_zeros():
    result = run_cli(
        ["--format", "json", "xn", "hilbert", "--n", "1", "--max-degree", "70"]
    )
    assert result.exit_code == 0
    report = strict_report_of(result)
    assert report["command"] == "xn hilbert"
    assert report["summary"]["hilbert"] == [1, 1] + [0] * 69


def test_packing_refusal_report_is_strict_json(monkeypatch):
    # a presentation where vanishing above the socle cannot be proven, so
    # every degree is built until the exponent packing runs out
    from tautring import cli as cli_module
    from tautring.algebra import Monomial, Presentation, gen_a

    x = gen_a(1)
    free = Presentation("free-one-generator", (1,), [x], [], 1,
                        Monomial(((x, 1),)))
    monkeypatch.setattr(cli_module.xn_mod, "xn_presentation", lambda n: free)
    result = run_cli(
        ["--format", "json", "xn", "hilbert", "--n", "1", "--max-degree", "70"]
    )
    assert result.exit_code == 3
    report = strict_report_of(result)
    assert report["command"] == "xn hilbert"
    guard = report["checks"][0]
    assert guard["count"] is None and guard["unit"] is None
    assert "packing" in guard["reason"]


def test_check_failure_exits_one(monkeypatch):
    from tautring import cli as cli_module
    from tautring.xn import a_poly

    monkeypatch.setattr(
        cli_module.xn_mod, "verify_faber_relation", lambda: a_poly(1)
    )
    result = run_cli(["--format", "json", "xn", "faber-relation"])
    assert result.exit_code == 1
    assert report_of(result)["summary"]["status"] == "fail"


def test_faber_relation_report():
    result = run_cli(["--format", "json", "xn", "faber-relation"])
    assert result.exit_code == 0
    report = report_of(result)
    assert report["summary"]["reduced"] == "-2*a1*b(2,3) + 2*b(1,2)*b(1,3)"


def test_derive_six_point_passes():
    result = run_cli(["--format", "json", "xn", "derive-six-point"])
    assert result.exit_code == 0
    report = report_of(result)
    assert report["checks"][0]["status"] == "pass"
    assert report["checks"][0]["term_count"] == 15


def test_matching_gram_reports_rank():
    result = run_cli(["--format", "json", "xn", "matching-gram", "--m", "3"])
    assert result.exit_code == 0
    report = report_of(result)
    assert report["summary"]["rank"] == 14
    assert report["summary"]["size"] == 15


def test_hodge_eval():
    result = run_cli(
        ["--format", "json", "hodge", "eval", "--g", "2", "--alphas", "1,1"]
    )
    assert result.exit_code == 0
    assert report_of(result)["summary"]["value"] == "1/960"


def test_hodge_eval_rejects_bad_exponents():
    result = run_cli(
        ["hodge", "eval", "--g", "2", "--alphas", "0,2"]
    )
    assert result.exit_code == 2


def test_an_unknown_global_option_is_named(capsys):
    # argparse alone takes the value after an unknown option for the
    # command and refuses it as the invalid command '50'
    result = run_cli(["--size-ceiling", "50", "xn", "check", "--n", "2"])
    assert result.exit_code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --size-ceiling" in err
    assert "invalid choice" not in err


def test_bridge_command():
    result = run_cli(["--format", "json", "bridge", "--n", "2"])
    assert result.exit_code == 0
    report = report_of(result)
    assert report["summary"]["lhs"] == "1/960"
    assert report["summary"]["constant"] == "1/5760"


def test_fm_check_blocks():
    result = run_cli(
        ["--format", "json", "fm", "check", "--n", "3", "--mode", "blocks"]
    )
    assert result.exit_code == 0
    report = report_of(result)
    assert report["summary"]["rank_sums"] == [1, 7, 7, 1]
    names = {c["name"] for c in report["checks"]}
    assert "filtration-vanishing" in names
    assert "sign-rule-and-triangularity" in names


@pytest.mark.parametrize("n", [5, 9])
def test_blocks_mode_walks_no_d_part(n, monkeypatch, fresh_records):
    # above the cross-check limit the verdict counts the D-parts and reads
    # the X^s records from matching blocks: no D-part, forest, six-point
    # vector or standard monomial is built, the records computed afresh
    from tautring import fm, xn

    calls = []
    for module, name in [(fm, "_dparts"), (fm, "Forest"), (fm, "enumerate_standard_xn"),
                         (xn, "six_point_relations"), (xn, "enumerate_standard_xn")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    result = run_cli(["--format", "json", "fm", "check", "--n", str(n), "--mode", "blocks"])
    assert result.exit_code == 0
    assert calls == []


def test_blocks_mode_refuses_n_12_at_its_largest_matching_gram(monkeypatch, fresh_records):
    # n = 12 passes the points limit, and its largest shape, X^12 in degree
    # 6, needs the block of m = 6 pairs; it is read first, so the refusal
    # comes before any matching block is computed or any D-part counted
    from tautring import fm, xn

    built, real = [], xn.matching_block
    monkeypatch.setattr(xn, "matching_block", lambda m: built.append(m) or real(m))
    monkeypatch.setattr(fm, "_dpart_tally", lambda n: built.append("tally"))
    result = run_cli(["--format", "json", "fm", "check", "--n", "12", "--mode", "blocks"])
    assert result.exit_code == 3
    (guard,) = strict_report_of(result)["checks"]
    assert (guard["name"], guard["label"], guard["count"], guard["unit"]) == (
        "size-guard", "matching-gram", 108_056_025, "Gram entries")
    assert built == [6]


def _shift_sign_exponent(monkeypatch):
    from tautring.fm import Forest

    original = Forest.sign_exponent
    monkeypatch.setattr(Forest, "sign_exponent", lambda self: original(self) + 1)


def _no_zero_keys(monkeypatch):
    from tautring.algebra import GradedRing

    monkeypatch.setattr(GradedRing, "is_zero_key", lambda self, key, d: False)


@pytest.mark.parametrize("breaks, name, message", [
    (_shift_sign_exponent, "sign-rule-and-triangularity", "sign rule fails"),
    (_no_zero_keys, "filtration-vanishing", "filtration vanishing fails"),
], ids=["sign-rule", "filtration-vanishing"])
def test_a_refuted_engine_cross_check_is_a_failed_check(
        breaks, name, message, monkeypatch, capsys):
    breaks(monkeypatch)
    result = run_cli(["--format", "json", "fm", "check", "--n", "3", "--mode", "blocks"])
    assert result.exit_code == 1
    assert capsys.readouterr().err == ""  # no traceback
    report = strict_report_of(result)
    assert report["summary"]["status"] == "fail"
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == [name]
    assert failed[0]["message"].startswith(message)
    # the refutation comes last, after every block verdict
    names = [c["name"] for c in report["checks"]]
    assert names == [f"blocks-degree-{d}" for d in range(4)] + ["rank-sums-symmetric", name]
    assert report["summary"]["rank_sums"] == [1, 7, 7, 1]


def _readme_command_lines():
    """The command lines of README's ``## Command line`` block, each split
    into arguments after the program name, comments dropped."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        section = f.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_the_readme_command_lines_pass_with_strict_json_reports():
    lines = _readme_command_lines()
    assert lines
    for line in lines:
        assert line[0] == "tautring", line
        result = run_cli(["--format", "json"] + line[1:])
        assert result.exit_code == 0, line
        assert strict_report_of(result)["summary"]["status"] == "pass", line


def test_fm_check_full():
    result = run_cli(
        ["--format", "json", "fm", "check", "--n", "3", "--mode", "full"]
    )
    assert result.exit_code == 0
    assert report_of(result)["summary"]["hilbert"] == [1, 7, 7, 1]


def test_fm_standard_and_dual():
    result = run_cli(
        ["--format", "json", "fm", "standard", "--n", "3", "--degree", "2"]
    )
    assert result.exit_code == 0
    assert report_of(result)["summary"]["count"] == 7

    result = run_cli(
        ["--format", "json", "fm", "dual", "--monomial",
         '{"n": 3, "D": [[[1, 2, 3], 1]]}'],
    )
    assert result.exit_code == 0
    assert report_of(result)["summary"]["dual"] == {
        "A": [1], "B": [], "D": [[[1, 2, 3], 1]],
    }


@pytest.mark.parametrize("args, message", [
    (["--monomial", '{"n": 4, "D": [[[1,2,3],1],[[2,3,4],1]]}'], "overlap without nesting"),
    (["--monomial", '{"n": 3, "a": [1]}'], "unknown keys ['a']"),
    (["--n", "5", "--monomial", '{"n": 3, "D": [[[1,2,3],1]]}'],
     '--n 5 differs from the payload\'s "n": 3'),
])
def test_fm_dual_names_what_it_refuses(args, message, capsys):
    result = run_cli(["fm", "dual"] + args)
    assert result.exit_code == 2
    assert message in capsys.readouterr().err


def test_fm_dual_requires_a_ground_size():
    result = run_cli(
        ["fm", "dual", "--monomial", '{"D": [[[1, 2, 3], 1]]}']
    )
    assert result.exit_code == 2


def test_fm_presentation_summary():
    result = run_cli(["--format", "json", "fm", "presentation", "--n", "3"])
    assert result.exit_code == 0
    report = report_of(result)
    assert report["summary"]["generators"] == 7
    assert report["summary"]["relations"] == 24


def test_cache_flow_and_warm_rerun_is_byte_identical(tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ["--format", "json", "--cache-dir", cache_dir, "xn", "check", "--n", "3"]

    def body(result):
        report = report_of(result)
        report.pop("timing")
        return json.dumps(report, indent=2, sort_keys=True)

    cold = run_cli(args)
    assert cold.exit_code == 0
    warm1 = run_cli(args)
    warm2 = run_cli(args)
    assert body(warm1) == body(warm2)
    assert report_of(warm1)["cache"]["entry_count"] > 0


def test_the_cache_is_set_by_the_flag_alone(tmp_path):
    result = run_cli(["--format", "json", "xn", "check", "--n", "3"],
                     env={"TAUTRING_CACHE_DIR": str(tmp_path)})
    assert result.exit_code == 0
    assert report_of(result)["cache"] is None
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("action", ["stats", "clear"])
def test_there_is_no_cache_command(action, tmp_path, capsys):
    result = run_cli(["--cache-dir", str(tmp_path), "cache", action])
    assert result.exit_code == 2 and result.output == ""
    assert capsys.readouterr().err.startswith("usage: tautring")


def test_table_format_renders():
    result = run_cli(["xn", "hilbert", "--n", "2"])
    assert result.exit_code == 0
    assert "hilbert" in result.output
    assert "summary" in result.output


def test_cache_block_reports_this_runs_hits_and_misses(tmp_path):
    args = ["--format", "json", "--cache-dir", str(tmp_path / "cache"),
            "xn", "check", "--n", "3"]
    cold = report_of(run_cli(args))["cache"]
    warm = report_of(run_cli(args))["cache"]
    assert cold["hits"] == 0 and cold["misses"] > 0
    assert warm["hits"] == cold["misses"] and warm["misses"] == 0
    assert set(warm) == {"directory", "entry_count", "total_bytes", "hits", "misses"}
    assert warm["entry_count"] == cold["entry_count"] > 0


def test_cache_block_counts_a_payload_failing_verification_as_a_miss(tmp_path):
    from tautring.cache import CachedRing, CacheStore
    from tautring.xn import xn_presentation

    cache_dir = tmp_path / "cache"
    args = ["--format", "json", "--cache-dir", str(cache_dir),
            "xn", "check", "--n", "3"]
    cold = report_of(run_cli(args))["cache"]
    store = CacheStore(cache_dir)
    key = CachedRing(xn_presentation(3), store)._basis_cache_key(1)
    payload = store.get(key)
    store.put(key, dict(payload, monomial_count=payload["monomial_count"] + 1))
    warm = report_of(run_cli(args))["cache"]
    assert warm["misses"] == 1 and warm["hits"] == cold["misses"] - 1


def test_cache_runs_leave_the_ring_registry_unchanged(tmp_path):
    from tautring import algebra

    args = ["--format", "json", "--cache-dir", str(tmp_path / "cache"),
            "xn", "check", "--n", "3"]
    # equal counts mean no lookup at all, so no CachedRing entered the cache
    before = algebra.ring_for.cache_info()
    for _ in range(5):
        assert run_cli(args).exit_code == 0
    assert algebra.ring_for.cache_info() == before


# ----- property: every report is strict, honest and reproducible -------------

_SMALL_COMMANDS = st.one_of(
    st.builds(lambda n: ["xn", "check", "--n", str(n)], st.integers(1, 3)),
    st.builds(
        lambda n, top: ["xn", "hilbert", "--n", str(n), "--max-degree", str(top)],
        st.integers(1, 3), st.integers(0, 5),
    ),
    st.builds(
        lambda n, mode: ["fm", "check", "--n", str(n), "--mode", mode],
        st.integers(1, 3), st.sampled_from(["full", "blocks"]),
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.builds(
            lambda d: ["fm", "standard", "--n", str(n), "--degree", str(d)],
            st.integers(0, n),
        )
    ),
    st.just(["bridge", "--n", "2"]),
)

_EXIT_CODES = {"pass": 0, "fail": 1, "size-guard": 3}


@settings(max_examples=30, deadline=None)
@given(command=_SMALL_COMMANDS, ceiling=st.one_of(st.none(), st.integers(5, 40)))
def test_reports_are_strict_json_with_honest_exit_codes_and_stable_reruns(
    command, ceiling
):
    # Hypothesis refuses function-scoped fixtures, so the ceiling is patched
    # per example, on rings built under it
    from tautring import algebra

    if ceiling is None:
        ceiling = algebra.SIZE_CEILING
    with (tempfile.TemporaryDirectory() as cache_dir,
          mock.patch.object(algebra, "SIZE_CEILING", ceiling)):
        algebra.ring_for.cache_clear()
        args = ["--format", "json", "--cache-dir", cache_dir] + command
        bodies = []
        for _ in range(3):  # cold, then two warm reruns
            result = run_cli(args)
            report = strict_report_of(result)
            assert result.exit_code == _EXIT_CODES[report["summary"]["status"]]
            report.pop("timing")
            bodies.append(report)
        assert bodies[1] == bodies[2]
        assert bodies[0]["checks"] == bodies[1]["checks"]
