"""Command-line front end: verifications and their reports.

Every subcommand runs a set of named checks and returns ``(inputs, checks,
summary)``; :func:`main` emits them as one report document (JSON or an
aligned table) with the shape

    {schema, command, inputs, checks[], summary, cache, timing}

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 size-guard refusal.  Report bodies are deterministic for fixed
inputs and cache state (timing excluded), so reruns are diffable.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import fm as fm_mod
from . import hodge as hodge_mod
from . import xn as xn_mod
from ._kernel import _integer_rank
from .algebra import SizeCeilingError, ring_for
from .cache import CachedRing, CacheStore

REPORT_SCHEMA = "tautring-report-1"

CROSS_CHECK_LIMIT = 4  # full-engine verification bound for block mode


class UsageError(Exception):
    """An argument that parses but cannot be used; exits 2 like a parse
    error, with the subcommand's usage line."""


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    return value


class RunContext:
    def __init__(self, fmt, cache_dir):
        self.format = fmt
        self.cache = CacheStore(cache_dir) if cache_dir else None
        self.started = time.monotonic()
        self.rings = {}  # presentation -> CachedRing on this run's store

    def ring(self, presentation):
        """The engine for ``presentation``.  Without a store it is the shared
        ``ring_for`` ring, which computes every basis; with one it is a
        CachedRing built for this run, once per presentation, and dropped
        with the run."""
        if self.cache is None:
            return ring_for(presentation)
        ring = self.rings.get(presentation)
        if ring is None:
            ring = CachedRing(presentation, self.cache)
            self.rings[presentation] = ring
        return ring

    def cache_report(self):
        """The report's ``cache`` block: None without ``--cache-dir``;
        otherwise the directory, its entries' count and bytes
        (:meth:`CacheStore.usage`), and this run's hits and misses.

        A CachedRing counts a payload that fails verification as a miss;
        the rings on the store are this run's own, so the sums cover this
        run only.
        """
        if self.cache is None:
            return None
        entry_count, total_bytes = self.cache.usage()
        rings = self.rings.values()
        return {
            "directory": self.cache.directory,
            "entry_count": entry_count,
            "total_bytes": total_bytes,
            "hits": sum(r.cache_hits for r in rings),
            "misses": sum(r.cache_misses for r in rings),
        }


def check(name, ok, **witness):
    record = {"name": name, "status": "pass" if ok else "fail"}
    record.update({k: _jsonable(v) for k, v in witness.items()})
    return record


def emit(run, command, inputs, checks, summary_extra=None, *, status=None):
    """Print the report of one run and exit with its code; the one exit of
    every run that reaches a report.  The report is serialized as strict
    JSON first, in either format, so a non-finite number raises ValueError
    before anything is printed."""
    passed = sum(1 for c in checks if c["status"] == "pass")
    failed = sum(1 for c in checks if c["status"] == "fail")
    if status is None:
        status = "pass" if failed == 0 else "fail"
    summary = {"status": status, "checks_passed": passed, "checks_failed": failed}
    if summary_extra:
        summary.update({k: _jsonable(v) for k, v in summary_extra.items()})
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": {k: _jsonable(v) for k, v in inputs.items()},
        "checks": checks,
        "summary": summary,
        "cache": run.cache_report(),
        "timing": {"seconds": round(time.monotonic() - run.started, 3)},
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    try:
        if run.format == "json":
            print(text)
        else:
            _echo_table(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``| head``): exit 1 without a
        # traceback, and without a second one when Python flushes at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if status == "size-guard":
        sys.exit(3)
    sys.exit(0 if failed == 0 else 1)


def _echo_table(report):
    print(f"command : {report['command']}")
    for key, value in sorted(report["inputs"].items()):
        print(f"  {key} = {value}")
    width = max((len(c["name"]) for c in report["checks"]), default=0)
    for c in report["checks"]:
        extras = {
            k: v for k, v in c.items() if k not in ("name", "status")
        }
        tail = "  " + json.dumps(extras, sort_keys=True) if extras else ""
        print(f"  {c['name']:<{width}}  {c['status']}{tail}")
    print(f"summary : {json.dumps(report['summary'], sort_keys=True)}")
    if report["cache"] is not None:
        print(
            f"cache   : {report['cache']['entry_count']} entries, "
            f"{report['cache']['total_bytes']} bytes, "
            f"{report['cache']['hits']} hits, {report['cache']['misses']} misses"
        )
    print(f"timing  : {report['timing']['seconds']}s")


def _parse_alphas(text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--alphas must be comma-separated integers, got {text!r}")


# ----- power-ring commands ---------------------------------------------------


def xn_hilbert(run, n, max_degree):
    """Graded dimensions of the power ring."""
    top = n if max_degree is None else max_degree
    ring = run.ring(xn_mod.xn_presentation(n))
    dims = ring.hilbert(top)
    checks = [check("hilbert", True, dimensions=dims)]
    if top >= n:
        sym = all(dims[d] == dims[n - d] for d in range(n + 1))
        checks.append(check("palindrome", sym))
    return {"n": n, "max_degree": top}, checks, {"hilbert": dims}


def xn_check(run, n):
    """Full pairing verification of the power ring."""
    return {"n": n}, *_engine_checks(run, xn_mod.xn_presentation(n))


def _engine_checks(run, presentation):
    """The checks and summary of the engine's Gorenstein verification of
    ``presentation``, shared by ``xn check`` and ``fm check --mode full``."""
    report = run.ring(presentation).gorenstein_check()
    checks = [
        check("socle-dimension", report.socle_ok, note=report.socle_note),
        check(
            "vanishing-above-socle",
            report.above_socle_dimension == 0,
            dimension=report.above_socle_dimension,
        ),
    ]
    for rec in report.records:
        checks.append(
            check(
                f"pairing-degree-{rec['degree']}",
                rec["perfect"],
                dimension=rec["dimension"],
                complement_dimension=rec["complement_dimension"],
                gram_rank=rec["gram_rank"],
            )
        )
    return checks, {"verdict": report.verdict, "hilbert": report.hilbert}


def xn_six_point(run, n, degree):
    """Six-point relation vectors over the standard monomials."""
    vectors, standard = xn_mod.six_point_relations(n, degree)
    checks = [
        check("vectors-nonzero", all(v for v in vectors), count=len(vectors)),
    ]
    payload = [sorted((i, str(c)) for i, c in vec.items()) for vec in vectors]
    return ({"n": n, "degree": degree}, checks,
            {"vector_count": len(vectors), "standard_count": len(standard),
             "vectors": payload})


def xn_derive_six_point(run):
    """Derive the six-point relation from the rational-tails pullback."""
    derived = xn_mod.derive_six_point()
    expected = -xn_mod.six_point_poly(range(1, 7))
    ok = derived == expected
    checks = [
        check("matches-minus-sum-over-matchings", ok,
              term_count=len(derived.sorted_terms())),
    ]
    return {}, checks, {"derived": str(derived)}


def xn_faber_relation(run):
    """Reduce the rational-tails three-point relation to normal form."""
    reduced = xn_mod.verify_faber_relation()
    expected = (
        xn_mod.b_poly(1, 2) * xn_mod.b_poly(1, 3)
        - xn_mod.a_poly(1) * xn_mod.b_poly(2, 3)
    ).scale(2)
    checks = [check("reduces-to-quadratic-pair", reduced == expected)]
    return {}, checks, {"reduced": str(reduced)}


def xn_matching_gram(run, m):
    """Gram matrix of the pure-matching monomials on 2m points."""
    gram = xn_mod.matching_gram(m)
    size, rank = len(gram), _integer_rank(gram)
    checks = [check("closed-form-entries", gram == xn_mod.closed_matching_gram(m), size=size),
              check("rank", True, rank=rank, size=size)]
    if m == 3:
        checks.append(check("corank-one", rank == size - 1))
    return {"m": m}, checks, {"rank": rank, "size": size}


# ----- compactified-ring commands --------------------------------------------


def fm_check(run, n, mode):
    """Verify the compactified ring: full engine or block decomposition."""
    inputs = {"n": n, "mode": mode}
    if mode == "full":
        return inputs, *_engine_checks(run, fm_mod.fm_presentation(n))
    table = fm_mod.block_pairing(n)
    rank_sums = [sum(blocks * rank for _, _, blocks, (_, rank, _) in shapes)
                 for shapes in table]
    checks = [
        check(f"blocks-degree-{d}",
              all(rank == dimension for *_, (_, rank, dimension) in shapes),
              blocks=sum(blocks for _, _, blocks, _ in shapes),
              standard=sum(blocks * count for _, _, blocks, (count, _, _) in shapes),
              rank_sum=rank_sums[d])
        for d, shapes in enumerate(table)
    ]
    checks.append(check("rank-sums-symmetric", rank_sums == rank_sums[::-1],
                        rank_sums=rank_sums))
    if n > CROSS_CHECK_LIMIT:
        checks.append(check("sign-rule", True, note="conditional: engine cross-check "
                                                    f"runs for n <= {CROSS_CHECK_LIMIT}"))
    else:
        try:
            pairs = fm_mod.engine_cross_check(run.ring(fm_mod.fm_presentation(n)))
        except fm_mod.CrossCheckError as exc:  # the last check: the refuted statement
            checks.append(check(exc.check, False, message=str(exc)))
        else:
            checks.append(check("filtration-vanishing", True, pairs_checked=pairs))
            checks.append(check("sign-rule-and-triangularity", True,
                                note="verified against the full engine"))
    return inputs, checks, {"rank_sums": rank_sums}


def fm_standard(run, n, degree):
    """Enumerate standard monomials of one degree."""
    monomials = fm_mod.enumerate_standard_fm(n, degree)
    checks = [check("enumerated", True, count=len(monomials))]
    return ({"n": n, "degree": degree}, checks,
            {"count": len(monomials), "monomials": [m.serialize() for m in monomials]})


def fm_dual(run, payload_text, n):
    """Dual of a standard monomial."""
    try:
        payload = json.loads(payload_text)
    except ValueError as exc:
        raise UsageError(f"--monomial is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise UsageError("--monomial must be a JSON object")
    size = payload.get("n", n)
    if type(size) is not int or size < 1:
        raise UsageError("ground-set size missing or not a positive integer: pass "
                         f"--n or a payload key 'n' (got {size!r})")
    if n is not None and size != n:
        raise UsageError(f"--n {n} differs from the payload's \"n\": {size}")
    try:
        v = fm_mod.StandardMonomialFM.deserialize(size, payload)
    except (TypeError, ValueError) as exc:  # a field of the wrong shape or type
        raise UsageError(f"--monomial is not a monomial on {size} points: {exc}")
    try:
        w = fm_mod.dual_fm(v)
    except ValueError as exc:
        raise UsageError(str(exc))
    checks = [
        check("involution", fm_mod.dual_fm(w) == v),
        check("degrees-complementary", v.degree + w.degree == size,
              degree=v.degree, dual_degree=w.degree),
    ]
    return {"n": size, "monomial": payload}, checks, {"dual": w.serialize()}


def fm_presentation_cmd(run, n):
    """Summary of the compactified ring's presentation."""
    pres = fm_mod.fm_presentation(n)
    counts = fm_mod.fm_relation_counts(n)
    checks = [check("relation-families", True, **counts)]
    return ({"n": n}, checks,
            {"generators": len(pres.generators),
             "relations": len(pres.relations),
             "socle_degree": pres.socle_degree,
             "content_hash": pres.content_hash})


# ----- moduli-side commands ---------------------------------------------------


def hodge_cmd(run, g, alphas):
    """Closed-form psi-lambda integral evaluation."""
    exps = _parse_alphas(alphas)
    try:
        value = hodge_mod.hodge_psi_integral(exps, g=g)
    except ValueError as exc:
        raise UsageError(str(exc))
    checks = [check("evaluated", True, value=value)]
    return {"g": g, "alphas": exps}, checks, {"value": value}


def bridge_cmd(run, n, alphas):
    """Compare the closed form against the fiber-side socle evaluation."""
    exps = [1] * n if alphas is None else _parse_alphas(alphas)
    if len(exps) != n:
        raise UsageError("--alphas length must equal --n")
    ring = run.ring(fm_mod.fm_presentation(n))
    try:
        lhs, rhs, ok = hodge_mod.bridge_check(n, exps, ring=ring)
    except ValueError as exc:
        raise UsageError(str(exc))
    checks = [check("bridge-identity", ok, lhs=lhs, rhs=rhs)]
    return ({"n": n, "alphas": exps}, checks,
            {"lhs": lhs, "rhs": rhs, "constant": hodge_mod.bridge_constant()})


# ----- argument parsing -------------------------------------------------------


def _at_least(low):
    """Argument type: an integer no smaller than ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    return parse


def _parser(prog):
    """The argument parser.  Each subcommand's defaults name the function
    that runs it (``_command``), its path below the program name, which
    the report gives as its ``command`` (``_path``), and its own
    parser (``_parser``), whose usage line a usage error prints."""
    main_parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Exact verification of tautological rings of points on a "
                    "genus-2 curve.")
    main_parser.add_argument("--format", dest="fmt", choices=["json", "table"],
                             default="table", help="Report format.")
    main_parser.add_argument("--cache-dir", help="Basis cache directory.")
    groups = main_parser.add_subparsers(required=True, metavar="COMMAND")

    def command(subparsers, path, fn):
        parser = subparsers.add_parser(path.split()[-1], help=fn.__doc__,
                                       description=fn.__doc__, allow_abbrev=False)
        parser.set_defaults(_command=fn, _path=path, _parser=parser)
        return parser

    def group(name, doc):
        parser = groups.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        return parser.add_subparsers(required=True, metavar="COMMAND")

    xn = group("xn", "Power ring X^n commands.")
    p = command(xn, "xn hilbert", xn_hilbert)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--max-degree", type=_at_least(0), default=None)
    p = command(xn, "xn check", xn_check)
    p.add_argument("--n", type=_at_least(1), required=True)
    p = command(xn, "xn six-point", xn_six_point)
    p.add_argument("--n", type=_at_least(6), required=True)
    p.add_argument("--degree", type=_at_least(3), required=True)
    command(xn, "xn derive-six-point", xn_derive_six_point)
    command(xn, "xn faber-relation", xn_faber_relation)
    p = command(xn, "xn matching-gram", xn_matching_gram)
    p.add_argument("--m", type=_at_least(1), required=True)

    fm = group("fm", "Compactified ring X[n] commands.")
    p = command(fm, "fm check", fm_check)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--mode", choices=["full", "blocks"], default="full",
                   help="(default: %(default)s)")
    p = command(fm, "fm standard", fm_standard)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--degree", type=_at_least(0), required=True)
    p = command(fm, "fm dual", fm_dual)
    p.add_argument("--monomial", dest="payload_text", metavar="JSON", required=True,
                   help='Serialized monomial, e.g. \'{"n": 3, "D": [[[1,2,3], 1]]}\'.')
    p.add_argument("--n", type=_at_least(1), default=None,
                   help="Ground-set size (if absent from the payload).")
    p = command(fm, "fm presentation", fm_presentation_cmd)
    p.add_argument("--n", type=_at_least(1), required=True)

    hodge = group("hodge", "Moduli-side psi-lambda integrals.")
    p = command(hodge, "hodge eval", hodge_cmd)
    p.add_argument("--g", type=_at_least(2), default=2, help="(default: %(default)s)")
    p.add_argument("--alphas", required=True, help="Comma-separated exponents.")
    p = command(groups, "bridge", bridge_cmd)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--alphas", default=None,
                   help="Comma-separated exponents (default: all ones).")
    return main_parser


def _check_leading_options(main_parser, args):
    """Refuse an unknown option before the command name, which argparse
    would skip, taking the value after it for an invalid command name."""
    options = main_parser._option_string_actions
    rest = iter(args)
    for arg in rest:
        if not arg.startswith("-") or arg == "--":
            return  # the command name
        action = options.get(arg.split("=", 1)[0])
        if action is None:
            main_parser.error(f"unrecognized arguments: {arg}")
        if action.nargs is None and "=" not in arg:
            next(rest, None)  # the option's value


def main(args=None, prog_name="tautring", standalone_mode=True):
    """Run one command line (``args``, by default ``sys.argv[1:]``) and
    exit with its code: 0 pass, 1 a check failed, 2 usage error, 3
    size-guard refusal.  Every outcome, a usage error included, ends in
    SystemExit; every outcome but a usage error prints one report, by the
    one call of :func:`emit` here.  ``prog_name`` names the program in
    usage messages, the same under ``python -m tautring.cli`` as for the
    console script; ``standalone_mode`` is accepted for callers that pass
    it and changes nothing."""
    main_parser = _parser(prog_name)
    _check_leading_options(main_parser, sys.argv[1:] if args is None else args)
    params = vars(main_parser.parse_args(args))
    try:
        run = RunContext(params.pop("fmt"), params.pop("cache_dir"))
    except OSError as exc:  # the cache directory cannot be made
        main_parser.error(f"argument --cache-dir: {exc}")
    command, path, parser = params.pop("_command"), params.pop("_path"), params.pop("_parser")
    status = None
    try:
        inputs, checks, summary = command(run, **params)
    except UsageError as exc:
        parser.error(str(exc))
    except SizeCeilingError as exc:
        inputs, summary, status = params, None, "size-guard"
        checks = [check("size-guard", False, label=exc.label, degree=exc.degree,
                        count=exc.count, ceiling=exc.ceiling, unit=exc.unit,
                        reason=exc.reason)]
    emit(run, path, inputs, checks, summary, status=status)


if __name__ == "__main__":
    main()
