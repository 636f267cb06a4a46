"""Command-line front end: verifications, reports, cache administration.

Every subcommand runs a set of named checks and emits one report document
(JSON or an aligned table) with the shape

    {schema, command, inputs, checks[], summary, cache, timing}

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, 3 size-guard refusal.  Report bodies are deterministic for fixed
inputs and cache state (timing excluded), so reruns are diffable.
"""

import json
import os
import sys
import time
from fractions import Fraction

import click

from . import fm as fm_mod
from . import hodge as hodge_mod
from . import xn as xn_mod
from .algebra import SIZE_CEILING_DEFAULT, GradedRing, SizeCeilingError, ring_for
from .cache import CacheStore

REPORT_SCHEMA = "tautring-report-1"

CROSS_CHECK_LIMIT = 4  # full-engine verification bound for block mode


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
    def __init__(self, fmt, cache_dir, size_ceiling):
        self.format = fmt
        self.cache = CacheStore(cache_dir) if cache_dir else None
        self.size_ceiling = size_ceiling
        self.started = time.monotonic()
        self.rings = {}  # content hash -> ring bound to this run's store

    def ring(self, presentation):
        """The engine for ``presentation``.  Without a store it is the shared
        ``ring_for`` ring; with one it is built for this run, once per
        presentation, and dropped with the run."""
        if self.cache is None:
            return ring_for(presentation, size_ceiling=self.size_ceiling)
        ring = self.rings.get(presentation.content_hash)
        if ring is None:
            ring = GradedRing(
                presentation, size_ceiling=self.size_ceiling, cache=self.cache
            )
            self.rings[presentation.content_hash] = ring
        return ring

    def cache_report(self):
        """The cache directory's size and this run's hits and misses.

        A ring counts a payload that fails verification as a miss; the
        rings bound to the store are this run's own, so the sums cover
        this run only.
        """
        if self.cache is None:
            return None
        stats = self.cache.stats()
        rings = self.rings.values()
        return {
            "directory": stats["directory"],
            "entry_count": stats["entry_count"],
            "total_bytes": stats["total_bytes"],
            "hits": sum(r.cache_hits for r in rings),
            "misses": sum(r.cache_misses for r in rings),
        }


def check(name, ok, **witness):
    record = {"name": name, "status": "pass" if ok else "fail"}
    record.update({k: _jsonable(v) for k, v in witness.items()})
    return record


def emit(ctx, command, inputs, checks, summary_extra=None, *, status=None):
    run = ctx.obj
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
    if run.format == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        _echo_table(report)
    if status == "size-guard":
        sys.exit(3)
    sys.exit(0 if failed == 0 else 1)


def _echo_table(report):
    click.echo(f"command : {report['command']}")
    for key, value in sorted(report["inputs"].items()):
        click.echo(f"  {key} = {value}")
    width = max((len(c["name"]) for c in report["checks"]), default=0)
    for c in report["checks"]:
        extras = {
            k: v for k, v in c.items() if k not in ("name", "status")
        }
        tail = "  " + json.dumps(extras, sort_keys=True) if extras else ""
        click.echo(f"  {c['name']:<{width}}  {c['status']}{tail}")
    click.echo(f"summary : {json.dumps(report['summary'], sort_keys=True)}")
    if report["cache"] is not None:
        click.echo(
            f"cache   : {report['cache']['entry_count']} entries, "
            f"{report['cache']['total_bytes']} bytes, "
            f"{report['cache']['hits']} hits, {report['cache']['misses']} misses"
        )
    click.echo(f"timing  : {report['timing']['seconds']}s")


def _subcommand_path(ctx):
    """Subcommand names below the root group, e.g. ``xn hilbert``; unlike
    ``ctx.command_path`` this does not depend on how the program was
    started (``tautring`` or ``python -m tautring.cli``)."""
    names = []
    while ctx.parent is not None:
        names.append(ctx.info_name)
        ctx = ctx.parent
    return " ".join(reversed(names))


def guarded(fn):
    """Convert engine size refusals into exit code 3 with a marked report."""

    def wrapper(ctx, *args, **kwargs):
        try:
            return fn(ctx, *args, **kwargs)
        except SizeCeilingError as exc:
            emit(
                ctx,
                _subcommand_path(ctx),
                kwargs,
                [
                    check(
                        "size-guard",
                        False,
                        label=exc.label,
                        degree=exc.degree,
                        count=exc.count,
                        ceiling=exc.ceiling,
                        reason=exc.reason,
                    )
                ],
                status="size-guard",
            )

    return wrapper


def _parse_alphas(text):
    try:
        alphas = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise click.UsageError(f"--alphas must be comma-separated integers, got {text!r}")
    if not alphas:
        raise click.UsageError("--alphas must be nonempty")
    return alphas


@click.group()
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table",
              help="Report format.")
@click.option("--cache-dir", envvar="TAUTRING_CACHE_DIR", default=None,
              type=click.Path(file_okay=False),
              help="Basis cache directory (also via TAUTRING_CACHE_DIR).")
@click.option("--size-ceiling", type=click.IntRange(min=1), default=SIZE_CEILING_DEFAULT,
              show_default=True, help="Refuse degrees with more columns (monomials outside the "
                   "monomial ideal) than this.")
@click.pass_context
def main(ctx, fmt, cache_dir, size_ceiling):
    """Exact verification of tautological rings of points on a genus-2 curve."""
    ctx.obj = RunContext(fmt, cache_dir, size_ceiling)


# ----- power-ring commands ---------------------------------------------------


@main.group()
def xn():
    """Power ring X^n commands."""


@xn.command("hilbert")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--max-degree", type=click.IntRange(min=0), default=None)
@click.pass_context
@guarded
def xn_hilbert(ctx, n, max_degree):
    """Graded dimensions of the power ring."""
    top = n if max_degree is None else max_degree
    ring = ctx.obj.ring(xn_mod.xn_presentation(n))
    dims = ring.hilbert(top)
    checks = [check("hilbert", True, dimensions=dims)]
    if top >= n:
        sym = all(dims[d] == dims[n - d] for d in range(n + 1))
        checks.append(check("palindrome", sym))
    emit(ctx, "xn hilbert", {"n": n, "max_degree": top}, checks,
         {"hilbert": dims})


@xn.command("check")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.pass_context
@guarded
def xn_check(ctx, n):
    """Full pairing verification of the power ring."""
    ring = ctx.obj.ring(xn_mod.xn_presentation(n))
    report = ring.gorenstein_check()
    checks = _pairing_checks(report)
    emit(ctx, "xn check", {"n": n}, checks,
         {"verdict": report.verdict, "hilbert": report.hilbert})


def _pairing_checks(report):
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
    return checks


@xn.command("six-point")
@click.option("--n", type=click.IntRange(min=6), required=True)
@click.option("--degree", type=click.IntRange(min=3), required=True)
@click.pass_context
@guarded
def xn_six_point(ctx, n, degree):
    """Six-point relation vectors over the standard monomials."""
    vectors, standard = xn_mod.six_point_relations(n, degree)
    checks = [
        check("vectors-nonzero", all(v for v in vectors), count=len(vectors)),
    ]
    payload = [sorted((i, str(c)) for i, c in vec.items()) for vec in vectors]
    emit(ctx, "xn six-point", {"n": n, "degree": degree}, checks,
         {"vector_count": len(vectors), "standard_count": len(standard),
          "vectors": payload})


@xn.command("derive-six-point")
@click.pass_context
@guarded
def xn_derive_six_point(ctx):
    """Derive the six-point relation from the rational-tails pullback."""
    derived = xn_mod.derive_six_point()
    expected = -xn_mod.six_point_poly(range(1, 7))
    ok = derived == expected
    checks = [
        check("matches-minus-sum-over-matchings", ok,
              term_count=len(derived.sorted_terms())),
    ]
    emit(ctx, "xn derive-six-point", {}, checks, {"derived": str(derived)})


@xn.command("faber-relation")
@click.pass_context
@guarded
def xn_faber_relation(ctx):
    """Reduce the rational-tails three-point relation to normal form."""
    reduced = xn_mod.verify_faber_relation()
    expected = (
        xn_mod.b_poly(1, 2) * xn_mod.b_poly(1, 3)
        - xn_mod.a_poly(1) * xn_mod.b_poly(2, 3)
    ).scale(2)
    checks = [check("reduces-to-quadratic-pair", reduced == expected)]
    emit(ctx, "xn faber-relation", {}, checks, {"reduced": str(reduced)})


@xn.command("matching-gram")
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.pass_context
@guarded
def xn_matching_gram(ctx, m):
    """Gram matrix of the pure-matching monomials on 2m points."""
    gram = xn_mod.matching_gram(m)
    matchings = xn_mod.perfect_matchings(range(1, 2 * m + 1))
    checks = []
    closed_ok = True
    for i, u in enumerate(matchings):
        for j, v in enumerate(matchings):
            cycles = xn_mod.matching_cycle_count(u, v)
            if gram[i][j] != Fraction(-4) ** cycles:
                closed_ok = False
    checks.append(check("closed-form-entries", closed_ok, size=len(matchings)))
    from .algebra import _integer_rank

    rank = _integer_rank(gram)
    checks.append(check("rank", True, rank=rank, size=len(matchings)))
    if m == 3:
        checks.append(check("corank-one", rank == len(matchings) - 1))
    emit(ctx, "xn matching-gram", {"m": m}, checks,
         {"rank": rank, "size": len(matchings)})


# ----- compactified-ring commands --------------------------------------------


@main.group()
def fm():
    """Compactified ring X[n] commands."""


@fm.command("check")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--mode", type=click.Choice(["full", "blocks"]), default="full",
              show_default=True)
@click.pass_context
@guarded
def fm_check(ctx, n, mode):
    """Verify the compactified ring: full engine or block decomposition."""
    if mode == "full":
        ring = ctx.obj.ring(fm_mod.fm_presentation(n))
        report = ring.gorenstein_check()
        checks = _pairing_checks(report)
        emit(ctx, "fm check", {"n": n, "mode": mode}, checks,
             {"verdict": report.verdict, "hilbert": report.hilbert})
        return
    cross = n <= CROSS_CHECK_LIMIT
    engine = ctx.obj.ring(fm_mod.fm_presentation(n)) if cross else None
    checks = []
    rank_sums = {}
    for d in range(n + 1):
        reports = fm_mod.block_pairing(n, d, cross_check_engine=engine)
        ok = all(r.ok for r in reports)
        rank_sums[d] = sum(r.rank for r in reports)
        checks.append(
            check(
                f"blocks-degree-{d}",
                ok,
                blocks=len(reports),
                standard=sum(r.size for r in reports),
                rank_sum=rank_sums[d],
            )
        )
    checks.append(
        check(
            "rank-sums-symmetric",
            all(rank_sums[d] == rank_sums[n - d] for d in range(n + 1)),
            rank_sums=[rank_sums[d] for d in range(n + 1)],
        )
    )
    if cross:
        pairs = fm_mod.filtration_vanishing_check(n, ring=engine)
        checks.append(check("filtration-vanishing", True, pairs_checked=pairs))
        checks.append(check("sign-rule-and-triangularity", True,
                            note="verified against the full engine"))
    else:
        checks.append(check("sign-rule", True,
                            note="conditional: engine cross-check runs for n <= 4"))
    emit(ctx, "fm check", {"n": n, "mode": mode}, checks,
         {"rank_sums": [rank_sums[d] for d in range(n + 1)]})


@fm.command("standard")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--degree", type=click.IntRange(min=0), required=True)
@click.pass_context
@guarded
def fm_standard(ctx, n, degree):
    """Enumerate standard monomials of one degree."""
    monomials = fm_mod.enumerate_standard_fm(n, degree)
    checks = [check("enumerated", True, count=len(monomials))]
    emit(ctx, "fm standard", {"n": n, "degree": degree}, checks,
         {"count": len(monomials),
          "monomials": [m.serialize() for m in monomials]})


@fm.command("dual")
@click.option("--monomial", "payload_text", required=True,
              help='Serialized monomial, e.g. \'{"n": 3, "D": [[[1,2,3], 1]]}\'.')
@click.option("--n", type=click.IntRange(min=1), default=None,
              help="Ground-set size (if absent from the payload).")
@click.pass_context
@guarded
def fm_dual(ctx, payload_text, n):
    """Dual of a standard monomial."""
    try:
        payload = json.loads(payload_text)
    except ValueError as exc:
        raise click.UsageError(f"--monomial is not valid JSON: {exc}")
    size = payload.get("n", n)
    if size is None:
        raise click.UsageError("ground-set size missing: pass --n or a payload key 'n'")
    try:
        v = fm_mod.StandardMonomialFM.deserialize(size, payload)
        w = fm_mod.dual_fm(v)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    checks = [
        check("involution", fm_mod.dual_fm(w) == v),
        check("degrees-complementary", v.degree + w.degree == size,
              degree=v.degree, dual_degree=w.degree),
    ]
    emit(ctx, "fm dual", {"n": size, "monomial": payload}, checks,
         {"dual": w.serialize()})


@fm.command("presentation")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.pass_context
@guarded
def fm_presentation_cmd(ctx, n):
    """Summary of the compactified ring's presentation."""
    pres = fm_mod.fm_presentation(n)
    counts = fm_mod.fm_relation_counts(n)
    checks = [check("relation-families", True, **counts)]
    emit(ctx, "fm presentation", {"n": n}, checks,
         {"generators": len(pres.generators),
          "relations": len(pres.relations),
          "socle_degree": pres.socle_degree,
          "content_hash": pres.content_hash})


# ----- moduli-side commands ---------------------------------------------------


@main.command("hodge")
@click.argument("action", type=click.Choice(["eval"]))
@click.option("--g", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--alphas", required=True, help="Comma-separated exponents.")
@click.pass_context
@guarded
def hodge_cmd(ctx, action, g, alphas):
    """Closed-form psi-lambda integral evaluation."""
    exps = _parse_alphas(alphas)
    try:
        value = hodge_mod.hodge_psi_integral(exps, g=g)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    checks = [check("evaluated", True, value=value)]
    emit(ctx, "hodge eval", {"g": g, "alphas": exps}, checks, {"value": value})


@main.command("bridge")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--alphas", default=None, help="Comma-separated exponents (default: all ones).")
@click.pass_context
@guarded
def bridge_cmd(ctx, n, alphas):
    """Compare the closed form against the fiber-side socle evaluation."""
    exps = _parse_alphas(alphas) if alphas else [1] * n
    if len(exps) != n:
        raise click.UsageError("--alphas length must equal --n")
    ring = ctx.obj.ring(fm_mod.fm_presentation(n))
    try:
        lhs, rhs, ok = hodge_mod.bridge_check(n, exps, ring=ring)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    checks = [check("bridge-identity", ok, lhs=lhs, rhs=rhs)]
    emit(ctx, "bridge", {"n": n, "alphas": exps}, checks,
         {"lhs": lhs, "rhs": rhs, "constant": hodge_mod.bridge_constant()})


# ----- cache admin ------------------------------------------------------------


@main.command("cache")
@click.argument("action", type=click.Choice(["stats", "clear"]))
@click.pass_context
def cache_cmd(ctx, action):
    """Inspect or empty the basis cache."""
    store = ctx.obj.cache
    if store is None:
        raise click.UsageError(
            "no cache directory configured (--cache-dir or TAUTRING_CACHE_DIR)"
        )
    if action == "stats":
        stats = store.stats()
        checks = [check("stats", True, entry_count=stats["entry_count"],
                        total_bytes=stats["total_bytes"])]
        emit(ctx, "cache stats", {"directory": store.directory}, checks,
             {"entries": stats["entries"]})
    else:
        removed = store.clear()
        checks = [check("cleared", True, removed=removed)]
        emit(ctx, "cache clear", {"directory": store.directory}, checks,
             {"removed": removed})


if __name__ == "__main__":
    main()
