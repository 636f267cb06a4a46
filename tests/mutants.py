"""Mutation testing of the shortcuts: every mutant must fail the tests.

A mutant is one small edit to one file: an exact snippet that must occur
there once, its replacement, and the docstring whose proof or rule the
edit breaks.  The script copies the checkout's files (``git ls-files``:
tracked, and untracked but not ignored) into a temporary directory once,
then for each mutant applies its edit to the copy, runs ``python -m pytest
-x -q`` there and restores the file.  The copy's tests import the copy's
``src`` (pyproject's ``pythonpath``) and find ``src`` and
``perfbench/tracer.py`` next to themselves, so the checkout is never
written.  A mutant is *killed* when the run fails (or hangs past
``TIMEOUT``), and *survives* when it passes.

Usage, from the checkout (standard library only; the tests need pytest and
hypothesis):

    python tests/mutants.py            # the control, then every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Each run prints one line per mutant: its verdict, seconds and whether it
is flagged.  A mutant is flagged when its snippet does not occur exactly
once, or when it survives and is not in ``KNOWN_SURVIVORS``.  The script
exits 1 if any mutant is flagged.  A full run first runs ``NO_OP``, an
edit that changes nothing, as the control: it must survive (else the
unmutated copy fails its own tests and no kill means anything) and be
flagged, which shows that the rule catches a survivor; so
``python tests/mutants.py no-op`` exits 1.  A killed mutant costs a few
seconds with ``-x``; a survivor costs a full tier-1 run.  CI runs the full
set as the ``mutants`` job of ``.github/workflows/tests.yml``.

A change that adds a shortcut adds its mutant here; a change that moves a
snippet updates it; a survivor gets a test that kills it, or an entry in
``KNOWN_SURVIVORS`` with the reason.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 900  # seconds for one test run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    breaks: str  # the docstring whose proof or rule the edit breaks


XN, FM = "src/tautring/xn.py", "src/tautring/fm.py"
ALGEBRA, CLI = "src/tautring/algebra.py", "src/tautring/cli.py"
KERNEL, HODGE = "src/tautring/_kernel.py", "src/tautring/hodge.py"

NO_OP = Mutant("no-op", XN, "def standard_product(", "def standard_product(",
               "nothing: the control")

MUTANTS = [
    # the presentation
    Mutant("b-square-plus-4", XN,
           "(a_poly(i) * a_poly(j)).scale(4)", "(a_poly(i) * a_poly(j)).scale(-4)",
           "xn: b_{i,j}^2 = -4 a_i a_j"),
    Mutant("six-point-relation-dropped", XN,
           "    for six in itertools.combinations(ground, 6):",
           "    for six in list(itertools.combinations(ground, 6))[1:]:",
           "xn: the matching sum of every six indices"),
    Mutant("relation-terms-factor-short", FM,
           "yield sets * s * t ** (s - 1)", "yield sets * s * t ** (s - 2)",
           "fm._relation_terms"),
    # the engine
    Mutant("criterion-a-j-above-i", ALGEBRA,
           "zip(below.keys, below.owner) if j >= i]",
           "zip(below.keys, below.owner) if j > i]",
           "GradedRing._compute_basis, proof of (a)"),
    Mutant("dead-up-to-two-entries", ALGEBRA,
           "for lead, (cols, _) in rref.items() if len(cols) == 1}",
           "for lead, (cols, _) in rref.items() if len(cols) <= 2}",
           "GradedRing.is_zero_key"),
    Mutant("criterion-b-keeps-the-idle", ALGEBRA,
           "if rdeg < d and i not in self.basis(rdeg).tags:",
           "if rdeg < d and i in self.basis(rdeg).tags:",
           "GradedRing._compute_basis, proof of (b)"),
    Mutant("j-prime-one-divisor", ALGEBRA,
           "and all(q + gen_keys[g] in alive for q in steps)]",
           "and any(q + gen_keys[g] in alive for q in steps)]",
           "GradedRing._column_products"),
    Mutant("vanishing-always-assumed", ALGEBRA,
           "        return self.basis(n + 1).dimension", "        return 0",
           "GradedRing._above_socle_dimension"),
    Mutant("rref-subtracts-unreduced-rows", KERNEL,
           "other_cols, other_coeffs = reduced[col]",
           "other_cols, other_coeffs = pivots[col][:2]",
           "SpanReducer.rref"),
    Mutant("socle-table-not-normalized", ALGEBRA,
           "        den = 0 if s_col is None else num[s_col]\n",
           "        den = 0 if s_col is None else num[s_col] and scale\n",
           "GradedRing.socle_table"),
    Mutant("socle-denominator-kept-negative", ALGEBRA,
           "        if den < 0:\n", "        if False:\n",
           "GradedRing.socle_table"),
    # X^n products and records
    Mutant("standard-socle-cycle-plus-4", XN,
           "    return (-4) ** product[0]", "    return 4 ** product[0]",
           "xn.standard_socle_coefficient"),
    Mutant("six-point-cycle-plus-4", XN,
           "vec.get(index[u], 0) + (-4) ** cycles", "vec.get(index[u], 0) + 4 ** cycles",
           "xn.six_point_relations"),
    Mutant("path-inner-points-dropped", XN,
           "            A.update(walk[1:-1])", "            A.update(walk[1:1])",
           "xn.standard_product"),
    Mutant("walks-in-sorted-order", XN,
           "    for start in [*ends, *(links[0].keys() - ends)]:  # path ends first",
           "    for start in sorted(links[0].keys() | links[1].keys()):",
           "xn.standard_product"),
    Mutant("supports-meet-the-a-part", XN,
           "comb(size, degree - m) * comb(size - degree + m, 2 * m)",
           "comb(size, degree - m) * comb(size, 2 * m)",
           "xn.standard_supports"),
    Mutant("closed-gram-cycle-plus-4", XN,
           "lambda u, v: (-4) ** standard_product(u, v)[0])",
           "lambda u, v: 4 ** standard_product(u, v)[0])",
           "xn._closed_gram"),
    Mutant("block-filters-two-crossings", XN,
           "a < c < e < b < d < f for (a, b), (c, d), (e, f) in itertools.combinations(u, 3))]",
           "a < c < b < d for (a, b), (c, d) in itertools.combinations(u, 2))]",
           "xn.matching_block"),
    Mutant("block-rank-unchecked", XN,
           "    if rank < len(kept):\n", "    if False:\n",
           "xn.matching_block"),
    Mutant("dimension-from-the-block-below", XN,
           "        dimension += N * delta",
           "        dimension += N * matching_block(max(m - 1, 0))[1]",
           "xn.standard_pairing, proof of the dimension"),
    # X[n] standard monomials and forests
    Mutant("section-without-child-markers", FM,
           "len(s) - sum(len(sets[c]) - 1 for c in kids)",
           "len(s) - sum(len(sets[c]) for c in kids)",
           "fm.Forest"),
    Mutant("sign-exponent-plus-one", FM,
           "        return sum(self.section)", "        return sum(self.section) + 1",
           "fm.Forest.sign_exponent"),
    Mutant("standard-bound-s-minus-1", FM,
           "all(e <= s - 2 for s, (_, e)", "all(e <= s - 1 for s, (_, e)",
           "fm.is_standard_fm"),
    Mutant("dual-exponent-s-minus-e", FM,
           "tuple(s - 1 - e for s, (_, e)", "tuple(s - e for s, (_, e)",
           "fm.dual_fm"),
    Mutant("filtration-one-lower", FM,
           "return v.ab.degree + v.n - len(v.forest.s_set(v.n))",
           "return v.ab.degree + v.n - len(v.forest.s_set(v.n)) - 1",
           "fm.filtration_p"),
    Mutant("much-less-at-equal-sets", FM,
           "subset_key(v.D[-1][0]) > subset_key(w.D[0][0])",
           "subset_key(v.D[-1][0]) >= subset_key(w.D[0][0])",
           "fm.much_less"),
    Mutant("dparts-bound-s-minus-1", FM,
           "bounds = [s - 2 for s in forest.section]", "bounds = [s - 1 for s in forest.section]",
           "fm.Forest, the exponent range"),
    Mutant("dpart-key-sets-unnegated", FM,
           "((-len(s), tuple([-i for i in s])), e)", "((-len(s), s), e)",
           "fm.dpart_key"),
    Mutant("families-out-of-order", FM,
           "            for i in range(start, len(sets)):",
           "            for i in reversed(range(start, len(sets))):",
           "fm._families"),
    # the block route
    Mutant("tally-root-range-s-minus-1", FM,
           "for e in range(1, min(s - 2, n - w) + 1)", "for e in range(1, min(s - 1, n - w) + 1)",
           "fm._dpart_tally"),
    Mutant("tally-two-point-block", FM,
           "2: Counter()}", "2: Counter({(2, 0): 1})}",
           "fm._dpart_tally"),
    Mutant("shapes-below-the-top-degree", FM,
           "if 0 <= d - weight <= size]", "if 0 <= d - weight < size]",
           "fm.block_pairing"),
    Mutant("block-sign-plus-one", FM,
           "sign = -1 if forest.sign_exponent() % 2 else 1", "sign = 1",
           "fm.block_gram"),
    # the bridge
    Mutant("psi-d-coefficient-one-minus-size", FM,
           "2 - len(J))", "1 - len(J))",
           "fm.psi_pullback"),
    Mutant("psi-drops-negative-terms", HODGE,
           "if c and k in alive}", "if c > 0 and k in alive}",
           "hodge.fiber_socle_of_psi"),
    Mutant("cross-check-limit-3", CLI,
           "CROSS_CHECK_LIMIT = 4", "CROSS_CHECK_LIMIT = 3",
           "cli: the engine cross-check runs for n <= 4"),
]

KNOWN_SURVIVORS = {}  # name -> why no test can kill it


def copy_checkout(dest):
    """Copy the checkout's tracked and unignored files into ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(mutant, tree):
    """``(verdict, seconds, killer)`` of one mutant applied to ``tree``:
    verdict ``"missing"``, ``"killed"`` or ``"survived"``, and the first
    test that failed (or ``"timeout"``); the file is restored."""
    path = tree / mutant.path
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "missing", 0.0, ""
    path.write_text(original.replace(mutant.old, mutant.new))
    # no bytecode: a restored file may share a mutant's size and mtime second
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", time.perf_counter() - start, "timeout"
    finally:
        path.write_text(original)
    seconds = time.perf_counter() - start
    if result.returncode == 0:
        return "survived", seconds, ""
    # pytest's summary names the failure: "FAILED <test id> - <message>"
    killer = next((line.split(" - ")[0].split(" ", 1)[1] for line in result.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), f"exit {result.returncode}")
    return "killed", seconds, killer


def flagged(mutant, verdict):
    return verdict == "missing" or (verdict == "survived"
                                    and mutant.name not in KNOWN_SURVIVORS)


def main(names):
    by_name = {m.name: m for m in [NO_OP, *MUTANTS]}
    if len(by_name) != 1 + len(MUTANTS):
        sys.exit("mutant names must be unique")
    unknown = [name for name in names if name not in by_name]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in names] or [NO_OP, *MUTANTS]
    wrong = 0
    with tempfile.TemporaryDirectory(prefix="tautring-mutants-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        for mutant in chosen:
            verdict, seconds, killer = run(mutant, tree)
            flag = flagged(mutant, verdict)
            control = mutant is NO_OP and not names
            wrong += flag != control  # the control must be flagged, nothing else may be
            note = ("control, flagged as it must be" if control and flag
                    else "CONTROL NOT FLAGGED" if control else "FLAGGED" if flag else killer)
            print(f"{mutant.name:30} {verdict:8} {seconds:6.1f} s  [{mutant.breaks}]  {note}",
                  flush=True)
    print(f"{len(chosen) - wrong} of {len(chosen)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
