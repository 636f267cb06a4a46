"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints one summary line; `pytest -v` therefore shows one pass/fail
line per criterion.  Everything is exact (tolerance zero): all values are
integers or rationals compared with ==.
"""

import json
from fractions import Fraction

import pytest

from tautring.algebra import _integer_rank, ring_for
from tautring.fm import (
    StandardMonomialFM,
    dual_fm,
    enumerate_standard_fm,
    fm_presentation,
    is_standard_fm,
)
from tautring.hodge import (
    bridge_check,
    faber_constant,
    fiber_socle_of_psi,
    hodge_psi_integral,
)
from tautring.xn import (
    StandardMonomialXn,
    dual_xn,
    enumerate_standard_xn,
    matching_gram,
    perfect_matchings,
    six_point_relations,
    standard_product,
    xn_presentation,
)
from conftest import run_cli
from test_algebra import _fraction_kernel
from test_hodge import valid_alpha_vectors


def report_for(args):
    result = run_cli(["--format", "json"] + args)
    return result.exit_code, json.loads(result.output)


def test_criterion_01_power_ring_gorenstein_through_six_points():
    for n in range(1, 7):
        code, report = report_for(["xn", "check", "--n", str(n)])
        assert code == 0, f"xn check --n {n} exited {code}"
        assert report["summary"]["verdict"] == "gorenstein"
    print("criterion 1: PASS - xn check perfect pairing for n = 1..6")


def test_criterion_02_hilbert_data_and_symmetry():
    frozen = {2: [1, 3, 1], 3: [1, 6, 6, 1], 4: [1, 10, 21, 10, 1]}
    for n, dims in frozen.items():
        assert ring_for(xn_presentation(n)).hilbert(n) == dims
    shipped = [xn_presentation(n) for n in range(1, 7)]
    shipped += [fm_presentation(n) for n in (2, 3, 4)]
    for presentation in shipped:
        ring = ring_for(presentation)
        n = presentation.socle_degree
        dims = ring.hilbert(n)
        assert dims == dims[::-1], presentation.label
    print("criterion 2: PASS - frozen Hilbert data and d <-> n-d symmetry")


def test_criterion_03_faber_relation_pullback():
    code, report = report_for(["xn", "faber-relation"])
    assert code == 0
    assert report["summary"]["reduced"] == "-2*a1*b(2,3) + 2*b(1,2)*b(1,3)"
    print("criterion 3: PASS - three-point relation reduces to 2(b12 b13 - a1 b23)")


def test_criterion_04_six_point_derivation():
    code, report = report_for(["xn", "derive-six-point"])
    assert code == 0
    assert report["checks"][0]["status"] == "pass"
    assert report["checks"][0]["term_count"] == 15
    print("criterion 4: PASS - derived relation is minus the 15-matching sum")


def test_criterion_05_matching_gram_kernel():
    gram = matching_gram(3)
    kernel = _fraction_kernel(gram)  # Fraction Gauss-Jordan, not the engine
    assert _integer_rank(gram) == 14 and len(kernel) == 1
    vec = kernel[0]
    nonzero = {c for c in vec if c}
    assert len([c for c in vec if c]) == 15 and len(nonzero) == 1
    vectors, standard = six_point_relations(6, 3)
    assert len(vectors) == 1
    matchings = perfect_matchings(range(1, 7))
    idx = {standard.index(StandardMonomialXn.make((), m)) for m in matchings}
    assert set(vectors[0]) == idx and set(vectors[0].values()) == {Fraction(1)}
    for m in (1, 2, 3, 4):
        g = matching_gram(m)
        ms = [StandardMonomialXn.make((), u) for u in perfect_matchings(range(1, 2 * m + 1))]
        for i, u in enumerate(ms):
            for j, v in enumerate(ms):
                assert g[i][j] == Fraction(-4) ** standard_product(u, v)[0]
    print("criterion 5: PASS - corank-one matching Gram, (-4)^cycles entries")


def test_criterion_06_compactified_ring_full_engine():
    expected = {
        2: [1, 3, 1],
        3: [1, 7, 7, 1],
        4: [1, 15, 35, 15, 1],
        5: [1, 31, 147, 147, 31, 1],
    }
    for n in (2, 3, 4, 5):
        code, report = report_for(["fm", "check", "--n", str(n), "--mode", "full"])
        assert code == 0
        assert report["summary"]["verdict"] == "gorenstein"
        assert report["summary"]["hilbert"] == expected[n]
    print("criterion 6: PASS - fm full engine gorenstein for n = 2, 3, 4, 5")


def test_criterion_07_compactified_ring_block_route():
    for n in range(1, 7):
        code, report = report_for(["fm", "check", "--n", str(n), "--mode", "blocks"])
        assert code == 0, f"fm check blocks n={n}"
        names = {c["name"] for c in report["checks"]}
        if n <= 4:
            assert "filtration-vanishing" in names
            assert "sign-rule-and-triangularity" in names
    print("criterion 7: PASS - block pairing n <= 6, engine-verified n <= 4")


def test_criterion_08_duality_involution_and_twenty_point_case():
    for n in range(1, 9):
        for d in range(n + 1):
            for v in enumerate_standard_xn(n, d):
                assert dual_xn(dual_xn(v, n), n) == v
    for n in range(1, 7):
        for d in range(n + 1):
            for v in enumerate_standard_fm(n, d):
                assert dual_fm(dual_fm(v)) == v
    subsets = {
        1: tuple(range(1, 9)), 2: (1, 2, 3), 3: (4, 5, 6, 7),
        4: tuple(range(9, 21)), 5: tuple(range(9, 19)),
        6: (9, 10, 11, 12), 7: (13, 14, 15, 16),
    }
    v = StandardMonomialFM.make(20, D={s: 1 for s in subsets.values()})
    assert is_standard_fm(v)
    w = dual_fm(v)
    assert sorted(w.ab.A) == [1, 9]
    exps = dict(w.D)
    assert {r: exps[s] for r, s in subsets.items()} == {
        1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 2, 7: 2,
    }
    print("criterion 8: PASS - v** = v (X^n n<=8, X[n] n<=6); 20-point dual exact")


def test_criterion_09_hodge_constants():
    assert faber_constant(2) == Fraction(1, 2880)
    assert hodge_psi_integral([1, 1]) == Fraction(1, 960)
    assert hodge_psi_integral([1, 1, 1]) == Fraction(1, 240)
    print("criterion 9: PASS - 1/2880, 1/960, 1/240 from the closed formula")


def test_criterion_10_bridge_identity_through_five_points():
    assert fiber_socle_of_psi(2, [1, 1]) == 6
    assert fiber_socle_of_psi(3, [1, 1, 1]) == 24
    for n in range(2, 6):
        for alphas in valid_alpha_vectors(n):
            lhs, rhs, ok = bridge_check(n, list(alphas))
            assert ok, f"bridge n={n} alphas={alphas}: {lhs} != {rhs}"
    print("criterion 10: PASS - bridge exact for 2 <= n <= 5 after n=1 calibration")
