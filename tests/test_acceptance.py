"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
each test prints PASS on success or FAIL (and raises) on its way out.
"""

import csv
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from regenext.alignment import (
    census_well_aligned,
    count_well_aligned,
    count_well_aligned_lower,
    estimate_probability_monte_carlo,
    probability_well_aligned,
)
from regenext.cli import EXIT_OK, main
from regenext.extend import (
    attempts_bound,
    find_alignments,
    synthesize_base_code,
    synthesize_decomposition,
)
from regenext.gf import FieldSpec
from regenext.linalg import random_subspace
from regenext.regen import (
    brute_force_repairable,
    check_repair_pair,
    corner_point,
    cutset_bound,
    functional_repair_capacity,
    load_code,
    save_code,
    verify_data_recovery,
    verify_repair_witnesses,
)
from regenext.structure import compute_decomposition

BIG = FieldSpec(65521)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d}: FAIL  {text}")
        raise
    print(f"acceptance {num:02d}: PASS  {text}")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Codes built once through the CLI: k=3 grown to 9 and 10, k=4 to 7."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = {
        "base3": root / "base3.json",
        "grown9": root / "grown9.json",
        "grown10": root / "grown10.json",
        "csv3": root / "trail3.csv",
        "base4": root / "base4.json",
        "grown7": root / "grown7.json",
        "csv4": root / "trail4.csv",
    }
    steps = [
        ["gen-base", "--k", "3", "--p", "65521", "--seed", "2026", "--out", str(paths["base3"])],
        ["grow", "--in", str(paths["base3"]), "--out", str(paths["grown9"]), "--n", "9", "--seed", "2026"],
        ["grow", "--in", str(paths["base3"]), "--out", str(paths["grown10"]), "--n", "10", "--seed", "2026", "--csv", str(paths["csv3"])],
        ["gen-base", "--k", "4", "--p", "65521", "--seed", "2026", "--out", str(paths["base4"])],
        ["grow", "--in", str(paths["base4"]), "--out", str(paths["grown7"]), "--n", "7", "--seed", "2026", "--csv", str(paths["csv4"])],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, f"pipeline step failed: {argv}"
    codes = {
        name: load_code(str(paths[name]))
        for name in ("base3", "grown9", "grown10", "base4", "grown7")
    }
    return paths, codes


def test_criterion_01_grow_k3_to_ten_nodes(artifacts):
    paths, codes = artifacts
    with criterion(1, "the CLI grows a k=3 code over GF(65521) to n=10 at (alpha, beta, F) = (3, 2, 8)"):
        pr = codes["grown10"].params
        assert (pr.n, pr.k, pr.d) == (10, 3, 3)
        assert (pr.alpha, pr.beta, pr.f_dim) == (3, 2, 8)
        assert pr.spec.p == 65521
        with open(paths["csv3"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == list(range(4, 11))
        assert all(r["F_dim"] == "8" for r in rows)


def test_criterion_02_grow_k4_to_seven_nodes(artifacts):
    paths, codes = artifacts
    with criterion(2, "the CLI grows a k=4 code over GF(65521) to n=7 at (alpha, beta, F) = (4, 3, 15)"):
        pr = codes["grown7"].params
        assert (pr.n, pr.k, pr.d) == (7, 4, 4)
        assert (pr.alpha, pr.beta, pr.f_dim) == (4, 3, 15)
        with open(paths["csv4"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == list(range(5, 8))
        assert all(r["F_dim"] == "15" for r in rows)


def test_criterion_03_full_verification_at_ten_nodes(artifacts):
    _, codes = artifacts
    with criterion(3, "at n=10 all 120 recovery subsets and all 840 repair pairs verify clean"):
        code = codes["grown10"]
        subsets, pairs = list(code.recovery_subsets()), list(code.repair_pairs())
        assert len(subsets) == math.comb(10, 3) == 120
        assert verify_data_recovery(code, subsets) == {}
        assert len(pairs) == 10 * math.comb(9, 3) == 840
        assert verify_repair_witnesses(code, pairs) == []
        assert all(node.dim == 3 for node in code.nodes)


def test_criterion_04_structure_on_every_repair_pair(artifacts):
    _, codes = artifacts
    with criterion(4, "every stored repair pair of every built code splits the file space as required"):
        expectations = {
            "base3": 4 * math.comb(3, 3),
            "grown10": 10 * math.comb(9, 3),
            "grown7": 7 * math.comb(6, 4),
        }
        for name, count in expectations.items():
            pairs = list(codes[name].repair_pairs())
            assert len(pairs) == count
            for x, helpers in pairs:
                # raises, naming the pair, where the split does not hold
                compute_decomposition(codes[name], helpers, x)


def test_criterion_05_exhaustive_repair_oracle_small_fields():
    with criterion(5, "on (4, 3) codes over GF(2), GF(3), GF(5) the exhaustive repair search confirms every witnessed pair"):
        for p in (2, 3, 5):
            spec = FieldSpec(p)
            code = synthesize_base_code(3, spec, random.Random(f"oracle-base-{p}"))
            for x, helpers in code.repair_pairs():
                assert check_repair_pair(code, x, helpers) == []
                assert brute_force_repairable(code, x, helpers)


def test_criterion_06_alignment_census_k2():
    with criterion(6, "at k=2 the exact aligned count matches the census (4 of 7 at p=2, 9 of 13 at p=3) and sampling agrees"):
        for p, expected in ((2, 4), (3, 9)):
            spec = FieldSpec(p)
            dec = synthesize_decomposition(2, spec, random.Random(f"census-{p}"))
            observed = census_well_aligned(dec)
            assert observed == expected
            assert count_well_aligned(2, spec) == expected
            assert count_well_aligned_lower(2, spec) < expected
        dec = synthesize_decomposition(2, FieldSpec(3), random.Random("census-mc"))
        _, (lo, hi) = estimate_probability_monte_carlo(
            dec, 4000, random.Random("census-mc-draws")
        )
        assert lo <= float(probability_well_aligned(2, FieldSpec(3))) <= hi


def test_criterion_07_probability_grows_with_field_size():
    with criterion(7, "at k=3 the alignment probability increases through p=101, 1009, 65521 and sampling brackets it"):
        probs = [probability_well_aligned(3, FieldSpec(p)) for p in (101, 1009, 65521)]
        assert probs[0] < probs[1] < probs[2] < 1
        spec = FieldSpec(101)
        dec = synthesize_decomposition(3, spec, random.Random("mono-dec"))
        _, (lo, hi) = estimate_probability_monte_carlo(
            dec, 1000, random.Random("mono-draws")
        )
        assert lo <= float(probs[0]) <= hi


def test_criterion_08_union_bound_holds_empirically(artifacts):
    _, codes = artifacts
    with criterion(8, "at n=9, k=3 the empirical acceptance rate of 200 uniform draws stays above the union bound"):
        code = codes["grown9"]
        assert code.params.n == 9
        bound = attempts_bound(9, 3, BIG)
        assert 0 < bound < 1
        rng = random.Random("union-bound-draws")
        hits = 0
        trials = 200
        for _ in range(trials):
            candidate = random_subspace(8, 3, BIG, rng)
            if find_alignments(code, candidate) is not None:
                hits += 1
        rate = hits / trials
        sigma = math.sqrt(rate * (1 - rate) / trials)
        assert rate >= float(bound) - 3 * sigma


def test_criterion_09_capacity_identities_and_tradeoff_corner():
    with criterion(9, "capacity and cut-set identities hold for k=2..6 and the k=3 operating corner sits on two tight boundary lines"):
        for k in range(2, 7):
            assert functional_repair_capacity(k, k, k, k - 1) == k * k - 1
            assert cutset_bound(k, k, k - 1) == k * k - 1
        a, b = corner_point(2, 3)
        assert (a, b) == (Fraction(3, 8), Fraction(1, 4))
        assert 2 * a + b == 1
        assert 4 * a + 6 * b == 3
        assert 3 * a > 1
        assert 6 * b > 1


def test_criterion_10_determinism_and_roundtrip(artifacts, tmp_path):
    paths, codes = artifacts
    with criterion(10, "same-seed runs are byte-identical and every built code survives a save/load round trip"):
        again = tmp_path / "again.json"
        rc = main(
            ["grow", "--in", str(paths["base3"]), "--out", str(again), "--n", "10", "--seed", "2026"]
        )
        assert rc == EXIT_OK
        assert again.read_bytes() == paths["grown10"].read_bytes()
        for name, code in codes.items():
            target = tmp_path / f"{name}.json"
            save_code(code, str(target))
            assert load_code(str(target)) == code
