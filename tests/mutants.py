"""Mutation check for the elimination code, the draws, the oracle, the
alignment test, the lemma, the bounds and spaces that construction
enforces, the witness reader and builders, the file reader and writer,
verify's streamed checks, and the build check.

Each entry of MUTANTS is a small wrong version of the package: one exact
text in one file of src/regenext, its replacement, and the tests that must
fail on it.  The script copies src/, tests/ and pyproject.toml into a
temporary directory and checks that every named test passes there.  Then,
for each mutant, it applies the replacement to a fresh copy, runs only the
mutant's tests against it, and reports the mutant as killed when they fail.
It lists every survivor and exits 1 if there is one.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named mutants only
    python tests/mutants.py --jobs 2    # two mutants at a time

--jobs N runs N mutants at once, at most one per CPU, and still prints the
results in catalogue order.

pytest does not collect this file.  tests/test_mutants.py checks that every
old text occurs exactly once in its file, so a refactor that changes one
has to update the catalogue.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
# a mutant that makes a search loop forever counts as killed after this long
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/regenext
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


LINALG, REGEN, STRUCTURE, EXTEND = "linalg.py", "regen.py", "structure.py", "extend.py"
ALIGNMENT, CLI = "alignment.py", "cli.py"
T_LINALG, T_REGEN, T_STRUCTURE = "tests/test_linalg.py", "tests/test_regen.py", "tests/test_structure.py"
T_EXTEND, T_ALIGNMENT = "tests/test_extend.py", "tests/test_alignment.py"
LEMMA = "tests/test_properties.py::test_lemma_premises_give_a_split"
EQUIVALENCE = "tests/test_cli.py::test_verify_output_is_that_of_deriving_every_split"
MISSING = f"{T_REGEN}::test_verify_repair_witnesses_reports_missing_witness"
LAYOUTS = f"{T_REGEN}::test_streamed_load_matches_the_whole_tree_on_other_layouts"
ORACLE = (
    f"{T_REGEN}::test_brute_force_matches_reference_search",
    f"{T_REGEN}::test_brute_force_matches_reference_in_closed_form_and_search",
)
PACKED = f"{T_REGEN}::test_packed_read_leaves_every_surprise_to_the_checks"
BATCH_EDGES = f"{T_REGEN}::test_verify_streams_what_the_whole_parse_gives_at_batch_edges"
ONE_BATCH = f"{T_REGEN}::test_verify_checks_each_pair_with_one_batch_held"
BUILDERS = f"{T_EXTEND}::test_builders_match_a_per_entry_reference"
CLOSED_FORM = f"{T_ALIGNMENT}::test_closed_form_matches_elimination"
DRAWS = f"{T_LINALG}::test_draws_are_the_values_randrange_gives"

MUTANTS = [
    # the packed kernel and its bounds
    Mutant(
        "canon drops the conditional subtract",
        LINALG,
        "        return v - ((v + self.half) >> self.flag & self.ones) * self.p\n",
        "        return v\n",
        (f"{T_LINALG}::test_packed_canonical_reduction_is_the_per_slot_residue",),
    ),
    Mutant(
        "B one bit short",
        LINALG,
        "self.shift = ((width + 1) * p * p).bit_length()\n",
        "self.shift = ((width + 1) * p * p).bit_length() - 1\n",
        (f"{T_LINALG}::test_packed_canonical_reduction_is_the_per_slot_residue",),
    ),
    Mutant(
        "W one byte short",
        LINALG,
        "max(-(-(self.shift + self.barrett.bit_length()) // 8), size + 1) * 8",
        "max(-(-(self.shift + self.barrett.bit_length()) // 8) - 1, size + 1) * 8",
        (f"{T_LINALG}::test_packed_canonical_reduction_is_the_per_slot_residue",),
    ),
    Mutant(
        "8-bit slot kept at p = 2, n <= 2",
        LINALG,
        "// 8), size + 1) * 8",
        "// 8), size) * 8",
        (f"{T_LINALG}::test_range_flag_is_exact_for_every_value_the_codec_packs",),
    ),
    # the checked door adopts exactly the canonical RREF
    Mutant(
        "adopted drops the range flag",
        LINALG,
        "if v & pivots != 1 << shift or (v + lay.half) >> lay.flag & lay.ones:",
        "if v & pivots != 1 << shift:",
        (f"{T_LINALG}::test_checked_door_adopts_exactly_the_canonical_rref",),
    ),
    Mutant(
        "adopted drops the pivot-equals-1 test",
        LINALG,
        "if v & pivots != 1 << shift or",
        "if v & pivots != v & lay.mask << shift or",
        (f"{T_LINALG}::test_checked_door_adopts_exactly_the_canonical_rref",),
    ),
    Mutant(
        "adopted drops the zero-at-other-pivots test",
        LINALG,
        "if v & pivots != 1 << shift or",
        "if v >> shift & lay.mask != 1 or",
        (f"{T_LINALG}::test_checked_door_adopts_exactly_the_canonical_rref",),
    ),
    Mutant(
        "adopted drops the increasing-pivot test",
        LINALG,
        "if not v or shifts and shift <= shifts[-1]:",
        "if not v:",
        (f"{T_LINALG}::test_checked_door_adopts_exactly_the_canonical_rref",),
    ),
    Mutant(
        "adopted drops the zero-row test",
        LINALG,
        "if not v or shifts and shift <= shifts[-1]:",
        "if shifts and shift <= shifts[-1]:",
        (f"{T_LINALG}::test_checked_door_adopts_exactly_the_canonical_rref",),
    ),
    # the Gauss-Jordan pass and the reduction against RREF rows
    Mutant(
        "rref drops the back-elimination",
        LINALG,
        "                out[i] = lay.canon(row + f * neg)\n",
        "                out[i] = row\n",
        (f"{T_LINALG}::test_gauss_jordan_matches_the_per_entry_reference",),
    ),
    Mutant(
        "rref drops the scaling to a leading 1",
        LINALG,
        "            w = lay.canon(w * inv_mod(head, p))\n",
        "            pass\n",
        (f"{T_LINALG}::test_gauss_jordan_matches_the_per_entry_reference",),
    ),
    Mutant(
        "residue drops the canonical reduction",
        LINALG,
        "    return w if w == v else lay.canon(w)\n",
        "    return w\n",
        (f"{T_LINALG}::test_membership_matches_the_per_entry_reference",),
    ),
    Mutant(
        "residue reads each factor at the row's highest set bit",
        LINALG,
        "        f = v >> (row & -row).bit_length() - 1 & mask\n",
        "        f = v >> (row.bit_length() - 1) // lay.slot * lay.slot & mask\n",
        (f"{T_LINALG}::test_membership_matches_the_per_entry_reference",),
    ),
    Mutant(
        "independent draw drops the rejection",
        LINALG,
        "        if len(reduced) == count:\n",
        "        if True:\n",
        (f"{T_LINALG}::test_independent_draw_is_the_invertible_matrix_draw",),
    ),
    # the draw of residues, stream-identical to randrange(p)
    Mutant(
        "the draw accepts r == p",
        LINALG,
        "        while r >= p:\n",
        "        while r > p:\n",
        (DRAWS,),
    ),
    Mutant(
        "the draw takes (p - 1).bit_length() bits",
        LINALG,
        "    bits = p.bit_length()\n",
        "    bits = (p - 1).bit_length()\n",
        (DRAWS,),
    ),
    # the echelon
    Mutant(
        "reduce reads each factor off v",
        LINALG,
        "        f = (acc >> (row & -row).bit_length() - 1 & mask) % p\n",
        "        f = (v >> (row & -row).bit_length() - 1 & mask) % p\n",
        (f"{T_LINALG}::test_echelon_matches_the_per_entry_reference",),
    ),
    Mutant(
        "push drops the scaling to a leading 1",
        LINALG,
        "        w = lay.canon(w * inv_mod(head, lay.p))\n",
        "        pass\n",
        (f"{T_LINALG}::test_echelon_matches_the_per_entry_reference",),
    ),
    Mutant(
        "inverse drops its singular test",
        LINALG,
        "    if any(_pivot(row) >= n * lay.slot for row in echelon):\n",
        "    if False:\n",
        (f"{T_LINALG}::test_inverse_of_no_rows_and_of_singular_rows",),
    ),
    # a Code holds only what a file may: nodes of at most alpha dimensions,
    # sends of at most beta
    Mutant(
        "Code drops the node-dimension bound",
        REGEN,
        "            if node.dim > pr.alpha:\n",
        "            if False:\n",
        (f"{T_STRUCTURE}::test_compute_decomposition_rejects_a_bad_leftover",),
    ),
    Mutant(
        "Code drops the send-dimension bound",
        REGEN,
        "            if sub.dim > pr.beta:\n",
        "            if False:\n",
        (f"{T_REGEN}::test_check_repair_pair_flags_oversized_send",),
    ),
    Mutant(
        "Code's send check accepts any layout",
        REGEN,
        "            if sub._lay is not lay:\n",
        "            if False:\n",
        (f"{T_REGEN}::test_code_rejects_a_node_or_send_from_another_space",),
    ),
    # the step that builds a code is the one that checks it
    Mutant(
        "the base checks only the subsets holding node k+1",
        EXTEND,
        "if base or star in s)",
        "if star in s)",
        (f"{T_EXTEND}::test_base_synthesis_checks_its_frame_subset",),
    ),
    # the closed-form oracle
    Mutant(
        "oracle drops the block-spans-GF(p)^k filter",
        REGEN,
        "        if dep.dim == len(gens) - k:\n",
        "        if node.dim == k:\n",
        ORACLE,
    ),
    Mutant(
        "oracle drops the W_x in im sigma test",
        REGEN,
        "        return False  # W_x is not in im sigma\n",
        "        pass\n",
        (f"{T_REGEN}::test_brute_force_matches_reference_in_closed_form_and_search",),
    ),
    Mutant(
        "oracle sums D_j over every helper",
        REGEN,
        "        if dep.dim == len(gens) - k:\n",
        "        if True:\n",
        ORACLE,
    ),
    # regen's uses of the echelon
    Mutant(
        "oracle drops the minors line",
        REGEN,
        "        if k <= 3 and node.dim == k and len(gens) == k + 1:\n",
        "        if False:\n",
        (f"{T_REGEN}::test_oracle_reads_dependencies_off_minors_up_to_k3",),
    ),
    Mutant(
        "oracle takes minors for every shape",
        REGEN,
        "        if k <= 3 and node.dim == k and len(gens) == k + 1:\n",
        "        if True:\n",
        (f"{T_REGEN}::test_brute_force_matches_reference_in_closed_form_and_search",),
    ),
    Mutant(
        "repair check seeds its cover without the first send",
        REGEN,
        "    sent = list(witness[helpers[0]]._rows)\n",
        "    sent = []\n",
        ("tests/test_properties.py::test_coverage_verdict_is_containment_in_the_sent_span",),
    ),
    # the oracle's search
    Mutant(
        "the search accepts a leaf without its cover test",
        REGEN,
        "        if not span.contains_subspace(target):\n",
        "        if i < len(helpers) and not span.contains_subspace(target):\n",
        (f"{T_REGEN}::test_brute_force_matches_reference_search",),
    ),
    # the decomposition's leftover
    Mutant(
        "leftover is the last node row outside the send",
        STRUCTURE,
        "rows.append(next(row for row in node._rows if _residue(lay, sub._rows, row)))",
        "rows.append([row for row in node._rows if _residue(lay, sub._rows, row)][-1])",
        (f"{T_STRUCTURE}::test_leftover_is_the_row_the_echelon_kept",),
    ),
    # the lemma that lets verify skip a derivation
    Mutant(
        "lemma drops the witness verdict",
        STRUCTURE,
        "        witness_passed\n        and all(",
        "        all(",
        (LEMMA, EQUIVALENCE),
    ),
    Mutant(
        "lemma tests only the recovery subsets without the first helper",
        STRUCTURE,
        "in spanning for m in helpers)",
        "in spanning for m in helpers[1:])",
        (LEMMA, EQUIVALENCE),
    ),
    # a witness read from the table: a miss on an invalid key is a ValueError
    Mutant(
        "repair check drops the key check on a miss",
        REGEN,
        "        code._check_key(x, helpers)\n        return [",
        "        return [",
        (MISSING,),
    ),
    Mutant(
        "split drops the key check on a miss",
        STRUCTURE,
        "        code._check_key(x, helpers)\n",
        "",
        (MISSING,),
    ),
    # scan_code's stream, which load_code and verify both read
    Mutant(
        "stream accepts bytes after the end",
        REGEN,
        'if text[pos:pos + 2] != "]}" or text[pos + 2:].strip(" \\t\\n\\r"):',
        'if text[pos:pos + 2] != "]}":',
        (LAYOUTS,),
    ),
    Mutant(
        "stream skips the comma between witnesses",
        REGEN,
        '        more = text[pos] == ","\n        pos += more\n',
        '        more = text[pos] != "]"\n        pos += text[pos] == ","\n',
        (LAYOUTS,),
    ),
    Mutant(
        "stream reads the header up to its last witnesses list",
        REGEN,
        "start = text.index(_WITNESSES)",
        "start = text.rindex(_WITNESSES)",
        (LAYOUTS,),
    ),
    # the header refuses an F wider than any row the text can hold
    Mutant(
        "the header drops the F bound",
        REGEN,
        "    if params.f_dim > widest:\n",
        "    if False:\n",
        (f"{T_REGEN}::test_load_refuses_a_file_dimension_wider_than_any_row",),
    ),
    # the witness reader: a send is packed only in a text with no bool, and
    # adopted only when every check would pass
    Mutant(
        "the bool screen always passes",
        REGEN,
        '    return "true" not in text and "false" not in text\n',
        "    return True\n",
        (PACKED,),
    ),
    Mutant(
        "the packed read drops the most bound",
        REGEN,
        '"beta", params.beta, lay)',
        '"beta", len(sends[name]), lay)',
        (PACKED,),
    ),
    Mutant(
        "the packed node read drops the most bound",
        REGEN,
        "if lay is not None and type(raw) is list and len(raw) <= most:",
        "if lay is not None and type(raw) is list:",
        (PACKED,),
    ),
    Mutant(
        "the witness read drops the helper/R key-set equality",
        REGEN,
        "    if set(sends) != set(names):\n",
        "    if False:\n",
        (PACKED,),
    ),
    # the closed-form alignment test
    Mutant(
        "alignment drops the determinant of the kernel lines",
        ALIGNMENT,
        "    if not sum(map(mul, firsts, _signed_minors(rests))) % p:\n",
        "    if False:\n",
        (CLOSED_FORM,),
    ),
    Mutant(
        "a signed minor of two rows flips its sign",
        LINALG,
        "        return b, -a\n",
        "        return b, a\n",
        (CLOSED_FORM,),
    ),
    Mutant(
        "a signed minor of three rows flips its sign",
        LINALG,
        "a1 * c0 - a0 * c1,",
        "a0 * c1 - a1 * c0,",
        (CLOSED_FORM,),
    ),
    Mutant(
        "a signed minor of four rows flips its sign",
        LINALG,
        "        c0 * ad - a0 * cd - d0 * ac,\n",
        "        a0 * cd - c0 * ad + d0 * ac,\n",
        (CLOSED_FORM,),
    ),
    Mutant(
        "alignment eliminates for every k",
        ALIGNMENT,
        "    if k > 4:\n",
        "    if True:\n",
        (f"{T_ALIGNMENT}::test_closed_form_runs_no_elimination",),
    ),
    Mutant(
        "the certificate basis drops the scaling to a leading 1",
        ALIGNMENT,
        "            lead = inv_mod(next(filter(None, line)), p)\n",
        "            lead = 1\n",
        (CLOSED_FORM,),
    ),
    # the writer's one format string per witness
    Mutant(
        "the row format drops a comma",
        REGEN,
        'row = "[" + ",".join(["%d"] * pr.f_dim) + "]"',
        'row = "[" + ",".join(["%d"] * (pr.f_dim - 1)) + "%d]"',
        (f"{T_REGEN}::test_save_code_writes_what_json_writes",),
    ),
    Mutant(
        "the writer takes the sends in dict order, not helper order",
        REGEN,
        "sends = [code.witnesses[key][j]._rows for j in helpers]",
        "sends = [sub._rows for sub in code.witnesses[key].values()]",
        (f"{T_REGEN}::test_save_load_roundtrip",),
    ),
    # scan_code's feed: the witnesses stream into one Code a batch at a
    # time, verify drops each once its pair is checked, and load_code keeps
    # them all
    Mutant(
        "verify's stream takes keys out of order",
        REGEN,
        "        if last is not None and key <= last:\n",
        "        if False:\n",
        (BATCH_EDGES,),
    ),
    Mutant(
        "the feed hands over pairs only at the stream's end",
        REGEN,
        "        if count % _BATCH == 0:\n",
        "        if False:\n",
        (ONE_BATCH,),
    ),
    Mutant(
        "the feed skips Code's witness check",
        REGEN,
        "        code._check_witness(key, spaces)\n",
        "",
        (BATCH_EDGES,),
    ),
    Mutant(
        "verify keeps each checked witness",
        CLI,
        "        code.witnesses.pop((x, helpers), None)\n",
        "",
        (ONE_BATCH,),
    ),
    Mutant(
        "verify lets a stream error propagate",
        REGEN,
        "            return result\n    except Exception:\n",
        "            return result\n    except ArithmeticError:\n",
        (BATCH_EDGES,),
    ),
    Mutant(
        "_drained takes only the first pair",
        REGEN,
        "    for _ in pairs:\n        pass\n",
        "    next(pairs, None)\n",
        (BATCH_EDGES,),
    ),
    # the certificate's parts and the witnesses built from them
    Mutant(
        "theta flips its sign",
        ALIGNMENT,
        "(c[j] - c[i]) % lay.p",
        "(c[i] - c[j]) % lay.p",
        (BUILDERS,),
    ),
    Mutant(
        "a helper's repair send drops t_j",
        EXTEND,
        "            rows.append(dec.complement_vectors[j])\n",
        "",
        (BUILDERS,),
    ),
]


def _copy(dest: pathlib.Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _run(tree: pathlib.Path, tests) -> int | None:
    """pytest's exit code on the tests in the tree, or None on a timeout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _try(tree: pathlib.Path, m: Mutant) -> tuple[int | None, float]:
    """pytest's exit code on the mutant's tests in a fresh mutated copy at
    tree, or None on a timeout, and the seconds those tests took."""
    _copy(tree)
    path = tree / "src" / "regenext" / m.file
    path.write_text(path.read_text().replace(m.old, m.new))
    t0 = time.perf_counter()
    code = _run(tree, m.tests)
    seconds = time.perf_counter() - t0
    shutil.rmtree(tree)
    return code, seconds


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Run the mutants of the catalogue.")
    ap.add_argument("names", nargs="*", help="mutants to run, every one by default")
    ap.add_argument("--jobs", type=int, default=1,
                    help="mutants run at once, at most the CPU count (default 1)")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")
    jobs = min(args.jobs, os.cpu_count() or 1)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    for m in chosen:
        count = (ROOT / "src" / "regenext" / m.file).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: old text occurs {count} times", file=sys.stderr)
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "base"
        _copy(base)
        tests = sorted({t for m in chosen for t in m.tests})
        if _run(base, tests) != 0:
            print("the named tests fail on the unmutated copy", file=sys.stderr)
            return 2
        survivors = []
        trees = [pathlib.Path(tmp) / f"m{i}" for i in range(len(chosen))]
        with ThreadPoolExecutor(jobs) as pool:
            # map yields in catalogue order, whichever mutant ends first
            for m, (code, seconds) in zip(chosen, pool.map(_try, trees, chosen)):
                verdict = (
                    "killed (timeout)" if code is None
                    else "killed" if code == 1 else f"SURVIVED (exit {code})"
                )
                print(f"{verdict:<20} {seconds:6.1f} s  {m.name}", flush=True)
                if not verdict.startswith("killed"):
                    survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
