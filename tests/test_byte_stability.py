"""The file format and the reports are byte-stable.

gen-base -> grow -> verify runs through `cli.main` at fixed seeds, and the
sha256 of every written file and of every command's stdout and stderr must
match the digests recorded here.  A refactor or a speed-up that changes one
byte of any of them fails this test; a deliberate format change updates the
digests and says so in CHANGES.md.  At k=2, p=3 the grow stalls at n=4, so
the run covers the stall message and the `.partial` file as well.  The k=3,
p=3 grow (30 draws a step) and the prob-sweep at p=3 and 5 pin the draws of
the rejection samplers and the alignment test on the candidates they reject,
with verify's repair oracle at p=3.  The two gen-base runs at k=4 pin base synthesis at both ends of the field range, and
the two repair-demo runs pin every vector and verdict the walkthrough prints.
"""

import contextlib
import hashlib
import io

import pytest

from regenext.cli import main

# sha256 of no bytes: gen-base and grow print nothing on stdout
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

RUNS = {
    "k2-p3": (
        [
            ["gen-base", "--k", "2", "--p", "3", "--seed", "1", "--out", "base.json"],
            ["grow", "--in", "base.json", "--out", "grown.json", "--n", "5", "--seed", "1",
             "--max-attempts", "200", "--csv", "trail.csv"],
            ["verify", "--in", "grown.json.partial"],
        ],
        {
            "gen-base": (0, EMPTY, "f84b68f635a4bc26971a5df9b9a3f49b6ad40ff7cd32894fdfe90cb527aaee5b"),
            "grow": (1, EMPTY, "2a686f5b73e6b2071fc495b48faed81dae268b1a47bdd4aa0edaf7d5535f42a9"),
            "verify": (0, "77e26d0ff6f129390cb5d1af26fcf8c8e69525979e018d28c0443508ee97c479", EMPTY),
            "base.json": "3bc7072e637c978f13c212cbde4a9c77d300cb4fe24e15c6d2f45a8c8213533b",
            "grown.json.partial": "4c61e914870bf7e2ba0574549ea6c2920d86435267bea083f6a39a40e8c146d1",
            "trail.csv": "414cbdf5764c8f05030c8d325245f4e191c4ef6461328f5e4b9f613db65d1989",
        },
    ),
    "k3-p65521": (
        [
            ["gen-base", "--k", "3", "--p", "65521", "--seed", "1", "--out", "base.json"],
            ["grow", "--in", "base.json", "--out", "grown.json", "--n", "6", "--seed", "1",
             "--csv", "trail.csv"],
            ["verify", "--in", "grown.json"],
        ],
        {
            "gen-base": (0, EMPTY, "a99b06f3e8d80959e0051c058576eb5bb8a13371e31bee65ca1b2b27c3416a25"),
            "grow": (0, EMPTY, "3a89188f8aa74af1d2bf8f9e1e2960cb82e740c285ba0cd3a1bf892cf501cf3e"),
            "verify": (0, "3c83d27b57f930789caf7bd41145ea385732774ec25311146429ba9384a4e36e", EMPTY),
            "base.json": "3c6de6e1046728a2c0676169aeb42201952c8be1db87786d8f0c81242bb0049a",
            "grown.json": "ada476a6afe96c6fd5d1a96c6c6ac878ae8ffbf1bb2ef6a590bd5661f3a23071",
            "trail.csv": "a460456c0cb2442bd18cce7263e4a49bed0a60127ed2bf8e68b1b11ffae267ea",
        },
    ),
    "k4-p2": (
        [["gen-base", "--k", "4", "--p", "2", "--seed", "1", "--out", "base.json"]],
        {
            "gen-base": (0, EMPTY, "a4b04ed0c462a6a1d0d32edeea76559bfa212175cf142b76827519d36183534c"),
            "base.json": "00b8e78f4d99856f6c39c3afc876fd591809059c1fcf485026b272ddc33fad90",
        },
    ),
    "k4-p2147483647": (
        [["gen-base", "--k", "4", "--p", "2147483647", "--seed", "1", "--out", "base.json"]],
        {
            "gen-base": (0, EMPTY, "d4b7e0e163405042763a8aa778cf750982da32e717853d4e7b026967ecece59b"),
            "base.json": "3894d0b49941dfc5a95cb9e4c4fdc8ddd51028834a70e89b5dccb3c5d4024944",
        },
    ),
    "k3-p3": (
        [
            ["gen-base", "--k", "3", "--p", "3", "--seed", "1", "--out", "base.json"],
            ["grow", "--in", "base.json", "--out", "grown.json", "--n", "6", "--seed", "1",
             "--max-attempts", "5000"],
            ["verify", "--in", "grown.json"],
        ],
        {
            "gen-base": (0, EMPTY, "fc84bae38c53c04e0d8c47f642b498ce63260b19571c992b69bfb23ee728723d"),
            "grow": (0, EMPTY, "9096b9c20877faad859b7583b126fdd2331dd5f429c3904151df9d5e155766d9"),
            "verify": (0, "26f631bf4082a5fe9dab1d7c45e7a2dc5e7b4ffe82b882201d18bd3c04667bbc", EMPTY),
            "base.json": "78f83a48a516414ffea952311f21dd968935d81fc01865f9e880065c45b2d63a",
            "grown.json": "cda4c70fe9a434ea4e7dbd7dc5f2d4fb75efd0d8c5041d1fdad6e16356947eda",
        },
    ),
    "sweep-k3": (
        [["prob-sweep", "--k", "3", "--p", "3,5", "--trials", "300", "--seed", "1",
          "--csv", "sweep.csv"]],
        {
            "prob-sweep": (0, EMPTY, "c819d16c122762eeabb5d30f2dee924562d2ef31983a660469decaebcfb992f3"),
            "sweep.csv": "fa34c5e7c780f56ec27ebb9f1ba69ceca0e31d6f4940f6f5f8c25d11d3c977fe",
        },
    ),
    "demo-k2-p5": (
        [["repair-demo", "--k", "2", "--p", "5", "--seed", "3"]],
        {"repair-demo": (0, "d4762a4791a9d7e24534857f101a3e690602e26a7c6b65d2fb8f2d8d4a2c4fa6", EMPTY)},
    ),
    "demo-k3-p101": (
        [["repair-demo", "--k", "3", "--p", "101", "--seed", "1"]],
        {"repair-demo": (0, "7cb7f9448d109d1dee13449e1fcd549a341604047a42fc9241f752f70f8d6520", EMPTY)},
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_and_digest(argvs) -> dict:
    """Exit code and output digests of each command, then of each file
    written in the current directory."""
    digests = {}
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        digests[argv[0]] = (rc, _sha(out.getvalue().encode()), _sha(err.getvalue().encode()))
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    argvs, expected = RUNS[name]
    monkeypatch.chdir(tmp_path)
    digests = run_and_digest(argvs)
    for path in sorted(tmp_path.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    assert digests == expected
