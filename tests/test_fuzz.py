"""Fixed-seed fuzzing of the loader, `verify` and `grow`.

Each case mutates a small valid code file (k=2, p=5) and runs `verify` and
`grow` on it.  Whatever the damage, both must end in exit 0, 1 or 2; an
exception escaping `main` fails the test.
"""

import json
import random

import pytest

from regenext.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main

EXITS = {EXIT_OK, EXIT_VERIFICATION, EXIT_USAGE}
CASES = 200
# JSON texts substituted for a value somewhere in the file
VALUES = [
    "0", "1", "-1", "2", "4", "5", "7", "2147483648", "1.5", '"1"', "null", "true",
    "[]", "{}", "[[]]", "[[1, 2, 3]]", "[1, 2]",
]


@pytest.fixture(scope="module")
def valid_code(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    base, grown = root / "base.json", root / "grown.json"
    rc = main(["gen-base", "--k", "2", "--p", "5", "--seed", "1", "--out", str(base)])
    assert rc == EXIT_OK
    rc = main(["grow", "--in", str(base), "--out", str(grown), "--n", "4", "--seed", "1",
               "--max-attempts", "500"])
    assert rc == EXIT_OK
    return grown.read_bytes()


def _flip_bytes(data: bytes, rng: random.Random) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        # a digit keeps the JSON well formed, so half the flips reach the verifiers
        byte = rng.choice(b"0123456789") if rng.random() < 0.5 else rng.randrange(256)
        buf[rng.randrange(len(buf))] = byte
    return bytes(buf)


def _slots(obj):
    """(container, key) for every value nested anywhere in obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _mutate_value(data: bytes, rng: random.Random) -> bytes:
    obj = json.loads(data)
    container, key = rng.choice(list(_slots(obj)))
    action = rng.randrange(3)
    if action == 0:
        del container[key]
    elif action == 1 and isinstance(container[key], int):
        container[key] += rng.choice([1, -1, 5])
    else:
        container[key] = json.loads(rng.choice(VALUES))
    return json.dumps(obj).encode()


@pytest.mark.parametrize("mutate", [_flip_bytes, _mutate_value], ids=["bytes", "json"])
def test_mutated_code_never_raises(valid_code, tmp_path, capsys, mutate):
    rng = random.Random(f"fuzz-{mutate.__name__}")
    path, out = tmp_path / "mutated.json", tmp_path / "out.json"
    seen = set()
    for _ in range(CASES):
        path.write_bytes(mutate(valid_code, rng))
        rc_verify = main(["verify", "--in", str(path)])
        rc_grow = main(["grow", "--in", str(path), "--out", str(out), "--n", "5",
                        "--max-attempts", "20"])
        assert rc_verify in EXITS and rc_grow in EXITS
        seen.update((rc_verify, rc_grow))
    capsys.readouterr()
    # the mutations reach past the parser into the verifiers
    assert {EXIT_USAGE, EXIT_VERIFICATION} <= seen
