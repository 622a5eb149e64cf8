"""Golden outputs of the sigmatau CLI: the corpus format, and its regeneration.

``commands.txt`` holds one record per command, each line tagged by its first
two characters:

    $ inner --ring cyclotomic:5 ...     the command line, as after ``sigmatau``
    < ...                               one line of stdin (optional)
    | ...                               one line of stdout
    ! ...                               one line of stderr
    = 0                                 the exit status, which ends the record

``tests/test_golden.py`` runs every command through ``sigmatau.cli.run`` and
compares all three streams. Outputs that print timings (the sweep table's
``elapsed``, the sweep JSON's ``seconds``) are left out.

Regenerate, then read the diff before committing it, with

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

CORPUS = Path(__file__).with_name("commands.txt")
HEADER = "# sigmatau CLI golden outputs; written by tests/golden/regen.py, format in its docstring\n"

QUADRATIC_D = (-11, -7, -5, -3, -2, -1, 2, 3, 5, 13)
# the ten rings of the biquadratic acceptance gates
BIQUADRATIC_MN = ((2, 3), (2, 5), (3, 5), (2, 7), (5, 6), (6, 10), (-1, 2), (-1, 3), (-2, 5), (3, 7))
RINGS = ("cyclotomic:3", "cyclotomic:7", "quadratic:-1", "quadratic:5", "biquadratic:2,3", "biquadratic:-1,2")


@dataclass(frozen=True)
class Record:
    argv: tuple[str, ...]
    stdin: str
    status: int
    out: str
    err: str


def run_command(argv, stdin: str = "") -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one ``sigmatau.cli.run`` call."""
    from sigmatau.cli import run

    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(list(argv))
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


def _tagged(tag: str, text: str) -> list[str]:
    # every stream ends in a newline or is empty; keep it byte for byte
    if text and not text.endswith("\n"):
        raise ValueError(f"output without a final newline: {text[-40:]!r}")
    return [f"{tag} {line}" if line else tag for line in text.split("\n")[:-1]]


def render(records) -> str:
    lines = []
    for r in records:
        lines.append("$ " + shlex.join(r.argv))
        lines += _tagged("<", r.stdin) + _tagged("|", r.out) + _tagged("!", r.err)
        lines.append(f"= {r.status}")
    return HEADER + "\n".join(lines) + "\n"


def parse(text: str) -> list[Record]:
    records, argv, streams = [], None, {}
    for line in text.split("\n")[:-1]:
        tag, body = line[:1], line[2:]
        if tag == "#":
            continue
        if tag == "$":
            argv, streams = tuple(shlex.split(body)), {"<": "", "|": "", "!": ""}
        elif tag in streams:
            streams[tag] += body + "\n"
        elif tag == "=":
            records.append(Record(argv, streams["<"], int(body), streams["|"], streams["!"]))
        else:
            raise ValueError(f"unreadable corpus line {line!r}")
    return records


# ------------------------------------------------------------------ commands

def _coords(values) -> str:
    return ",".join(str(v) for v in values)


def _cyclotomic_inner():
    # every ordered pair at p <= 13; D(z) is made inner on every other pair
    k = 0
    for p in (3, 5, 7, 11, 13):
        for u in range(1, p):
            for w in range(1, p):
                if u == w:
                    continue
                rng = random.Random(p * 10_000 + u * 100 + w)
                c = [rng.randint(-3, 3) for _ in range(p - 1)]
                if k % 2 == 0:
                    c[0] -= sum(c) % p
                k += 1
                yield ("inner", "--ring", f"cyclotomic:{p}", "--sigma", str(u), "--tau", str(w),
                       "--dzeta", _coords(c), "--method", "both", "--format", "json"), ""


def _pair_commands(ring_arg, sigma, tau, images):
    flags = ("--ring", ring_arg, "--sigma", sigma, "--tau", tau, "--images", ";".join(map(_coords, images)))
    yield ("inner", *flags), ""
    yield ("derive", *flags), ""


def _quadratic_and_biquadratic():
    from sigmatau import build_biquadratic_derivation, endomorphisms, inner_derivation
    from sigmatau import make_biquadratic, make_quadratic

    for d in QUADRATIC_D:
        ring = make_quadratic(d)
        rng = random.Random(d)
        for sigma, tau in ((0, 1), (1, 0)):
            s, t = endomorphisms(ring)[sigma], endomorphisms(ring)[tau]
            inner = inner_derivation(ring.spec, s, t, [rng.randint(-4, 4) for _ in range(2)])
            other = [(0, 0), (rng.randint(-9, 9), rng.randint(-9, 9))]
            for images in (inner.images, other):
                yield from _pair_commands(f"quadratic:{d}", s.name, t.name, images)
    for m, n in BIQUADRATIC_MN:
        ring = make_biquadratic(m, n)
        rng = random.Random(m * 100 + n)
        endos = endomorphisms(ring)
        pairs = [(s, t) for s in endos for t in endos if s is not t]
        for k, (s, t) in enumerate(pairs):
            free = [rng.randint(-4, 4) for _ in range(4)]
            if k % 2 == 0:
                d = inner_derivation(ring.spec, s, t, free)
            else:
                d = build_biquadratic_derivation(ring, s, t, free)
            yield from _pair_commands(f"biquadratic:{m},{n}", s.name, t.name, d.images)


def _codes():
    from sigmatau import load_reference_fixture

    fix = load_reference_fixture()
    pair = ("--ring", f"cyclotomic:{fix['p']}", "--sigma", str(fix["sigma"]), "--tau", str(fix["tau"]))
    for i, exponents in enumerate(fix["subsets"], start=1):
        subset = _coords(e + 1 for e in exponents)
        for fmt in ("json", "csv"):
            yield ("code", *pair, "--dzeta", _coords(fix["d_zeta"]), "--subset", subset,
                   "--q", str(fix["q"]), "--label", f"S{i}", "--format", fmt), ""
    # a label holding a comma and quotes is one quoted CSV cell
    yield ("code", *pair, "--dzeta", _coords(fix["d_zeta"]), "--subset", _coords(e + 1 for e in fix["subsets"][0]),
           "--q", str(fix["q"]), "--label", 'S1, "a"', "--format", "csv"), ""
    # the budget counts the code's q^k words alone: these duals have 2^27 and
    # 4093^15 words, and their distributions come from the MacWilliams identity
    yield ("code", "--ring", "cyclotomic:31", "--sigma", "1", "--tau", "2",
           "--dzeta", "1,0,1,1,0,0,1,0,1,0,0,0,1,1,0,1,0,1,0,0,1,1,1,0,0,1,0,1,1,0", "--subset", "2,3,5"), ""
    yield ("code", *pair, "--dzeta", _coords(fix["d_zeta"]), "--subset", "2", "--q", "4093"), ""


def _errors_and_checks():
    derived = run_command(("derive", "--ring", "cyclotomic:5", "--sigma", "2", "--tau", "3",
                           "--dzeta", "1,-2,0,3"))[1]
    doc = json.loads(derived)
    yield ("check", "--from-file", "-"), derived
    doc["images"][2][0] += 1
    yield ("check", "--from-file", "-"), json.dumps(doc) + "\n"
    yield ("check", "--from-file", "-"), "not json\n"
    yield ("check", "--from-file", "-"), json.dumps({"ring": {"family": "cyclotomic", "p": 5}}) + "\n"
    doc["images"][1] = "0,1"
    yield ("check", "--from-file", "-"), json.dumps(doc) + "\n"
    for spec in ("octic:2", "biquadratic:2", "cyclotomic:x", "quadratic:4", "cyclotomic:9"):
        yield ("ring", "--ring", spec), ""
    # the refusals of code, on the S8 code: a budget below q^k, a dependent
    # subset, and a budget below 1, refused before any work
    s8 = ("code", "--ring", "cyclotomic:17", "--sigma", "1", "--tau", "3",
          "--dzeta", "1,1,1,1,0,1,0,1,1,0,0,1,0,0,0,0", "--subset")
    yield (*s8, "2,3,7,8", "--budget", "3"), ""
    yield (*s8, "1,1"), ""
    yield (*s8, "2,3,7,8", "--budget", "-1"), ""
    # a prime modulus, 2^89 - 1, above the bound where is_prime is proven exact
    yield ("code", "--ring", "cyclotomic:7", "--sigma", "1", "--tau", "3", "--dzeta", "1,0,1,0,0,1",
           "--subset", "2,3", "--q", str(2**89 - 1)), ""
    # conflicting inputs are refused, not silently resolved
    yield ("inner", "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
           "--dzeta", "1,0,0,0", "--images", "0,0,0,0"), ""
    yield ("check", "--from-file", "-", "--ring", "quadratic:2", "--sigma", "id", "--tau", "conj",
           "--images", "0,0;9,9"), derived


def commands():
    """(argv, stdin) of every command in the corpus, in corpus order."""
    yield from _cyclotomic_inner()
    yield from _quadratic_and_biquadratic()
    for ring in RINGS:
        yield ("ring", "--ring", ring, "--format", "json"), ""
    yield from _codes()
    yield ("sweep", "--max-p", "13", "--format", "csv"), ""
    for section in ("3.2", "4.4"):
        yield ("reproduce-paper", "--section", section), ""
    yield from _errors_and_checks()


def main() -> None:
    records = [Record(tuple(argv), stdin, *run_command(argv, stdin)) for argv, stdin in commands()]
    CORPUS.write_text(render(records))
    print(f"wrote {len(records)} records to {CORPUS}")


if __name__ == "__main__":
    main()
