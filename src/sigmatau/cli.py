"""Command-line front end.

Subcommands: ring, derive, check, inner, sweep, code, reproduce-paper.
Exit status 0 on success, 1 on computation errors, 2 on usage errors.
Output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys

from . import codes, conjecture, derivations, rings
from .algebra import Derivation, LinearMap, derivation_failure
from .codes import BudgetExceededError
from .conjecture import ConjectureViolationError
from .derivations import InnernessVerdict


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_images(text: str) -> list[list[int]]:
    return [_parse_ints(group) for group in text.split(";")]


def _parse_ring(spec: str):
    family, _, rest = spec.partition(":")
    if family == "cyclotomic":
        return rings.make_cyclotomic(int(rest))
    if family == "quadratic":
        return rings.make_quadratic(int(rest))
    if family == "biquadratic":
        m, n = _parse_ints(rest)
        return rings.make_biquadratic(m, n)
    raise ValueError(
        f"unknown ring {spec!r}; use cyclotomic:P, quadratic:D, or biquadratic:M,N"
    )


def _ring_args(args):
    ring = _parse_ring(args.ring)
    sigma = rings.endomorphism_by_name(ring, args.sigma)
    tau = rings.endomorphism_by_name(ring, args.tau)
    return ring, sigma, tau


def _build_derivation(ring, sigma, tau, args) -> Derivation:
    """Build the map from --dzeta (cyclotomic convenience) or --images."""
    if getattr(args, "dzeta", None) is not None:
        if not isinstance(ring, rings.CyclotomicRing):
            raise ValueError("--dzeta applies to cyclotomic rings only; use --images")
        return derivations.build_cyclotomic_derivation(
            ring, sigma, tau, _parse_ints(args.dzeta)
        )
    if getattr(args, "images", None) is not None:
        return Derivation(ring.spec, _parse_images(args.images), sigma, tau)
    raise ValueError("one of --dzeta or --images is required")


def _print_table(headers: list[str], rows: list[list[str]], out) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in rows:
        print(fmt.format(*row), file=out)


# ------------------------------------------------------------------ commands

def _cmd_ring(args, out) -> int:
    ring = _parse_ring(args.ring)
    endos = [e.name for e in rings.endomorphisms(ring)]
    if args.format == "json":
        doc = rings.ring_to_json(ring)
        doc["rank"] = ring.spec.rank
        doc["basis"] = list(ring.spec.labels)
        doc["endomorphisms"] = endos
        json.dump(doc, out, indent=2)
        print(file=out)
    else:
        print(f"ring: {args.ring}", file=out)
        print(f"rank: {ring.spec.rank}", file=out)
        print(f"basis: {', '.join(ring.spec.labels)}", file=out)
        print(f"endomorphisms: {', '.join(endos)}", file=out)
    return 0


def _cmd_derive(args, out) -> int:
    ring, sigma, tau = _ring_args(args)
    d = _build_derivation(ring, sigma, tau, args)
    json.dump(derivations.derivation_to_json(ring, sigma, tau, d), out, indent=2)
    print(file=out)
    return 0


def _cmd_check(args, out) -> int:
    if args.from_file:
        with open(args.from_file) as fh:
            ring, sigma, tau, d = derivations.derivation_from_json(json.load(fh))
    else:
        if not (args.ring and args.sigma and args.tau):
            raise ValueError("check needs --from-file or --ring/--sigma/--tau")
        ring, sigma, tau = _ring_args(args)
        if args.images is None:
            raise ValueError("check without --from-file needs --images")
        d = LinearMap(ring.spec, _parse_images(args.images))
    fail = derivation_failure(ring.spec, d, sigma, tau)
    if fail is None:
        print(f"derivation law holds for ({sigma.name}, {tau.name})", file=out)
        return 0
    print(f"derivation law fails at basis pair {fail}", file=out)
    return 1


def _decide_inner(ring, sigma, tau, d, method: str) -> dict[str, InnernessVerdict]:
    verdicts: dict[str, InnernessVerdict] = {}
    if method in ("generic", "both"):
        verdicts["generic"] = derivations.is_inner_generic(ring, sigma, tau, d)
    if method in ("closed", "both", "conjectural"):
        if isinstance(ring, rings.CyclotomicRing):
            verdicts["conjectural"] = derivations.cyclotomic_inner_conjectural(
                ring, sigma, tau, d
            )
        elif isinstance(ring, rings.QuadraticRing):
            verdicts["closed"] = derivations.quadratic_inner(ring, sigma, tau, d)
        else:
            verdicts["closed"] = derivations.biquadratic_inner(ring, sigma, tau, d)
    return verdicts


def _cmd_inner(args, out) -> int:
    ring, sigma, tau = _ring_args(args)
    d = _build_derivation(ring, sigma, tau, args)
    verdicts = _decide_inner(ring, sigma, tau, d, args.method)
    answers = {v.inner for v in verdicts.values()}
    if len(answers) != 1:
        raise RuntimeError(f"deciders disagree: { {k: v.inner for k, v in verdicts.items()} }")
    if args.format == "json":
        doc = {}
        for name, v in verdicts.items():
            doc[name] = {
                "inner": v.inner,
                "witness": list(v.witness) if v.witness is not None else None,
                "obstruction": v.obstruction,
            }
        json.dump(doc, out, indent=2)
        print(file=out)
    else:
        for name, v in verdicts.items():
            if v.inner:
                coeffs = ",".join(str(c) for c in v.witness)
                print(f"{name}: inner with witness beta = ({coeffs})", file=out)
            else:
                print(f"{name}: not inner ({v.obstruction})", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    report = conjecture.sweep(args.min_p, args.max_p, jobs=args.jobs)
    if args.format == "csv":
        buf = io.StringIO()
        conjecture.write_cases_csv(report, buf)
        out.write(buf.getvalue())
    elif args.format == "json":
        json.dump(conjecture.summary_json(report), out, indent=2)
        print(file=out)
    else:
        print(f"primes {args.min_p}..{args.max_p}: {len(report.cases)} cases", file=out)
        print(f"failures: {len(report.failures)}", file=out)
        print(f"sign mismatches: {len(report.sign_mismatches)}", file=out)
        print(f"elapsed: {report.seconds:.3f}s", file=out)
    return 0 if not report.failures else 1


def _cmd_code(args, out) -> int:
    ring, sigma, tau = _ring_args(args)
    d = _build_derivation(ring, sigma, tau, args)
    b = codes.idd_matrix(ring, d)
    t = _parse_ints(args.subset)
    report = codes.code_report(b, t, args.q, label=args.label, budget=args.budget)
    if args.format == "json":
        json.dump(codes.report_to_json(report), out, indent=2)
        print(file=out)
    elif args.format == "csv":
        out.write(codes.reports_csv([report]))
    else:
        rows = [_report_row(report)]
        _print_table(
            ["subset", "n", "k", "d", "lcd", "dual_n", "dual_k", "dual_d"], rows, out
        )
    return 0


def _report_row(r) -> list[str]:
    return [
        r.label or " ".join(str(t) for t in r.subset),
        str(r.n),
        str(r.k),
        "—" if r.d is None else str(r.d),
        "LCD" if r.lcd else "non-LCD",
        str(r.dual_n),
        str(r.dual_k),
        "—" if r.dual_d is None else str(r.dual_d),
    ]


def _reproduce_32(out) -> bool:
    """p=5 fixture: the matrix, its determinant, and the non-inner verdict
    of the generic solver and the paper's adjugate route."""
    fix = json.loads(codes._fixture_text("paper_p5_matrix.json"))
    a = conjecture.build_A(fix["p"], fix["u"], fix["w"])
    from .intlinalg import det_bareiss

    ok_matrix = a == fix["matrix"]
    ok_det = det_bareiss(a) == fix["det"]
    print(f"build_A({fix['p']},{fix['u']},{fix['w']}) matches golden: "
          f"{'PASS' if ok_matrix else 'FAIL'}", file=out)
    print(f"det == {fix['det']}: {'PASS' if ok_det else 'FAIL'}", file=out)

    ring = rings.make_cyclotomic(5)
    sigma = rings.endomorphism_by_name(ring, 1)
    tau = rings.endomorphism_by_name(ring, 2)
    d = derivations.build_cyclotomic_derivation(ring, sigma, tau, (0, 1, 0, 0))
    v1 = derivations.is_inner_generic(ring, sigma, tau, d)
    v2 = derivations._cyclotomic_inner_adjugate(ring, sigma, tau, d)
    ok_inner = (not v1.inner) and (not v2.inner)
    print(f"D(z)=z at p=5 not inner by both deciders: "
          f"{'PASS' if ok_inner else 'FAIL'}", file=out)
    return ok_matrix and ok_det and ok_inner


def _reproduce_44(out) -> bool:
    """Thirteen-subset table, compared byte for byte with the golden CSV."""
    got = codes.reports_csv(codes.reference_code_reports())
    want = codes._fixture_text("paper_s17_codes.csv")
    out.write(got)
    ok = got == want
    print(f"table matches golden CSV byte for byte: {'PASS' if ok else 'FAIL'}", file=out)
    return ok


def _reproduce_sweep(out, jobs: int) -> bool:
    report = conjecture.sweep(3, 49, jobs=jobs)
    ok = not report.failures and not report.sign_mismatches
    print(f"sweep p in 3..49: {len(report.cases)} cases, "
          f"{len(report.failures)} failures, "
          f"{len(report.sign_mismatches)} sign mismatches: "
          f"{'PASS' if ok else 'FAIL'}", file=out)
    return ok


def _cmd_reproduce(args, out) -> int:
    ok = True
    if args.section in ("all", "3.2"):
        ok = _reproduce_32(out) and ok
    if args.section in ("all", "4.4"):
        ok = _reproduce_44(out) and ok
    if args.section in ("all", "sweep"):
        ok = _reproduce_sweep(out, args.jobs) and ok
    return 0 if ok else 1


# ------------------------------------------------------------------- parser

def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", required=True, help="cyclotomic:P | quadratic:D | biquadratic:M,N")
    p.add_argument("--sigma", required=True, help="endomorphism name")
    p.add_argument("--tau", required=True, help="endomorphism name")


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dzeta", help="coordinates of D(zeta), comma-separated (cyclotomic)")
    p.add_argument("--images", help="basis images, ';'-separated coordinate lists")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sigmatau",
        description="Twisted derivations of number rings and codes from their images.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="describe a ring and its endomorphisms")
    p.add_argument("--ring", required=True)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("derive", help="build a derivation and emit it as JSON")
    _add_pair_flags(p)
    _add_map_flags(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("check", help="verify the derivation law")
    p.add_argument("--from-file", help="JSON artifact produced by derive")
    p.add_argument("--ring")
    p.add_argument("--sigma")
    p.add_argument("--tau")
    p.add_argument("--images")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("inner", help="decide innerness and show witness or obstruction")
    _add_pair_flags(p)
    _add_map_flags(p)
    p.add_argument(
        "--method",
        choices=["generic", "closed", "conjectural", "both"],
        default="both",
    )
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=_cmd_inner)

    p = sub.add_parser("sweep", help="determinant sweep over odd primes")
    p.add_argument("--min-p", type=int, default=3)
    p.add_argument("--max-p", type=int, default=49, help="inclusive upper bound")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("code", help="code report for a subset of derivation images")
    _add_pair_flags(p)
    _add_map_flags(p)
    p.add_argument("--subset", required=True, help="1-based row indices, comma-separated")
    p.add_argument("--q", type=int, default=2, help="prime modulus")
    p.add_argument("--label", default="")
    p.add_argument("--budget", type=int, default=codes.DEFAULT_BUDGET)
    # kept so older command lines still parse; codes are enumerated in one process
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("reproduce-paper", help="recompute the shipped reference results")
    p.add_argument("--section", choices=["all", "3.2", "4.4", "sweep"], default="all")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep only; codes run in one process",
    )
    p.set_defaults(func=_cmd_reproduce)

    return top


def _attach_coordinate_values(argv) -> list[str]:
    # argparse reads "--dzeta -3,4" as two options; "--dzeta=-3,4" is unambiguous
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--dzeta", "--images") and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(_attach_coordinate_values(argv))
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError, BudgetExceededError, ConjectureViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))
