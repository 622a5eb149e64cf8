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

from . import derivations, rings
from .algebra import Derivation, LinearMap, derivation_failure
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
    if family not in rings._FAMILIES:
        raise ValueError(
            f"unknown ring {spec!r}; use cyclotomic:P, quadratic:D, or biquadratic:M,N"
        )
    _, make, keys = rings._FAMILIES[family]
    try:
        params = _parse_ints(rest)
    except ValueError:
        params = []
    if len(params) != len(keys):
        raise ValueError(f"expected {family}:{','.join(keys).upper()}, got {spec!r}")
    return make(*params)


def _ring_args(args):
    ring = _parse_ring(args.ring)
    sigma = rings.endomorphism_by_name(ring, args.sigma)
    tau = rings.endomorphism_by_name(ring, args.tau)
    return ring, sigma, tau


def _build_derivation(ring, sigma, tau, args) -> Derivation:
    """Build the map from --dzeta (cyclotomic convenience) or --images."""
    if args.dzeta is not None and args.images is not None:
        raise ValueError("give one of --dzeta or --images, not both")
    if args.dzeta is not None:
        if not isinstance(ring, rings.CyclotomicRing):
            raise ValueError("--dzeta applies to cyclotomic rings only; use --images")
        return derivations.build_cyclotomic_derivation(
            ring, sigma, tau, _parse_ints(args.dzeta)
        )
    if args.images is not None:
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
    endos = rings._endomorphism_names(ring)
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
    inline = (args.ring, args.sigma, args.tau, args.images)
    if args.from_file and any(v is not None for v in inline):
        raise ValueError(
            "--from-file reads the whole derivation; drop --ring, --sigma, --tau and --images"
        )
    if args.from_file == "-":
        ring, sigma, tau, d = derivations.derivation_from_json(json.load(sys.stdin))
    elif args.from_file:
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
        names = ", ".join(rings._name_of(ring, m) for m in (sigma, tau))
        print(f"derivation law holds for ({names})", file=out)
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
    from . import conjecture

    report = conjecture.sweep(args.min_p, args.max_p)
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
    from . import codes

    ring, sigma, tau = _ring_args(args)
    d = _build_derivation(ring, sigma, tau, args)
    b = codes.idd_matrix(ring, d)
    t = _parse_ints(args.subset)
    budget = codes.DEFAULT_BUDGET if args.budget is None else args.budget
    report = codes.code_report(b, t, args.q, label=args.label, budget=budget)
    if args.format == "json":
        json.dump(codes.report_to_json(report), out, indent=2)
        print(file=out)
    elif args.format == "csv":
        out.write(codes.reports_csv([report]))
    else:
        _print_table(list(codes._REPORT_COLUMNS), [codes._report_cells(report)], out)
    return 0


def _reproduce_32(out) -> bool:
    """p=5 fixture: the matrix, its determinant, and the non-inner verdict
    of the generic solver and the proven coordinate-sum test."""
    from . import codes, conjecture
    from .intlinalg import det_bareiss

    fix = json.loads(codes._fixture_text("paper_p5_matrix.json"))
    a = conjecture.build_A(fix["p"], fix["u"], fix["w"])
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
    v2 = derivations.cyclotomic_inner_conjectural(ring, sigma, tau, d)
    ok_inner = (not v1.inner) and (not v2.inner)
    print(f"D(z)=z at p=5 not inner by both deciders: "
          f"{'PASS' if ok_inner else 'FAIL'}", file=out)
    return ok_matrix and ok_det and ok_inner


def _reproduce_44(out) -> bool:
    """Thirteen-subset table, compared byte for byte with the golden CSV."""
    from . import codes

    got = codes.reports_csv(codes.reference_code_reports())
    want = codes._fixture_text("paper_s17_codes.csv")
    out.write(got)
    ok = got == want
    print(f"table matches golden CSV byte for byte: {'PASS' if ok else 'FAIL'}", file=out)
    return ok


def _reproduce_sweep(out) -> bool:
    from . import conjecture

    report = conjecture.sweep(3, 49)
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
        ok = _reproduce_sweep(out) and ok
    return 0 if ok else 1


# ------------------------------------------------------------------- parser

def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", required=True, help="cyclotomic:P | quadratic:D | biquadratic:M,N")
    p.add_argument("--sigma", required=True, help="endomorphism name")
    p.add_argument("--tau", required=True, help="endomorphism name")


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dzeta", help="coordinates of D(zeta), comma-separated (cyclotomic)")
    p.add_argument("--images", help="basis images, ';'-separated coordinate lists")


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    # hidden, kept so older command lines parse; run() refuses values below 1
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)


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
    p.add_argument("--from-file", help="JSON artifact produced by derive; - reads stdin")
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
    _add_jobs_flag(p)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("code", help="code report for a subset of derivation images")
    _add_pair_flags(p)
    _add_map_flags(p)
    p.add_argument("--subset", required=True, help="1-based row indices, comma-separated")
    p.add_argument("--q", type=int, default=2, help="prime modulus")
    p.add_argument("--label", default="")
    p.add_argument("--budget", type=int)  # None: codes.DEFAULT_BUDGET
    _add_jobs_flag(p)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("reproduce-paper", help="recompute the shipped reference results")
    p.add_argument("--section", choices=["all", "3.2", "4.4", "sweep"], default="all")
    _add_jobs_flag(p)
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
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("jobs must be positive")
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError("budget must be positive")
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
