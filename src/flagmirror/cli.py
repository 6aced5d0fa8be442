"""Command-line front end: superpotential and divisor printing, quantum
products, spectra, critical points, and the verification battery.

Exit codes: 0 on success/PASS, 1 on verification FAIL, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinat import FlagShape, Permutation
from .crit import crit_report
from .errors import FlagMirrorError
from .mirror import (
    divisor_equations,
    superpotential,
    term_to_json,
    term_to_latex,
    young_view,
)
from .qhpartial import spectrum_report
from .schubring import class_product
from .verify import (
    ACCEPTANCE_SHAPES,
    check_det_formula,
    check_equivalence_route,
    check_key_identity,
    check_mirror_spectrum,
    check_tau_symmetry,
    key_identity_sweep,
)

__all__ = ["main"]


def _parse_q(text: str) -> list[complex]:
    """Comma-separated complex values; a trailing i is the imaginary unit."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        out.append(complex(piece[:-1] + "j" if piece.endswith("i") else piece))
    return out


def cmd_superpotential(args) -> int:
    shape = FlagShape.from_string(args.shape)
    terms = young_view(shape) if args.young else superpotential(shape)
    if args.format == "json":
        print(json.dumps([term_to_json(t) for t in terms], indent=2))
    elif args.format == "latex":
        print(" + ".join(term_to_latex(t) for t in terms))
    else:
        for t in terms:
            print(f"D{t.divisor_k:<3} [{t.family}{t.index}]  "
                  f"({t.numerator}) / ({t.denominator})")
    return 0


def cmd_divisors(args) -> int:
    shape = FlagShape.from_string(args.shape)
    divs = divisor_equations(shape)
    if args.format == "json":
        print(json.dumps({k: p.to_json() for k, p in sorted(divs.items())}, indent=2))
    else:
        for k, p in sorted(divs.items()):
            print(f"D{k:<3} {p}")
    return 0


def cmd_qh_mult(args) -> int:
    u = Permutation.from_string(args.u)
    v = Permutation.from_string(args.v)
    out = class_product(u, v, args.n)
    if args.format == "json":
        print(json.dumps(out.to_json(), indent=2))
    else:
        print(out)
    return 0


def cmd_c1_spectrum(args) -> int:
    shape = FlagShape.from_string(args.shape)
    rep = spectrum_report(shape, _parse_q(args.q))
    if args.format == "json":
        print(json.dumps(rep, indent=2))
    else:
        print(f"shape {rep['shape']}  dim {rep['dim']}")
        for re_, im in rep["eigenvalues"]:
            print(f"  {re_:+.9f} {im:+.9f}i")
    return 0


def cmd_crit(args) -> int:
    shape = FlagShape.from_string(args.shape)
    rep = crit_report(shape, _parse_q(args.q))
    if args.format == "json":
        print(json.dumps(rep, indent=2))
    else:
        print(f"shape {rep['shape']}: {rep['count']} points "
              f"(total multiplicity {rep['total_multiplicity']}, "
              f"expected {rep['expected_dim']})")
        for p in rep["points"]:
            v = p["value"]
            mult = f" x{p['multiplicity']}" if p["multiplicity"] > 1 else ""
            print(f"  value {v[0]:+.9f} {v[1]:+.9f}i{mult}  "
                  f"|grad| {p['gradient_norm']:.2e}  toeplitz {p['toeplitz_residual']:.2e}")
    return 0


def cmd_verify_identity(args) -> int:
    ok = True
    if args.sweep_max_n:
        reports = key_identity_sweep(args.sweep_max_n, strict=False)
        for r in reports:
            ok = ok and r.ok
            print(f"{'PASS' if r.ok else 'FAIL'} shape {r.shape} j={r.j} i={r.i} "
                  f"({r.terms} terms, {r.elapsed:.2f}s)")
    else:
        shape = FlagShape.from_string(args.shape)
        r = check_key_identity(shape, args.j, args.i, strict=False)
        ok = r.ok
        print(f"{'PASS' if r.ok else 'FAIL'} shape {r.shape} j={r.j} i={r.i} "
              f"({r.terms} terms)")
        if not r.ok:
            print("residual:", r.residual)
    return 0 if ok else 1


def cmd_verify_detformula(args) -> int:
    r = check_det_formula(args.n, strict=False)
    print(f"{'PASS' if r.ok else 'FAIL'} determinantal formula n={r.n}: "
          f"{r.checked} permutations checked ({r.elapsed:.1f}s)")
    for w in r.failures:
        print("  failed:", w)
    return 0 if r.ok else 1


def cmd_verify_mirror(args) -> int:
    shape = FlagShape.from_string(args.shape)
    rep = check_mirror_spectrum(shape, _parse_q(args.q))
    if args.format == "json":
        print(json.dumps(rep.to_json(), indent=2))
    else:
        k, m = len(rep.critical_values), len(rep.eigenvalues)
        verdict = (f"{k} matched pairs, max distance {rep.max_distance:.2e} "
                   f"(tolerance {rep.tolerance:.2e})" if k == m else
                   f"count mismatch: {k} critical values vs {m} eigenvalues")
        print(f"{'PASS' if rep.passed else 'FAIL'} shape {rep.shape}: {verdict} "
              f"({rep.elapsed:.2f}s)")
        for p in rep.points:
            mult = f" x{p.multiplicity}" if p.multiplicity > 1 else ""
            print(f"  value {p.value.real:+.9f} {p.value.imag:+.9f}i{mult}  "
                  f"toeplitz {p.toeplitz_residual:.2e}")
    return 0 if rep.passed else 1


def cmd_report_all(args) -> int:
    ok = True
    print("== superpotential examples ==")
    for s in ("2,4;7", "1,2;4"):
        terms = superpotential(FlagShape.from_string(s))
        print(f"  {s}: {len(terms)} terms")
    print("== key identity ==")
    r = check_key_identity(FlagShape.from_string("2,4;7"), 1, 4, strict=False)
    ok &= r.ok
    print(f"  {'PASS' if r.ok else 'FAIL'} (2,4;7) j=1 i=4")
    for r in key_identity_sweep(5 if args.quick else 6, strict=False):
        ok &= r.ok
        if not r.ok:
            print(f"  FAIL {r.shape} j={r.j} i={r.i}")
    print("  sweep done")
    print("== determinantal formula ==")
    for n in range(2, 5 if args.quick else 7):
        r = check_det_formula(n, strict=False)
        ok &= r.ok
        print(f"  {'PASS' if r.ok else 'FAIL'} n={n} ({r.checked} permutations)")
    print("== tau symmetry ==")
    for s in ("1,2;4", "2,4;7"):
        r = check_tau_symmetry(FlagShape.from_string(s), samples=20)
        ok &= r.ok
        print(f"  {'PASS' if r.ok else 'FAIL'} {s} (G_1 on {r.G_checked} of {r.samples} samples)")
    print("== mirror spectrum ==")
    for s in ACCEPTANCE_SHAPES[:4] if args.quick else ACCEPTANCE_SHAPES:
        shape = FlagShape.from_string(s)
        rep = check_mirror_spectrum(shape, [1.0] * shape.r)
        ok &= rep.passed
        print(f"  {'PASS' if rep.passed else 'FAIL'} {s} q=1: "
              f"max distance {rep.max_distance:.2e}")
    print("== critical-point equivalence ==")
    for s, q in (("1,3;4", "1,1"), ("2,4;5", "1.1,0.9")):
        rep = check_equivalence_route(FlagShape.from_string(s), _parse_q(q))
        ok &= rep.ok
        print(f"  {'PASS' if rep.ok else 'FAIL'} {s} q={q}: {rep.points} points, "
              f"max residual {rep.max_residual:.2e}")
    print("== overall:", "PASS" if ok else "FAIL", "==")
    return 0 if ok else 1


def _add_q(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", required=True,
                   help="comma-separated complex values, e.g. 1,1 or 1+0.2i,0.9; "
                        "a value that starts with a minus sign needs the form --q=-1,2")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flagmirror",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("superpotential", help="print the superpotential terms")
    p.add_argument("--shape", required=True)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.add_argument("--young", action="store_true",
                   help="partition-indexed rendering")
    p.set_defaults(func=cmd_superpotential)

    p = sub.add_parser("divisors", help="print the anticanonical divisor equations")
    p.add_argument("--shape", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_divisors)

    p = sub.add_parser("qh-mult", help="quantum product of two Schubert classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_qh_mult)

    p = sub.add_parser("c1-spectrum", help="eigenvalues of quantum multiplication by c_1")
    p.add_argument("--shape", required=True)
    _add_q(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_c1_spectrum)

    p = sub.add_parser("crit", help="critical points of the superpotential")
    p.add_argument("--shape", required=True)
    _add_q(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_crit)

    p = sub.add_parser("verify-identity", help="alternating quantum Schubert identity")
    p.add_argument("--shape")
    p.add_argument("--j", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--sweep-max-n", type=int, default=None,
                   help="check all legal (shape, j, i) with n up to this")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("verify-detformula", help="321-avoiding determinantal formula")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_detformula)

    p = sub.add_parser("verify-mirror", help="spectrum vs critical values")
    p.add_argument("--shape", required=True)
    _add_q(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_mirror)

    p = sub.add_parser("report-all", help="run the whole verification battery")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_report_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "verify-identity" and not args.sweep_max_n:
            if not (args.shape and args.j is not None and args.i is not None):
                ap.error("verify-identity needs --shape/--j/--i or --sweep-max-n")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FlagMirrorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
