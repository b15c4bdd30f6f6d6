"""Command-line front end.

Exit codes for verdict-producing commands: 0 = MRD, 1 = NOT_MRD, 2 = UNKNOWN,
3+ = error (argparse usage errors are remapped to 3 so UNKNOWN stays
distinguishable).  Certificates are printed to stdout as JSON and appended to
the JSON-lines catalog (--catalog, or the MRD_CATALOG environment variable,
default ./mrd_catalog.jsonl); the catalog is append-only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Set before numpy loads: the engines never call BLAS, so its thread pool would only idle.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import curves, moore, verify  # noqa: E402
from .codes import SupportCode, adjoint_support, dual_support, named_family  # noqa: E402
from .fields import factorize, make_tower  # noqa: E402
from .linpoly import LinPoly  # noqa: E402

DEFAULT_CATALOG = "mrd_catalog.jsonl"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _factor_prime_power(q: int) -> tuple[int, int]:
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"q={q} is not a prime power")
    [(p, e)] = fac.items()
    return p, e


def _tower(args):
    p, e = _factor_prime_power(args.q)
    if getattr(args, "e", None) not in (None, e):
        raise ValueError(f"--e {args.e} contradicts q={args.q} = {p}^{e}")
    return make_tower(p, e, args.n)


def _code(args, tower):
    if getattr(args, "family", None):
        return named_family(args.family, tower, s=getattr(args, "s", None))
    if getattr(args, "T", None):
        T = [int(x) for x in args.T.split(",")]
        return SupportCode(tower, T, getattr(args, "s", None) or 1)
    raise ValueError("need --T or --family")


def _emit(args, obj) -> None:
    text = json.dumps(obj, sort_keys=True)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


def _catalog_append(args, objs) -> None:
    path = getattr(args, "catalog", None) or os.environ.get("MRD_CATALOG") \
        or DEFAULT_CATALOG
    with open(path, "a") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _verdict_exit(verdict: str) -> int:
    return {"MRD": 0, "NOT_MRD": 1, "UNKNOWN": 2}.get(verdict, 4)


def cmd_verify(args) -> int:
    tower = _tower(args)
    code = _code(args, tower)
    cert = verify.decide(code, args.budget, args.workers)
    if not verify.validate_certificate(cert):
        raise RuntimeError("certificate failed self-validation")
    _emit(args, cert.to_json())
    _catalog_append(args, [cert.to_json()])
    return _verdict_exit(cert.verdict)


def cmd_classify(args) -> int:
    tower = _tower(args)
    cl = verify.classify(tower, args.k, budget=args.budget, workers=args.workers)
    _emit(args, cl.to_json())
    certs = [e.certificate.to_json() for e in cl.entries if e.certificate]
    _catalog_append(args, certs)
    unknown = any(e.certificate and e.certificate.verdict == "UNKNOWN"
                  for e in cl.entries)
    return 2 if unknown else 0


def cmd_dual(args) -> int:
    T = dual_support([int(x) for x in args.T.split(",")], args.n)
    _emit(args, {"kind": "support", "T": list(T), "s": 1})
    return 0


def cmd_adjoint(args) -> int:
    T = adjoint_support([int(x) for x in args.T.split(",")], args.n)
    _emit(args, {"kind": "support", "T": list(T), "s": 1})
    return 0


def cmd_idealiser(args) -> int:
    tower = _tower(args)
    code = _code(args, tower)
    rep = code.idealiser(args.side)
    _emit(args, rep.to_json())
    return 0


def cmd_curve_count(args) -> int:
    tower = _tower(args)
    rep = curves.curve_report(tower)
    _emit(args, rep.to_json())
    return 0


def cmd_moore_det(args) -> int:
    tower = _tower(args)
    A = [tower.element_from_json(a) for a in json.loads(args.A)]
    T = [int(x) for x in args.T.split(",")]
    det = moore.moore_det(tower, A, T, args.s or 1)
    _emit(args, {"A": [tower.coords(a) for a in A], "T": T, "s": args.s or 1,
                 "det": tower.coords(det)})
    return 0


def cmd_roots(args) -> int:
    tower = _tower(args)
    f = LinPoly.from_json(tower, json.loads(args.poly))
    roots = sorted(f.roots(), key=tower.canonical_index)
    _emit(args, {"count": len(roots),
                 "roots": [tower.coords(r) for r in roots]})
    return 0


def _add_common(sp, tower=True, code=False, scan=False):
    if tower:
        sp.add_argument("--q", type=int, required=True, help="field size, a prime power")
        sp.add_argument("--e", type=int, default=None,
                        help="optional check: q must equal p^e")
        sp.add_argument("--n", type=int, required=True, help="extension degree")
    if code:
        sp.add_argument("--T", type=str, default=None,
                        help="comma-separated support exponents")
        sp.add_argument("--s", type=int, default=None, help="twist exponent")
        sp.add_argument("--family", type=str, default=None,
                        help="named support: C7, C7', C8, C8', Cn, Ds")
    if scan:
        sp.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET,
                        help="representative cap for sweeps")
        sp.add_argument("--workers", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="parallel scan workers (1 = reference path)")
    sp.add_argument("--out", type=str, default=None, help="also write JSON here")
    sp.add_argument("--catalog", type=str, default=None,
                    help="JSON-lines catalog path (append-only)")


def build_parser() -> _Parser:
    ap = _Parser(prog="mrdcodes",
                 description="rank-metric support codes: invariants and MRD verification")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="MRD verdict for a support code")
    _add_common(sp, code=True, scan=True)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("classify", help="sweep all supports of size k up to shift")
    _add_common(sp, scan=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("dual", help="complement support of the trace-form dual")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--T", type=str, required=True)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--catalog", type=str, default=None)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("adjoint", help="reflected support of the adjoint code")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--T", type=str, required=True)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--catalog", type=str, default=None)
    sp.set_defaults(fn=cmd_adjoint)

    sp = sub.add_parser("idealiser", help="left/right idealiser report")
    _add_common(sp, code=True)
    sp.add_argument("--side", choices=("left", "right"), required=True)
    sp.set_defaults(fn=cmd_idealiser)

    sp = sub.add_parser("curve-count", help="plane-curve intersection report")
    _add_common(sp)
    sp.set_defaults(fn=cmd_curve_count)

    sp = sub.add_parser("moore-det", help="determinant of a Moore matrix")
    _add_common(sp)
    sp.add_argument("--T", type=str, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--A", type=str, required=True,
                    help="JSON list of coordinate arrays")
    sp.set_defaults(fn=cmd_moore_det)

    sp = sub.add_parser("roots", help="brute-force roots of a q-polynomial")
    _add_common(sp)
    sp.add_argument("--poly", type=str, required=True,
                    help='JSON: dense coefficient arrays or {"terms": [...]}')
    sp.set_defaults(fn=cmd_roots)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
