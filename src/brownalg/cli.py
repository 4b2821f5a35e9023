"""Command-line front end.

Commands: verify | fixed | kac | classify.  Exit codes: 0 success,
1 invariant failure, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import AlgebraError
from .fields import FieldSpec
from .involutions import Catalog, fixed_subalgebra
from .kac import enumerate_solutions, load_diagram
from .kernels import BACKEND
from .quatclass import class_report
from .verify import run_suite


def _parse_field(text: str) -> FieldSpec:
    return FieldSpec.parse(text)


def _program() -> dict:
    """The keys that open every `--json` document: the package version and
    the kernel backend."""
    return {"version": __version__, "backend": BACKEND}


def cmd_verify(args) -> int:
    field = _parse_field(args.field)
    if not field.is_arithmetic:
        raise ValueError("verification suites need an arithmetic field (Q or Fp:p)")
    results = run_suite(args.suite, field, args.seed, args.samples)
    failures = [r for r in results if not r.ok]
    if args.json:
        print(
            json.dumps(
                {
                    **_program(),
                    "field": str(field),
                    "seed": args.seed,
                    "samples": args.samples,
                    "checks": [
                        {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                        for r in results
                    ],
                    "passed": len(results) - len(failures),
                    "failed": len(failures),
                }
            )
        )
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"[{r.suite}] {r.name}: {status}")
            if not r.ok:
                print(f"    {r.detail}", file=sys.stderr)
        print(f"{len(results) - len(failures)}/{len(results)} checks passed over {field}")
    return 1 if failures else 0


def _shape_label(cat: Catalog, m, space: str, rep) -> str:
    """Which fixed-subalgebra shape of the catalog this dimension/basis matches.
    Every shape is a subalgebra, so a fixed space that is not closed under
    the product gets no shape name."""
    if not rep.product_closed:
        return f"{rep.dimension}-dimensional fixed space, not a subalgebra"
    if space == "J":
        return {11: "J^s (11-dim quadratic beth)", 15: "J^t (Her3(D, gamma))", 27: "J"}.get(
            rep.dimension, "outside the catalog"
        )
    if rep.dimension == 24:
        return "B^s (alpha, beta free; j, l in beth)"
    if rep.dimension == 32:
        return "B^t (alpha, beta free; j, l in Her3(D, gamma))"
    if rep.dimension == 28:
        # fix(A.varpi) = {(a, a, A l, l)} for an order-2 automorphism A of J
        # (A = id for varpi); both it and rep have dimension 28, so a basis
        # of rep inside it names it
        basis = rep.basis
        if all(v[0] == v[1] for v in basis):
            if all(v[2:29] == v[29:] for v in basis):
                return "B^varpi (diagonal {(a, a, j, j)})"
            for atom in cat.INVOLUTIONS[cat.algebra_of(m).jalg.model]:
                A = cat.realize(atom, "J")  # realized only when reached
                if all(A.apply(v[29:]) == v[2:29] for v in basis):
                    return f"B^({atom}.varpi) (twisted diagonal by {atom})"
        return "a 28-dimensional varpi-type shape"
    return "outside the catalog"


def cmd_fixed(args) -> int:
    field = _parse_field(args.field)
    if not field.is_arithmetic:
        raise ValueError("fixed-subalgebra computation needs an arithmetic field")
    cat = Catalog(field)
    m = cat.realize_involution(args.descriptor, args.space)
    rep = fixed_subalgebra(m, cat.algebra_of(m))
    shape = _shape_label(cat, m, args.space, rep)
    if args.json:
        print(
            json.dumps(
                {
                    **_program(),
                    "descriptor": args.descriptor,
                    "space": args.space,
                    "field": str(field),
                    "dimension": rep.dimension,
                    "product_closed": rep.product_closed,
                    "involution_closed": rep.involution_closed,
                    "shape": shape,
                }
            )
        )
    else:
        print(f"fixed subalgebra of {args.descriptor} on {args.space} over {field}")
        print(f"  dimension: {rep.dimension}")
        closure = "closed" if rep.product_closed else "NOT closed"
        print(f"  product: {closure}")
        if rep.involution_closed is not None:
            inv = "closed" if rep.involution_closed else "NOT closed"
            print(f"  involution: {inv}")
        print(f"  catalog shape: {shape}")
    return 0


def cmd_kac(args) -> int:
    diagram = load_diagram(args.diagram)
    folded = args.folded
    if folded is None:
        folded = bool(diagram.folding)
    gcd_filter = args.gcd
    solutions = enumerate_solutions(diagram, args.m, gcd_filter=gcd_filter, folded=folded)
    if args.json:
        print(
            json.dumps(
                {
                    **_program(),
                    "diagram": diagram.name,
                    "m": args.m,
                    "folded": folded,
                    "solutions": [
                        {"s": list(s.s), "residual": list(s.residual), "gcd_one": s.gcd_one}
                        for s in solutions
                    ],
                }
            )
        )
    else:
        print(f"diagram {diagram.name}, order m = {args.m}, "
              f"{'folded' if folded else 'unfolded'}, {len(solutions)} solution(s)")
        for s in solutions:
            print(f"  s = {s.s}   residual: {s.residual_str}")
    return 0


def cmd_classify(args) -> int:
    field = _parse_field(args.field_spec)
    rep = class_report(field, args.level)
    if args.json:
        print(json.dumps({**_program(), **rep.as_dict()}))
    else:
        print(f"{args.level} involution classes over {field}")
        for kind, count in rep.kinds:
            print(f"  {kind}: {count}")
        print(f"  total: {rep.total}")
        print("  representatives:")
        for r in rep.representatives:
            print(f"    {r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brownalg",
        description="Exact composition/Albert/Brown algebra tower: verification "
        "suites, fixed-point subalgebras, Kac coordinates, involution class counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument(
        "suite", choices=["composition", "albert", "brown", "involutions", "all"]
    )
    p_verify.add_argument("--field", default="Fp:7")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_fixed = sub.add_parser("fixed", help="fixed subalgebra of an order-2 map")
    p_fixed.add_argument("descriptor", help='e.g. "s", "t", "varpi", "t.varpi", "t:1,1,1,1,-1,1"')
    p_fixed.add_argument("space", choices=["J", "B"])
    p_fixed.add_argument("--field", default="Fp:7")
    p_fixed.add_argument("--json", action="store_true")
    p_fixed.set_defaults(fn=cmd_fixed)

    p_kac = sub.add_parser("kac", help="Kac coordinate enumeration")
    p_kac.add_argument("diagram", help='"e6~", "e6~2", or a JSON diagram file')
    p_kac.add_argument("m", type=int)
    gcd_group = p_kac.add_mutually_exclusive_group()
    gcd_group.add_argument("--gcd", dest="gcd", action="store_true", default=None)
    gcd_group.add_argument("--no-gcd", dest="gcd", action="store_false")
    fold_group = p_kac.add_mutually_exclusive_group()
    fold_group.add_argument("--folded", dest="folded", action="store_true", default=None)
    fold_group.add_argument("--no-folded", dest="folded", action="store_false")
    p_kac.add_argument("--json", action="store_true")
    p_kac.set_defaults(fn=cmd_kac)

    p_cls = sub.add_parser("classify", help="involution class counts per field")
    p_cls.add_argument("field_spec", help='"Q", "Fp:7", "R", "Qp:5", "Kbar"')
    p_cls.add_argument("level", choices=["G2", "F4", "E6"])
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(fn=cmd_classify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (AlgebraError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
