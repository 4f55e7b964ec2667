"""Command-line front end.

Verbs: verify-order, reproduce, correspond, equivalence, represents,
search-endo.  Reports are JSON with a stable key order (or --format text);
the exit status is 0 iff every check passed.

The size arguments are capped (LIMITS): --ell and --norm at 10^6 and
--ell-max at 500, far above the paper's tables (ell <= 50).  Enumeration
time grows with them: at the caps, on a 2-vCPU machine, `represents` on
x^2 + y^2 + z^2 takes about 7 s and an equivalence table on p31 about
0.3 s.  It grows with a form's skew too.  The order verbs enumerate on the
reduced Gross form (`forms.gross_form`), so a skewed fixture basis costs
them nothing; a form given to `represents` has its (y, z) columns
(`forms.column_bound`) capped at 5.7 * 10^6, above x^2+y^2+z^2+xy+xz+yz
at 10^6, the largest box of a reduced form (Hermite: A^3 <= 2 det G).
A larger value is refused with LimitExceeded before any work starts, as is
a fixture algebra with a > 10^12 or p above the proved range of the
primality test (AlgebraParams).
"""

from __future__ import annotations

import argparse
import json
import sys

from .correspond import endo_to_sublattice, pair_determinant, search_elements, sublattice_to_endo
from .errors import LimitExceeded, MalformedInput
from .fixtures import BUILTIN_CASES, FixtureConfig, load_fixture
from .forms import TernaryForm, column_bound, gross_form, order_form, represents
from .quat import rat_str


LIMITS = {"ell": 10**6, "norm": 10**6, "ell_max": 500, "columns": 5_700_000}


def _check_limits(args) -> None:
    for name, cap in LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and value > cap:
            flag = "--" + name.replace("_", "-")
            raise LimitExceeded(f"{flag} must be at most {cap}, got {value}")


def _check(name: str, expected, actual) -> dict:
    return {"check": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def cmd_verify_order(config: FixtureConfig) -> tuple[dict, bool]:
    order = config.order()
    disc = order.reduced_discriminant()
    reduced = order.reduced_gross_lattice()
    gram = reduced.gram()
    checks = [
        _check("is_order", True, True),
        _check("is_maximal", True, order.is_maximal()),
        _check("alpha_in_order", True, order.contains(config.alpha)),
    ]
    expected = config.expected
    if "reduced_discriminant" in expected:
        checks.append(_check("reduced_discriminant", expected["reduced_discriminant"], disc))
    if "gross_gram_diagonal" in expected:
        checks.append(_check("gross_gram_diagonal",
                             [str(v) for v in expected["gross_gram_diagonal"]],
                             [rat_str(v) for v in gram.diagonal]))
    if "gross_det" in expected:
        checks.append(_check("gross_det", str(expected["gross_det"]), rat_str(reduced.det())))
    ok = all(c["pass"] for c in checks)
    report = {
        "command": "verify-order",
        "label": config.label,
        "reduced_discriminant": disc,
        "gross_gram": gram.to_strings(),
        "gross_det": rat_str(reduced.det()),
        "checks": checks,
        "ok": ok,
    }
    return report, ok


def cmd_reproduce(config: FixtureConfig) -> tuple[dict, bool]:
    order = config.order()
    p = config.algebra.p
    ell = config.ell
    alpha = config.alpha
    content, form = order_form(order)
    witness = represents(form, ell)
    checks = [
        _check("alpha_in_order", True, order.contains(alpha)),
        _check("alpha_trace", str(p), rat_str(alpha.reduced_trace())),
        _check("alpha_norm", str(ell * p), rat_str(alpha.reduced_norm())),
        _check("content", 4 * p, content),
        _check("form_represents_ell", False, witness is not None),
    ]
    ok = all(c["pass"] for c in checks)
    report = {
        "command": "reproduce",
        "label": config.label,
        "ell": ell,
        "form": form.to_dict(),
        "checks": checks,
        "ok": ok,
    }
    return report, ok


def cmd_correspond(direction: str, config: FixtureConfig, payload) -> tuple[dict, bool]:
    order = config.order()
    algebra = config.algebra
    if direction == "to-endo":
        if not isinstance(payload, list) or len(payload) != 2:
            raise MalformedInput("--pair must be a JSON list of two coordinate lists")
        g1, g2 = (algebra.from_coord_strings(row) for row in payload)
        alpha = sublattice_to_endo(order, g1, g2)
        det = pair_determinant(g1, g2)
        report = {
            "command": "correspond",
            "direction": direction,
            "alpha": alpha.to_coord_strings(),
            "pair_det": rat_str(det),
            "nrd": rat_str(alpha.reduced_norm()),
            "trd": rat_str(alpha.reduced_trace()),
            "ok": True,
        }
        return report, True
    alpha = algebra.from_coord_strings(payload)
    pair = endo_to_sublattice(order, alpha)
    rebuilt = sublattice_to_endo(order, pair.gamma1, pair.gamma2)
    round_trip = rebuilt == alpha
    det = pair.det()
    report = {
        "command": "correspond",
        "direction": direction,
        "gamma1": pair.gamma1.to_coord_strings(),
        "gamma2": pair.gamma2.to_coord_strings(),
        "pair_det": rat_str(det),
        "det_is_4nrd": det == 4 * alpha.reduced_norm(),
        "round_trip": round_trip,
        "ok": round_trip,
    }
    return report, round_trip


def cmd_equivalence(config: FixtureConfig, ell_max: int) -> tuple[dict, bool]:
    if ell_max < 1:
        raise ValueError("--ell-max must be a positive integer")
    order = config.order()
    p = config.algebra.p
    content, form = order_form(order)
    gross = gross_form(order)
    rows = []
    for ell in range(1, ell_max + 1):
        endo = represents(gross, 4 * ell * p) is not None
        rep = represents(form, ell) is not None
        rows.append({"ell": ell, "endo_exists": endo,
                     "form_represents": rep, "agree": endo == rep})
    ok = all(r["agree"] for r in rows)
    report = {
        "command": "equivalence",
        "label": config.label,
        "content": content,
        "rows": rows,
        "ok": ok,
    }
    return report, ok


def cmd_represents(form: TernaryForm, n: int) -> tuple[dict, bool]:
    if n >= 0 and (columns := column_bound(form, n)) > LIMITS["columns"]:
        raise LimitExceeded(f"{columns} (y, z) columns, at most {LIMITS['columns']}")
    witness = represents(form, n)
    report = {
        "command": "represents",
        "form": form.to_dict(),
        "n": n,
        "witness": list(witness) if witness is not None else None,
        "represented": witness is not None,
        "ok": True,
    }
    return report, True


def cmd_search_endo(config: FixtureConfig, trace: int, norm: int) -> tuple[dict, bool]:
    order = config.order()
    found = search_elements(order, trace, norm)
    report = {
        "command": "search-endo",
        "label": config.label,
        "trace": trace,
        "norm": norm,
        "count": len(found),
        "elements": [x.to_coord_strings() for x in found],
        "ok": True,
    }
    return report, True


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if key == "checks":
            for c in value:
                status = "PASS" if c["pass"] else "FAIL"
                print(f"{status} {c['check']}: expected {c['expected']}, got {c['actual']}")
        elif key == "rows":
            for r in value:
                status = "PASS" if r["agree"] else "FAIL"
                print(f"{status} ell={r['ell']}: endo={r['endo_exists']} "
                      f"form={r['form_represents']}")
        else:
            print(f"{key}: {value}")


def _load_config(args) -> FixtureConfig:
    if getattr(args, "case", None):
        return load_fixture(args.case)
    if args.config is None:
        raise ValueError("either a case name or --config PATH is required")
    return load_fixture(args.config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grosslat")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("verify-order", parents=[common],
                        help="check an order fixture's invariants")
    sp.add_argument("--config", help="fixture JSON path")
    sp.add_argument("--case", choices=sorted(BUILTIN_CASES), help="builtin fixture")

    sp = sub.add_parser("reproduce", parents=[common],
                        help="re-run one shipped counter-example")
    sp.add_argument("case", choices=sorted(BUILTIN_CASES))

    sp = sub.add_parser("correspond", parents=[common],
                        help="convert between elements and sublattice pairs")
    sp.add_argument("direction", choices=("to-sublattice", "to-endo"))
    sp.add_argument("--config", help="fixture JSON path")
    sp.add_argument("--case", choices=sorted(BUILTIN_CASES))
    sp.add_argument("--element", help="JSON quaternion coordinates (to-sublattice)")
    sp.add_argument("--pair", help="JSON [[...], [...]] pair coordinates (to-endo)")

    sp = sub.add_parser("equivalence", parents=[common],
                        help="existence-vs-representation table")
    sp.add_argument("--config", help="fixture JSON path")
    sp.add_argument("--case", choices=sorted(BUILTIN_CASES))
    sp.add_argument("--ell-max", type=int, required=True,
                    help=f"last row of the table, 1 to {LIMITS['ell_max']}")

    sp = sub.add_parser("represents", parents=[common],
                        help="test representation of an integer by a form")
    sp.add_argument("--form", required=True, help='JSON like {"A":1,...,"F":1}')
    sp.add_argument("--ell", type=int, required=True,
                    help=f"the integer to represent, at most {LIMITS['ell']}")

    sp = sub.add_parser("search-endo", parents=[common],
                        help="enumerate order elements by trace and norm")
    sp.add_argument("--config", help="fixture JSON path")
    sp.add_argument("--case", choices=sorted(BUILTIN_CASES))
    sp.add_argument("--trace", type=int, required=True)
    sp.add_argument("--norm", type=int, required=True,
                    help=f"reduced norm, at most {LIMITS['norm']}")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        if args.verb == "verify-order":
            report, ok = cmd_verify_order(_load_config(args))
        elif args.verb == "reproduce":
            report, ok = cmd_reproduce(load_fixture(args.case))
        elif args.verb == "correspond":
            if args.direction == "to-endo":
                if args.pair is None:
                    raise ValueError("to-endo needs --pair")
                payload = json.loads(args.pair)
            else:
                if args.element is None:
                    raise ValueError("to-sublattice needs --element")
                payload = json.loads(args.element)
            report, ok = cmd_correspond(args.direction, _load_config(args), payload)
        elif args.verb == "equivalence":
            report, ok = cmd_equivalence(_load_config(args), args.ell_max)
        elif args.verb == "represents":
            form = TernaryForm.from_dict(json.loads(args.form))
            report, ok = cmd_represents(form, args.ell)
        elif args.verb == "search-endo":
            report, ok = cmd_search_endo(_load_config(args), args.trace, args.norm)
        else:  # pragma: no cover
            parser.error(f"unknown verb {args.verb}")
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}) if args.format == "json"
              else f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.format)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
