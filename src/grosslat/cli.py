"""Command-line front end.

Verbs: verify-order, reproduce, correspond, equivalence, represents,
search-endo.  Reports are JSON with a stable key order (or --format text,
one line per field, nested values as compact JSON); the exit status is 0
iff every check passed.  A stdout closed before the report is written ends
the run with status 1 and nothing on stderr.  `main(argv)` returns the
status, argparse's too (2 for a usage error, 0 after --help), and raises
no SystemExit.  It builds the parser of the verb it runs only
(`build_parser(verb)`), once per process, and reuses it; an argv that
names no verb gets the full parser.

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
import functools
import json
import os
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


def cmd_verify_order(config: FixtureConfig) -> dict:
    order = config.order()
    disc = order.reduced_discriminant()
    reduced = order.reduced_gross_lattice()
    gram = reduced.gram()
    gross_det = rat_str(reduced.det())
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
        checks.append(_check("gross_det", str(expected["gross_det"]), gross_det))
    return {
        "command": "verify-order",
        "label": config.label,
        "reduced_discriminant": disc,
        "gross_gram": gram.to_strings(),
        "gross_det": gross_det,
        "checks": checks,
        "ok": all(c["pass"] for c in checks),
    }


def cmd_reproduce(config: FixtureConfig) -> dict:
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
    return {
        "command": "reproduce",
        "label": config.label,
        "ell": ell,
        "form": form.to_dict(),
        "checks": checks,
        "ok": all(c["pass"] for c in checks),
    }


def cmd_correspond(direction: str, config: FixtureConfig, payload) -> dict:
    order = config.order()
    algebra = config.algebra
    if direction == "to-endo":
        if not isinstance(payload, list) or len(payload) != 2:
            raise MalformedInput("--pair must be a JSON list of two coordinate lists")
        g1, g2 = (algebra.from_coord_strings(row) for row in payload)
        alpha = sublattice_to_endo(order, g1, g2)
        return {
            "command": "correspond",
            "direction": direction,
            "alpha": alpha.to_coord_strings(),
            "pair_det": rat_str(pair_determinant(g1, g2)),
            "nrd": rat_str(alpha.reduced_norm()),
            "trd": rat_str(alpha.reduced_trace()),
            "ok": True,
        }
    alpha = algebra.from_coord_strings(payload)
    pair = endo_to_sublattice(order, alpha)
    round_trip = sublattice_to_endo(order, pair.gamma1, pair.gamma2) == alpha
    det = pair.det()
    return {
        "command": "correspond",
        "direction": direction,
        "gamma1": pair.gamma1.to_coord_strings(),
        "gamma2": pair.gamma2.to_coord_strings(),
        "pair_det": rat_str(det),
        "det_is_4nrd": det == 4 * alpha.reduced_norm(),
        "round_trip": round_trip,
        "ok": round_trip,
    }


def cmd_equivalence(config: FixtureConfig, ell_max: int) -> dict:
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
    return {
        "command": "equivalence",
        "label": config.label,
        "content": content,
        "rows": rows,
        "ok": all(r["agree"] for r in rows),
    }


def cmd_represents(form: TernaryForm, n: int) -> dict:
    if n >= 0 and (columns := column_bound(form, n)) > LIMITS["columns"]:
        raise LimitExceeded(f"{columns} (y, z) columns, at most {LIMITS['columns']}")
    witness = represents(form, n)
    return {
        "command": "represents",
        "form": form.to_dict(),
        "n": n,
        "witness": list(witness) if witness is not None else None,
        "represented": witness is not None,
        "ok": True,
    }


def cmd_search_endo(config: FixtureConfig, trace: int, norm: int) -> dict:
    found = search_elements(config.order(), trace, norm)
    return {
        "command": "search-endo",
        "label": config.label,
        "trace": trace,
        "norm": norm,
        "count": len(found),
        "elements": [x.to_coord_strings() for x in found],
        "ok": True,
    }


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
        elif isinstance(value, (list, dict)):
            print(f"{key}: {json.dumps(value, separators=(',', ':'))}")
        else:
            print(f"{key}: {value}")


def _fixture(args) -> FixtureConfig:
    """The fixture named by a case (`--case`, or `reproduce`'s positional) or `--config`."""
    source = args.case or args.config
    if source is None:
        raise ValueError("either a case name or --config PATH is required")
    return load_fixture(source)


def _run_correspond(args) -> dict:
    # the payload is read before the fixture, so a missing one is named first
    flag = "pair" if args.direction == "to-endo" else "element"
    payload = getattr(args, flag)
    if payload is None:
        raise ValueError(f"{args.direction} needs --{flag}")
    return cmd_correspond(args.direction, _fixture(args), json.loads(payload))


CASES = sorted(BUILTIN_CASES)

# name: (help, runner, whether it takes --config/--case, its own flags)
VERBS = {
    "verify-order": ("check an order fixture's invariants",
                     lambda args: cmd_verify_order(_fixture(args)), True, ()),
    "reproduce": ("re-run one shipped counter-example",
                  lambda args: cmd_reproduce(_fixture(args)), False,
                  (("case", {"choices": CASES}),)),
    "correspond": ("convert between elements and sublattice pairs", _run_correspond, True, (
        ("direction", {"choices": ("to-sublattice", "to-endo")}),
        ("--element", {"help": "JSON quaternion coordinates (to-sublattice)"}),
        ("--pair", {"help": "JSON [[...], [...]] pair coordinates (to-endo)"}))),
    "equivalence": ("existence-vs-representation table",
                    lambda args: cmd_equivalence(_fixture(args), args.ell_max), True,
                    (("--ell-max", {"type": int, "required": True,
                                    "help": f"last row of the table, 1 to {LIMITS['ell_max']}"}),)),
    "represents": ("test representation of an integer by a form",
                   lambda args: cmd_represents(TernaryForm.from_dict(json.loads(args.form)),
                                               args.ell), False, (
        ("--form", {"required": True, "help": 'JSON like {"A":1,...,"F":1}'}),
        ("--ell", {"type": int, "required": True,
                   "help": f"the integer to represent, at most {LIMITS['ell']}"}))),
    "search-endo": ("enumerate order elements by trace and norm",
                    lambda args: cmd_search_endo(_fixture(args), args.trace, args.norm), True, (
        ("--trace", {"type": int, "required": True}),
        ("--norm", {"type": int, "required": True,
                    "help": f"reduced norm, at most {LIMITS['norm']}"}))),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with every verb, or with `verb` alone.

    A one-verb parser parses, helps and refuses that verb's argv byte for
    byte as the full one does: its usage line still names all the verbs.
    """
    parser = argparse.ArgumentParser(prog="grosslat")
    sub = parser.add_subparsers(dest="verb", required=True,
                                metavar=None if verb is None else "{" + ",".join(VERBS) + "}")
    for name in VERBS if verb is None else (verb,):
        help, run, fixture_flags, flags = VERBS[name]
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if fixture_flags:
            sp.add_argument("--config", help="fixture JSON path")
            sp.add_argument("--case", choices=CASES, help="builtin fixture")
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(run=run)
    return parser


# main's parser per verb (None: the full one), built once per process: a
# build costs ~0.3 ms and leaves cyclic garbage (a HelpFormatter per flag)
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no verb first (help, an unknown verb, a flag): the full parser, whose
    # messages list every verb's help
    try:
        args = _parser(argv[0] if argv and argv[0] in VERBS else None).parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2), already printed
        return exc.code
    try:
        _check_limits(args)
        report = args.run(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}) if args.format == "json"
              else f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to /dev/null,
        # so the flush at exit neither fails nor prints a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
