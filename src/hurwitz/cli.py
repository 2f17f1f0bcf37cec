"""Command-line interface: compute numbers, emit rational forms, verify.

Exit codes: 0 success, 1 a verification check failed, 2 unsupported
range/usage (the message names the violated bound), 3 an internal
invariant failed (one line "internal error: ..." on stderr, no
traceback).  All numeric output
is exact; rationals serialize as "num/den" strings.  Output is
byte-identical across runs unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .closedforms import (
    classical_genus0,
    classical_genus1,
    mn_single_cycle,
    monotone_genus0,
    monotone_genus1,
)
from .inversion import value_from_form
from .joincut import genus_value
from .oracle import (
    ResourceLimitError,
    count_classical_transitive,
    count_monotone_transitive,
)
from .partitions import Partition, decimal_int
from .pipeline import GENUS_CAP, genus1_closed, rational_form
from .tables import paper_form
from .verify import SUITES, run_suite

METHODS = ("auto", "oracle", "joincut", "closed-form", "pipeline", "lagrange")

# |alpha| cap of the one-coefficient extraction (pipeline and lagrange).  The
# extraction works on the divisors of alpha; at |alpha| = 16 the worst shape,
# (4,3,2,2,1,1,1,1,1) with 72 divisors, takes 24-26 ms (monotone) and 19-21 ms
# (classical) at genus 3, cold (compute --timing elapsed_ms, one process
# each, 2-vCPU VM).
EXTRACTION_CAP = 16

# r cap of the join-cut route, r = 2g - 2 + len(alpha) + |alpha|, set as the
# largest r whose cold solve_classical(9, r) finished within 60 s on a 2-vCPU
# Xeon VM (Python 3.11.7; r = 700 took 38-43 s, r = 720 52-62 s).  The route
# reads genus_value, which fills every size <= |alpha| to the query's genus:
# at r = 700, cold `compute --method joincut` took 25-35 s for classical (9)
# (g = 346) and 1^9 (g = 342), and 6-9 s for monotone (three runs each).
JOINCUT_R_CAP = 700

# |alpha| cap of the join-cut route, the size at which JOINCUT_R_CAP was
# measured.
JOINCUT_D_CAP = 9

# r cap of the closed-form route.  The single-cycle formula raises a
# (g+1)-term series to the power 2d-2 by Miller's recurrence, about g^2
# rational steps; cold (one process each, 2-vCPU VM, elapsed_ms of compute
# --timing) its slowest shapes at r = 360, g = 165..177, took 0.40-0.45 s.
# The genus-1 formulas at 1^(r/2) took 0.08 s at r = 360.  Values there stay
# under 2,000 digits, far from Python's 4,300-digit limit on printing an int.
CLOSED_FORM_R_CAP = 360


class RangeError(Exception):
    """Query outside the supported range of the requested method."""


def fmt_fraction(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise RangeError(f"invalid partition {text!r}: {exc}") from exc


class DecimalFlag(argparse.Action):
    """The action of the integer flags: ASCII decimal digits with an optional
    leading '-', so that a negative value reaches its range check.  Anything
    else is one error line and exit 2, not argparse's usage block."""

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            setattr(namespace, self.dest, decimal_int(text, signed=True))
        except ValueError:
            raise RangeError(f"argument {option_string}: invalid decimal value: {text!r}") from None


# The auto rule, measured cold (one `compute --timing` process per query,
# elapsed_ms, 2-vCPU VM).  Monotone genus >= 4 goes to join-cut, which is at
# least as fast as the pipeline at every |alpha| <= 9: g=5 (2,1) 0.3-0.5 ms
# against 207-224 ms, g=9 (2) 0.3 ms against 15.7-18.6 s, g=4 (3,3,3) 13-19 ms
# against 55-75 ms.  Genus 2 and 3 keep lagrange: at |alpha| = 9 (shapes (9),
# (3,3,3) and 1^9, both families, minimum of 5) it takes 0.7-1.6 ms against
# join-cut's 6.8-8.0 ms, about 4 ms of it cold plan building, so single cold
# queries would get slower there.
def _auto_method(genus: int, alpha: Partition, r: int, classical: bool) -> str:
    if genus <= 1:
        return "closed-form"
    if genus in (2, 3):
        return "lagrange"
    # classical genus >= 4 has no other route; out of range, join-cut exits 2
    if classical or (alpha.size <= JOINCUT_D_CAP and r <= JOINCUT_R_CAP):
        return "joincut"
    return "pipeline"


def compute_value(genus: int, alpha: Partition, classical: bool, method: str) -> tuple[str, Fraction]:
    if genus < 0:
        raise RangeError("genus must be >= 0")
    if alpha.size < 1:
        raise RangeError("the partition must be nonempty")
    r = 2 * genus - 2 + alpha.length + alpha.size
    if method == "auto":
        method = _auto_method(genus, alpha, r, classical)
    if r < 0:
        return method, Fraction(0)

    if method == "oracle":
        fn = count_classical_transitive if classical else count_monotone_transitive
        return method, Fraction(fn(alpha, r))

    if method == "joincut":
        if alpha.size > JOINCUT_D_CAP:
            raise RangeError(f"join-cut path caps |alpha| at {JOINCUT_D_CAP}, got {alpha.size}")
        if r > JOINCUT_R_CAP:
            raise RangeError(
                f"join-cut path caps r = 2g-2+len+|alpha| at {JOINCUT_R_CAP}, got {r}"
            )
        return method, Fraction(genus_value(genus, alpha, not classical))

    if method == "closed-form":
        if r > CLOSED_FORM_R_CAP:
            raise RangeError(
                f"closed-form path caps r = 2g-2+len+|alpha| at {CLOSED_FORM_R_CAP}, got {r}"
            )
        if classical:
            if genus == 0:
                return method, classical_genus0(alpha)
            if genus == 1:
                return method, classical_genus1(alpha)
            raise RangeError("classical closed formulas cover genus 0 and 1 only")
        if genus == 0:
            return method, monotone_genus0(alpha)
        if genus == 1:
            return method, monotone_genus1(alpha)
        if alpha.length == 1:
            return method, mn_single_cycle(genus, alpha.size)
        raise RangeError(
            "monotone closed formulas cover genus <= 1, or single-part partitions"
        )

    if method == "pipeline":
        if classical:
            raise RangeError("the operator pipeline computes monotone numbers only")
        if genus < 1:
            raise RangeError("the pipeline starts at genus 1; use closed-form")
        if genus > GENUS_CAP:
            raise RangeError(f"pipeline genus cap is {GENUS_CAP}")
        if alpha.size > EXTRACTION_CAP:
            raise RangeError(
                f"pipeline extraction caps |alpha| at {EXTRACTION_CAP}, got {alpha.size}"
            )
        form = genus1_closed() if genus == 1 else rational_form(genus)
        return method, value_from_form(form, alpha)

    if method == "lagrange":
        if genus not in (2, 3):
            raise RangeError("checked-in tables exist for genus 2 and 3 only")
        if alpha.size > EXTRACTION_CAP:
            raise RangeError(
                f"table extraction caps |alpha| at {EXTRACTION_CAP}, got {alpha.size}"
            )
        return method, value_from_form(paper_form(genus, classical=classical), alpha)

    raise RangeError(f"unknown method {method!r}")


def cmd_compute(args) -> int:
    alpha = parse_partition(args.partition)
    if args.max_degree is not None and alpha.size > args.max_degree:
        raise RangeError(
            f"|alpha| = {alpha.size} exceeds --max-degree {args.max_degree}"
        )
    start = time.perf_counter()
    method, value = compute_value(args.genus, alpha, args.classical, args.method)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    record = {
        "method": method,
        "query": {
            "genus": args.genus,
            "partition": list(alpha),
            "classical": args.classical,
        },
        "value": fmt_fraction(value),
    }
    if args.timing:
        record["elapsed_ms"] = round(elapsed_ms, 3)
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    elif args.format == "csv":
        print("method,genus,partition,classical,value")
        print(
            f"{method},{args.genus},{'+'.join(map(str, alpha))},"
            f"{str(args.classical).lower()},{record['value']}"
        )
    else:
        print(record["value"])
    return 0


def cmd_rational_form(args) -> int:
    g = args.genus
    if g < 1:
        raise RangeError("rational forms exist for genus >= 1")
    if g > GENUS_CAP:
        raise RangeError(f"pipeline genus cap is {GENUS_CAP}")
    if g == 1:
        log_form = genus1_closed()
        record = {
            "genus": 1,
            "log_eta": fmt_fraction(log_form.coeff_eta),
            "log_gamma": fmt_fraction(log_form.coeff_gamma),
        }
    else:
        form = rational_form(g)
        record = {
            "genus": g,
            "constant": fmt_fraction(form.constant),
            "terms": [
                {
                    "alpha": list(a),
                    "coeff": fmt_fraction(c),
                    "denominator_power": form.denominator_power(a),
                }
                for a, c in form.sorted_terms()
            ],
        }
    if args.format == "text":
        if g == 1:
            print(f"({record['log_eta']}) log 1/(1-eta) + ({record['log_gamma']}) log 1/(1-gamma)")
        else:
            print(f"constant {record['constant']}")
            for t in record["terms"]:
                alpha = ",".join(map(str, t["alpha"])) or "-"
                print(f"eta[{alpha}] / (1-eta)^{t['denominator_power']}: {t['coeff']}")
    else:
        print(json.dumps(record, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, jobs=args.jobs)
    if args.format == "json":
        payload = [
            {
                "check": r.name,
                "passed": r.passed,
                "detail": r.detail,
                **({"elapsed_s": round(r.elapsed, 3)} if args.timing else {}),
            }
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            stamp = f" ({r.elapsed:.2f}s)" if args.timing else ""
            print(f"{status} {r.name}{stamp}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Exact monotone and classical single Hurwitz numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a single Hurwitz number")
    p_compute.add_argument("--genus", action=DecimalFlag, required=True)
    p_compute.add_argument(
        "--partition", required=True, help="comma-separated parts, e.g. 3,1,1"
    )
    p_compute.add_argument("--classical", action="store_true")
    p_compute.add_argument("--method", choices=METHODS, default="auto")
    p_compute.add_argument("--max-degree", action=DecimalFlag, default=None)
    p_compute.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_compute.add_argument("--timing", action="store_true")
    p_compute.set_defaults(func=cmd_compute)

    p_form = sub.add_parser("rational-form", help="emit a genus generating function")
    p_form.add_argument("--genus", action=DecimalFlag, required=True)
    p_form.add_argument("--format", choices=("json", "text"), default="json")
    p_form.set_defaults(func=cmd_rational_form)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default="all")
    p_verify.add_argument("--jobs", action=DecimalFlag, default=1)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--timing", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (RangeError, ResourceLimitError, ValueError, KeyError) as exc:
        # a KeyError's str is the repr of its message; print the message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
