"""Command-line surface: enumeration dumps, symbolic tables, numeric
conversion, and a self-verification harness.

Four verbs:

* ``enumerate`` -- canonical listings of the combinatorial families, with a
  trailing count line (text) or a JSON payload;
* ``table``     -- the symbolic transform tables, optionally cross-checked
  across all three inverse routes;
* ``convert``   -- exact rational sequence conversion in either direction;
* ``verify``    -- the invariant suite, one named check per line.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
disagreement between the inverse routes.  ``main`` maps a usage error that a
verb raises to exit 2 and one ``nckit: error: ...`` line on stderr.  Output
is deterministic byte-for-byte for a fixed invocation.  Enumeration sizes
are capped (noncrossing kinds 10, tree kinds 8); the ``NCKIT_MAX_N``
environment variable (at least 1) overrides both caps and
``--unsafe-no-cap`` removes them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, product

from . import cumulants as cm
from .ncpart import (
    arcs,
    enumerate_interval,
    enumerate_nc,
    enumerate_set_partitions,
    is_noncrossing,
    kreweras,
    kreweras_inv,
    leq,
    zeta,
    zeta_arc_form,
    zeta_c,
    zeta_c_closed,
)
from .poly import DELTA, Polynomial, _shown, cumulant, moment
from .series import standard_series
from .trees import (
    enumerate_arrangements,
    enumerate_prime,
    enumerate_schroder,
    eta,
    partition_of,
    phi,
    phi_inv,
    tree_to_json,
    weight_arrangement,
    weight_tree,
)

PARTITION_CAP = 10
TREE_CAP = 8
_PARTITION_KINDS = ("nc", "interval")
_TREE_KINDS = ("schroder", "prime", "arrangement")
_ENUM_KINDS = _PARTITION_KINDS + _TREE_KINDS


class _UsageError(Exception):
    """Bad input discovered after argument parsing; maps to exit code 2."""


def _unparsable(token: str, what: str) -> str:
    """Why token is not `what`: echoed, unless past the int-to-string digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and len(token) > limit:
        return f"a value has more than {limit} digits"
    return f"not {what}: {_shown(token)}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(_unparsable(text, "an integer")) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nckit",
        description="Moment/cumulant transforms over weighted noncrossing partitions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="list a combinatorial family in canonical order"
    )
    p_enum.add_argument("kind", choices=_ENUM_KINDS)
    p_enum.add_argument("--n", type=_positive_int, required=True)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument(
        "--unsafe-no-cap",
        action="store_true",
        help="disable the size cap (output grows like Catalan numbers)",
    )
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_table = sub.add_parser("table", help="print a symbolic transform table")
    p_table.add_argument("kind", choices=("delta", "free", "boolean"))
    p_table.add_argument(
        "--direction", choices=("moments", "cumulants"), required=True
    )
    p_table.add_argument("--n", type=_positive_int, required=True)
    p_table.add_argument(
        "--method",
        choices=cm.CUMULANT_METHODS + ("all",),
        default=cm.DEFAULT_METHOD,
        help="inverse route; ignored for --direction moments",
    )
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.set_defaults(handler=_cmd_table)

    p_conv = sub.add_parser("convert", help="convert a rational sequence exactly")
    p_conv.add_argument("--moments", help="comma-separated rationals (input)")
    p_conv.add_argument("--cumulants", help="comma-separated rationals (input)")
    p_conv.add_argument("--deltas", required=True, help="comma-separated rationals")
    p_conv.add_argument(
        "--direction", choices=("moments", "cumulants"), required=True
    )
    p_conv.set_defaults(handler=_cmd_convert)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--max-n", type=_positive_int, default=6)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (_UsageError, cm.LengthMismatch) as exc:
        print(f"nckit: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed output pipe ends the command quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# -- enumerate ---------------------------------------------------------------

def _resolve_cap(kind: str, no_cap: bool) -> int | None:
    if no_cap:
        return None
    env = os.environ.get("NCKIT_MAX_N")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            why = _unparsable(env, "an integer")  # the value itself only when it is short
            raise _UsageError(
                f"NCKIT_MAX_N is {why}" if why.startswith("not ") else f"NCKIT_MAX_N: {why}"
            ) from None
        if cap < 1:
            raise _UsageError("NCKIT_MAX_N must be >= 1")
        return cap
    return PARTITION_CAP if kind in _PARTITION_KINDS else TREE_CAP


def _cmd_enumerate(args) -> int:
    cap = _resolve_cap(args.kind, args.unsafe_no_cap)
    if cap is not None and args.n > cap:
        raise _UsageError(
            f"n={args.n} exceeds the cap {cap} for {_shown(args.kind)}"
            " (raise NCKIT_MAX_N or pass --unsafe-no-cap)"
        )
    n = args.n
    if args.kind in _PARTITION_KINDS:
        family = enumerate_nc(n) if args.kind == "nc" else enumerate_interval(n)
        lines = [p.render() for p in family]
        items = lines
    elif args.kind == "arrangement":
        family = enumerate_arrangements(n)
        lines = [
            partition_of(a).render()
            + " "
            + " ".join(_compact(tree_to_json(shape)) for _, shape in a.components)
            for a in family
        ]
        items = [a.to_json_list() for a in family]
    else:
        family = (
            enumerate_schroder(n) if args.kind == "schroder" else enumerate_prime(n)
        )
        items = [tree_to_json(t) for t in family]
        lines = [_compact(obj) for obj in items]
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n": n,
            "count": len(lines),
            "items": items,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"count: {len(lines)}")
    return 0


# -- table -------------------------------------------------------------------

def _cmd_table(args) -> int:
    n = args.n
    flavor = args.kind
    agreement = {}
    if args.direction == "moments":
        table = cm.moments_from_cumulants(n)
    elif args.method == "all":
        tables = {m: cm.cumulants_from_moments(n, m) for m in cm.CUMULANT_METHODS}
        agreement = {
            f"{a}/{b}": tables[a].entries == tables[b].entries
            for a, b in combinations(cm.CUMULANT_METHODS, 2)
        }
        table = tables[cm.DEFAULT_METHOD]
    else:
        table = cm.cumulants_from_moments(n, args.method)
    table = cm.specialize_table(table, flavor)

    if args.format == "json":
        payload = table.to_json_dict()
        if agreement:
            payload = {"table": payload, "agreement": agreement}
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
        for pair, ok in agreement.items():
            if not ok:
                print(f"agreement {pair}: MISMATCH", file=sys.stderr)
    else:
        print(table.render_text())
        for pair, ok in agreement.items():
            print(f"agreement {pair}: {'ok' if ok else 'MISMATCH'}")
    return 0 if all(agreement.values()) else 3


# -- convert -----------------------------------------------------------------

def _parse_rationals(text: str, flag: str) -> list[Fraction]:
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            if "e" in token.lower():  # Fraction("1e100000000") takes minutes
                raise ValueError(token)
            values.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"{flag}: {_unparsable(token, 'an exact rational')}") from None
    return values


def _cmd_convert(args) -> int:
    source = "moments" if args.direction == "cumulants" else "cumulants"  # the input's name
    wanted, given, other = f"--{source}", getattr(args, source), getattr(args, args.direction)
    if given is None:
        raise _UsageError(
            f"--direction {args.direction} needs the input sequence via {wanted}"
        )
    if other is not None:
        raise _UsageError(
            f"--direction {args.direction} takes only {wanted}, not both sequences"
        )
    values = _parse_rationals(given, wanted)
    deltas = _parse_rationals(args.deltas, "--deltas")
    result = cm.numeric_convert(values, deltas, args.direction)
    try:
        print(",".join(str(x) for x in result))
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise _UsageError("a result has too many digits to print")
    return 0


# -- verify ------------------------------------------------------------------

# Each check yields one (passed, what) pair per case; verify stops at the first
# failed case and names it by its `what`.
_Cases = Iterator[tuple[bool, str]]


def _check_counting(max_n: int) -> _Cases:
    for n in range(1, min(max_n, 8) + 1):
        brute = sum(1 for p in enumerate_set_partitions(n) if is_noncrossing(p))
        yield len(enumerate_nc(n)) == brute, f"noncrossing count at n={n}"
    for n in range(1, min(max_n, 6) + 1):
        yield len(enumerate_interval(n)) == 2 ** (n - 1), f"interval count at n={n}"
        yield (
            len(enumerate_arrangements(n)) == len(enumerate_prime(n)),
            f"arrangement/prime count at n={n}",
        )


def _check_zeta_forms(max_n: int) -> _Cases:
    for n in range(1, min(max_n, 5) + 1):
        for p, q in product(enumerate_nc(n), repeat=2):
            yield zeta(p, q) == zeta_arc_form(p, q), f"zeta forms disagree at n={n}"
            yield zeta_c(p, q) == zeta_c_closed(p, q), f"dual zeta forms disagree at n={n}"


def _check_structural_maps(max_n: int) -> _Cases:
    for n in range(1, min(max_n, 6) + 1):
        for t in enumerate_prime(n):
            a = phi(t)
            yield phi_inv(a) == t, f"tree/arrangement round trip at n={n}"
            yield kreweras(partition_of(a)) == eta(t), f"complement identity at n={n}"
            yield weight_arrangement(a) == weight_tree(t), f"weight transport at n={n}"
        for p in enumerate_nc(n):
            yield len(arcs(p)) + p.block_count == n, f"arc/block count at n={n}"


def _check_triple_agreement(max_n: int) -> _Cases:
    reference, *others = cm.CUMULANT_METHODS
    for n in range(1, max_n + 1):
        expected = cm.cumulants_from_moments(n, reference).entries
        for m in others:
            what = f"{reference} vs {m} at n={n}"
            yield cm.cumulants_from_moments(n, m).entries == expected, what


def _check_round_trip(max_n: int) -> _Cases:
    for n in range(1, max_n + 1):
        mtab = cm.moments_from_cumulants(n)
        ctab = cm.cumulants_from_moments(n)
        minto = {moment(k): mtab.entry(k) for k in range(1, n + 1)}
        cinto = {cumulant(k): ctab.entry(k) for k in range(1, n + 1)}
        for k in range(1, n + 1):
            c_k = Polynomial.from_variable(cumulant(k))
            m_k = Polynomial.from_variable(moment(k))
            yield ctab.entry(k).substitute(minto) == c_k, f"cumulant entry {k} at n={n}"
            yield mtab.entry(k).substitute(cinto) == m_k, f"moment entry {k} at n={n}"


def _check_specializations(max_n: int) -> _Cases:
    free_series = standard_series("F", max_n)
    bool_series = standard_series("B", max_n)
    free_table = cm.free_cumulants(max_n)
    bool_table = cm.boolean_cumulants(max_n)
    for k in range(1, max_n + 1):
        yield free_table.entry(k) == free_series.coeff(k - 1), f"free entry {k}"
        yield bool_table.entry(k) == bool_series.coeff(k - 1), f"boolean entry {k}"


def _check_cancellation(max_n: int) -> _Cases:
    for n in range(1, min(max_n, 5) + 1):
        for rho in enumerate_nc(n):
            expected = int(rho.block_count == 1)
            yield cm.w_rho(rho) == expected, f"accumulated column value at {rho.render()}"
            if expected:
                continue
            dual = kreweras_inv(rho)
            failure = f"pairing fails at {rho.render()}"
            below = (a for a in enumerate_arrangements(n) if leq(partition_of(a), dual))
            images = {a: cm.psi(a, rho) for a in below}  # psi is pure: images[b] is psi(b)
            for a, b in images.items():
                yield b != a and images.get(b) == a, failure


def _check_sign_pattern(max_n: int) -> _Cases:
    table = cm.cumulants_from_moments(max_n)
    for k in range(1, max_n + 1):
        for mono, coeff_poly in table.entry(k).split_by_family(DELTA).items():
            sign = (-1) ** (sum(exp for _, exp in mono) - 1)
            ok = all(sign * c > 0 and c.denominator == 1 for _, c in coeff_poly.items())
            yield ok, f"sign pattern breaks in entry {k}"


_CHECKS = (
    ("counting", _check_counting),
    ("zeta forms", _check_zeta_forms),
    ("structural maps", _check_structural_maps),
    ("triple agreement", _check_triple_agreement),
    ("round trip", _check_round_trip),
    ("specializations", _check_specializations),
    ("cancellation", _check_cancellation),
    ("sign pattern", _check_sign_pattern),
)


def _cmd_verify(args) -> int:
    for name, check in _CHECKS:
        cases = 0
        for passed, what in check(args.max_n):
            if not passed:
                print(f"FAIL {name}: {what}")
                return 1
            cases += 1
        print(f"ok {name}: {cases} cases")
    print(f"all checks passed (max n = {args.max_n})")
    return 0
