"""Command-line front end.

Subcommands:

* describe  -- derived invariants of one quotient
* counts    -- census count tables up to a bound
* zeta      -- all zeta functions, L-polynomial and correction factors
* verify    -- run the identity battery; exit 0 only if everything holds
* corpus    -- generate a seeded random corpus and verify every member

Exit codes: 0 success, 1 at least one identity failed (verify, corpus)
or no L-polynomial was found (zeta, which then prints nothing), 2 parse or
validation error (including a series order below the required one or
above MAX_ORDER, a --max-n outside 1..MAX_ORDER, and a corpus --tori or
--kleins outside 0..MAX_MEMBERS), 141 (128 + SIGPIPE) when the reader of
stdout closed it before the output was written, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .algebra import CycleProduct, spread
from .census import (
    gallery_count_table,
    geodesic_count_table,
    semi_count_table,
    walk_count_table,
)
from .corpus import MAX_MEMBERS, generate_corpus
from .identities import verify
from .quotient import SpecValidationError, build
from .rootgeom import RootSystem
from .specfile import ParsedSpec, SpecFileError, load_spec_file, spec_to_json_dict
from .zeta import MAX_ORDER, LPolynomial, OrderInsufficientError, zeta_bundle


def poly_to_json(p: LPolynomial, memo: Optional[dict] = None) -> dict:
    """P's u-coefficient list: its reduced numerator (the denominator is
    1), its expansion shared through memo as in ratfunc_to_json."""
    return {"coeffs": p.expanded(memo)[1], "var": "u"}


def ratfunc_to_json(f: CycleProduct, memo: Optional[dict] = None) -> dict:
    """The reduced num/den coefficient lists, in u when f is a function of
    u.  memo holds the expansions of one call, keyed by reduced factor
    dict (CycleProduct.expanded), so each distinct polynomial is expanded
    once."""
    v, num, den = f.expanded(memo)
    return {"num": num, "den": den, "var": "u" if v == 2 else "w"}


def _den_in_w(entry: dict) -> list:
    """den's w-coefficients, which the text output prints."""
    return spread(entry["den"], 2 if entry["var"] == "u" else 1)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _load(path: str) -> tuple:
    parsed: ParsedSpec = load_spec_file(path)
    rs = RootSystem.make(parsed.root_system)
    return build(rs, parsed.spec), parsed


def _resolve_order(args, parsed: ParsedSpec) -> Optional[int]:
    """--order, else the spec file's order, else None for the library default."""
    if args.order is not None:
        return args.order
    return parsed.order


def _cmd_describe(args) -> int:
    q, _ = _load(args.input)
    report = q.invariants_report()
    lines = []
    if args.format == "text":
        lines.append(f"{q.rs.kind} {q.kind}: N = {q.N}")
        if q.kind == "klein":
            lines.append(
                f"  k = {q.k_gamma}, n = {q.n_gamma}, type = {q.type_rep}, "
                f"rational axes = {q.m_axes}"
            )
        lines.append(f"  translation subgroup basis: {report['gamma0_basis']}")
        for rep, entry in report["reps"].items():
            lines.append(
                f"  {rep}: epsilon = {entry['epsilon']}, n = {entry['n_value']}, "
                f"delta = {entry['delta']}"
                + (f", wt_plus = {entry['wt_plus']}" if "wt_plus" in entry else "")
            )
    _emit({"invariants": report}, args.format, lines)
    return 0


def _cmd_counts(args) -> int:
    max_n = args.max_n
    if not 1 <= max_n <= MAX_ORDER:
        raise SpecValidationError(f"--max-n must be between 1 and {MAX_ORDER}, got {max_n}")
    q, _ = _load(args.input)
    payload: dict = {"max_n": max_n, "counts": {}}
    text = args.format == "text"
    lines = [f"{q.rs.kind} {q.kind}: counts up to n = {max_n} (semi up to {2 * max_n})"] if text else []
    for rep in q.rs.rep_names:
        tables = {
            "N": list(walk_count_table(q, rep, max_n)),
            "N_tilde": list(geodesic_count_table(q, rep, max_n)),
            "semi": list(semi_count_table(q, rep, 2 * max_n)),
            "gallery": list(gallery_count_table(q, rep, max_n)),
        }
        payload["counts"][rep] = tables
        if text:
            lines.append(f"  {rep}:")
            lines += [f"    {key:8s} {vals}" for key, vals in tables.items()]
    _emit(payload, args.format, lines)
    return 0


def _cmd_zeta(args) -> int:
    q, parsed = _load(args.input)
    bundle = zeta_bundle(q, _resolve_order(args, parsed))
    failed = [(rep, d) for rep, d in bundle.l_failure.items() if d]
    for rep, detail in failed:
        print(f"error: l-reconstruction[{rep}] failed: {detail}", file=sys.stderr)
    if failed:
        return 1
    payload: dict = {
        "order": bundle.order,
        "zeta": {},
        "zeta_semi": {},
        "zeta2": {},
        "l_poly": {},
        "correction": {},
    }
    lines = [f"{q.rs.kind} {q.kind}: zeta data at order {bundle.order}"]
    memo: dict = {}  # the expansions of this call, by reduced factor dict
    for rep in q.rs.rep_names:
        for key in ("zeta", "zeta_semi", "zeta2", "correction"):
            payload[key][rep] = ratfunc_to_json(getattr(bundle, key)[rep], memo)
        payload["l_poly"][rep] = poly_to_json(bundle.l_poly[rep], memo)
        if args.format == "text":
            lines += [
                f"  {rep}:",
                f"    1/Z      = {_den_in_w(payload['zeta'][rep])}",
                f"    1/Z_semi = {_den_in_w(payload['zeta_semi'][rep])}",
                f"    1/Z2     = {_den_in_w(payload['zeta2'][rep])}",
                f"    P        = {spread(payload['l_poly'][rep]['coeffs'], 2)}",
            ]
    _emit(payload, args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    q, parsed = _load(args.input)
    report = verify(q, _resolve_order(args, parsed))
    payload = report.to_json_dict()
    lines = []
    if args.format == "text":
        lines.append(f"{q.rs.kind} {q.kind}: verification at order {report.order}")
        for rec in report.records:
            mark = "ok  " if rec.holds else "FAIL"
            lines.append(f"  [{mark}] {rec.identity_id}")
            if not rec.holds and rec.detail:
                lines.append(f"         {rec.detail}")
        lines.append("all identities hold" if report.all_hold else "identity failures")
    _emit(payload, args.format, lines)
    return 0 if report.all_hold else 1


def _cmd_corpus(args) -> int:
    for flag, n in (("--tori", args.tori), ("--kleins", args.kleins)):
        if n < 0:
            raise SpecValidationError(f"{flag} must be at least 0, got {n}")
        if n > MAX_MEMBERS:
            raise SpecValidationError(f"{flag} must be at most {MAX_MEMBERS}, got {n}")
    members = generate_corpus(args.seed, args.tori, args.kleins)
    payload: dict = {"seed": args.seed, "members": []}
    text = args.format == "text"
    lines = [f"corpus seed {args.seed}: {len(members)} members"] if text else []
    all_hold = True
    # each member is verified on the quotient generate_corpus built, and
    # dropped once its row is written, so its quotient and census tables
    # die before the next verify
    members.reverse()
    while members:
        member = members.pop()
        report = verify(member.quotient)
        holds = report.all_hold
        all_hold = all_hold and holds
        payload["members"].append(
            {
                "name": member.name,
                "spec": spec_to_json_dict(member.root_system, member.spec),
                "N": member.quotient.N,
                "order": report.order,
                "all_hold": holds,
                "failures": [r.identity_id for r in report.failures()],
            }
        )
        if text:
            mark = "ok  " if holds else "FAIL"
            lines.append(f"  [{mark}] {member.name:26s} N = {member.quotient.N}")
    payload["all_hold"] = all_hold
    if text:
        lines.append("all members verified" if all_hold else "corpus failures")
    _emit(payload, args.format, lines)
    return 0 if all_hold else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylzeta",
        description="Exact zeta and L-functions of flat rank-2 apartment quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True, with_order=False):
        if with_input:
            p.add_argument("--input", required=True, help="quotient spec file")
        if with_order:
            p.add_argument(
                "--order", type=int, default=None, help="series order in u"
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("describe", help="derived invariants of a quotient")
    add_common(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("counts", help="census count tables")
    add_common(p)
    p.add_argument("--max-n", type=int, default=12, help="largest length")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("zeta", help="zeta functions and L-polynomial")
    add_common(p, with_order=True)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("verify", help="run the identity battery")
    add_common(p, with_order=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="generate and verify a random corpus")
    add_common(p, with_input=False)
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--tori", type=int, default=20, help="tori per root system")
    p.add_argument("--kleins", type=int, default=12, help="minimum Klein members")
    p.set_defaults(func=_cmd_corpus)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    # one parser per process: building one takes about a millisecond and
    # leaves reference cycles for the garbage collector
    global _PARSER
    if _PARSER is None:
        _PARSER = make_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: exit as a SIGPIPE'd process does,
        # silently, with stdout on devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SpecFileError, SpecValidationError, OrderInsufficientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
