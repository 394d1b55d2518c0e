"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 a closed formula declined the
input (structured NotApplicable document, never a wrong number).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .formulas import (NotApplicableError, ep_dispatch, ep_formula,
                       fthreshold_formula, tsd_formula)
from .oracle import e_degree_oracle, socle_degree_oracle, wlp_rank_profile
from .verify import (MATRIX_CAP, _multisets_simplex, canonical_json,
                     discrepancies_csv, fthreshold_convergence, run_grid)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this project reserves 2 for
    NotApplicable, so parse errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process: parse_args does not modify the parser."""
    parser = _Parser(prog="nonkoszul",
                     description="Minimal non-Koszul relation degrees over F_p, "
                                 "socle degrees, diagonal F-thresholds, and "
                                 "weak Lefschetz verdicts.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    pe = sub.add_parser("e",
                        help="relation degree for one tuple")
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--d", type=_int_list, required=True,
                    metavar="d1,d2,...", help="degree tuple")
    pe.add_argument("--method", choices=("auto", "formula", "oracle"),
                    default="auto")
    pe.add_argument("--format", choices=("json", "plain"), default="json")
    pe.add_argument("--output", "-o")

    pw = sub.add_parser("wlp",
                        help="weak Lefschetz rank profile")
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--d", type=_int_list, required=True, metavar="d1,d2,...")
    pw.add_argument("--format", choices=("json", "plain"), default="json")
    pw.add_argument("--output", "-o")

    pt = sub.add_parser("tsd",
                        help="top socle degree under a diagonal form")
    pt.add_argument("--p", type=int, required=True)
    pt.add_argument("--K", type=_int_list, required=True, metavar="K1,K2,...")
    pt.add_argument("--a", type=int, required=True)
    pt.add_argument("--check", action="store_true",
                    help="also run the rank oracle and compare")
    pt.add_argument("--format", choices=("json", "plain"), default="json")
    pt.add_argument("--output", "-o")

    pf = sub.add_parser("fthreshold",
                        help="diagonal F-threshold, exact rationals")
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--a", type=int, required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--converge", type=int, metavar="E_MAX",
                    help="attach the socle-degree convergence table up to p^E_MAX")
    pf.add_argument("--matrix-cap", type=int, default=MATRIX_CAP)
    pf.add_argument("--format", choices=("json", "plain"), default="json")
    pf.add_argument("--output", "-o")

    pv = sub.add_parser("verify",
                        help="run a verification grid from a JSON file")
    pv.add_argument("--grid", required=True, help="grid spec JSON path")
    pv.add_argument("--csv", help="also write discrepancies as CSV here")
    pv.add_argument("--format", choices=("json", "plain"), default="json")
    pv.add_argument("--output", "-o")

    pb = sub.add_parser("table",
                        help="relation degrees over a degree simplex")
    pb.add_argument("--p", type=int, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--sum-max", type=int, required=True)
    pb.add_argument("--format", choices=("csv", "json"), default="csv")
    pb.add_argument("--output", "-o")

    return parser


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_e_plain(doc: dict) -> str:
    d = ",".join(str(x) for x in doc["d"])
    if doc.get("status") == "not_applicable":
        line = f"E({d}) mod {doc['p']}: not applicable ({', '.join(doc['failing'])})"
        if doc.get("min_function_value") is not None:
            line += f"; minimum-function value {doc['min_function_value']}"
        return line + "\n"
    line = f"E({d}) mod {doc['p']} = {doc['value']} [{doc['method']}]"
    if doc["degenerate"]:
        line += " (degenerate: last power exceeds box top degree)"
    out = [line]
    if doc.get("witness"):
        terms = " + ".join(doc["witness"]["terms"])
        out.append(f"kernel witness in degree {doc['witness']['degree']}: {terms}")
    return "\n".join(out) + "\n"


def _cmd_e(args) -> tuple[str, int]:
    d = args.d
    try:
        if args.method == "oracle":
            res = e_degree_oracle(args.p, d)
        elif args.method == "formula":
            res = ep_formula(args.p, d)
        else:
            res = ep_dispatch(args.p, d)
    except NotApplicableError as exc:
        doc = {"status": "not_applicable", "p": args.p, "d": list(d),
               "failing": list(exc.failing),
               "min_function_value": exc.min_value}
        if args.format == "plain":
            return _format_e_plain(doc), 2
        return canonical_json(doc), 2
    doc = {"p": args.p, "d": list(d)}
    doc.update(res.to_dict())
    if args.format == "plain":
        return _format_e_plain(doc), 0
    return canonical_json(doc), 0


def _cmd_wlp(args) -> tuple[str, int]:
    report = wlp_rank_profile(args.p, args.d)
    if args.format == "plain":
        lines = [f"WLP for d=({','.join(map(str, args.d))}) mod {args.p}: "
                 f"{report.verdict}"]
        for rec in report.records:
            flag = "maximal" if rec.maximal else "NOT maximal"
            lines.append(f"  degree {rec.degree}: {rec.dim_source} -> "
                         f"{rec.dim_target}, rank {rec.rank} ({flag})")
        return "\n".join(lines) + "\n", 0
    return canonical_json(report.to_dict()), 0


def _cmd_tsd(args) -> tuple[str, int]:
    value = tsd_formula(args.p, args.K, args.a)
    doc = {"p": args.p, "K": list(args.K), "a": args.a, "value": value}
    if args.check:
        oracle_value = socle_degree_oracle(args.p, args.K, args.a)
        doc["oracle_value"] = oracle_value
        doc["agree"] = oracle_value == value
    if args.format == "plain":
        line = (f"top socle degree K=({','.join(map(str, args.K))}) "
                f"a={args.a} mod {args.p}: {value}")
        if args.check:
            line += " (oracle agrees)" if doc["agree"] else \
                    f" (ORACLE DISAGREES: {doc['oracle_value']})"
        return line + "\n", 0
    return canonical_json(doc), 0


def _cmd_fthreshold(args) -> tuple[str, int]:
    res = fthreshold_formula(args.p, args.a, args.n)
    doc = res.to_dict()
    if args.converge is not None:
        doc["convergence"] = fthreshold_convergence(
            args.p, args.a, args.n, args.converge, matrix_cap=args.matrix_cap)
    if args.format == "plain":
        lines = [f"F-threshold p={args.p} a={args.a} n={args.n}: "
                 f"c = {doc['c']} (M = {doc['M']}, e = {doc['e']}, "
                 f"q = {doc['q']}, kappa = {doc['kappa']}, s = {doc['s']})",
                 "terms: " + ", ".join(doc["terms"])]
        if "convergence" in doc:
            for row in doc["convergence"]["rows"]:
                lines.append(f"  q={row['q']}: nu={row['nu']} "
                             f"ratio={row['ratio']} deviation={row['deviation']}")
        return "\n".join(lines) + "\n", 0
    return canonical_json(doc), 0


def _cmd_verify(args) -> tuple[str, int]:
    with open(args.grid) as fh:
        doc = json.load(fh)
    report = run_grid(doc)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(discrepancies_csv(report))
    if args.format == "plain":
        totals = report["totals"]
        parts = [f"kind={report['spec']['kind']}"]
        parts += [f"{k}={v}" for k, v in sorted(totals.items())]
        return " ".join(parts) + "\n", 0
    return canonical_json(report), 0


def _cmd_table(args) -> tuple[str, int]:
    if args.n < 1:
        raise ValueError("need n >= 1")
    if args.sum_max < args.n + 1:
        raise ValueError("sum bound below the smallest tuple")
    rows = []
    for d in _multisets_simplex(args.n + 1, args.sum_max):
        res = ep_dispatch(args.p, d, want_witness=False)
        rows.append((d, res.value, res.method))
    if args.format == "json":
        doc = {"p": args.p, "n": args.n, "sum_max": args.sum_max,
               "rows": [{"d": list(d), "value": v, "method": m}
                        for d, v, m in rows]}
        return canonical_json(doc), 0
    header = ",".join(f"d{i + 1}" for i in range(args.n + 1)) + ",value,method"
    lines = [header]
    lines += [",".join(map(str, d)) + f",{v},{m}" for d, v, m in rows]
    return "\n".join(lines) + "\n", 0


_COMMANDS = {"e": _cmd_e, "wlp": _cmd_wlp, "tsd": _cmd_tsd,
             "fthreshold": _cmd_fthreshold, "verify": _cmd_verify,
             "table": _cmd_table}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
