"""Command-line front end: trajhedge <command> ...

Exit status: 0 on success / PASS verdicts, 1 on FAIL verdicts, 2 on input or
hypothesis errors.  ``--json`` mirrors every text field machine-readably.

Each command imports the library modules it runs inside its own function, so
``classify`` and ``analyze`` load no pricing, decomposition, oracle or corpus
code.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import analyze, render_report, report_json
from .fileformat import (
    ParseError,
    parse_decomposition,
    parse_payoff,
    parse_process,
    parse_tree,
    render_decomposition,
)
from .model import MINUS_INF, QueryError
from .poly import parse_rat, rat_str


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), 0)


def _rational_arg(text: str, option: str):
    try:
        return parse_rat(text)
    except ValueError:
        raise ParseError(f"argument {option}: {text!r} is not a rational p or p/q", 0) from None


def _value_text(v) -> str:
    return "-inf" if v == MINUS_INF else rat_str(v)


def _print_price(result, as_json: bool) -> None:
    if as_json:
        payload = {
            "value": _value_text(result.value),
            "attained": result.attained,
            "active": result.active,
            "note": result.note,
        }
        if result.hedge is not None:
            payload["certificate"] = {
                "initial_capital": rat_str(result.hedge.initial_capital),
                "positions": [
                    {"t": t, "node": nid, "h": rat_str(h)}
                    for (t, nid), h in result.hedge.hedge.items()
                ],
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if result.value == MINUS_INF:
        print("-inf")
    else:
        attain = "attained" if result.attained else "not attained"
        print(f"{rat_str(result.value)} ({attain})")
    if result.note:
        print(f"note: {result.note}")
    if result.hedge is not None:
        print(f"certificate: V={rat_str(result.hedge.initial_capital)}")
        for (t, nid), h in result.hedge.hedge.items():
            if h != 0:
                print(f"  hedge t={t} at {nid} = {rat_str(h)}")
    if result.active:
        print("active constraints:")
        for a in result.active:
            print(f"  {a}")


def cmd_classify(args) -> int:
    tree = parse_tree(_read(args.tree))
    a = analyze(tree)
    if args.json:
        print(json.dumps(report_json(a)["nodes"], indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_report(a, full=False))
    return 0


def cmd_analyze(args) -> int:
    tree = parse_tree(_read(args.tree))
    a = analyze(tree)
    if args.json:
        print(json.dumps(report_json(a), indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_report(a, full=True))
    return 0


def cmd_price(args) -> int:
    from .pricing import i_bar, sigma_bar

    tree = parse_tree(_read(args.tree))
    payoff = parse_payoff(_read(args.payoff), tree)
    node = args.node if args.node else tree.root
    op = sigma_bar if args.op == "sigma" else i_bar
    result = op(tree, payoff, node)
    _print_price(result, args.json)
    return 0


def cmd_decompose(args) -> int:
    from .decomposition import doob_decompose

    tree = parse_tree(_read(args.tree))
    proc = parse_process(_read(args.process), tree)
    deltas = [_rational_arg(part, "--delta") for part in args.delta.split(",")]
    d = doob_decompose(tree, proc, deltas)
    text = render_decomposition(d)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"argument -o: {exc}", 0) from None
        print(f"decomposition written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_decomp(args) -> int:
    from .decomposition import verify_decomposition

    tree = parse_tree(_read(args.tree))
    proc = parse_process(_read(args.process), tree)
    d = parse_decomposition(_read(args.decomposition), tree)
    ok, why = verify_decomposition(tree, proc, d)
    if args.json:
        print(json.dumps({"pass": ok, "witness": why}))
    else:
        print("PASS" if ok else f"FAIL: {why}")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    from .oracle import dual_price, grid_superhedge
    from .pricing import sigma_bar

    tree = parse_tree(_read(args.tree))
    payoff = parse_payoff(_read(args.payoff), tree)
    if args.check == "dual":
        dual = dual_price(tree, payoff)
        lp = sigma_bar(tree, payoff)
        ok = lp.value == dual
        if args.json:
            print(
                json.dumps(
                    {
                        "pass": ok,
                        "dual": rat_str(dual),
                        "lp_value": _value_text(lp.value),
                    }
                )
            )
        else:
            print(f"dual={rat_str(dual)} lp={_value_text(lp.value)}")
            print("PASS" if ok else "FAIL")
        return 0 if ok else 1
    bound, step = _rational_arg(args.bound, "--bound"), _rational_arg(args.step, "--step")
    upper, _ = grid_superhedge(tree, payoff, bound, step)
    lp = sigma_bar(tree, payoff)
    ok = lp.value == MINUS_INF or upper >= lp.value
    if args.json:
        print(
            json.dumps(
                {
                    "pass": ok,
                    "grid_upper": rat_str(upper),
                    "lp_value": _value_text(lp.value),
                }
            )
        )
    else:
        print(f"grid upper bound={rat_str(upper)}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    from .corpus import render_corpus, run_corpus

    rows = run_corpus()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": r.name,
                        "expected": r.expected,
                        "computed": r.computed,
                        "pass": r.ok,
                    }
                    for r in rows
                ],
                indent=2,
            )
        )
    else:
        sys.stdout.write(render_corpus(rows))
    return 0 if all(r.ok for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trajhedge",
        description="Superhedging operators and supermartingale decompositions "
        "on finitely-described trajectory sets",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="one line per node: class, L, good")
    sp.add_argument("tree")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("analyze", help="full report incl. hypotheses and null cover")
    sp.add_argument("tree")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("price", help="evaluate a superhedging operator")
    sp.add_argument("tree")
    sp.add_argument("payoff")
    sp.add_argument("--op", choices=("sigma", "ibar"), required=True)
    sp.add_argument("--node", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_price)

    sp = sub.add_parser("decompose", help="hedge/compensator split of a process")
    sp.add_argument("tree")
    sp.add_argument("process")
    sp.add_argument("--delta", required=True, help="comma-separated slacks")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify-decomp", help="check a decomposition document")
    sp.add_argument("tree")
    sp.add_argument("process")
    sp.add_argument("decomposition")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify_decomp)

    sp = sub.add_parser("oracle", help="cross-check the engine on explicit trees")
    sp.add_argument("tree")
    sp.add_argument("payoff")
    sp.add_argument("--check", choices=("dual", "grid"), required=True)
    sp.add_argument("--bound", default="8")
    sp.add_argument("--step", default="1/8")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("corpus", help="recompute every bundled example value")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_corpus)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
