"""Command-line front end for the toolkit.

Six per-graph verbs share one pipeline: lambda (spectral radius by power
iteration, then Lanczos on slow inputs), hong (the degree-based radius
bound), decide, fractional and rk (integral, fractional and parity-route
criticality with deficiency certificates) and factor (explicit [a,
b]-factors).  Each reads a corpus, graph6 with one graph per line or a
single edge-list graph (--format edge-list), maps the verb's
module-level worker over it, in worker processes with --parallel N (env
FACTOR_SPECTRA_THREADS is the fallback), and prints one record per graph
in input order as json (default), csv or text.  The other verbs build
the extremal graphs (construct), run the verification battery (verify),
search for conjecture counterexamples (explore) and translate graph6 and
edge lists (convert).

Exit codes: 0 success (all checks passed, all graphs critical when
--expect-critical is set), 1 a check or expectation failed, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .criticality import decide, route_params
from .factors import find_ab_factor, find_fractional_factor
from .families import ExtremalParams, base_join_graph, enumerate_family, extremal_graph
from .graphs import Graph, parse_edge_list, parse_graph6, to_edge_list, to_graph6
from .harness import battery_plan, explore_conjecture, run_check
from .spectral import MAX_ITER, TOL, ConvergenceError, hong_bound, spectral_radius


# -- input plumbing --------------------------------------------------------------


def _load_corpus(args) -> list[Graph]:
    """Parsed input graphs: one per graph6 line, or a single graph from
    an edge-list file."""
    if args.infile is None or args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile, "r", encoding="ascii") as fh:
            text = fh.read()
    if args.format == "edge-list":
        return [parse_edge_list(text)]
    return [parse_graph6(line.strip()) for line in text.splitlines() if line.strip()]


def _resolve_parallel(args) -> int:
    if getattr(args, "parallel", None) is not None:
        return max(1, args.parallel)
    env = os.environ.get("FACTOR_SPECTRA_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"FACTOR_SPECTRA_THREADS must be an integer, got {env!r}") from None
    return 1


def _map_records(fn, items: list, workers: int):
    """fn over items, yielded in input order as each result is ready;
    a process pool runs them when there is more than one worker."""
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))


# -- per-graph workers (module level so they pickle for process pools) ------------


def _record_lambda(g: Graph, tol: float, max_iter: int) -> dict:
    rep = spectral_radius(g, tol=tol, max_iter=max_iter)
    return {
        "n": g.n,
        "lambda": rep.lam,
        "residual": rep.residual,
        "iterations": rep.iterations,
        "connected": rep.connected,
    }


def _record_hong(g: Graph) -> dict:
    bound = hong_bound(g)
    lam = spectral_radius(g).lam
    return {
        "n": g.n,
        "edge_count": g.edge_count,
        "min_degree": g.min_degree(),
        "bound": bound,
        "lambda": lam,
        "slack": bound - lam,
    }


def _record_factor(g: Graph, a: int, b: int, fractional: bool) -> dict:
    finder = find_fractional_factor if fractional else find_ab_factor
    witness = finder(g, a, b)
    return {
        "exists": witness is not None,
        "witness": None if witness is None else witness.to_json(),
    }


def _record_decide(g: Graph, route: str, params) -> dict:
    cert = decide(g, route, params)
    return {"critical": cert is None, "certificate": None if cert is None else cert.to_json()}


def _run_planned(item: tuple[str, dict]) -> dict:
    name, kwargs = item
    return run_check(name, kwargs).to_json()


# -- output plumbing ---------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _decide_text(rec: dict) -> str:
    if rec["critical"]:
        return "critical"
    cert = rec["certificate"]
    return (
        f"not critical: S={cert['s_set']} T={cert['t_set']} "
        f"deficiency={cert['deficiency']}"
    )


# -- verbs -----------------------------------------------------------------------


def _print_graphs(graphs, out: str) -> None:
    """graph6 lines, edge lists separated by blank lines, or json records."""
    for i, g in enumerate(graphs):
        if out == "json":
            print(json.dumps({"n": g.n, "edge_count": g.edge_count, "graph6": to_graph6(g)}))
        elif out == "edge-list":
            if i:
                print()
            print(to_edge_list(g), end="")
        else:
            print(to_graph6(g))


def _cmd_construct(args) -> int:
    params = ExtremalParams(args.a, args.b, args.k, args.n)
    if args.what == "F":
        graphs = [extremal_graph(params)]
    elif args.what == "base":
        graphs = [base_join_graph(params)]
    else:
        graphs = list(enumerate_family(params))
    _print_graphs(graphs, args.out)
    return 0


def _cmd_records(args, record, columns: list[str], text) -> int:
    """The per-graph verbs: read the corpus, then build the worker with
    record(args), which checks the verb's parameters, and print each
    record in input order as json, csv (certificate fields one level
    down) or text(record)."""
    graphs = _load_corpus(args)
    records = _map_records(record(args), graphs, _resolve_parallel(args))
    if args.out == "csv":
        print(",".join(columns))
    failing = 0
    for rec in records:
        failing += rec.get("critical") is False
        if args.out == "csv":
            cells = {**rec, **(rec.get("certificate") or {})}
            print(",".join(_cell(cells.get(c)) for c in columns))
        else:
            print(json.dumps(rec) if args.out == "json" else text(rec))
    if getattr(args, "expect_critical", False) and failing:
        print(f"{failing} of {len(graphs)} graphs are not critical", file=sys.stderr)
        return 1
    return 0


def _decider(route: str, flags: tuple[str, ...]):
    """The _cmd_records handler of the decide, fractional or rk verb."""
    def record(args):
        params = route_params(route, *(getattr(args, f) for f in flags))
        return partial(_record_decide, route=route, params=params)

    columns = ["critical", "kind", "s_set", "t_set", "deficiency"]
    return partial(_cmd_records, record=record, columns=columns, text=_decide_text)


def _cmd_verify(args) -> int:
    plan = battery_plan(args.level, seed=args.seed)
    start = time.monotonic()
    results = []
    for rec in _map_records(_run_planned, plan, _resolve_parallel(args)):
        results.append(rec)
        print(json.dumps(rec))
    elapsed = time.monotonic() - start
    width = max(len(r["check_id"]) for r in results)
    for rec in results:
        brief = " ".join(
            f"{k}={v}" for k, v in rec["params"].items()
            if not isinstance(v, (list, tuple, dict))
        )
        print(f"{rec['check_id']:<{width}}  {rec['status']:<18} {brief}", file=sys.stderr)
    counts = {"pass": 0, "fail": 0, "hypothesis_not_met": 0}
    for rec in results:
        counts[rec["status"]] += 1
    print(
        f"{len(results)} checks: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['hypothesis_not_met']} hypothesis_not_met ({elapsed:.1f}s)",
        file=sys.stderr,
    )
    return 1 if counts["fail"] else 0


def _cmd_explore(args) -> int:
    result = explore_conjecture(args.r, args.k, args.n, args.budget, seed=args.seed)
    print(json.dumps(result.to_json()))
    return 0 if result.status == "pass" else 1


def _cmd_convert(args) -> int:
    _print_graphs(_load_corpus(args), args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def _normalize_format(value: str) -> str:
    return "graph6" if value in ("g6", "graph6") else value


def _add_input_flags(p, parallel: bool = True) -> None:
    p.add_argument("--in", dest="infile", default=None, metavar="PATH",
                   help="input file, one graph6 per line (default stdin; '-' is stdin)")
    p.add_argument("--format", type=_normalize_format, choices=["graph6", "g6", "edge-list"],
                   default="graph6", help="input format; edge-list holds one graph (default graph6)")
    if parallel:
        p.add_argument("--parallel", type=int, default=None, metavar="N",
                       help="worker processes for corpus input (default FACTOR_SPECTRA_THREADS or 1)")


def _add_output_flag(p) -> None:
    p.add_argument("--out", choices=["json", "csv", "text"], default="json",
                   help="output format (default json, one object per graph)")


def _add_decider_flags(p) -> None:
    _add_input_flags(p)
    _add_output_flag(p)
    p.add_argument("--expect-critical", action="store_true",
                   help="exit 1 if any input graph is not critical")


def _add_window_flags(p) -> None:
    p.add_argument("--a", type=int, required=True, help="lower degree bound a >= 1")
    p.add_argument("--b", type=int, required=True, help="upper degree bound b")
    p.add_argument("--k", type=int, default=0, help="deletion count k >= 0 (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factor-spectra",
        description="spectral radius conditions and deficiency certificates "
                    "for degree-constrained factor criticality",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build the extremal graph, its join base, or the whole family")
    p.add_argument("what", choices=["F", "base", "family"],
                   help="F: distinguished member; base: join without attachment edges; "
                        "family: one representative per isomorphism class")
    _add_window_flags(p)
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--out", type=_normalize_format, choices=["g6", "graph6", "edge-list", "json"],
                   default="graph6", help="output form (default graph6)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("lambda", help="adjacency spectral radius by power iteration, "
                                      "then Lanczos on slow inputs")
    _add_input_flags(p)
    _add_output_flag(p)
    p.add_argument("--tol", type=float, default=TOL,
                   help="convergence tolerance (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=MAX_ITER, dest="max_iter",
                   help="cap on the steps of both phases (default %(default)s)")
    p.set_defaults(handler=partial(
        _cmd_records,
        record=lambda args: partial(_record_lambda, tol=args.tol, max_iter=args.max_iter),
        columns=["n", "lambda", "residual", "iterations", "connected"],
        text=lambda r: f"n={r['n']} lambda={r['lambda']:.12f} residual={r['residual']:.3e}",
    ))

    p = sub.add_parser("hong", help="degree-based spectral radius bound and observed slack")
    _add_input_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=partial(
        _cmd_records,
        record=lambda args: _record_hong,
        columns=["n", "edge_count", "min_degree", "bound", "lambda", "slack"],
        text=lambda r: f"n={r['n']} m={r['edge_count']} bound={r['bound']:.12f} "
                       f"lambda={r['lambda']:.12f} slack={r['slack']:.3e}",
    ))

    p = sub.add_parser("decide", help="integral (a, b, k)-criticality with certificate")
    _add_window_flags(p)
    _add_decider_flags(p)
    p.set_defaults(handler=_decider("integral", ("a", "b", "k")))

    p = sub.add_parser("fractional", help="fractional (a, b, k)-criticality with certificate")
    _add_window_flags(p)
    _add_decider_flags(p)
    p.set_defaults(handler=_decider("fractional", ("a", "b", "k")))

    p = sub.add_parser("rk", help="(r, k)-criticality (r-factors) by Tutte's parity condition")
    p.add_argument("--r", type=int, required=True, help="target degree r >= 2")
    p.add_argument("--k", type=int, default=0, help="deletion count k >= 0 (default 0)")
    _add_decider_flags(p)
    p.set_defaults(handler=_decider("parity", ("r", "k")))

    p = sub.add_parser("factor", help="find an explicit [a, b]-factor of each input graph")
    p.add_argument("--a", type=int, required=True, help="lower degree bound a >= 0")
    p.add_argument("--b", type=int, required=True, help="upper degree bound b >= a")
    p.add_argument("--fractional", action="store_true",
                   help="half-integral weights instead of an edge subset")
    _add_input_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=partial(
        _cmd_records,
        record=lambda args: partial(_record_factor, a=args.a, b=args.b, fractional=args.fractional),
        columns=["exists"],
        text=lambda r: "factor exists" if r["exists"] else "no factor",
    ))

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--level", choices=["quick", "full"], default="quick",
                   help="battery size (default quick)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks (default 0)")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="worker processes (default FACTOR_SPECTRA_THREADS or 1)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("explore", help="search for a spectral-conjecture counterexample")
    p.add_argument("--r", type=int, required=True, help="target degree r >= 2")
    p.add_argument("--k", type=int, default=0, help="deletion count k >= 0 (default 0)")
    p.add_argument("--n", type=int, required=True, help="search order (capped)")
    p.add_argument("--budget", type=int, required=True, help="spectral evaluation budget")
    p.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    p.set_defaults(handler=_cmd_explore)

    p = sub.add_parser("convert", help="convert between graph6 and edge-list")
    _add_input_flags(p, parallel=False)
    p.add_argument("--out", type=_normalize_format, choices=["g6", "graph6", "edge-list"],
                   default="graph6", help="output format (default graph6)")
    p.set_defaults(handler=_cmd_convert)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and return the exit code (0 success or pass,
    1 check or expectation failure, 2 usage error)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
