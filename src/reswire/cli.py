"""Command-line interface: rewire, stats, bounds, curve, verify.

Exit codes: 0 success (including truncated plans), 1 verify-suite failure,
2 unreadable/malformed input, 3 hypothesis violation (bipartite input to
resistance-form bounds).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import warnings
from collections import Counter
from pathlib import Path

from . import bounds as bd
from . import graph as gr
from . import rewiring as rw
from . import spectral as sp
from .errors import BipartiteGraphError, EdgeListParseError, ReswireError


def _fmt(x):
    """17-significant-digit floats for lossless round-trips; containers
    handled recursively."""
    if isinstance(x, float):
        return float(format(x, ".17g"))
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    return x


def _dump_json(obj, path=None):
    _write_text(json.dumps(_fmt(obj), indent=2) + "\n", path)


def _write_text(text, path=None):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_graph(path) -> gr.Graph:
    return gr.from_edge_list(Path(path).read_text())


def _plan_payload(input_name, plan: rw.RewirePlan) -> dict:
    payload = {
        "input": str(input_name),
        "method": plan.method,
        "k": plan.k,
        "rtot_initial": plan.rtot_initial,
        "edges": [
            {"u": e.u, "v": e.v, "delta": e.delta,
             "rtot_after": plan.rtot_trajectory[i + 1]}
            for i, e in enumerate(plan.added)
        ],
        "rtot_final": plan.rtot_final,
        "truncated": plan.truncated,
    }
    if plan.seed is not None:
        payload["seed"] = plan.seed
    return payload


def cmd_rewire(args) -> int:
    inputs = _gather_inputs(args)
    if inputs is None:
        return 2

    def outputs(path, g, plan):
        return _plan_payload(path, plan), args.output and gr.to_edge_list(g, plan.edge_list())

    any_ok = False
    for path, error, kept in _plans(inputs, args, outputs):
        if error:
            print(error, file=sys.stderr)
            if len(inputs) == 1:
                return 2
            continue
        payload, edge_text = kept
        if args.output:
            out = Path(args.output)
            if len(inputs) > 1:
                out.mkdir(parents=True, exist_ok=True)
                stem = Path(path).stem
                edge_path = out / f"{stem}.rewired.el"
                plan_path = out / f"{stem}.plan.json"
            else:
                edge_path = out
                plan_path = out.with_suffix(out.suffix + ".plan.json")
            edge_path.write_text(edge_text)
            _dump_json(payload, plan_path)
        else:
            _dump_json(payload)
        any_ok = True
    return 0 if any_ok else 2


def cmd_stats(args) -> int:
    try:
        g = _load_graph(args.input)
    except (OSError, EdgeListParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    connected = g.num_components == 1 and g.n > 0
    bipartite = gr.is_bipartite(g)
    payload = {
        "input": str(args.input),
        "n": g.n,
        "m": g.m,
        "components": g.num_components,
        "rtot": sp.total_resistance(g),
        "spectral_gap": sp.spectral_gap(g) if connected and g.n > 1 else None,
        "rmax": sp.rmax(g) if connected and g.n > 1 else None,
        "bipartite_per_component": bipartite,
        "bipartite": all(bipartite),
    }
    _dump_json(payload, args.output)
    return 0


def cmd_bounds(args) -> int:
    try:
        g = _load_graph(args.input)
    except (OSError, EdgeListParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pair and not all(0 <= x < g.n for x in args.pair):
        print(f"error: --pair {args.pair[0]} {args.pair[1]} out of range for n={g.n}",
              file=sys.stderr)
        return 2
    payload = {
        "input": str(args.input),
        "params": {"alpha": args.alpha, "beta": args.beta, "r": args.r,
                   "mu": args.mu},
    }
    try:
        p = bd.BoundParams(alpha=args.alpha, beta=args.beta, r=args.r, mu=args.mu)
        payload["total_bound"] = bd.total_jacobian_bound(g, p)
        payload["spectral_gap_bound"] = bd.spectral_gap_jacobian_bound(g, p)
        if args.pair:
            u, v = args.pair
            adj = bd.jacobian_bound_adjacency(g, u, v, p)
            res = bd.jacobian_bound_resistance(g, u, v, p)
            payload["pair"] = {
                "u": u, "v": v,
                "adjacency_bound": adj,
                "resistance_bound": res,
                "resistance_bound_negative": res < 0,
            }
    except BipartiteGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReswireError, ValueError) as exc:  # ValueError: a bad --alpha/--beta/--r/--mu
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _dump_json(payload, args.output)
    return 0


def _count(minimum: int):
    """argparse type: an integer of at least `minimum`, else exit code 2."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"not an integer >= {minimum}: {text!r}")
        return int(text)
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float of at least 0, else exit code 2 (every
    check against NaN fails, and a negative tolerance fails a correct run)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {text!r}")
    return value


def _gather_inputs(args):
    if getattr(args, "input_dir", None):
        try:
            files = sorted(Path(args.input_dir).glob("*.el")) or sorted(
                p for p in Path(args.input_dir).iterdir() if p.is_file())
        except OSError as exc:  # no such directory, or not a directory
            print(f"error: {exc}", file=sys.stderr)
            return None
        if not files:
            print(f"error: no input files in {args.input_dir}", file=sys.stderr)
            return None
        return files
    if args.input:
        return [args.input]
    print("error: --input or --input-dir required", file=sys.stderr)
    return None


# thread-count entry points of OpenBLAS (numpy's wheels, then plain) and MKL
BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),
)


def _blas_thread_calls():
    """(get, set) of the thread count of each loaded OpenBLAS or MKL."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split(None, 5)[5].strip() for line in maps
                           if "openblas" in line or "mkl_rt" in line})
    except OSError:
        return []
    calls = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for get, put in BLAS_THREAD_CALLS:
            if hasattr(dll, get) and hasattr(dll, put):
                getter, setter = getattr(dll, get), getattr(dll, put)
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                calls.append((getter, setter))
                break
    return calls


def _plan(path, args, keep, hand_back=False):
    """(error line, None) of an unreadable input, else (None, what `keep`
    takes of its graph and plan). With hand_back, None for a graph with a
    component of more than CHOLESKY_ROWS vertices."""
    try:
        g = _load_graph(path)
    except (OSError, EdgeListParseError) as exc:
        return f"error: {path}: {exc}", None
    if hand_back and max(Counter(g.component_id).values(), default=0) > sp.CHOLESKY_ROWS:
        return None
    return None, keep(path, g, rw.rewire(g, args.k, method=args.method, seed=args.seed))


def _run_share(share, inputs, args, keep):
    """{index: (result, exception, warnings)} of a share of the inputs, each
    run with its warnings recorded, up to the first exception."""
    done = {}
    for i in share:
        result = exc = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = _plan(inputs[i], args, keep, hand_back=True)
            except Exception as err:
                exc = err
        # a handed-back input warns again when it runs in the caller
        done[i] = result, exc, [(w.message, w.category, w.filename, w.lineno)
                                for w in caught if result or exc]
        if exc is not None:
            break
    return done


def _fan_out(inputs, args, keep, workers, blas):
    """Deal the inputs round-robin to `workers` shares and run them at one
    BLAS thread: share 0 here, each other share in a forked child that
    pipes back its pickled results. Every child is reaped and the BLAS
    thread counts restored before this returns or raises."""
    shares = [range(w, len(inputs), workers) for w in range(workers)]
    threads = [get() for get, _ in blas]
    for _, put in blas:
        put(1)
    children = []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            with warnings.catch_warnings():  # Python 3.12+ warns of the idle BLAS threads
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child leaves only here, by os._exit
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as sink:
                        pickle.dump(_run_share(share, inputs, args, keep), sink)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        done = _run_share(shares[0], inputs, args, keep)
        blobs = [pipe.read() for _, pipe in children]
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        for (_, put), count in zip(blas, threads):
            put(count)
    for (pid, _), status, blob in zip(children, statuses, blobs):
        if status or not blob:
            raise RuntimeError(f"fan-out worker {pid} exited with code {status}")
        done.update(pickle.loads(blob))
    return done


def _warn_again(message, category, filename, lineno):
    """Issue a warning recorded in a fan-out share as if it were raised
    here: under this process's filters and in the registry of the module it
    names, so that each message still shows once."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    scope = vars(module) if module is not None else {}
    warnings.warn_explicit(message, category, filename, lineno, scope.get("__name__"),
                           scope.setdefault("__warningregistry__", {}))


def _plans(inputs, args, keep):
    """(path, error line, what `keep` takes) of each input, in input order.

    With two or more inputs, two or more CPUs and a BLAS whose thread count
    can be set, the inputs fan out over one process per CPU at one BLAS
    thread. Graphs with a component of more than CHOLESKY_ROWS vertices
    run here afterwards, at the configured thread count. Warnings and
    exceptions surface here in input order, as in a single-process run."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas = _blas_thread_calls() if len(inputs) > 1 and cpus > 1 else []
    done = _fan_out(inputs, args, keep, min(cpus, len(inputs)), blas) if blas else {}
    for i, path in enumerate(inputs):
        result, exc, caught = done.get(i, (None, None, ()))
        for w in caught:
            _warn_again(*w)
        if exc is not None:
            raise exc
        yield (path, *(result or _plan(path, args, keep)))


def cmd_curve(args) -> int:
    inputs = _gather_inputs(args)
    if inputs is None:
        return 2
    trajectories = []
    for _, error, trajectory in _plans(inputs, args, lambda path, g, plan: plan.rtot_trajectory):
        if error:
            print(error, file=sys.stderr)
            continue
        trajectories.append(trajectory)
    if not trajectories:
        return 2
    if len(trajectories) == 1:
        lines = ["edges_added,rtot"]
        for i, r in enumerate(trajectories[0]):
            lines.append(f"{i},{r:.17g}")
    else:
        lines = ["edges_added,mean_rtot,graph_count"]
        max_len = max(len(t) for t in trajectories)
        for i in range(max_len):
            vals = [t[i] for t in trajectories if i < len(t)]
            mean = sum(vals) / len(vals)
            lines.append(f"{i},{mean:.17g},{len(vals)}")
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites  # the oracles load only here

    names = [args.suite] if args.suite else None
    if args.suite and args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; "
              f"choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    results = run_suites(
        names, seed=args.seed, trials=args.trials, n_max=args.n,
        tolerance=args.tolerance,
    )
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = (f"{status} {res.name}: max deviation {res.max_deviation:.3g} "
                f"(tolerance {res.tolerance:.3g})")
        if res.detail:
            line += f" [{res.detail}]"
        print(line)
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reswire",
        description="Effective-resistance analysis and greedy graph rewiring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, directory=False):
        p.add_argument("--input", help="edge-list file")
        if directory:
            p.add_argument("--input-dir", help="directory of edge-list files")
        p.add_argument("--output", help="output path (default: stdout)")

    def add_plan(p, func):
        add_io(p, directory=True)
        p.add_argument("--k", type=_count(0), required=True)
        p.add_argument("--method", choices=["gtr", "random"], default="gtr")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    add_plan(sub.add_parser("rewire", help="add edges greedily or at random"),
             cmd_rewire)

    p_stats = sub.add_parser("stats", help="graph summary as JSON")
    add_io(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_bounds = sub.add_parser("bounds", help="Jacobian upper bounds as JSON")
    add_io(p_bounds)
    p_bounds.add_argument("--alpha", type=float, default=1.0)
    p_bounds.add_argument("--beta", type=float, default=1.0)
    p_bounds.add_argument("--r", type=int, default=0)
    p_bounds.add_argument("--mu", type=float, default=None)
    p_bounds.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"))
    p_bounds.set_defaults(func=cmd_bounds)

    add_plan(sub.add_parser("curve", help="total resistance vs edges added"),
             cmd_curve)

    p_verify = sub.add_parser("verify", help="run self-check oracle suites")
    p_verify.add_argument("--suite", help="run a single named suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=_count(1), default=None)
    # theorem-delta draws sizes from randint(4, n)
    p_verify.add_argument("--n", type=_count(4), default=None, dest="n")
    p_verify.add_argument("--tolerance", type=_tolerance, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
