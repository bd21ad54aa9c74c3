"""Command-line front end.

Subcommands: solve, least-core, min-excess, reduce, approx, experiment,
selftest.  All numeric output is exact ("p/q" strings); structured errors
go to stderr as JSON with exit code 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .approx import exact_min_excess_oracle, lsa_approx
from .bmatch import (
    BMatchInstance,
    NZMatchingInstance,
    bmatch_lsa_min_excess,
    reduce_bmatch_to_nzmatching,
    reduce_nzcycle_to_bmatch,
    reduce_nzmatching_to_nzcycle,
)
from .cycles import NZCycleInstance
from .fixtures import (
    HardnessParams,
    InstabilityParams,
    gen_instability_pair,
    hardness_adversary_check,
    instability_closed_forms,
    random_monotone_game,
    verify_instability_balance,
)
from .games import (
    CapExceededError,
    GameOracle,
    brute_lsa_min_excess,
    brute_min_excess,
    brute_nz_min_excess,
    coalition_members,
    enum_cap,
)
from .graphs import Graph
from .linalg import LinearSubspace, parse_rat, rat_str
from .matching import BMatchingGame
from .matroids import (
    ArboricityGame,
    NetworkStrengthGame,
    arboricity_lsa_solver,
    network_strength_lsa_solver,
)
from .mps import least_core, mps_nucleolus, reference_nucleolus
from .nz import LSAInstance, lsa_to_nz
from .serialize import (
    GameFileError,
    LoadedGame,
    graph_field,
    int_list_field,
    load_allocation_dict,
    load_game_dict,
    load_subspace_dict,
    rat_list_field,
)

__all__ = ["main"]


class CliError(RuntimeError):
    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read JSON file {path!r}", {"cause": str(e)})


def _load_game(path: str) -> LoadedGame:
    try:
        return load_game_dict(_read_json(path))
    except GameFileError as e:
        raise CliError(f"malformed game file {path!r}", {"cause": str(e)})


def _oracle_sep(game: GameOracle):
    """Exact avoidance-constrained separation solver for the game's class."""
    if isinstance(game, ArboricityGame):
        return arboricity_lsa_solver(game.graph)
    if isinstance(game, NetworkStrengthGame):
        return network_strength_lsa_solver(game.graph)
    if isinstance(game, BMatchingGame):

        def sep(vg, y, span):
            inst = BMatchInstance(game.graph, game.w, game.b, tuple(y))
            return bmatch_lsa_min_excess(inst, span)

        return sep

    return brute_lsa_min_excess


def _named(players, mask: int) -> list[str]:
    return [players[p] for p in coalition_members(mask)]


def cmd_solve(args) -> int:
    loaded = _load_game(args.gamefile)
    if args.mode == "oracle":
        res = mps_nucleolus(loaded.game, mode="oracle", sep=_oracle_sep(loaded.game))
    else:
        res = mps_nucleolus(loaded.game, mode="enumerate")
    out = res.to_json_dict()
    out["players"] = loaded.players
    if args.trace:
        try:
            with open(args.trace, "w") as fh:
                json.dump(out, fh, indent=2)
        except OSError as e:
            raise CliError(f"cannot write trace file {args.trace!r}", {"cause": str(e)})
    print(json.dumps(out, indent=2))
    return 0


def cmd_least_core(args) -> int:
    loaded = _load_game(args.gamefile)
    xi, y = least_core(loaded.game)
    print(
        json.dumps(
            {
                "xi": rat_str(xi),
                "allocation": [rat_str(v) for v in y],
                "players": loaded.players,
            },
            indent=2,
        )
    )
    return 0


def _parse_int_vector(text: str, n: int) -> list[int]:
    try:
        vec = [int(v) for v in text.split(",")]
    except ValueError as e:
        raise CliError("constraint vector must be comma-separated integers", {"cause": str(e)})
    if len(vec) != n:
        raise CliError(f"constraint vector needs {n} entries")
    return vec


def cmd_min_excess(args) -> int:
    loaded = _load_game(args.gamefile)
    n = loaded.game.player_count
    y = load_allocation_dict(_read_json(args.y), n)
    if args.a and args.subspace:
        raise CliError("give either a non-zero vector or a subspace, not both")
    if args.a:
        a = _parse_int_vector(args.a, n)
        rep = brute_nz_min_excess(loaded.game, y, a)
        constraint = {"a": a}
    elif args.subspace:
        L = load_subspace_dict(_read_json(args.subspace), n)
        rep = brute_lsa_min_excess(loaded.game, y, L)
        constraint = {"subspace_dim": L.dim}
    else:
        rep = brute_min_excess(loaded.game, y)
        constraint = {}
    print(
        json.dumps(
            {
                "excess": rat_str(rep.excess),
                "coalition_mask": rep.coalition,
                "coalition": _named(loaded.players, rep.coalition),
                **constraint,
            },
            indent=2,
        )
    )
    return 0


def cmd_reduce(args) -> int:
    d = _read_json(args.file)
    what = f"{args.step} input"
    try:
        g = graph_field(d, what)
        if args.step == "a2m":
            inst = BMatchInstance(
                g,
                tuple(rat_list_field(d, "w", what)),
                tuple(int_list_field(d, "b", what)),
                tuple(rat_list_field(d, "y", what)),
            )
            a = int_list_field(d, "a", what)
            produced, gm = reduce_bmatch_to_nzmatching(inst, a)
            out = {"instance": produced.to_json_dict(), "gadget_map": gm.to_json_dict()}
        elif args.step == "m2c":
            inst = NZMatchingInstance(
                g, tuple(rat_list_field(d, "w", what)), tuple(int_list_field(d, "a", what))
            )
            red = reduce_nzmatching_to_nzcycle(inst)
            if red.direct is not None:
                out = {"direct_matching": list(red.direct)}
            else:
                ci = red.instance
                out = {
                    "instance": {
                        "graph": ci.graph.to_json_dict(),
                        "c": [rat_str(v) for v in ci.costs],
                        "a": list(ci.a),
                    },
                    "gadget_map": {
                        "kind": "matching-to-cycle",
                        "base_matching": list(red.base_matching),
                        "original_edges": red.padded.original_edges,
                    },
                }
        elif args.step == "c2b":
            inst = NZCycleInstance.checked(
                g, rat_list_field(d, "c", what), int_list_field(d, "a", what)
            )
            bm, labels, smap = reduce_nzcycle_to_bmatch(inst)
            out = {
                "instance": {**bm.to_json_dict(), "a": list(labels)},
                "gadget_map": smap.to_json_dict(),
            }
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(f"unknown reduction step {args.step!r}")
    except ValueError as e:
        raise CliError("malformed reduction input", {"cause": str(e)})
    print(json.dumps(out, indent=2))
    return 0


def cmd_approx(args) -> int:
    loaded = _load_game(args.gamefile)
    n = loaded.game.player_count
    y = load_allocation_dict(_read_json(args.y), n)
    eps = parse_rat(args.eps)
    if args.subspace:
        L = load_subspace_dict(_read_json(args.subspace), n)
    else:
        L = LinearSubspace.zero(n)
    try:
        sol = lsa_approx(exact_min_excess_oracle(), eps, LSAInstance(loaded.game, y, L))
    except ValueError as e:
        raise CliError("approximation reduction not applicable", {"cause": str(e)})
    print(
        json.dumps(
            {
                "coalition_mask": sol.coalition,
                "coalition": _named(loaded.players, sol.coalition),
                "lower_value_bound": rat_str(sol.lower_value_bound),
                "eps": rat_str(eps),
            },
            indent=2,
        )
    )
    return 0


def cmd_experiment_instability(args) -> int:
    params = InstabilityParams(args.n, parse_rat(args.eps), parse_rat(args.K))
    report = verify_instability_balance(params)
    out = {"balance": report, "checks": list(report["checks"])}
    y, yt = instability_closed_forms(params)
    out["closed_forms"] = {
        "y": [rat_str(v) for v in y],
        "y_tilde": [rat_str(v) for v in yt],
    }
    if params.player_count <= enum_cap():
        v, vt = gen_instability_pair(params)
        res = mps_nucleolus(v, mode="enumerate")
        rest = mps_nucleolus(vt, mode="enumerate")
        out["nucleolus"] = [rat_str(x) for x in res.allocation]
        out["nucleolus_tilde"] = [rat_str(x) for x in rest.allocation]
        diffs = [b - a for a, b in zip(res.allocation, rest.allocation)]
        out["differences"] = [rat_str(d) for d in diffs]
        top = Fraction(2) ** params.n * params.eps
        out["checks"].append(
            {
                "name": "nucleolus-equals-closed-form",
                "pass": res.allocation == y and rest.allocation == yt,
                "lhs": "mps",
                "rhs": "closed-form",
            }
        )
        out["checks"].append(
            {
                "name": "top-level-difference",
                "pass": max(abs(d) for d in diffs) == top,
                "lhs": rat_str(max(abs(d) for d in diffs)),
                "rhs": rat_str(top),
            }
        )
    else:
        out["nucleolus"] = "skipped: player count exceeds the enumeration cap"
    ok = all(c["pass"] for c in out["checks"])
    print(json.dumps(out, indent=2))
    return 0 if ok else 1


def cmd_experiment_hardness(args) -> int:
    params = HardnessParams(args.k)
    report = hardness_adversary_check(params)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_selftest(args) -> int:
    seed = args.seed
    rng = random.Random(seed)
    lines = []
    ok = True

    def record(name, passed):
        nonlocal ok
        ok = ok and passed
        lines.append({"name": name, "pass": bool(passed)})

    # avoidance/non-zero equivalence on random games
    from .fixtures import random_subspace_rows
    from .games import make_allocation

    good = True
    for t in range(20):
        n = rng.randint(2, 6)
        g = random_monotone_game(n, seed * 977 + t)
        rows = random_subspace_rows(n, n - 1, seed * 31 + t)
        L = LinearSubspace.from_rows(rows, n)
        if not L.is_proper():
            continue
        y = make_allocation([Fraction(rng.randint(-3, 6), rng.choice([1, 2])) for _ in range(n)])
        direct = brute_lsa_min_excess(g, y, L)
        via = min(
            brute_nz_min_excess(g, y, sub.a).excess
            for sub in lsa_to_nz(LSAInstance(g, y, L))
        )
        good = good and direct.excess == via
    record("avoidance-nonzero-equivalence", good)

    good = True
    for t in range(5):
        g = random_monotone_game(rng.randint(3, 5), seed * 13 + t)
        good = good and (
            mps_nucleolus(g).allocation == reference_nucleolus(g).allocation
        )
    record("scheme-vs-reference", good)

    from .matroids import nz_max_weight_basis, union_k_matroid
    from .fixtures import random_graph

    good = True
    for t in range(10):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), seed * 7 + t)
        w = [Fraction(rng.randint(-4, 4)) for _ in range(g.m)]
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        m = union_k_matroid(g, 1)
        got = nz_max_weight_basis(m, w, a)
        # brute check inline: enumerate bases
        rank = m.rank()
        best = None
        for mask in range(1 << g.m):
            if bin(mask).count("1") != rank or not m.is_independent(mask):
                continue
            if sum(a[e] for e in range(g.m) if (mask >> e) & 1) == 0:
                continue
            wt = sum((w[e] for e in range(g.m) if (mask >> e) & 1), Fraction(0))
            if best is None or wt > best:
                best = wt
        good = good and ((got is None) == (best is None)) and (
            got is None or got.weight == best
        )
    record("nonzero-basis-vs-brute", good)

    from .bmatch import bmatch_nz_min_excess, bmatch_nz_min_excess_by_cycles

    good = forced_ok = True
    for t in range(5):
        n = rng.randint(2, 4)
        edges = []
        for _ in range(rng.randint(1, 4)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        if not edges:
            continue
        g = Graph.of(n, edges)
        inst = BMatchInstance(
            g,
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(g.m)),
            tuple(rng.choice([1, 2]) for _ in range(n)),
            tuple(Fraction(rng.randint(-4, 6), rng.choice([1, 2])) for _ in range(n)),
        )
        a = [rng.randint(-3, 3) for _ in range(n)]
        if all(v == 0 for v in a):
            a[0] = 1
        got = bmatch_nz_min_excess(inst, a).excess
        good = good and got == brute_nz_min_excess(inst.game(), inst.y, a).excess
        forced_ok = forced_ok and got == bmatch_nz_min_excess_by_cycles(inst, a).excess
    record("gadget-chain-vs-brute", good)
    record("forced-vs-cycle-route", forced_ok)

    print(json.dumps({"seed": seed, "ok": ok, "checks": lines}, indent=2))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucnz",
        description="Exact nucleolus computation via non-zero-constrained optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the nucleolus of a game file")
    p.add_argument("gamefile")
    p.add_argument("--mode", choices=["enumerate", "oracle"], default="enumerate")
    p.add_argument("--trace", help="write the allocation and trace to this JSON file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("least-core", help="first-level optimum (xi, y)")
    p.add_argument("gamefile")
    p.set_defaults(func=cmd_least_core)

    p = sub.add_parser("min-excess", help="brute-force constrained minimum excess")
    p.add_argument("gamefile")
    p.add_argument("--y", required=True, help="allocation JSON file")
    p.add_argument("--a", help="comma-separated integer non-zero vector")
    p.add_argument("--subspace", help="avoided-subspace JSON file")
    p.set_defaults(func=cmd_min_excess)

    p = sub.add_parser("reduce", help="run one gadget reduction and emit the result")
    p.add_argument("step", choices=["a2m", "m2c", "c2b"])
    p.add_argument("file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("approx", help="avoidance-constrained approximate min excess")
    p.add_argument("gamefile")
    p.add_argument("--eps", required=True)
    p.add_argument("--y", required=True, help="allocation JSON file")
    p.add_argument("--subspace", help="avoided-subspace JSON file")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("experiment", help="run a named experiment")
    esub = p.add_subparsers(dest="experiment", required=True)
    pi = esub.add_parser("instability", help="nucleolus drift family")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--eps", required=True)
    pi.add_argument("--K", required=True)
    pi.set_defaults(func=cmd_experiment_instability)
    ph = esub.add_parser("hardness", help="planted-coalition family")
    ph.add_argument("--k", type=int, required=True)
    ph.set_defaults(func=cmd_experiment_hardness)

    p = sub.add_parser("selftest", help="run the randomized cross-check battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(
            json.dumps({"error": str(e), **e.detail}),
            file=sys.stderr,
        )
        return 1
    except (GameFileError, CapExceededError, ValueError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
