"""Reference answers, computed in a process of their own.

The in-process workloads report the benchmark process's peak memory,
so their oracles run here instead::

    python3 perfbench/oracle.py compile --seed N [--preset P]
        one JSON line: the reference ``Mapper``'s route-table digest for
        ``MapParams.P(N)`` (default ``usenet_1986``), plus token, link
        and route counts.

    python3 perfbench/oracle.py churn --seed N --nodes N --events N
        a request loop over stdin/stdout, one JSON object a line:
        ``{"op": "read", "paths": {...}, "reads": [[source, line], ...]}``
        answers every read through a fresh, uncached, dict-dispatch
        ``FederationService`` over the given shard files;
        ``{"op": "final", "gen": G, "paths": {...}, "scratch": DIR}``
        rebuilds every shard of generation ``G`` from scratch with
        ``build_snapshot`` and reports whether the files match.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import use_program  # noqa: E402


def compile_oracle(seed: int, preset: str) -> dict:
    from repro.core.pathalias import Pathalias
    from repro.netsim.mapgen import MapParams, generate_map
    from repro.parser.scanner import Scanner

    generated = generate_map(getattr(MapParams, preset)(seed))
    result = Pathalias(engine="reference").run_detailed(
        generated.files, generated.localhost)
    text = result.table.format_tab()
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "tokens": sum(len(Scanner(body, name).tokens())
                      for name, body in generated.files),
        "links": result.graph.link_count,
        "routes": len(result.table),
        "nodes": len(result.graph.nodes),
    }


async def _read_answers(paths: dict, reads: list) -> list:
    from repro.service.federation import FederationService

    oracle = FederationService(dict(paths), dispatch="dict")
    states: dict[str, dict] = {}
    out = []
    for source, line in reads:
        state = states.get(source)
        if state is None:
            state = states[source] = oracle.initial_state()
            await oracle.handle_line(f"SOURCE {source}", state)
        out.append(await oracle.handle_line(line, state))
    return out


def churn_loop(args) -> None:
    from repro.netsim.churn import ChurnParams, ChurnScenario
    from repro.service.store import build_snapshot

    for raw in sys.stdin:
        request = json.loads(raw)
        if request["op"] == "read":
            reply = {"replies": asyncio.run(
                _read_answers(request["paths"], request["reads"]))}
        else:
            scenario = ChurnScenario(ChurnParams(
                nodes=args.nodes, events=args.events, seed=args.seed))
            scenario.fast_forward(request["gen"])
            mismatched = []
            for name, graph in scenario.graphs.items():
                fresh = Path(request["scratch"]) / f"{name}.full.snap"
                build_snapshot(graph, fresh)
                if fresh.read_bytes() != \
                        Path(request["paths"][name]).read_bytes():
                    mismatched.append(name)
                fresh.unlink()
            reply = {"mismatched": mismatched}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=("compile", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nodes", type=int, default=20000)
    parser.add_argument("--events", type=int, default=0)
    parser.add_argument("--preset", default="usenet_1986")
    args = parser.parse_args()
    use_program()
    if args.kind == "compile":
        print(json.dumps(compile_oracle(args.seed, args.preset)))
    else:
        churn_loop(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
