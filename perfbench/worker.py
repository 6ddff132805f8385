"""Operation server for the library workloads: one process, one client.

Run from the root of a checkout as
``python3 perfbench/worker.py SPEC.json MEM_MB TRACE``.  It caps its own
address space at MEM_MB, imports ``loneaxis`` from ``src``, parses every
document named in SPEC.json, and answers one JSON request per stdin line
with one JSON reply per stdout line.  It times the host-speed kernel
(``hostspeed.py``) once its inputs are parsed and right before each
operation.  After a MemoryError it replies
and exits, so that the next operation starts in a clean process.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402

T_MAIN = time.time()


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_op(la, docs, graphs, op):
    kind = op["kind"]
    if kind == "decide":
        doc = docs[op["doc"]]
        rep = la.lone_axis_decision(
            doc.graph_map, np_bound=op["bound"],
            fully_irreducible_asserted=doc.fully_irreducible)
        return {"verdict": rep.overall}
    if kind in ("pnp", "pnp_ref"):
        g = docs[op["doc"]].graph_map
        bound = op["bound"]
        if kind == "pnp_ref":
            proven = la.find_nielsen_paths(g, bound).proven_leg_bound
            bound = max(bound, proven or 0)
        rep = la.find_nielsen_paths(g, bound)
        return {"paths": [[list(p.path), p.indivisible] for p in rep.paths],
                "exhaustive": rep.exhaustive, "proven": rep.proven_leg_bound,
                "bound": bound}
    if kind == "decide_ref":
        g = docs[op["doc"]].graph_map
        k = la.periodic_structure(g).rotationless_exponent
        grot = la.power(g, k) if k > 1 else g
        proven = la.find_nielsen_paths(grot, op["bound"]).proven_leg_bound
        bound = max(op["bound"], proven or 0)
        rep = la.lone_axis_decision(g, np_bound=bound)
        return {"verdict": rep.overall, "bound": bound}
    if kind == "conj":
        v = la.conjugate_power_check(docs[op["doc"]].graph_map,
                                     docs[op["other"]].graph_map)
        return {"status": v.status,
                "powers": list(v.powers) if v.powers else None}
    if kind == "sig":
        sig = la.axis_signature(docs[op["doc"]].graph_map)
        return {"records": list(sig.records), "lam": sig.lam}
    if kind == "wiso":
        return {"iso": bool(la.whitehead_isomorphic(graphs[op["graph"]],
                                                    graphs[op["other"]]))}
    raise ValueError(f"unknown operation kind {kind!r}")


def main():
    spec_path, mem_mb, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    cap = mem_mb * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, "src")
    t_import = time.perf_counter()
    import loneaxis as la
    import_s = time.perf_counter() - t_import
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()

    t0 = time.perf_counter()
    with open(spec_path) as fh:
        spec = json.load(fh)
    docs = {}
    for name, path in spec["docs"].items():
        with open(path) as fh:
            docs[name] = la.parse_document(fh.read())
    graphs = {name: la.WhiteheadGraph("stable", g["vertices"], g["edges"])
              for name, g in spec.get("graphs", {}).items()}
    parse_s = time.perf_counter() - t0
    _reply({"ready": True, "t_main": T_MAIN, "import_s": import_s,
            "parse_s": parse_s, "python_s": time.perf_counter() - t_import,
            "probe": hostspeed.kernel_s(), "rss_kb": _rss_kb(),
            "trace": tracer.drain() if tracer else None})

    for line in sys.stdin:
        op = json.loads(line)
        fatal = False
        probe = hostspeed.kernel_s()
        t0 = time.perf_counter()
        try:
            reply = {"ok": True, "result": run_op(la, docs, graphs, op)}
        except MemoryError:
            reply, fatal = {"ok": False, "category": "memory",
                            "message": "MemoryError"}, True
        except la.PreconditionError as ex:
            reply = {"ok": False, "category": "precondition", "message": str(ex)}
        except Exception as ex:  # any other raise is a defect of the library
            reply = {"ok": False, "category": "internal_check",
                     "message": f"{type(ex).__name__}: {ex}"}
        reply["t"] = time.perf_counter() - t0
        reply["probe"] = probe
        reply["rss_kb"] = _rss_kb()
        reply["trace"] = tracer.drain() if tracer else None
        _reply(reply)
        if fatal:
            return


if __name__ == "__main__":
    main()
