"""Checks of every operation's output, made after the timed loop.

``reference_ops`` lists the reference computations a run needs (made in a
separate, untimed worker); ``check`` then classifies one operation record
as correct, unknown, or failed with a category.  A verdict of ``unknown``
is never a failure, but a certified verdict must agree with the reference,
so the checks stay valid when a later version certifies what is unknown
today.
"""

from __future__ import annotations

import gen

CATEGORIES = ("timeout", "memory", "precondition", "internal_check",
              "wrong_answer", "exit_code")
LAM_RTOL = 1e-9


def reference_ops(records):
    """Reference operations (keyed by what they settle) for these records."""
    refs = {}
    for rec in records:
        op = rec["op"]
        if op["kind"] == "decide" and op["expect"]["verdict"] is None:
            refs[("decide", op["doc"])] = {"kind": "decide_ref", "doc": op["doc"],
                                           "bound": op["bound"]}
        elif op["kind"] == "pnp":
            refs[("pnp", op["doc"])] = {"kind": "pnp_ref", "doc": op["doc"],
                                        "bound": 13}
        elif op["kind"] == "sig":
            name = op["expect"]["records_of"]
            refs[("sig", name)] = {"kind": "sig", "doc": name}
    return refs


def _indivisible(result):
    return {tuple(p) for p, indivisible in result["paths"] if indivisible}


def check(rec, refs, images):
    """(failure category or None, unknown?) for one operation record.

    ``refs`` maps reference keys to reference results (None when the
    reference itself could not be computed); ``images`` maps document
    names to their edge images.
    """
    if not rec["ok"]:
        return rec["category"], False
    op, res, exp = rec["op"], rec["result"], rec["op"]["expect"]
    kind = op["kind"]
    if kind == "decide":
        if res["verdict"] == "unknown":
            return None, True
        want = exp["verdict"]
        if want is None:
            ref = refs.get(("decide", op["doc"]))
            want = ref and ref["verdict"]
        return (None if want in (None, res["verdict"]) else "wrong_answer"), False
    if kind == "pnp":
        maps = images[op["doc"]]
        if any(gen.apply_word(maps, tuple(p)) != tuple(p) for p, _ in res["paths"]):
            return "wrong_answer", False
        ref = refs.get(("pnp", op["doc"]))
        if ref is not None:
            mine, full = _indivisible(res), _indivisible(ref)
            short = {p for p in full if len(p) <= op["bound"] + 1}
            if not mine <= full or not short <= mine or (res["exhaustive"] and mine != full):
                return "wrong_answer", False
        return None, not res["exhaustive"] and not res["paths"]
    if kind == "conj":
        same = (res["status"] == exp["status"]
                and res["powers"] == exp.get("powers"))
        return (None if same else "wrong_answer"), False
    if kind == "sig":
        ref = refs.get(("sig", exp["records_of"]))
        if ref is not None and res["records"] != ref["records"]:
            return "wrong_answer", False
        if abs(res["lam"] - exp["lam"]) > LAM_RTOL * exp["lam"]:
            return "wrong_answer", False
        return None, False
    if kind == "wiso":
        return (None if res["iso"] == exp["iso"] else "wrong_answer"), False
    if kind == "cli":
        return check_cli(op, res, images)
    raise ValueError(f"no check for operation kind {kind!r}")


def check_cli(op, res, images):
    """A CLI run must end with one of the outcomes listed for it; an exit
    code not listed is ``exit_code``, listed verdicts that differ are
    ``wrong_answer``.  The dilatation is checked against the benchmark's
    own eigenvalue."""
    outcomes = [o for o in op["expect"] if o["exit"] == res["exit"]]
    if not outcomes:
        return "exit_code", False
    outcome = outcomes[0]
    report = res["report"]
    if report is None:
        return "wrong_answer", False
    for key, want in outcome.get("verdicts", {}).items():
        if report["verdicts"].get(key) != want:
            return "wrong_answer", False
    for key, want in outcome.get("values", {}).items():
        if report["values"].get(key) != want:
            return "wrong_answer", False
    lam = report["values"].get("dilatation")
    if lam is not None:
        own = gen.dilatation(images[op["docs"][0]])
        if abs(lam - own) > LAM_RTOL * own:
            return "wrong_answer", False
    return None, bool(outcome.get("unknown"))


def tally(records, refs, images):
    """Classify every record in place; returns (failed counts, unknown count)."""
    failed = dict.fromkeys(CATEGORIES, 0)
    unknown = 0
    for rec in records:
        category, is_unknown = check(rec, refs, images)
        rec["failed"] = category
        if category is not None:
            failed[category] += 1
        unknown += is_unknown
    return failed, unknown
