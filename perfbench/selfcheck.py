"""Self-check of the validators, run at the start of every benchmark run.

Each case gives the validators a correct record, which must pass, and the
same record with one expectation flipped, which must come out as one
counted wrong answer.  ``python3 perfbench/selfcheck.py`` runs it alone.
"""

import sys

import validate


def _decide(expected, got):
    return {"op": {"kind": "decide", "doc": "m", "bound": 40,
                   "expect": {"verdict": expected}},
            "ok": True, "category": None, "result": {"verdict": got}}


def _conj(expected, got):
    return {"op": {"kind": "conj", "doc": "a", "other": "b",
                   "expect": {"status": "conjugate-powers", "powers": expected}},
            "ok": True, "category": None,
            "result": {"status": "conjugate-powers", "powers": got}}


def _cli(expected_exit, got_exit):
    return {"op": {"kind": "cli", "argv": ["check", "m"], "docs": ["m"],
                   "expect": [{"exit": expected_exit,
                               "verdicts": {"train_track": True}}]},
            "ok": True, "category": None,
            "result": {"exit": got_exit,
                       "report": {"verdicts": {"train_track": True}, "values": {}}}}


CASES = (
    # (name, correct record, flipped record, category the flip must give, refs)
    ("expected verdict", _decide("not-lone-axis", "not-lone-axis"),
     _decide("lone-axis", "not-lone-axis"), "wrong_answer", {}),
    ("reference verdict", _decide(None, "conditional"), _decide(None, "conditional"),
     "wrong_answer", {("decide", "m"): {"verdict": "not-lone-axis"}}),
    ("expected power", _conj([2, 1], [2, 1]), _conj([1, 2], [2, 1]),
     "wrong_answer", {}),
    ("expected exit code", _cli(0, 0), _cli(1, 0), "exit_code", {}),
)


def problems():
    """Descriptions of every validator case that misbehaves."""
    out = []
    for name, good, flipped, category, refs in CASES:
        failed, _ = validate.tally([good], {("decide", "m"): {"verdict": "conditional"}}, {})
        if any(failed.values()):
            out.append(f"{name}: a correct output was counted as failed")
        failed, _ = validate.tally([flipped], refs, {})
        if failed[category] != 1 or sum(failed.values()) != 1:
            out.append(f"{name}: a flipped expectation was not one {category}")
    failed, unknown = validate.tally([_decide("not-lone-axis", "unknown")], {}, {})
    if any(failed.values()) or unknown != 1:
        out.append("unknown verdict: not counted as unknown alone")
    return out


if __name__ == "__main__":
    found = problems()
    print("\n".join(found) or "validators ok")
    sys.exit(1 if found else 0)
