"""Byte-for-byte pins of the command-line reports.

``golden_reports.json`` maps "subcommand document [--json]" to the exit
code and the SHA-256 of stdout, for the nine single-document subcommands
on the six cheap benchmark documents, in default and --json output, and
for conjugate-power on cubic and its relabeled copy.  The pins were taken
before the per-letter path helpers moved to C builtins, so they hold the
reports to what the letter-by-letter code printed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from loneaxis import cli

DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"
GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_digest(key):
    sub, *names = key.split()
    flags = [x for x in names if x.startswith("--")]
    files = [str(DOCS / f"{x}.txt") for x in names if not x.startswith("--")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([sub, *files, *flags])
    assert [code, hashlib.sha256(out.getvalue().encode()).hexdigest()] == GOLDEN[key]
