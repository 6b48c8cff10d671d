import contextlib
import io
import json
from types import SimpleNamespace

import pytest

from qwtrain import cli


@pytest.fixture(scope="session")
def reproduce_run(tmp_path_factory):
    """One `qwtrain reproduce` run, shared by the tests that ask for it: its
    output directory, its stdout, and its `criteria.json` keyed by criterion
    number. Requested lazily, so a run of other test files never starts it."""
    out_dir = tmp_path_factory.mktemp("reproduce")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(["reproduce", "--out-dir", str(out_dir)])
        except SystemExit as exc:
            code = exc.code
    report = out_dir / "report.md"
    if code != 0 or not (out_dir / "criteria.json").exists():
        pytest.fail(f"reproduce exited {code}\nstderr:\n{stderr.getvalue()}\nreport:\n"
                    + (report.read_text() if report.exists() else "(none)"))
    records = json.loads((out_dir / "criteria.json").read_text())
    return SimpleNamespace(out_dir=out_dir, stdout=stdout.getvalue(),
                           criteria={c["number"]: c for c in records})
