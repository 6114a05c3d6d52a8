"""One golden-toggle harness for the CLI.

Switching on tracing or the state journal, resuming from a journal, or
crashing and recovering must not move a run's printed results.  Each
case runs the same command under every toggle and byte-compares stdout.
One run per case goes through a fresh ``python -m repro`` process, so
the comparison also crosses processes.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.fingerprint import PACKAGE_DIR
from repro.obs import strip_wall

#: pins ``generated_unix`` stamps, so only real nondeterminism can differ
EPOCH = "1700000000"
REACTIVE = ("reactive", "--days", "0.5")
CRASH = ("chaos", "--crash", "--crash-rounds", "0", "2", "5")


@dataclass(frozen=True)
class Run:
    #: CLI arguments; ``{tmp}`` stands for the test's temporary directory
    argv: tuple[str, ...]
    #: run in a fresh ``python -m repro`` process instead of in-process
    fresh: bool = False


CASES = {
    # plain, journaled, then journaled again: the second run resumes
    # from the journal the first one left, in another process
    "journal": (
        Run(REACTIVE),
        Run(("--journal", "{tmp}/journal", *REACTIVE)),
        Run(("--journal", "{tmp}/journal", *REACTIVE), fresh=True),
    ),
    "trace": (
        Run(REACTIVE),
        Run(("--trace", "{tmp}/obs1", *REACTIVE)),
        Run(("--trace", "{tmp}/obs2", *REACTIVE), fresh=True),
    ),
    # each (round, seam) point crashes, recovers and byte-compares
    # itself against an uninterrupted run; two sweeps must also agree
    "crash": (Run(CRASH), Run(CRASH, fresh=True)),
}


def _stdout(run, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in run.argv]
    if not run.fresh:
        assert main(argv) == 0
        return capsys.readouterr().out
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
        ),
    }
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _check_journal(tmp_path, out):
    assert any((tmp_path / "journal").iterdir()), "the journaled run wrote nothing"


def _check_trace(tmp_path, out):
    a, b = tmp_path / "obs1", tmp_path / "obs2"
    assert (a / "span_tree.json").read_bytes() == (b / "span_tree.json").read_bytes()
    traces = [
        json.dumps(strip_wall(json.loads((d / "trace.json").read_text())), sort_keys=True)
        for d in (a, b)
    ]
    assert traces[0] == traces[1]
    phases = {event["ph"] for event in json.loads(traces[0])["traceEvents"]}
    assert {"X", "i"} <= phases, "expected spans and engine events"


def _check_crash(tmp_path, out):
    assert "all crash points recovered byte-identically" in out


CHECKS = {"journal": _check_journal, "trace": _check_trace, "crash": _check_crash}


@pytest.mark.parametrize("case", sorted(CASES))
def test_toggles_leave_stdout_unchanged(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
    outputs = [_stdout(run, tmp_path, capsys) for run in CASES[case]]
    assert outputs[0]
    assert all(out == outputs[0] for out in outputs[1:])
    CHECKS[case](tmp_path, outputs[0])
