"""The benchmark's reference command lines, checked in process.

Every argv of ``bench/reference.json`` runs through ``statres.cli.main``
and is judged by the benchmark's own ``checks.Checker``: outputs must
match the reference commit's to its tolerances, exact roots must give
power 1 - beta, and the narrow-kernel power query must agree with the
library. The ``bench`` modules are imported as they are.
"""

import importlib
from pathlib import Path

import pytest

import statres.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


# the checks read stdout and exit codes, not the warnings on stderr
@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
def test_reference_argv_all_check_ok(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv("STATRES_SEED", raising=False)
    checks, harness, workloads = (importlib.import_module(name) for name
                                  in ("checks", "harness", "workloads"))
    checker = checks.Checker()
    entries = workloads.load_reference()["entries"]
    assert len(entries) == 422
    failed = []
    for entry in entries:
        query = workloads.Query(tuple(entry["argv"]), entry["check"],
                                entry["expect"])
        status, message = checker.check(
            query, harness.run_cli(statres.cli, entry["argv"]))
        if status != "ok":
            failed.append(f"{query.text}: {status} {message}")
    assert failed == []
