"""Run ``statres`` command lines in process and parse what they print.

The benchmark always imports the package from ``src/`` of the checkout it
runs in (the current directory), never from an installed copy, so that it
measures the code of that checkout.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "statres")


def sources_present() -> bool:
    return os.path.isfile(os.path.join(PACKAGE, "cli.py"))


def import_cli():
    """Import ``statres.cli`` from the checkout's ``src/``."""
    if not sources_present():
        raise SystemExit(f"error: no statres sources under {SRC}")
    sys.path.insert(0, SRC)
    import statres.cli
    if not os.path.abspath(statres.cli.__file__).startswith(PACKAGE + os.sep):
        raise SystemExit(f"error: statres imported from "
                         f"{statres.cli.__file__}, not from {PACKAGE}")
    return statres.cli


def source_digest() -> str:
    """sha256 over the package sources, to name the code without git."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


@dataclass
class Outcome:
    """Exit code ("crash" for an uncaught exception), output, wall and CPU
    seconds."""

    code: object
    stdout: str
    stderr: str
    seconds: float
    cpu_seconds: float

    @property
    def digest(self) -> str:
        return sha256(self.stdout)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(cli, argv) -> Outcome:
    """Call ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = "crash"
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds,
                   cpu_seconds)


def _cell(value):
    """CSV cell or JSON value as float, bool, None or str."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if value == "":
        return None
    if value in ("true", "false"):
        return value == "true"
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def parse_output(text: str) -> tuple[dict, list[dict]]:
    """Split CSV or JSON output into (meta, records) of normalized cells."""
    if text.startswith("{"):
        doc = json.loads(text)
        meta = {k: _cell(v) for k, v in doc["meta"].items()}
        records = [{k: _cell(v) for k, v in r.items()}
                   for r in doc["records"]]
        return meta, records
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = _cell(value)
        else:
            rows.append(line)
    reader = csv.DictReader(rows)
    records = [{k: _cell(v) for k, v in r.items()} for r in reader]
    return meta, records
