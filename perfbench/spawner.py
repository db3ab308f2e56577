"""A small helper process that starts the benchmark's CLI children.

Linux records in a child's maximum RSS the peak RSS of the process that
spawned it, so a child started from the benchmark process (which holds numpy,
the package and the oracle's arrays) would report the benchmark's memory
instead of its own. The helper is started before the benchmark imports
anything large and stays small; it runs one child at a time, times it from
spawn to exit, and reports its exit code and maximum RSS.

This module imports nothing beyond the standard library.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

_HELPER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, env, out_path, err_path, timeout = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, proc.returncode, usage.ru_maxrss]), flush=True)
"""

CHILD_TIMEOUT_S = 150.0


@dataclass
class Child:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class Spawner:
    """Runs children through the helper process; close() stops the helper."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, "-S", "-c", _HELPER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict[str, str], scratch: Path) -> Child:
        """Run argv to exit; its stdout and stderr pass through files in scratch."""
        out_path, err_path = scratch / "stdout", scratch / "stderr"
        request = [argv, env, str(out_path), str(err_path), CHILD_TIMEOUT_S]
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        wall, code, maxrss = json.loads(reply)
        return Child(wall, code, out_path.read_bytes(), err_path.read_bytes(), maxrss)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
