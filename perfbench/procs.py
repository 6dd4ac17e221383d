"""Child processes with their exit code, output, wall time and peak memory."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with only ``src`` on the import path and no
    ``OBLOT_CACHE``, so no cache outside the run can answer a query."""
    env = {k: v for k, v in os.environ.items() if k not in ("OBLOT_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    return env


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for f in (proc.stdout, proc.stderr):
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"child {proc.args!r} still running at its deadline")
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout.fileno()]), b"".join(chunks[proc.stderr.fileno()])


def run_python(args: list[str], *, cwd: Path, env: dict[str, str], timeout: float = 120.0) -> Child:
    """Run ``python <args>`` to completion, timing it from spawn to reaping.

    The child is reaped with ``wait4`` so that its own peak resident set is
    known, not the largest of every child so far.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with proc.stdout, proc.stderr:
            out, err = _drain(proc, time.monotonic() + timeout)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err, seconds, usage.ru_maxrss)
