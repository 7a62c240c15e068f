"""Stage launcher: starts each stage process and measures it.

A process's peak RSS, as wait4 reports it, starts from the peak of the
process it was forked from, so stages must not be forked from the benchmark
process once it has loaded numpy and built inputs. `run.py` starts this
launcher first, while it is still small, and sends it one JSON request per
line on stdin:

    {"argv": [...], "log": "<dir>/<stem>", "timeout": <seconds>}

For each it flushes dirty pages (sync), so that the writeback of the files
the last stage wrote, up to 0.5 GB on `prep-paper`, does not overlap the
next one; then it runs the child with its stdout and stderr in `<stem>.out`
and `<stem>.err`, under an 8 GiB address-space limit and with one BLAS and
OpenMP thread, kills it at the timeout, and answers with one JSON line: wall
seconds, the child's own peak RSS in KiB, and its exit code. It exits when
stdin closes.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ADDRESS_LIMIT = 8 << 30
# One BLAS/OpenMP thread: on a shared 2-vCPU VM, two spinning OpenBLAS
# threads ran a 600x600 GEMM up to five times slower than one thread, and
# run-to-run times swung by the same factor.
THREADS = 1


def _limit_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run(argv: list[str], log: Path, timeout: float, env: dict[str, str]) -> dict:
    os.sync()
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=log.parent, env=env, stdout=out, stderr=err,
                                preexec_fn=_limit_address_space)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}


def serve(src: str) -> None:
    env = child_env(src)
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], Path(request["log"]), request["timeout"], env)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
