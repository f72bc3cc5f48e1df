"""Fresh-interpreter measurements for the benchmark (run as a subprocess).

    python3 perfbench/child.py setup CONFIG REPS
        Imports ldesc_sim, then forks REPS processes one after another.
        Each times its first `load_config` + `compose`, as a fresh
        `ldesc-sim run` pays them. Calibration chunks are timed before
        and after each fork. Prints {"setup_s": [set-up times],
        "setup_ref_s": [the same, scaled to reference seconds]}.

    python3 perfbench/child.py cli ARG...
        Runs `ldesc-sim ARG...` in this process and prints
        {"exit": code, "maxrss_kib": peak resident set size}.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibration import Calibration  # noqa: E402  (this file's directory is on sys.path)


def setup(config_path: str, reps: str) -> dict:
    from ldesc_sim.config import compose, load_config

    times, scaled = [], []
    cal = Calibration()
    for _ in range(int(reps)):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # cold: nothing has been loaded or composed in this process
            code = 1
            try:
                os.close(read_end)
                t0 = perf_counter()
                compose(load_config(config_path))
                os.write(write_end, repr(perf_counter() - t0).encode())
                code = 0
            except Exception:  # report it; the parent raises on the exit status
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as fp:
            text = fp.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"set-up failed in forked process (status {status})")
        times.append(float(text))
        scaled.append(times[-1] * cal.factor())
    return {"setup_s": times, "setup_ref_s": scaled}


def cli(argv: list[str]) -> dict:
    from ldesc_sim.cli import main

    code = main(argv)
    return {"exit": code, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    result = setup(*rest) if mode == "setup" else cli(rest)
    print(json.dumps(result))
