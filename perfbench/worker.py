"""One benchmark phase in a fresh process: run tierroute CLI commands in-process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``commands`` (a list of argv lists for ``tierroute.cli.main``),
``repeat`` (how many times to run the whole list), ``warmup`` (argv lists run
once, untimed, before the first repeat), ``trace`` (a path for the span dump,
or null), ``untraced`` ("before", "after" or null: when to time the commands
once more without the tracer) and ``result`` (where to write the result JSON). The process
does nothing else, so its peak RSS is the peak of the phase it runs. The
caller sets the BLAS and OpenMP thread counts in the environment before this
process starts.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def _os_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def _blas_threads() -> int:
    """Thread count reported by the OpenBLAS that NumPy loaded, or -1."""
    paths = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()}
    for path in sorted(paths):
        if "openblas" in Path(path).name.lower():
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return -1


def _timed_pass(cli, commands: list[list[str]]) -> tuple[float, float, list[int]]:
    start, cpu_start = time.perf_counter(), time.process_time()
    codes = [cli.main(argv) for argv in commands]
    return time.perf_counter() - start, time.process_time() - cpu_start, codes


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from tierroute import cli

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tierroute was imported from {cli.__file__}, not from {src}")
    for argv in spec.get("warmup", []):
        if cli.main(argv) != 0:
            raise SystemExit(f"warm-up command failed: {argv}")

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()

    # A traced worker may also time the commands untraced, for the tracer's
    # overhead: before the traced pass, or after it, so that across runs a
    # host that speeds up or slows down during a run biases neither side.
    untraced = spec.get("untraced")
    untraced_s = None
    codes: list[int] = []
    if untraced == "before":
        untraced_s, _, codes = _timed_pass(cli, spec["commands"])
    if tracer is not None:
        tracer.install()
    modules_before = set(sys.modules)
    origin = time.perf_counter()
    walls: list[float] = []
    cpus: list[float] = []
    for _ in range(int(spec.get("repeat", 1))):
        wall, cpu, pass_codes = _timed_pass(cli, spec["commands"])
        walls.append(wall)
        cpus.append(cpu)
        codes.extend(pass_codes)
    late_imports = sorted(set(sys.modules) - modules_before)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(spec["trace"]), phase=spec.get("phase", ""), offset=origin)
    if untraced == "after":
        untraced_s, _, after_codes = _timed_pass(cli, spec["commands"])
        codes.extend(after_codes)

    result = {
        "walls_s": walls,
        "cpu_s": cpus,
        "exit_codes": codes,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "os_threads": _os_threads(),
        "blas_threads": _blas_threads(),
        "late_imports": late_imports,
        "untraced_wall_s": untraced_s,
    }
    Path(spec["result"]).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
