"""One benchmark report in a fresh interpreter.

    python3 perfbench/child.py '<config json>' {setup|report|traced}

Imports ncgraded from the `src/` directory next to `perfbench/`, loads the
presentation, and prints `ready` on stdout: the parent times set-up from
spawning this process to reading that line.  In `setup` mode it then exits.
Otherwise it runs the report as `cli.run(RunConfig(...))`, under the tracer in
`traced` mode, prints one JSON line with the report and its measurements, and
exits with the report's exit code (1 when the `--claim` does not hold).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    Not ru_maxrss: Linux seeds that at exec with the peak of the address
    space being replaced, which after subprocess's vfork is the parent's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    cfg = json.loads(argv[0])
    mode = argv[1]
    sys.path.insert(0, str(SRC))
    import numpy
    import ncgraded
    from ncgraded import cli
    from ncgraded.exactla import field_from_name
    from ncgraded.presentation import builtin

    if SRC.resolve() not in Path(ncgraded.__file__).resolve().parents:
        print(f"ncgraded imported from {ncgraded.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    field = field_from_name(cfg["field"])
    builtin(cfg["algebra"], field=field)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run_cfg = cli.RunConfig(input=cfg["algebra"], field=field,
                            degree_bound=cfg["degree"],
                            homological_bound=cfg["homological"],
                            checks=tuple(cfg["checks"]), claim=cfg["claim"],
                            seed=cfg["seed"])
    t0 = time.perf_counter()
    report, code = cli.run(run_cfg)
    report_s = time.perf_counter() - t0
    peak_kb = peak_rss_kb()
    report = json.loads(json.dumps(report))
    out = {
        "report_s": report_s,
        "peak_rss_kb": peak_kb,
        "numpy": numpy.__version__,
        "report": report,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(report, report_s)
    print(json.dumps(out), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
