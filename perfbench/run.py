"""ncgraded benchmark: certified reports, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each report is `cli.run(RunConfig(...))` in
its own child process (perfbench/child.py), one after another, so memory is
measured per report and no cache carries over between reports.  Reports
start until S seconds have passed and at least three have run.  Every report
is checked: the workload's `--claim` must hold (the child exits 1 otherwise)
and the report must equal the reference in perfbench/reference/ apart from
`generated_at` and the probe seed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced reports (at least two traced ones, whose work
counters must agree exactly) and prints the per-layer metrics.  Human-readable
lines, `failed_frac` and the provenance come first; the last line of stdout is
the JSON result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNTERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
DEADLINE_S = 170.0        # whole run, so it exits well inside 180 s
SETUP_ONLY_CHILDREN = 3   # set-up samples on top of one per report
MIN_REPORTS = 3           # so that one slow report cannot move the median
MIN_TRACED = 2            # traced reports needed to compare the counters
LONG_LIST = 64
HOMOLOGICAL_BOUND = 5     # -h of every workload

LIGHT = ("hilbert", "betti", "koszul", "asregular")
FULL = LIGHT + ("hochschild", "rigidity")


@dataclass(frozen=True)
class Workload:
    algebra: str
    field: str
    degree: int
    checks: tuple
    claim: str

    def config(self, seed: int) -> dict:
        return {"algebra": self.algebra, "field": self.field,
                "degree": self.degree, "homological": HOMOLOGICAL_BOUND,
                "checks": list(self.checks), "claim": self.claim,
                "seed": seed}


WORKLOADS = {
    # the bimodule side over A^e, the ROADMAP headline path; -d 8 costs 193 s
    "bimodule": Workload("smith-zhang", "F32003", 6, FULL, "1/(1-t)^4"),
    # no rewrite rules; dense F_p rows 3^8 wide; carries the memory signal
    "wide": Workload("free-3", "F32003", 8, ("hilbert", "betti", "koszul"),
                     "1/(1-3*t)"),
    # Fraction sparse elimination instead of dense int64
    "rational": Workload("smith-zhang", "Q", 9, LIGHT, "1/(1-t)^4"),
    # the F_2 normal-element scan; hilbert is there to check the claim
    "scan": Workload("polynomial-3", "F2", 5, ("hilbert", "normal-elements"),
                     "1/(1-t)^3"),
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# children


def spawn(cfg: dict, mode: str, deadline: float) -> dict:
    """Run perfbench/child.py once.  Returns setup_s, and unless mode is
    "setup" the child's JSON result; `error` is set when the child failed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(cfg), mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        # unbuffered, so readline takes no byte past the "ready" line
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(
            timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{mode} child timed out"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    last_err = (err.decode(errors="replace").strip().splitlines() or [""])[-1]
    if line != b"ready\n":
        return {"error": f"{mode} child failed in set-up: {last_err}"}
    res = {"setup_s": setup_s}
    if mode != "setup":
        lines = out.decode().splitlines()
        if not lines:
            return {**res, "error": f"report raised: {last_err}"}
        res.update(json.loads(lines[-1]))
    if proc.returncode != 0:
        res["error"] = f"{mode} child exited {proc.returncode}: {last_err}"
    return res


# ---------------------------------------------------------------------------
# correctness


def canonical(report: dict) -> dict:
    """The report as its reference stores it: without the fields that change
    from run to run, and with each list longer than LONG_LIST items replaced
    by its length and digest (the scan lists thousands of normal elements)."""
    out = {k: v for k, v in report.items() if k not in ("generated_at", "seed")}
    if "seed_probe" in out:
        out["seed_probe"] = {k: v for k, v in out["seed_probe"].items()
                             if k != "seed"}
    return _condense(out)


def _condense(x):
    if isinstance(x, dict):
        return {k: _condense(v) for k, v in x.items()}
    if isinstance(x, list) and len(x) > LONG_LIST:
        text = json.dumps(x, sort_keys=True).encode()
        return {"length": len(x), "sha256": hashlib.sha256(text).hexdigest()}
    if isinstance(x, list):
        return [_condense(v) for v in x]
    return x


def first_difference(a, b, path: str = "") -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}/{k}"
            d = first_difference(a[k], b[k], f"{path}/{k}")
            if d is not None:
                return d
        return None
    return None if a == b else (path or "/")


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise HarnessError(f"no reference report: {e}") from e


def write_reference(name: str) -> Path:
    """Run one report of the workload and store it as its reference."""
    res = spawn(WORKLOADS[name].config(0), "report",
                time.perf_counter() + DEADLINE_S)
    if "error" in res:
        raise HarnessError(res["error"])
    path = REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(canonical(res["report"]), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# statistics


def tail(values: list) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it (nearest
    rank), or the maximum when there are fewer than eleven samples."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], f"maximum of n={n}, fewer than 11 samples"
    return s[n - 11], f"p{100 * (n - 10) // n} of n={n}, 10 samples above"


def provenance(numpy_version: str | None, load_1m: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    src = ROOT / "src" / "ncgraded"
    for f in sorted(src.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(str(f.relative_to(src)).encode())
            digest.update(f.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_1m_at_start": load_1m}


# ---------------------------------------------------------------------------
# one benchmark run


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    load_1m = os.getloadavg()[0]
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    wl = WORKLOADS[name]
    cfg = wl.config(seed)
    reference = load_reference(name)
    setups, reports, errors = [], [], []
    while True:
        traced = [r for r in reports if r["mode"] == "traced"]
        untraced = [r for r in reports if r["mode"] == "report"]
        enough = ((len(traced) >= MIN_TRACED and untraced) if trace
                  else len(reports) >= MIN_REPORTS)
        if enough and time.perf_counter() - start >= seconds:
            break
        if not trace and len(setups) < SETUP_ONLY_CHILDREN:
            # one before each of the first reports, spread over the run
            res = spawn(cfg, "setup", deadline)
            if "error" in res:
                raise HarnessError(res["error"])
            setups.append(res["setup_s"])
        mode = "traced" if trace and len(untraced) > len(traced) else "report"
        res = spawn(cfg, mode, deadline)
        res["mode"] = mode
        reports.append(res)
        if "error" not in res and canonical(res["report"]) != reference:
            res["error"] = ("report differs from the reference at "
                            + first_difference(canonical(res["report"]), reference))
        if "error" in res:
            errors.append(res["error"])
            if "timed out" in res["error"]:
                break
    timed = [r for r in reports if "report_s" in r]
    if not timed:
        raise HarnessError("no report completed: " + "; ".join(errors))
    setups += [r["setup_s"] for r in reports if "setup_s" in r]

    failed = sum("error" in r for r in reports)
    lines = [f"workload {name}: {wl.algebra} over {wl.field}, "
             f"-d {wl.degree} -h {HOMOLOGICAL_BOUND}, checks {','.join(wl.checks)}, "
             f"seed {seed}; closed loop, 1 client, {len(reports)} reports "
             f"in {time.perf_counter() - start:.1f} s"]
    notes = {}
    if trace:
        metrics, mismatched = layer_metrics(timed)
        errors += [f"{k} did not repeat: {v}" for k, v in mismatched.items()]
    else:
        times = [r["report_s"] for r in timed]
        tail_s, notes["report_s.tail"] = tail(times)
        metrics = {
            "report_s": statistics.median(times),
            "report_s.tail": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] * 1024 / 1e6 for r in timed),
        }
        notes["report_s"] = f"median of n={len(times)}"
        notes["setup_s"] = f"median of n={len(setups)} child starts"
        notes["peak_rss_mb"] = f"median VmHWM of n={len(timed)} children"
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in spec}
    if set(metrics) != names:
        raise HarnessError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ names)}")
    for m in spec:
        note = notes.get(m["name"])
        lines.append(f"  {m['name']:34s} {metrics[m['name']]!r} {m['unit']}"
                     + (f"  ({note})" if note else ""))
    lines.append(f"  {'failed_frac':34s} {failed / len(reports)!r} fraction"
                 f"  ({failed} of {len(reports)} reports failed)")
    lines += [f"  error: {e}" for e in errors]
    numpy_version = next((r["numpy"] for r in timed if "numpy" in r), None)
    lines.append("provenance " + json.dumps(provenance(numpy_version, load_1m),
                                            sort_keys=True))
    return {"lines": lines,
            "result": {"correct": not errors, "attempted": len(reports),
                       "failed": failed,
                       "metrics": {m["name"]: {"value": metrics[m["name"]],
                                               "unit": m["unit"]}
                                   for m in spec}}}


def layer_metrics(reports: list) -> tuple[dict, dict]:
    """Per-layer metrics from the traced reports: medians of times, counters
    taken once and returned in `mismatched` when they do not repeat."""
    traced = [r["layers"] for r in reports if r["mode"] == "traced"]
    untraced = [r["report_s"] for r in reports if r["mode"] == "report"]
    traced_s = [r["report_s"] for r in reports if r["mode"] == "traced"]
    if not (traced and untraced):
        raise HarnessError("need a traced and an untraced report to compare")
    metrics, mismatched = {}, {}
    for key in traced[0]:
        values = [t[key] for t in traced]
        if key in COUNTERS:
            metrics[key] = values[0]
            if len(set(values)) > 1:
                mismatched[key] = values
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                      / statistics.median(untraced) - 1)
    return metrics, mismatched


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "ncgraded" / "__init__.py").is_file():
        print(f"run.py: no ncgraded sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        out = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except HarnessError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
