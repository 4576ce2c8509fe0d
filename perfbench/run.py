"""hodgekit benchmark: start-up, Clifford span, GNS blocks and star-flow verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout; hodgekit is imported from its ``src``.
Each workload is one worker process driven by a single client (closed
loop) with BLAS pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--workload all`` runs every workload in turn and ends with a
table of every metric.  ``--quick`` runs a few ops of every workload in
both modes and checks that every metric of BENCHMARK.json appears with
its unit; it exits 1 if one is missing.

See DESIGN.md for why the workloads are what they are and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_quick", "clifford_ladder", "gns_mixed", "flow_verdicts")
SETUPS = 7           # set-ups per run; setup_s is their median
DEADLINE_S = 170.0   # a run must end within 180 s
TAIL_BEYOND = 10     # the tail percentile keeps this many samples beyond it

UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
         "peak_rss_mb": "MiB", "ok_share": "1"}
# Printed with the others but left out of BENCHMARK.json: the host's two
# speed states move the median and the mean of identical runs by up to
# 0.4 (DESIGN.md), more than any bound the benchmark may set.
UNBOUNDED = ("ops_per_s", "op_p50_s")


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".calls", "_macs", "_entries", ".span")):
        return "count"
    return "1"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """One worker process; the context exit kills it if still alive and waits."""

    def __init__(self, workload: str, seed: int, tag: str):
        workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}-{tag}"
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--src", str(SRC), "--workdir", str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=worker_env(),
            cwd=str(ROOT))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()

    def ready(self) -> float:
        """Seconds from spawn until the worker is ready for its first op."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.wait()})")
        return perf_counter() - self.start

    def finish(self, command: str, timeout: float) -> str:
        """Send the last command and wait for the worker to exit."""
        out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker failed (exit {self.proc.returncode})")
        return out


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run: SETUPS set-ups (the last worker measures), then metrics."""
    t0 = perf_counter()
    setups = []
    n_setups = 1 if quick else SETUPS
    for k in range(n_setups):
        with Worker(workload, seed, str(k)) as worker:
            setups.append(worker.ready())
            if k < n_setups - 1:
                worker.finish("exit", timeout=30)
                continue
            budget = DEADLINE_S - (perf_counter() - t0)
            out = worker.finish(f"run {seconds} {int(trace)} {int(quick)}", timeout=budget)
    raw = json.loads(out.strip().splitlines()[-1])

    failures = raw["failures"]
    failed_ops = [fs for fs in failures if fs]
    defects = {}
    for fs in failed_ops:
        for verdict, defect, detail in fs:
            defects.setdefault(defect, {"count": 0, "example": f"{verdict}: {detail}"})
            defects[defect]["count"] += 1
    known = raw["known_defects"]
    unexpected = sorted(d for d in defects if d not in known)
    problems = raw.get("ladder_problems", [])

    latencies = raw["latencies"]
    tail_value, tail_pct = tail(latencies)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": len(latencies), "tail_percentile": tail_pct, "tail_beyond": TAIL_BEYOND,
        "setup_samples": setups, "calib_s": raw["calib_s"], "env": raw["env"],
        "defects": {d: dict(v, known=known.get(d, "UNEXPECTED"))
                    for d, v in sorted(defects.items())},
        "ladder_problems": problems,
    }
    if trace:
        metrics = dict(raw["layer_metrics"])
        metrics["env.calib_s"] = raw["calib_s"]
        units = {k: layer_unit(k) for k in metrics}
        detail["spans"] = raw["spans"]
    else:
        metrics = {
            "ops_per_s": len(latencies) / raw["wall_s"],
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_share": 1.0 - len(failed_ops) / len(failures),
        }
        units = UNITS
        detail["unbounded"] = {k: {"value": metrics.pop(k), "unit": units[k]} for k in UNBOUNDED}
    return {
        "detail": detail,
        "result": {
            "correct": not unexpected and not problems,
            "attempted": len(failures),
            "failed": len(failed_ops),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def report(run: dict) -> None:
    """Human-readable lines: every metric by name with unit and sample count."""
    d, r = run["detail"], run["result"]
    print(f"# {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  trace {d['trace']}  "
          f"ops {d['ops']}  failed {r['failed']}/{r['attempted']}  correct {r['correct']}")
    notes = {
        "ops_per_s": f"n={d['ops']} ops, closed loop, 1 client",
        "op_p50_s": f"n={d['ops']}",
        "op_tail_s": f"p{d['tail_percentile']:.1f}, n={d['ops']}, {d['tail_beyond']} beyond",
        "setup_s": f"median of {len(d['setup_samples'])} set-ups",
        "ok_share": f"{r['failed']} of {r['attempted']} ops failed",
    }
    for name, m in list(d.get("unbounded", {}).items()) + list(r["metrics"].items()):
        note = notes.get(name, "") + (" (no bound)" if name in UNBOUNDED else "")
        print(f"  {name:48s} {m['value']:<14.6g} {m['unit']:6s} {note}")
    for name, v in d["defects"].items():
        print(f"  defect {name}: {v['count']} failed verdicts ({v['known']}); "
              f"e.g. {v['example'][:120]}")
    for p in d["ladder_problems"]:
        print(f"  ladder problem: {p}")
    env = d["env"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, blas threads {env['blas_threads']}, "
          f"calib_s {d['calib_s']:.5f}")
    print(json.dumps({"detail": d}))


def check_names(runs) -> list:
    """Differences between the metrics the runs printed and BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    issues = []
    for run in runs:
        d, got = run["detail"], run["result"]["metrics"]
        expected = want[d["trace"]]
        for name in sorted(set(expected) | set(got)):
            if name not in got:
                issues.append(f"{d['workload']} trace {d['trace']}: {name} missing")
            elif name not in expected:
                issues.append(f"{d['workload']} trace {d['trace']}: {name} not in BENCHMARK.json")
            elif got[name]["unit"] != expected[name]:
                issues.append(f"{d['workload']} trace {d['trace']}: {name} unit "
                              f"{got[name]['unit']} != {expected[name]}")
        if not d["ops"] or not run["result"]["correct"]:
            issues.append(f"{d['workload']} trace {d['trace']}: no ops or not correct")
    return issues


def table(runs) -> None:
    """Every end-to-end metric of every workload, one row each."""
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} unit   samples  tail")
    for run in runs:
        d = run["detail"]
        rows = list(d.get("unbounded", {}).items()) + list(run["result"]["metrics"].items())
        for name, m in rows:
            samples = len(d["setup_samples"]) if name == "setup_s" else d["ops"]
            pct = f"p{d['tail_percentile']:.1f}" if name == "op_tail_s" else ""
            print(f"{d['workload']:16s} {name:12s} {m['value']:12.6g} {m['unit']:6s} "
                  f"{samples:7d}  {pct}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-check: a few ops per workload, both modes, names checked")
    args = parser.parse_args(argv)
    if not args.quick and not args.workload:
        parser.error("--workload is required unless --quick is given")
    if not (SRC / "hodgekit" / "__init__.py").is_file():
        print(f"error: no hodgekit source at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    try:
        if args.quick:
            runs = [run_workload(w, args.seed, 0.0, trace, True)
                    for w in WORKLOADS for trace in (False, True)]
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            runs = [run_workload(w, args.seed, args.seconds, bool(args.trace), False)
                    for w in names]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):  # left in place while another run uses it
            (ROOT / ".bench_work").rmdir()

    for run in runs:
        report(run)
    if args.quick:
        table([r for r in runs if not r["detail"]["trace"]])
        issues = check_names(runs)
        for issue in issues:
            print(f"  self-check: {issue}")
        print(json.dumps({"self_check": "fail" if issues else "pass", "issues": len(issues)}))
        return 1 if issues else 0
    if len(runs) > 1:
        table(runs)
        print(json.dumps({r["detail"]["workload"]: r["result"] for r in runs}))
        return 0
    print(json.dumps(runs[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
