#!/usr/bin/env python3
"""Step-ledger benchmark: seconds per BD step at a stated accuracy.

Runs full MatrixFreeBdSimulation::step loops (stepbench/bench_step.cpp) on
the workloads of BENCHMARK.json, one process per run with OMP_NUM_THREADS
fixed by the workload, and checks the physics of every run.

    python3 stepbench/run_bench.py                 # every workload, seed 2014
    python3 stepbench/run_bench.py --traced        # ... plus the layer ledger
    python3 stepbench/run_bench.py --runs 3 --out a.json
    python3 stepbench/run_bench.py --compare a.json b.json
    python3 stepbench/run_bench.py --workload krylov --seed 7 --seconds 40 --trace 0
    python3 stepbench/run_bench.py --smoke         # small n, all workloads

The program is built from the checkout's sources into
$CARGO_TARGET_DIR/stepbench (default .bench_build/stepbench).  With
--workload the last line of stdout is one JSON object: correct, attempted,
failed and the end-to-end metrics (--trace 0) or the per-layer ledger
metrics (--trace 1).  Result sets and traces go to .bench_results/.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / ".bench_results"
# A harness invocation (--workload) must end within 180 s of its start,
# build excluded; main() sets the deadline.
deadline = None

# Workload → bench_step configuration.  A run measures windows until their
# wall reaches --seconds, so its length does not grow on a slow host; the
# window count it reached goes into the record, and the trajectory, every
# accuracy check and the final-position hash depend only on the seed and
# that count.  `setups` is the number of timed set-ups per untraced run
# (setup_s is their median): more where one set-up is short, so that
# setup_s rests on at least ~0.7 s of set-up work everywhere.
WORKLOADS = {
    "krylov": {"tier": "pme_krylov", "n": 1000, "threads": 2, "setups": 15},
    "wavespace": {"tier": "pse_wavespace", "n": 4000, "threads": 2,
                  "setups": 5},
}
SMOKE_N = 200
UNATTRIBUTED_CEILING = 0.05  # traced runs: wall share no span covers

# Accuracy ceilings.  e_p: the paper's PME bound for the PME tiers, TEA's
# declared error for tea.  Short-time self-diffusion: 3%, or four standard
# errors of the estimator where the run is too short to resolve 3%.
EP_CEILING = {"pme_krylov": 5e-3, "pse_wavespace": 5e-3, "tea": 5e-2}
D_SHORT_CEILING = 0.03
D_SHORT_SIGMAS = 4.0


class BenchError(Exception):
    pass


# ---- Building ---------------------------------------------------------------

def build():
    """Builds bench_step from the checkout's sources; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no hydrobd sources under {ROOT}: nothing to build")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "stepbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log, "w") as logf:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(PKG), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "bench_step",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                logf.flush()
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "bench_step"


# ---- One bench_step process ---------------------------------------------------

def bench_env(threads):
    """The caller's environment without HBD_* switches (telemetry, probes and
    counters stay at their defaults), with the workload's thread count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HBD_")}
    env["OMP_NUM_THREADS"] = str(threads)
    return env


def run_step(binary, wl, seed, seconds, setups=0, n=None, trace_out=None):
    cmd = [str(binary), "--tier", wl["tier"], "--n", str(n or wl["n"]),
           "--seconds", str(seconds), "--setups", str(setups),
           "--seed", str(seed)]
    if trace_out:
        cmd += ["--traced", "--trace-out", str(trace_out)]
    timeout = 170.0 if deadline is None else deadline - time.monotonic()
    proc = subprocess.run(cmd, env=bench_env(wl["threads"]),
                          capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    res = json.loads(proc.stdout)
    if not res["window_s"]:
        raise BenchError(f"{' '.join(cmd)} completed no window: "
                         f"{proc.stderr.strip()}")
    return res


def step_s(res):
    return statistics.median(res["window_s"]) / res["lambda_rpy"]


def unattributed_frac(ledger):
    return statistics.fmean(
        u / w for u, w in zip(ledger["unattributed_s"], ledger["wall_s"]))


def checks(res):
    """Accuracy and failure checks of one bench_step result: name → (value,
    ceiling, passed).  A traced result also checks that the driver's spans
    cover its wall time."""
    ep = res["ep"]
    dev, se = res["d_short_dev"], res["d_short_se"]
    d_ceiling = max(D_SHORT_CEILING, D_SHORT_SIGMAS * (se or 0.0))
    fail_frac = res["steps_failed"] / res["steps_attempted"]
    ep_ceiling = EP_CEILING[res["tier"]]
    out = {
        "ep": (ep, ep_ceiling, ep is not None and ep <= ep_ceiling),
        "d_short_err": (None if dev is None else abs(dev), d_ceiling,
                        dev is not None and abs(dev) <= d_ceiling),
        "fail_frac": (fail_frac, 0.0, fail_frac == 0.0),
    }
    if "ledger" in res:
        u = unattributed_frac(res["ledger"])
        out["unattributed"] = (u, UNATTRIBUTED_CEILING,
                               u <= UNATTRIBUTED_CEILING)
    return out


# ---- Provenance ---------------------------------------------------------------

def l3_bytes():
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text()
    except OSError:
        return None
    size = size.strip()
    scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
    return int(size.rstrip("KM")) * scale


def provenance(wl, load_before, res):
    return {
        "manifest": res["manifest"],
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "threads": wl["threads"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg()[0],
    }


def warn_if_loaded(wl):
    load = os.getloadavg()[0]
    free = (os.cpu_count() or 1) - wl["threads"]
    if load > free:
        print(f"warning: load average {load:.2f} > nproc - threads = {free}; "
              "timings will be noisy", file=sys.stderr)
    return load


# ---- Runs ---------------------------------------------------------------------

def measure(binary, name, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    wl = WORKLOADS[name]
    load = warn_if_loaded(wl)
    res = run_step(binary, wl, seed, seconds, setups=wl["setups"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = {"step_s": step_s(res),
              "setup_s": statistics.median(res["setup_s"]),
              "peak_rss_mb": res["peak_rss_mb"]}
    return report(name, seed, seconds, 0, res, values, units,
                  provenance(wl, load, res))


def measure_traced(binary, name, seed, seconds):
    """Traced run: the same steps, with the layer ledger."""
    wl = WORKLOADS[name]
    load = warn_if_loaded(wl)
    trace_dir = RESULTS / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{name}-seed{seed}.json"
    res = run_step(binary, wl, seed, seconds, trace_out=trace_file)
    ledger, lam = res["ledger"], res["lambda_rpy"]
    # Seconds per step of each layer, and counts per window, averaged over
    # the windows: the layers' seconds sum to the mean step wall.
    values = {}
    for key, series in ledger.items():
        if key in ("wall_s", "unattributed_s"):
            continue
        scale = lam if key.endswith("_s") else 1
        values[key] = statistics.fmean(series) / scale
    values["ledger.unattributed_frac"] = unattributed_frac(ledger)
    values["core.mobility_mb"] = res["mobility_mb"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    prov = provenance(wl, load, res)
    prov["trace_file"] = str(trace_file.relative_to(ROOT))
    if res["model_step_s"] is not None:
        print(f"  {name}: measured step_s {step_s(res):.4f} s, "
              f"Eq. 10-11 model (cpu_only) {res['model_step_s']:.4f} s")
    return report(name, seed, seconds, 1, res, values, units, prov)


def report(name, seed, seconds, trace, res, values, units, prov):
    """One run's record: metrics, checks and provenance."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    chk = checks(res)
    failures = [k for k, (_, _, ok) in chk.items() if not ok]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not failures, "failures": failures,
        "attempted": int(res["steps_attempted"]),
        "failed": int(res["steps_failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "checks": {k: {"value": v, "ceiling": c, "ok": ok}
                   for k, (v, c, ok) in chk.items()},
        "detail": {"setup_s": res["setup_s"], "window_s": res["window_s"],
                   "windows": len(res["window_s"]),
                   "d_short_dev": res["d_short_dev"],
                   "d_short_se": res["d_short_se"],
                   "sample_iters": res["sample_iters"],
                   "model_step_s": res["model_step_s"],
                   "traj_hash": res["traj_hash"]},
        "provenance": prov,
    }


def print_run(run):
    print(f"{run['workload']} seed {run['seed']} "
          f"({run['detail']['windows']} windows, trace {run['trace']}):")
    for k, m in run["metrics"].items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    for k, c in run["checks"].items():
        value = "n/a" if c["value"] is None else f"{c['value']:.3g}"
        print(f"  check {k:22s} {value} (ceiling {c['ceiling']:.3g}) "
              f"{'ok' if c['ok'] else 'FAILED'}")
    print(f"  traj_hash {run['detail']['traj_hash']}")


# ---- Comparison (choosing-metrics §8) -------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, better, bound):
    """Verdict for the runs B against the runs A on one metric."""
    if better == "higher":  # compare in lower-is-better terms
        a, b = [-x for x in a], [-x for x in b]
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    wins = sum(y < x for x, y in zip(a, b))
    if ma - mb > q3a - q1a and wins >= 0.9 * min(len(a), len(b)):
        return "better"
    if q3a - q1a > bound * abs(ma) or q3b - q1b > bound * abs(mb):
        # Too noisy to bound, unless every run of B beats every run of A.
        return "better" if max(b) < min(a) else "unresolved"
    return "worse" if mb - ma > bound * abs(ma) else "within bound"


def exact_value(run, key):
    return run["detail"]["traj_hash"] if key == "traj_hash" \
        else run["checks"][key]["value"]


def compare(path_a, path_b):
    runs_a = json.loads(Path(path_a).read_text())["runs"]
    runs_b = json.loads(Path(path_b).read_text())["runs"]
    ok = True
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':14s} {'metric':14s} {'A q1/med/q3':>30s} "
          f"{'B q1/med/q3':>30s}  verdict")
    for name in WORKLOADS:
        a = [r for r in runs_a if r["workload"] == name and r["trace"] == 0]
        b = [r for r in runs_b if r["workload"] == name and r["trace"] == 0]
        if not a or not b:
            continue
        for m in SPEC["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            v = verdict(va, vb, m["better"], m["bound"])
            ok &= v != "worse"
            qa = "/".join(f"{x:.4g}" for x in quartiles(va))
            qb = "/".join(f"{x:.4g}" for x in quartiles(vb))
            print(f"{name:14s} {m['name']:14s} {qa:>30s} {qb:>30s}  {v} "
                  f"(bound {m['bound']:.0%})")
        # Accuracy and trajectories depend only on the seed and the window
        # count: every run of one code with the same pair must agree.
        for key in ("ep", "d_short_err", "fail_frac", "traj_hash"):
            seen = {}
            for r in a + b:
                seen.setdefault((r["seed"], r["detail"]["windows"]),
                                set()).add(exact_value(r, key))
            same = all(len(v) == 1 for v in seen.values())
            ok &= same
            print(f"{name:14s} {key:14s} {len(a) + len(b)} runs, "
                  f"{len(seen)} (seed, windows) pair(s): "
                  f"{'identical' if same else 'DIFFERENT'}")
    return ok


# ---- Entry points -------------------------------------------------------------

def smoke(binary):
    """Every workload at small n, one traced window each: the accuracy
    checks hold and the driver's spans still cover the step."""
    ok = True
    for name, wl in WORKLOADS.items():
        t0 = time.time()
        res = run_step(binary, wl, 2014, 0, n=SMOKE_N,
                       trace_out=RESULTS / f"smoke-{name}.json")
        failed = [k for k, (_, _, good) in checks(res).items() if not good]
        ok &= not failed
        print(f"{name:14s} n={SMOKE_N} {time.time() - t0:5.1f}s "
              f"{'ok' if not failed else 'FAILED ' + ' '.join(failed)}")
    return ok


def write_runs(path, runs):
    """A result set: the input of --compare."""
    path.write_text(json.dumps({"schema": "stepbench.results.v1",
                                "runs": runs}, indent=1) + "\n")
    print(f"wrote {path}")


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2014)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--traced", action="store_true",
                    help="also run the traced ledger of every workload")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload (workloads interleaved)")
    ap.add_argument("--out", help="result set JSON (default under "
                    ".bench_results/)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="prebuilt bench_step (skips the build)")
    args = ap.parse_args()

    try:
        if args.compare:
            return 0 if compare(*args.compare) else 1
        binary = Path(args.binary) if args.binary else build()
        RESULTS.mkdir(exist_ok=True)
        if args.smoke:
            return 0 if smoke(binary) else 1
        if args.workload:
            deadline = time.monotonic() + 170.0
            trace = args.trace or 0
            fn = measure_traced if trace else measure
            run = fn(binary, args.workload, args.seed, args.seconds)
            print_run(run)
            write_runs(RESULTS / f"run-{args.workload}-seed{args.seed}-"
                       f"trace{trace}-{time.strftime('%Y%m%d-%H%M%S')}.json",
                       [run])
            print(json.dumps({"correct": run["correct"],
                              "attempted": run["attempted"],
                              "failed": run["failed"],
                              "metrics": run["metrics"]}))
            return 0
        runs = []
        for _ in range(args.runs):
            for name in WORKLOADS:
                runs.append(measure(binary, name, args.seed, args.seconds))
                print_run(runs[-1])
                if args.traced:
                    runs.append(measure_traced(binary, name, args.seed,
                                               args.seconds))
                    print_run(runs[-1])
        write_runs(Path(args.out) if args.out else
                   RESULTS / f"results-seed{args.seed}-"
                   f"{time.strftime('%Y%m%d-%H%M%S')}.json", runs)
        bad = [f"{r['workload']}:{','.join(r['failures'])}"
               for r in runs if not r["correct"]]
        if bad:
            print("FAILED checks: " + " ".join(bad), file=sys.stderr)
        return 1 if bad else 0
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"run_bench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
