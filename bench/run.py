"""wulff-lab benchmark.

    python3 bench/run.py --workload <flow-curve|flow-sphere|deficits>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Items are driven in-process through
`wulff_lab.cli.run`, one config at a time (a closed loop with one client),
with BLAS pinned to one thread.  The workload's items are repeated in rounds
until `--seconds` have passed and at least two rounds are done.  Every item
is gated on exit code 0, its acceptance tolerances and a byte-identical
repeat of its outputs.

--trace 0 reports the end-to-end metrics: wall and CPU time as the median of
each item's repeats summed over the items, the median item time, set-up time
(median of fresh-process import plus norm, grid and Wulff construction) and
peak RSS.  --trace 1 alternates untraced rounds with rounds traced at the
module boundaries (see tracer.py), at least one of each, and reports the
per-layer metrics of the traced rounds.  The metric names and
units are those declared in BENCHMARK.json; the last line of standard output
is the JSON result.  Run files (configs, outputs, spans, result.json) go to
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin BLAS to one thread before numpy is first imported (by tracer below).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from items import (WORKLOADS, build_items, gate,  # noqa: E402
                   perimeter_residual, sphere_rel_err)
from tracer import (COUNT_METRICS, Tracer, function_table,  # noqa: E402
                    layer_metrics, reconcile, table_delta)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 2
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, 'src'); import wulff_lab.cli; "
                "print(time.perf_counter() - t)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------- environment


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args, loadavg):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------- setup


def _construct(items):
    """Build the norm, grid and Wulff shape of every distinct item spec."""
    from wulff_lab.minkowski import make_wulff, norm_from_spec
    from wulff_lab.sphere_grid import make_grid
    specs = {}
    for item in items:
        grid = item.config["grid"]
        key = json.dumps([item.config["norm"], grid], sort_keys=True)
        specs[key] = (item.config["norm"], grid["dim"], grid["resolution"])
    t0 = time.perf_counter()
    for norm, dim, res in specs.values():
        make_wulff(norm_from_spec(norm), make_grid(dim, res))
    return time.perf_counter() - t0


def _setup_seconds(items):
    """Median over repeats of (fresh-process import time + construction)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               capture_output=True, text=True, timeout=120,
                               check=True)
        samples.append(float(probe.stdout.split()[-1]) + _construct(items))
    return statistics.median(samples)


# -------------------------------------------------------------------- loop


class Bench:
    """Closed-loop runner of one workload's items through cli.run."""

    def __init__(self, cli, items, work):
        self.cli = cli
        self.items = items
        self.work = work
        self.digests = {}
        self.attempted = 0
        self.failed = 0                  # item runs with at least one failure
        self.failures = []               # (item name, reason)
        self.walls = {i.name: [] for i in items}
        self.cpus = {i.name: [] for i in items}
        self.traced_walls = {i.name: [] for i in items}
        self.item_functions = {}         # per-item function table, last traced round
        self.summaries = {}
        (work / "cfg").mkdir(parents=True)
        for item in items:
            (work / "cfg" / f"{item.name}.json").write_text(
                json.dumps(item.config, indent=1, sort_keys=True))

    def _run_item(self, item):
        """Run one item; returns (wall, cpu, summary or None, bytes)."""
        out = self.work / "out" / item.name
        shutil.rmtree(out, ignore_errors=True)
        cfg = str(self.work / "cfg" / f"{item.name}.json")
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = self.cli.run(item.task, cfg, str(out))
            except Exception:  # an item that crashes is a failed item
                traceback.print_exc()
                code = "exception"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if code != 0:
            self.failures.append((item.name, f"exit code {code}"))
            return wall, cpu, None, 0
        files = sorted(p for p in out.iterdir() if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        first = self.digests.setdefault(item.name, digest.hexdigest())
        if first != digest.hexdigest():
            self.failures.append((item.name, "outputs differ between repeats"))
        summary = json.loads((out / "summary.json").read_text())
        self.failures += [(item.name, miss) for miss in gate(item, summary)]
        self.summaries[item.name] = summary
        return wall, cpu, summary, sum(p.stat().st_size for p in files)

    def round(self):
        for item in self.items:
            n_failures = len(self.failures)
            wall, cpu, _, _ = self._run_item(item)
            self.failed += len(self.failures) > n_failures
            self.walls[item.name].append(wall)
            self.cpus[item.name].append(cpu)

    def traced_round(self, tracer):
        """One round under the tracer; returns the bytes the items wrote."""
        written = 0
        with tracer.installed():
            for item in self.items:
                tracer.item = item.name
                before = function_table(tracer)
                n_asym = len(tracer.asymmetry)
                n_failures = len(self.failures)
                wall, _, summary, nbytes = self._run_item(item)
                self.traced_walls[item.name].append(wall)
                written += nbytes
                table = table_delta(before, function_table(tracer))
                self.item_functions[item.name] = table
                if summary is not None:
                    counts = {k: v["calls"] for k, v in table.items()}
                    self.failures += [
                        (item.name, f"trace: {miss}") for miss in reconcile(
                            item, summary, counts, tracer.asymmetry[n_asym:])]
                self.failed += len(self.failures) > n_failures
        return written


def _sum_of_medians(samples):
    """Sum over items of the median of each item's repeats."""
    return sum(statistics.median(v) for v in samples.values())


def _accuracy(items, summaries):
    """Acceptance readbacks: worst value over the items that have one."""
    flows = [i for i in items if i.task == "flow"]
    spheres = [i for i in flows if i.sphere_r0 is not None]
    return {
        "iamcf.q_max_increment": max(
            (summaries[i.name]["results"]["monotonicity"]["max_increment"]
             for i in flows), default=0.0),
        "iamcf.perimeter_residual": max(
            (perimeter_residual(summaries[i.name]) for i in flows), default=0.0),
        "iamcf.sphere_rel_err": max(
            (sphere_rel_err(i, summaries[i.name]) for i in spheres), default=0.0),
    }


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    loadavg = os.getloadavg()
    args = _parse(argv)
    if not (SRC / "wulff_lab" / "__init__.py").is_file():
        print(f"error: no wulff_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wulff_lab.cli as cli

    end_to_end, per_layer = _declared()
    env = _environment(args, loadavg)
    items = build_items(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s = _setup_seconds(items)
    bench = Bench(cli, items, work)
    flow_time = sum(i.flow_time for i in items)
    layer_rounds = []
    # a traced run repeats every item too: once untraced, once traced
    min_rounds = 1 if args.trace else MIN_ROUNDS
    t_start = time.perf_counter()
    rounds = 0
    while True:
        bench.round()
        rounds += 1
        if args.trace:
            tracer = Tracer()
            written = bench.traced_round(tracer)
            layer_rounds.append(layer_metrics(tracer, flow_time, written))
        if (rounds >= min_rounds
                and time.perf_counter() - t_start >= args.seconds):
            break
    failed_frac = bench.failed / bench.attempted
    self_checks = []
    if args.trace:
        tracer.write_spans(work / "spans.csv")
        for key in COUNT_METRICS:
            if len({m[key] for m in layer_rounds}) > 1:
                self_checks.append(f"{key} differs between traced rounds")
        # counts repeat exactly (checked above); times are medians
        metrics = {k: (v if k in COUNT_METRICS else
                       statistics.median(m[k] for m in layer_rounds))
                   for k, v in layer_rounds[0].items()}
        metrics.update(_accuracy(items, bench.summaries))
        metrics["bench.trace_overhead_frac"] = (
            _sum_of_medians(bench.traced_walls) / _sum_of_medians(bench.walls)
            - 1.0)
        metrics["bench.failed_frac"] = failed_frac
        declared = per_layer
    else:
        all_walls = [w for ws in bench.walls.values() for w in ws]
        metrics = {
            "wall_s": _sum_of_medians(bench.walls),
            "cpu_s": _sum_of_medians(bench.cpus),
            "item_s_p50": statistics.median(all_walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = end_to_end
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 3

    for name, reason in bench.failures:
        print(f"FAIL {name}: {reason}", file=sys.stderr)
    for msg in self_checks:
        print(f"SELF-CHECK {msg}", file=sys.stderr)
    record = {"env": env, "rounds": rounds, "attempted": bench.attempted,
              "failures": bench.failures, "self_checks": self_checks,
              "item_walls": bench.walls, "metrics": metrics}
    if args.trace:
        record["functions"] = function_table(tracer)
        record["item_functions"] = bench.item_functions
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"items {len(items)}, rounds {rounds}, attempted {bench.attempted}, "
          f"failed {bench.failed}, failed_frac {failed_frac!r}")
    for name in declared:
        print(f"{name} = {metrics[name]!r} {declared[name]}")
    print(json.dumps({
        "correct": not bench.failures and not self_checks,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]}
                    for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
