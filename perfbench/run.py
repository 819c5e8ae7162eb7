"""salza benchmark: seeded corpora, the real CLI timed end to end, a traced run per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a source checkout; the program is imported from src/.
Each pass runs the workload's CLI commands one at a time (a closed loop with
one client), each in a fresh interpreter, and checks every output.  Passes
repeat for about S seconds and the end-to-end metrics are medians over
passes.  The timed metrics are CPU seconds (user plus system) of the child
processes.  The CLI's work runs under the GIL, one thread at a time, so
they track its wall time; unlike wall time they leave out the time a shared
host gives the virtual CPUs to other guests, which made wall time too noisy
to bound.  They also leave out the time the CLI's threads wait for each
other, so wall times are printed beside them.  With --trace 1 the run then
makes one more pass under
perfbench/tracer.py at --threads 1 and reports per-layer metrics instead.
--toy shrinks the inputs and also makes the traced pass, comparing every
factorization in it against tests/oracle.py.  The last line of stdout is
the JSON result; the lines before it give every metric by name and unit.
The spans of a traced pass are kept in .bench_work/spans.<workload>.<seed>.json.
With --workload all, each workload runs in turn and the last line sums
their results, with metric names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 60
WORKLOAD_BUDGET_S = 170  # a hung command is killed so that the run still ends within 180 s
SETUP_PROBES = 9

# What every CLI run pays before its first call into lz.
SETUP_PROBE = "import sys\nfrom salza import cli\ncli._read_corpus(tuple(sys.argv[1:]))\n"


class Launcher:
    """Runs child processes through launcher.py, which times them and reports
    their own peak RSS; see there why they are not started from here."""

    def __init__(self, env: dict):
        self.env = env
        self.deadline = time.monotonic() + WORKLOAD_BUDGET_S
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], log: Path) -> dict:
        """Run argv to completion; return launcher.py's reply: code, wall_s, cpu_s, maxrss_mib."""
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic()))
        req = {"argv": argv, "env": self.env, "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs a workload's commands and counts operations: a command plus its check."""

    def __init__(self, wl, work: Path, threads: int, spawn):
        self.wl = wl
        self.spawn = spawn
        self.work = work
        self.threads = threads
        self.log = work / "stderr.log"
        self.attempted = 0
        self.failed = 0
        self.peak_rss = 0.0
        self.digests: dict[str, str] = {}

    def _record(self, cmd, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            try:
                cmd.check()
                for out in cmd.outputs:
                    name, digest = str(out.relative_to(self.work)), sha256(out)
                    if self.digests.setdefault(name, digest) != digest:
                        raise RuntimeError(f"{name}: output bytes differ between passes")
            except Exception as exc:  # a check that cannot run counts as failed too
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            print(f"FAILED {self.wl.name} {cmd.key}: {problem}", file=sys.stderr)

    def _exit_problem(self, code: int) -> str | None:
        return f"exit status {code}: {self.log.read_text(errors='replace')[-400:]}" if code else None

    def timed_pass(self, before_each) -> dict[str, dict[str, float]]:
        """One untraced pass; returns {"wall_s": ..., "cpu_s": ...}, each seconds per command key."""
        times: dict[str, dict[str, float]] = {"wall_s": {}, "cpu_s": {}}
        for cmd in self.wl.commands:
            before_each()
            argv = [sys.executable, "-m", "salza.cli", *cmd.args]
            if cmd.takes_threads:
                argv += ["--threads", str(self.threads)]
            child = self.spawn(argv, self.log)
            self.peak_rss = max(self.peak_rss, child["maxrss_mib"])
            for kind, per_key in times.items():
                per_key[cmd.key] = per_key.get(cmd.key, 0.0) + child[kind]
            self._record(cmd, self._exit_problem(child["code"]))
        return times

    def traced_pass(self, oracle: Path | None) -> tuple[float, list[dict], list[str], dict]:
        """One pass under the tracer at --threads 1.  Returns its wall time, the
        spans, the wrap targets that no longer exist, and the command of each run id."""
        wall, spans, missing, runs = 0.0, [], set(), {}
        for k, cmd in enumerate(self.wl.commands):
            run = f"{self.wl.name}.{k}.{cmd.key}"
            runs[run] = cmd
            out = self.work / f"spans.{k}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(out), run]
            if oracle:
                argv += ["--oracle", str(oracle)]
            argv += ["--", *cmd.args] + (["--threads", "1"] if cmd.takes_threads else [])
            child = self.spawn(argv, self.log)
            wall += child["wall_s"]
            problem = self._exit_problem(child["code"])
            if out.is_file():
                trace = json.loads(out.read_text())
                spans += trace["spans"]
                missing.update(trace["missing"])
                if trace["oracle_mismatches"]:
                    problem = f"{trace['oracle_mismatches']} factorizations differ from the oracle"
            else:
                problem = problem or "tracer wrote no spans"
            self._record(cmd, problem)
        return wall, spans, sorted(missing), runs


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over src/salza's Python files; identifies checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "salza").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class SetupProbe:
    """Times fresh interpreters importing salza.cli and reading the corpus.

    Probes are spread over the run, one before each timed command, so that
    they sample the same machine conditions as the commands do."""

    def __init__(self, files: list[Path], log: Path, spawn):
        self.spawn = spawn
        self.argv = [sys.executable, "-c", SETUP_PROBE, *map(str, files)]
        self.log = log
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def __call__(self) -> None:
        child = self.spawn(self.argv, self.log)
        if child["code"]:
            raise RuntimeError(f"setup probe exited {child['code']}: "
                               f"{self.log.read_text(errors='replace')[-400:]}")
        self.walls.append(child["wall_s"])
        self.cpus.append(child["cpu_s"])


def run_workload(name: str, args, declared: dict, oracle: Path | None, spawn) -> dict:
    """Run one workload, print its metrics by name and unit, and return its result."""
    import numpy
    import layers
    import workloads

    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".bench_work" / f"{name}.{args.seed}.{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl, synth_s = workloads.prepare(name, work, args.seed, args.toy)
        probe = SetupProbe(wl.inputs, work / "probe.log", spawn)
        probe()  # warms the file cache and byte-code
        probe.walls.clear()
        probe.cpus.clear()

        runner = Runner(wl, work, threads, spawn)
        timed: list[dict[str, dict[str, float]]] = []
        start = time.perf_counter()
        while True:
            timed.append(runner.timed_pass(probe))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(timed) > args.seconds:  # the next pass would overrun
                break
        while len(probe.walls) < SETUP_PROBES:
            probe()
        pass_walls = [sum(p["wall_s"].values()) for p in timed]
        pass_cpus = [sum(p["cpu_s"].values()) for p in timed]
        wall_s = statistics.median(pass_walls)
        passes, probes = f"median of {len(timed)} passes", f"median of {len(probe.cpus)} probes"
        end_to_end = {
            "cpu_s": layers.Metric(statistics.median(pass_cpus), "s", f"CLI user+system CPU, {passes}"),
            "wall_s": layers.Metric(wall_s, "s", f"CLI wall, {passes}"),
            "setup_s": layers.Metric(statistics.median(probe.cpus), "s", f"user+system CPU, {probes}"),
            "setup_wall_s": layers.Metric(statistics.median(probe.walls), "s", f"wall, {probes}"),
            "peak_rss_mib": layers.Metric(runner.peak_rss, "MiB", "max ru_maxrss over CLI processes"),
        }
        per_layer, missing = {}, []
        if args.trace or args.toy:
            traced_wall, spans, missing, runs = runner.traced_pass(oracle if args.toy else None)
            (work.parent / f"spans.{name}.{args.seed}.json").write_text(json.dumps(spans))
            per_layer = layers.layer_metrics(wl, spans, runs, [p["wall_s"] for p in timed],
                                             traced_wall, wall_s, synth_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": name, "seed": args.seed, "toy": args.toy, "git_revision": git_revision(),
        "src_sha256": source_digest(), "nproc": threads, "workers": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "inputs": wl.input_bytes, "pass_wall_s": pass_walls, "pass_cpu_s": pass_cpus,
        "setup_probe_wall_s": probe.walls, "setup_probe_cpu_s": probe.cpus,
    }
    print("meta " + json.dumps(meta))
    for target in missing:
        print(f"{name} missing wrap target {target}")
    for out, digest in sorted(runner.digests.items()):
        print(f"{name} sha256 {digest} {out}")
    for metric, m in {**end_to_end, **per_layer}.items():
        value = "missing" if m.value is None else f"{m.value:.6g}"
        print(f"{name} {metric} {value} {m.unit}" + (f"  ({m.note})" if m.note else ""))
    print(f"{name} error_rate {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} operations)")

    chosen, kind = (per_layer, "per_layer") if args.trace else (end_to_end, "end_to_end")
    metrics = {spec["name"]: {"value": chosen[spec["name"]].value, "unit": spec["unit"]}
               for spec in declared[kind]
               if spec["name"] in chosen and chosen[spec["name"]].value is not None}
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs; the oracle checks every factorization")
    args = ap.parse_args()

    if not (SRC / "salza" / "cli.py").is_file():
        print(f"error: no salza sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    oracle = ROOT / "tests" / "oracle.py"
    if args.toy and not oracle.is_file():
        print(f"error: --toy needs {oracle}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; one of {sorted(workloads.WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = {}
    launcher = Launcher(dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        for name in names:
            launcher.deadline = time.monotonic() + WORKLOAD_BUDGET_S
            results[name] = run_workload(name, args, declared, oracle, launcher.spawn)
            if len(names) > 1:
                print(f"result {name} " + json.dumps(results[name]))
    finally:
        launcher.close()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
