"""mobcast benchmark: closed-loop CLI workloads timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-n400 --seed 1 \\
        --seconds 36 --trace 0

One client runs the workload's CLI steps in order, each as its own
``python -m mobcast`` process started after the previous one exits, and
repeats the whole workload until the next repetition would end past
``--seconds`` (at least two repetitions). Every step's artifacts are
checked, and their sha256 digests must repeat across repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes three
passes instead: one untraced pass as above (per-step wall time and CPU),
one untraced in-process pass with ``--jobs 1``, and one in-process pass
with ``--jobs 1`` under the wrappers of ``tracing.py`` (per-layer
metrics; the ratio of the two in-process passes is the tracing
overhead). The artifacts of all three passes must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed and 1 when one failed; when the benchmark cannot
run at all (no ``src/mobcast`` beside it) it prints no result and exits 2.
Facts about the machine, the argv of every
step and all digests go to ``.perfbench/results/`` in the repository
root, the spans of a traced run beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

from checks import check_step
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_LAUNCHES = 11
MIN_REPETITIONS = 2


@dataclass(frozen=True)
class Step:
    command: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                  # preset name, or a file under perfbench/
    steps: tuple[Step, ...]
    expected_degree: float | None = None

    def scenario_ref(self) -> str:
        if self.scenario.endswith(".cfg"):
            return os.path.join(BENCH, self.scenario)
        return self.scenario

    def load(self):
        """The workload's scenario, parsed by the package under test."""
        from mobcast.scenario import load_scenario, preset_scenario
        ref = self.scenario_ref()
        return load_scenario(ref) if ref.endswith(".cfg") \
            else preset_scenario(ref)


WORKLOADS = {w.name: w for w in (
    Workload("hypothesis-suite", "ama-default", (
        Step("falsify", ("--jobs", "2")),
        Step("calibrate", ("--meta-reps", "40", "--jobs", "2")),
    )),
    Workload("pipeline-n400", "ama-default", (
        Step("simulate", ("--trace", "--jobs", "2")),
        Step("optimize", ("--jobs", "2")),
        Step("game", ("--jobs", "2")),
        Step("estimate", ("--reps", "300")),
    )),
    Workload("scale-n10k", "scale-n10k.cfg", (
        Step("generate", ("--jobs", "1")),
        Step("simulate", ("--jobs", "1")),
        Step("optimize", ("--jobs", "1")),
    ), expected_degree=16.5),
)}

SUBCOMMANDS = ("generate", "simulate", "optimize", "game", "estimate",
               "falsify", "calibrate")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("scenario.derive_stream.calls", "count"),
    ("scenario.derive_stream.self_s", "s"),
    ("graph.generate_network.calls", "count"),
    ("graph.generate_network.self_s", "s"),
    ("graph.generate_network.edges_per_s", "1/s"),
    ("graph.save_edge_list.self_s", "s"),
    ("diffusion.CascadeEngine.compile.calls", "count"),
    ("diffusion.CascadeEngine.compile.self_s", "s"),
    ("diffusion.CascadeEngine.run.calls", "count"),
    ("diffusion.CascadeEngine.run.self_s", "s"),
    ("diffusion.CascadeEngine.run.us_per_attempt", "us"),
    ("diffusion.rounds", "count"),
    ("diffusion.attempts", "count"),
    ("diffusion.successes", "count"),
    ("diffusion.edge_success_ratio", "ratio"),
    ("impact.score_cascade.calls", "count"),
    ("impact.score_cascade.self_s", "s"),
    ("affect.measure_items.calls", "count"),
    ("affect.measure_items.self_s", "s"),
    ("design.optimize.self_s", "s"),
    ("design.replicate_design.calls", "count"),
    ("design.replicate_design.self_s", "s"),
    ("game.JointCascadeEngine.compile.self_s", "s"),
    ("game.JointCascadeEngine.run.calls", "count"),
    ("game.JointCascadeEngine.run.self_s", "s"),
    ("game.payoff.calls", "count"),
    ("game.payoff.self_s", "s"),
    ("estimate.build_panel.self_s", "s"),
    ("estimate.write_panel_csv.self_s", "s"),
    ("estimate.write_panel_csv.bytes", "B"),
    ("estimate.read_panel_csv.self_s", "s"),
    ("estimate.fit_logistic.calls", "count"),
    ("estimate.fit_logistic.self_s", "s"),
    ("estimate.fit_logistic.iterations", "count"),
    ("estimate.fit_logistic.rows", "count"),
    ("estimate.factor_scores.self_s", "s"),
    ("estimate.factor_scores.iterations", "count"),
    ("estimate.fit_affect_ols.self_s", "s"),
    ("falsify.run_test.calls", "count"),
    ("falsify.run_test.self_s", "s"),
    ("falsify.calibrate.self_s", "s"),
    ("stats.self_s", "s"),
    *((f"cli.run_{c}.self_s", "s") for c in SUBCOMMANDS),
    ("cli.artifact_bytes", "B"),
    ("cli.cpu_s", "s"),
    ("cli.cpu_per_wall", "ratio"),
    *((f"{c}_s", "s") for c in SUBCOMMANDS),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

STATS_SPANS = ("stats.welch_t_test", "stats.holm_adjust", "stats.slope_test",
               "stats.wilson_interval")


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a failed output check)."""


def step_argv(workload: Workload, step: Step, seed: int, out: str,
              jobs: str | None = None) -> list[str]:
    """CLI argv of one step; `jobs` replaces the step's --jobs value."""
    flags = list(step.flags)
    if jobs is not None and "--jobs" in flags:
        flags[flags.index("--jobs") + 1] = jobs
    return [step.command, "--scenario", workload.scenario_ref(),
            "--seed", str(seed), "--out", out, *flags]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def log_tail(path: str, lines: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def launch(argv: list[str], log_path: str) -> tuple[int, float, object]:
    """Run `python argv` to exit; (exit code, wall seconds, rusage).

    The rusage from wait4 covers the child and every descendant it waited
    for, such as pool workers. The child leads its own process group, so
    an interrupted benchmark stops the child's workers too.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=child_env(), stdout=log, stderr=log,
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


@dataclass
class StepRun:
    command: str
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    digests: dict[str, str]


class Runner:
    """Runs passes of one workload at one seed and keeps every step."""

    def __init__(self, workload: Workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.passes: list[tuple[str, list[StepRun]]] = []
        self.reference: dict[str, str] = {}

    def _finish(self, step: Step, out: str, argv, rc, wall, cpu, rss,
                error=None) -> StepRun:
        if rc != 0:
            problems = [f"exit code {rc}" + (f": {error}" if error else "")]
            digests = {}
        else:
            problems, digests = check_step(step.command, step.flags, out,
                                           self.seed,
                                           self.workload.expected_degree)
        for name, digest in digests.items():
            key = f"{step.command}/{name}"
            if self.reference.setdefault(key, digest) != digest:
                problems.append(f"{name}: sha256 differs from the first "
                                f"pass at this seed")
        return StepRun(step.command, argv, wall, cpu, rss, problems, digests)

    def subprocess_pass(self, label: str) -> tuple[float, list[StepRun]]:
        """Every step as its own process; wall time of the whole pass."""
        pass_dir = os.path.join(self.work, label)
        planned = []
        for step in self.workload.steps:
            out = os.path.join(pass_dir, step.command)
            os.makedirs(out)
            planned.append((step, out, ["-m", "mobcast", *step_argv(
                self.workload, step, self.seed, out)]))
        timed = []
        start = time.perf_counter()
        for step, out, argv in planned:
            timed.append(launch(argv, os.path.join(out, "log.txt")))
        wall = time.perf_counter() - start
        runs = [self._finish(step, out, argv, rc, w,
                             u.ru_utime + u.ru_stime, u.ru_maxrss / 1024.0,
                             rc and log_tail(os.path.join(out, "log.txt")))
                for (step, out, argv), (rc, w, u) in zip(planned, timed)]
        self.passes.append((label, runs))
        shutil.rmtree(pass_dir)
        return wall, runs

    def inprocess_pass(self, label: str, tracer=None
                       ) -> tuple[float, list[StepRun]]:
        """Every step through mobcast.cli.main in this process, --jobs 1."""
        import mobcast.cli
        pass_dir = os.path.join(self.work, label)
        runs = []
        wall = 0.0
        for step in self.workload.steps:
            out = os.path.join(pass_dir, step.command)
            os.makedirs(out)
            argv = step_argv(self.workload, step, self.seed, out, jobs="1")
            error = None
            sink = io.StringIO()
            span = tracer.span("cli.main", step=step.command) if tracer \
                else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), span:
                    rc = mobcast.cli.main(argv)
            except Exception as exc:  # the step failed; keep measuring
                rc, error = 1, repr(exc)
            elapsed = time.perf_counter() - start
            wall += elapsed
            runs.append(self._finish(step, out, argv, rc, elapsed, 0.0, 0.0,
                                     error))
        self.passes.append((label, runs))
        if tracer is not None:
            tracer.counts["cli.artifact_bytes"] += sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(pass_dir) for f in files)
        shutil.rmtree(pass_dir)
        return wall, runs

    def problems(self) -> list[str]:
        return [f"{label}/{run.command}: {p}" for label, runs in self.passes
                for run in runs for p in run.problems]

    def counts(self) -> tuple[int, int]:
        """(steps attempted, steps failed)."""
        runs = [run for _, runs in self.passes for run in runs]
        return len(runs), sum(1 for run in runs if run.problems)


def measure_setup(workload: Workload, seed: int, log: str) -> list[float]:
    """Wall time of fresh interpreters that import mobcast.cli, then load
    and validate the workload's scenario at the seed."""
    ref = workload.scenario_ref()
    code = ("import sys, dataclasses, mobcast.cli as c\n"
            "ref = sys.argv[1]\n"
            "s = c.load_scenario(ref) if ref.endswith('.cfg') "
            "else c.preset_scenario(ref)\n"
            "dataclasses.replace(s, master_seed=int(sys.argv[2])).validate()\n")
    times = []
    for _ in range(SETUP_LAUNCHES):
        rc, wall, _ = launch(["-c", code, ref, str(seed)], log)
        if rc != 0:
            raise BenchmarkError(f"scenario set-up failed: {log_tail(log)}")
        times.append(wall)
    return times


def timed_metrics(runner: Runner, seconds: float, log: str
                  ) -> tuple[dict, dict]:
    """End-to-end metrics, and the samples they are medians of."""
    setup = measure_setup(runner.workload, runner.seed, log)
    walls, peaks = [], []
    start = time.perf_counter()
    while True:
        wall, runs = runner.subprocess_pass(f"rep{len(walls)}")
        walls.append(wall)
        peaks.append(max(run.rss_mb for run in runs))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPETITIONS and \
                elapsed + statistics.median(walls) > seconds:
            break
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
    }, {"wall_s": walls, "setup_s": setup, "peak_rss_mb": peaks}


def layer_metrics(totals: dict, counts: dict) -> dict:
    """Per-layer metrics from {span name: [calls, self seconds]}."""
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def own(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            m[name] = calls(name[:-len(".calls")])
        elif name.endswith(".self_s") and name != "stats.self_s":
            m[name] = own(name[:-len(".self_s")])
    m["graph.generate_network.edges_per_s"] = ratio(
        counts["graph.generate_network.edges"],
        own("graph.generate_network"))
    m["diffusion.CascadeEngine.run.us_per_attempt"] = 1e6 * ratio(
        own("diffusion.CascadeEngine.run"), counts["diffusion.attempts"])
    m["diffusion.edge_success_ratio"] = ratio(counts["diffusion.successes"],
                                              counts["diffusion.attempts"])
    m["stats.self_s"] = sum(own(name) for name in STATS_SPANS)
    for name in ("diffusion.rounds", "diffusion.attempts",
                 "diffusion.successes", "estimate.write_panel_csv.bytes",
                 "estimate.fit_logistic.iterations",
                 "estimate.fit_logistic.rows",
                 "estimate.factor_scores.iterations", "cli.artifact_bytes"):
        m[name] = counts[name]
    return m


def traced_metrics(runner: Runner, results: str) -> tuple[dict, dict]:
    """Per-layer metrics, and self seconds per step and span name."""
    wall, runs = runner.subprocess_pass("untraced")
    step_s = {f"{c}_s": 0.0 for c in SUBCOMMANDS}
    for run in runs:
        step_s[f"{run.command}_s"] += run.wall_s
    cpu = sum(run.cpu_s for run in runs)

    untraced, _ = runner.inprocess_pass("inprocess")
    tracer = Tracer(runner.workload.name)
    with tracer.installed():
        traced, _ = runner.inprocess_pass("traced", tracer)
    tracer.write_spans(os.path.join(
        results, f"{runner.workload.name}-seed{runner.seed}.spans.csv"))

    by_step: dict[str, dict[str, float]] = {}
    overall: dict[str, list] = {}
    for (step, name), (calls, own) in tracer.totals().items():
        by_step.setdefault(step, {})[name] = own
        entry = overall.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += own
    m = layer_metrics(overall, tracer.counts)
    m.update(step_s)
    m.update({"cli.cpu_s": cpu, "cli.cpu_per_wall": cpu / wall,
              "trace.untraced_s": untraced, "trace.traced_s": traced,
              "trace.overhead_ratio": traced / untraced})
    return m, {"self_s_by_step": by_step}


def machine_facts(workload: Workload, seed: int) -> dict:
    import numpy
    import mobcast
    scenario = replace(workload.load(), master_seed=seed)
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        lines = git.stdout.split()
        git_sha = lines[1] if git.returncode == 0 and len(lines) == 2 \
            and os.path.samefile(lines[0], ROOT) else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "mobcast_version": mobcast.__version__,
        "workload": workload.name,
        "scenario_hash": mobcast.scenario_hash(scenario),
        "seed": seed,
        "jobs": sorted({s.flags[s.flags.index("--jobs") + 1]
                        for s in workload.steps if "--jobs" in s.flags}),
        "steps": [["mobcast", *step_argv(workload, s, seed, "<out>")]
                  for s in workload.steps],
    }


def import_checkout_package() -> None:
    """Import mobcast from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mobcast", "__init__.py")):
        raise BenchmarkError(f"no mobcast package under {SRC}")
    sys.path.insert(0, SRC)
    import mobcast
    if os.path.dirname(os.path.dirname(os.path.abspath(mobcast.__file__))) \
            != SRC:
        raise BenchmarkError(f"imported mobcast from {mobcast.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the scenario's "
                             "master_seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # Turn SIGTERM into SystemExit so that `launch` stops the running step.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        import_checkout_package()
        seed = workload.load().master_seed if args.seed is None \
            else args.seed
        if seed < 0:
            raise BenchmarkError("--seed must be non-negative")
        results = os.path.join(STATE, "results")
        os.makedirs(results, exist_ok=True)
        work = os.path.join(STATE, f"work-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        runner = Runner(workload, seed, work)
        facts = machine_facts(workload, seed)
        print(json.dumps({"facts": facts}))
        try:
            if args.trace:
                values, detail = traced_metrics(runner, results)
                names = PER_LAYER
            else:
                values, detail = timed_metrics(
                    runner, args.seconds, os.path.join(work, "setup.log"))
                names = END_TO_END
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    problems = runner.problems()
    attempted, failed = runner.counts()
    correct = failed == 0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    record = {
        "facts": facts,
        "trace": args.trace,
        "problems": problems,
        "passes": [{"pass": label, "steps": [
            {"command": r.command, "argv": r.argv, "wall_s": r.wall_s,
             "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "problems": r.problems,
             "digests": r.digests} for r in runs]}
            for label, runs in runner.passes],
        "metrics": metrics,
        "detail": detail,
    }
    with open(os.path.join(results, f"{workload.name}-seed{seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}")
    for label, runs in runner.passes:
        print(label + ": " + ", ".join(
            f"{r.command} {r.wall_s:.3f}s" for r in runs))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
