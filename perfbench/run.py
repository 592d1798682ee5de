"""livesubs benchmark: the four-command CLI pipeline on one generated corpus.

    python3 perfbench/run.py --workload paper-1250 --seed 11 --seconds 50 --trace 0

Run from anywhere inside a livesubs checkout; the program is imported from
the checkout's ``src/``. Each iteration runs ``simulate``, ``evaluate
--per-segment``, ``export-srt`` and ``replay --speed 0`` as fresh
subprocesses, one at a time, and checks every output. Replay, which is
short, runs REPLAY_REPEATS times, and a no-op CLI start (setup_s) is timed
before each command. Iterations repeat until --seconds have passed (at
least MIN_ITERATIONS), and each end-to-end metric is the median of all its
samples. With --trace 1 the run instead makes
one untraced iteration and then the same four commands in-process under
tracing.py, and reports the per-layer metrics named in BENCHMARK.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Every CLI invocation and every output check is one operation.
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
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import al_oracle_errors, report_digest, sha256_file, srt_digest  # noqa: E402
from workloads import DEFAULT_SEED, K, WORKLOADS, load_module, shape_of  # noqa: E402

COMMANDS = ("simulate", "evaluate", "export_srt", "replay")
OUTPUTS = ("emissions", "report", "srt", "replay")
MIN_ITERATIONS = 2
REPLAY_REPEATS = 3
SETUP_ARGV = ["--help"]
RUN_BUDGET_S = 150.0  # no iteration starts that would end the run past this
CLI_TIMEOUT_S = 170.0
REQUIRED = ("BENCHMARK.json", "src/livesubs/cli.py", "tests/conftest.py", "tests/oracles.py")


@dataclass
class Run:
    exit: int
    wall_s: float
    cpu_s: float
    sys_s: float
    rss_mb: float


class Ops:
    """Operations attempted and failed; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("LIVESUBS_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(argv: list[str], env: dict, cwd: Path, stdout_path: Path | None = None) -> Run:
    """One `python -m livesubs.cli` process; rusage comes from os.wait4 on
    that child alone (RUSAGE_CHILDREN would be a max over all children)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "livesubs.cli", *argv], cwd=cwd, env=env, stdout=out
        )
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    finally:
        if stdout_path:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        exit=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        sys_s=usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Pipeline:
    """The four commands on one corpus, with their output paths."""

    def __init__(self, work: Path, refs, tag: str) -> None:
        self.work = work
        self.refs_path = work / "refs.tsv"
        self.emissions = work / f"emissions-{tag}.jsonl"
        self.report = work / f"report-{tag}.json"
        self.srt_dir = work / f"srt-{tag}"
        self.replay_outs = [work / f"replay-{tag}-{i}.txt" for i in range(REPLAY_REPEATS)]
        self.replay_out = self.replay_outs[0]
        self.segment_ids = [r.segment_id for r in refs]
        replay_id = refs[len(refs) // 2].segment_id
        self.argv = {
            "simulate": ["simulate", str(self.refs_path), "--k", str(K), "--out", str(self.emissions)],
            "evaluate": ["evaluate", str(self.emissions), "--per-segment", "--out", str(self.report)],
            "export_srt": ["export-srt", str(self.emissions), "--out", str(self.srt_dir)],
            "replay": ["replay", str(self.emissions), "--segment", replay_id,
                       "--mode", "line", "--speed", "0"],
        }

    def stdout_of(self, command: str) -> Path:
        return self.replay_out if command == "replay" else self.work / f"{command}.stdout"

    def run(self, env: dict, ops: Ops) -> dict[str, list[Run]] | None:
        """Each command once, replay REPLAY_REPEATS times, and a no-op start
        before each command, so the setup samples spread over the run."""
        runs: dict[str, list[Run]] = {"setup": []}
        for command in COMMANDS:
            setup = run_cli(SETUP_ARGV, env, self.work)
            if not ops.check(setup.exit == 0, f"--help exited {setup.exit}"):
                return None
            runs["setup"].append(setup)
            outs = self.replay_outs if command == "replay" else [None]
            runs[command] = []
            for stdout in outs:
                run = run_cli(self.argv[command], env, self.work, stdout)
                if not ops.check(run.exit == 0, f"{command} exited {run.exit}"):
                    return None
                runs[command].append(run)
        first = self.replay_out.read_bytes()
        for path in self.replay_outs[1:]:
            ops.check(path.read_bytes() == first, f"{path.name} differs from {self.replay_out.name}")
        return runs

    def clean(self) -> None:
        shutil.rmtree(self.srt_dir, ignore_errors=True)
        for path in (self.emissions, self.report, *self.replay_outs):
            path.unlink(missing_ok=True)

    def digests(self, ops: Ops) -> dict[str, str] | None:
        try:
            return {
                "emissions": sha256_file(self.emissions),
                "report": report_digest(self.report),
                "srt": srt_digest(self.srt_dir, self.segment_ids),
                "replay": sha256_file(self.replay_out),
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ops.check(False, f"reading outputs: {exc!r}")
            return None


def check_digests(ops: Ops, got: dict, expected: dict, against: str) -> None:
    for key in OUTPUTS:
        ops.check(got[key] == expected[key], f"{key} digest differs from {against}")


def write_refs(refs, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in refs:
            f.write(f"{r.segment_id}\t{r.duration}\t{' '.join(r.tokens)}\n")


def run_state() -> dict:
    """Machine and run state recorded next to the numbers."""
    import gc

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "livesubs").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "gc_thresholds": list(gc.get_threshold()),
        "livesubs_commit": commit,
        "livesubs_src_sha256": src.hexdigest(),
    }


def untraced(work: Path, refs, env: dict, ops: Ops, golden: dict | None, seconds: float,
             min_iterations: int, naive_al_ms) -> tuple[list, dict | None]:
    """Repeat the pipeline for `seconds`; check every iteration's outputs.

    Each iteration first deletes the previous iteration's outputs, so every
    export follows the deletion of as many SRT files. On the machine this was
    written on, the kernel time of creating small files otherwise came and
    went in phases of up to 10x, which made export times bimodal. The last
    iteration's outputs are left for the caller."""
    run_cli(SETUP_ARGV, env, work)  # warm the page cache and bytecode cache
    start = time.perf_counter()
    iterations: list[tuple[Pipeline, dict[str, list[Run]]]] = []
    first = None
    while True:
        t0 = time.perf_counter()
        if iterations:
            iterations[-1][0].clean()
        pipe = Pipeline(work, refs, f"it{len(iterations) + 1}")
        runs = pipe.run(env, ops)
        if runs is None:
            break
        digests = pipe.digests(ops)
        if digests is None:
            break
        if golden is not None:
            check_digests(ops, digests, golden, "the golden digests")
        elif first is not None:
            check_digests(ops, digests, first, "the first iteration's")
        if first is None:
            first = digests
            print("digests: " + json.dumps(digests, sort_keys=True))
            errors = al_oracle_errors(pipe.report, refs, naive_al_ms)
            ops.check(not errors, "AL oracle: " + "; ".join(errors[:5]))
        iterations.append((pipe, runs))
        # per run: wall, user and system seconds, peak RSS in MB
        print(f"iteration {len(iterations)}: " + json.dumps({
            c: [[round(r.wall_s, 3), round(r.cpu_s - r.sys_s, 3), round(r.sys_s, 3), round(r.rss_mb, 1)]
                for r in rs]
            for c, rs in runs.items()
        }))
        now = time.perf_counter()
        if len(iterations) >= min_iterations and now - start >= seconds:
            break
        if now - start + (now - t0) > RUN_BUDGET_S:
            break
    return iterations, first


def traced(pipe: Pipeline, env: dict, ops: Ops, expected: dict, out_dir: Path,
           label: str) -> tuple[dict, float]:
    """The same commands in-process under tracing; returns the per-layer
    metrics and the traced wall time of the four commands together."""
    plan = {
        "commands": [
            {"name": c, "argv": pipe.argv[c], "stdout": str(pipe.stdout_of(c))}
            for c in COMMANDS
        ]
    }
    plan_path = pipe.work / "plan.json"
    summary_path = pipe.work / "trace-summary.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    spans = out_dir / f"{label}.spans.tsv.gz"
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), str(plan_path), str(summary_path), str(spans)],
        cwd=pipe.work, env=env, timeout=CLI_TIMEOUT_S, check=False,
    )
    if not ops.check(proc.returncode == 0, f"traced run exited {proc.returncode}"):
        return {}, 0.0
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    for cmd in summary["commands"]:
        ops.check(cmd["exit"] == 0, f"traced {cmd['name']} exited {cmd['exit']}")
    for name, count in summary["failures"].items():
        print(f"traced {name} raised {count} times", file=sys.stderr)
    digests = pipe.digests(ops)
    if digests is not None:
        check_digests(ops, digests, expected, "the untraced run's")
    return summary["metrics"], sum(c["wall_s"] for c in summary["commands"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a livesubs checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import livesubs

    if Path(livesubs.__file__).resolve().parent != ROOT / "src" / "livesubs":
        print(f"error: imported livesubs from {livesubs.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    refs = workload.make(args.seed, ROOT / "tests")
    problems = workload.check_shape(shape_of(refs), args.seed)
    if problems:
        print(f"error: {args.workload} seed {args.seed}: " + "; ".join(problems), file=sys.stderr)
        return 3
    naive_al_ms = load_module("perfbench_oracles", ROOT / "tests" / "oracles.py").naive_al_ms
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[args.workload]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    label = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    env = cli_env()
    ops = Ops()
    metrics: dict[str, float] = {}
    try:
        write_refs(refs, work / "refs.tsv")
        if args.trace:
            iterations, digests = untraced(work, refs, env, ops, golden, 0.0, 1, naive_al_ms)
            if iterations:
                pipe, all_runs = iterations[0]
                runs = {c: all_runs[c][0] for c in COMMANDS}
                for c in COMMANDS:
                    metrics[f"cli.{c}.cpu_s"] = runs[c].cpu_s
                metrics["cli.export_srt.sys_s"] = runs["export_srt"].sys_s
                metrics["formats.jsonl_bytes"] = pipe.emissions.stat().st_size
                srt_files = list(pipe.srt_dir.iterdir())
                metrics["formats.srt_files"] = len(srt_files)
                metrics["formats.srt_bytes"] = sum(p.stat().st_size for p in srt_files)
                pipe.clean()  # the traced export then follows a deletion, as untraced ones do
                tpipe = Pipeline(work, refs, "traced")
                layer, traced_wall = traced(tpipe, env, ops, digests, out_dir, label)
                metrics.update(layer)
                metrics["trace.overhead_s"] = traced_wall - sum(r.wall_s for r in runs.values())
        else:
            iterations, _ = untraced(
                work, refs, env, ops, golden, args.seconds, MIN_ITERATIONS, naive_al_ms
            )
            if iterations:
                runs_list = [runs for _, runs in iterations]
                for c in ("setup", *COMMANDS):
                    metrics[f"{c}_s"] = statistics.median(
                        run.wall_s for r in runs_list for run in r[c]
                    )
                metrics["evaluate_rss_mb"] = statistics.median(
                    r["evaluate"][0].rss_mb for r in runs_list
                )
                metrics["peak_rss_mb"] = statistics.median(
                    max(run.rss_mb for c in COMMANDS for run in r[c]) for r in runs_list
                )
                metrics["iterations"] = len(iterations)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    state = run_state()
    print("run state: " + json.dumps(state))
    print("measured: " + json.dumps(metrics, sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    # Per-layer names a run does not produce read 0 (a function no longer
    # called); an end-to-end metric that is missing means the run failed.
    missing = [] if args.trace else [name for name in units if name not in metrics]
    result = {
        "correct": ops.failed == 0 and not missing,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()
        },
    }
    (out_dir / f"{label}.json").write_text(
        json.dumps({"state": state, "measured": metrics, "result": result}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
