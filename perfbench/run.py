"""segforge benchmark: a library build and two bot cohorts.

Run from the repository root:

    python3 perfbench/run.py --workload library-build --seed 1 --seconds 40 --trace 0

The benchmark imports the package from ``src/`` and calls only its public
functions: the stage functions ``cli.run_*`` and the layer functions that
``perfbench/spans.py`` wraps. It runs in one process with one thread. Every
workload is a closed-loop batch job: each stage call or session starts only
after the previous one returns.

``--seconds`` bounds the whole run, from process start to the last cycle,
cold set-up and the cohorts' library included. ``--trace 0`` prints the
end-to-end metrics. ``--trace 1`` runs the workload untraced and then traced,
each for half of ``--seconds``, and prints the
per-layer metrics plus the traced-minus-untraced difference of every
end-to-end metric. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()

# One thread: numpy must not start a BLAS thread pool. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
from spans import NullTracer, SpanIndex, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
# Kept out of tuning: a later claim is re-checked on this seed as well.
HELD_OUT_SEED = 7919

# One eighteenth of the production maze count (972), so that a build takes
# about 4 s and every workload, the cohorts too, times several builds in a
# run. The threshold grid and k stay at production values, so the
# duplicate-heavy refine is kept, and clustering is still over 90% of a build.
MAZE_COUNT = 54
SETUPS_PER_CYCLE = 3
# Every cohort plays one library built with this space and cluster seed (the
# default space seed); the workload seed drives the bots only. How fast
# sessions run depends on the library: random bots never win, so each player
# stays on its first compound's cluster and a cohort serves a handful of
# distinct games. At 108 mazes, with the library following the seed, the
# interquartile range of sessions_per_s over ten seeds was 22% of its median;
# with it fixed, 4-8% in two sets of runs.
COHORT_LIBRARY_SEED = 9001
BUILD_STAGES = ("annotate", "gen-space", "categorize", "cluster", "map")
COHORT_STAGES = ("simulate", "analyze")


@dataclass(frozen=True)
class Workload:
    # "build": a cycle builds a library from the workload seed, then one cohort
    # plays the cohorts' library. "cohort": a cycle rebuilds the cohorts'
    # library, then one cohort plays it.
    kind: str
    policy: str
    players: int
    sessions: int


WORKLOADS = {
    # 1,500 random sessions per cycle give this workload's sessions_per_s.
    "library-build": Workload("build", "random", 100, 15),
    # 90 greedy sessions per cohort. A player's practice game fixes its level
    # for all its sessions, so many short players average the level mix far
    # better than few long ones. Per-tick BFS routing in bot_simulate dominates.
    "cohort-greedy": Workload("cohort", "greedy", 30, 3),
    # 2,000 random sessions per cohort: no BFS, and nearly every session
    # recycles its pool, so serving, recycling and event logging carry the time.
    "cohort-random": Workload("cohort", "random", 100, 20),
}


class BenchFailure(Exception):
    """The workload could not produce a metric."""


@dataclass
class Context:
    mods: SimpleNamespace
    config: object  # for the workload's builds
    cohort_config: object  # for the cohorts and the library they play
    library: object = None


@dataclass
class PassResult:
    setup: list[float] = field(default_factory=list)
    builds: list[float] = field(default_factory=list)
    sessions: int = 0  # completed by the cohorts that passed their checks
    cohort_s: float = 0.0  # their simulate + analyze wall time
    peak_rss_mb: float = 0.0

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        missing = [
            name
            for name, measured in (("setup_s", self.setup), ("build_s", self.builds), ("sessions_per_s", self.sessions))
            if not measured
        ]
        if missing:
            raise BenchFailure(f"no successful repetition measured {', '.join(missing)}")
        # Builds and cohorts are pooled over the run, not medians: a shared VM
        # can switch between a fast and a ~1.4x slower speed for seconds to
        # minutes at a time. The median of a run's three or four samples jumps
        # between the two; the pooled figure moves with the share of the run
        # spent at each.
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "build_s": (statistics.fmean(self.builds), "s"),
            "sessions_per_s": (self.sessions / self.cohort_s, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def import_package() -> SimpleNamespace:
    """Import segforge afresh, so that each set-up pays its import cost."""
    for name in [n for n in sys.modules if n == "segforge" or n.startswith("segforge.")]:
        del sys.modules[name]
    cli = importlib.import_module("segforge.cli")
    names = ("config", "clustering", "contentspace", "engine", "errors", "gamestats", "knowledge", "mapping")
    return SimpleNamespace(cli=cli, **{n: sys.modules[f"segforge.{n}"] for n in names})


def source_digest() -> str:
    """Digest of the program and benchmark files, naming a same-seed record."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{name}-s{seed}-p{os.getpid()}"
        self.cohort_overrides = {
            "maze.count": str(MAZE_COUNT),
            "sim.policy": self.workload.policy,
            "sim.players": str(self.workload.players),
            "sim.sessions": str(self.workload.sessions),
            "space.seed": str(COHORT_LIBRARY_SEED),
            "cluster.seed": str(COHORT_LIBRARY_SEED),
            "sim.seed": str(seed),
        }
        self.overrides = dict(self.cohort_overrides)
        if self.workload.kind == "build":
            self.overrides.update({"space.seed": str(seed), "cluster.seed": str(seed)})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # first same-seed repetition of each kind ("fixture", "build", "cohort")
        self.reference: dict[str, dict] = {}

    # ----- bookkeeping -----

    def _fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def _reject(self, run_id: str, problems: list[str], ops: int = 1) -> None:
        """A repetition whose output failed its checks: ``ops`` operations failed."""
        self.failed += ops
        for problem in problems:
            self._fail(f"{run_id}: {problem}", ops=0)

    def _compare(self, run_id: str, record: dict) -> None:
        kind = run_id.split("-")[0]
        reference = self.reference.setdefault(kind, record)
        differs = sorted(
            f"{part}.{key}"
            for part in record
            for key in record[part]
            if reference[part].get(key) != record[part][key]
        )
        if differs:
            self._fail(f"{run_id} output differs from the first same-seed repetition: {', '.join(differs)}")

    # ----- set-up, builds and cohorts -----

    def set_up(self, tracer, run_id: str, fixture: Path | None) -> tuple[float, Context]:
        """Imports and load_config; on the cohort workloads also load_library
        and decoding mazes.jsonl of the library in ``fixture``."""
        tracer.run_id = run_id
        start = time.perf_counter()
        with tracer.span("setup"):
            mods = import_package()
            load_config = tracer.wrap("config.load", mods.config.load_config)
            config = load_config(None, self.overrides)
            context = Context(mods, config, config)
            if self.overrides != self.cohort_overrides:
                context.cohort_config = load_config(None, self.cohort_overrides)
            if fixture is not None:
                context.library = tracer.wrap("mapping.load", mods.mapping.load_library)(
                    str(fixture / "library.sqlite"), config.config_hash()
                )
                decode = tracer.wrap("contentspace.decode", mods.contentspace.maze_from_record)
                with (fixture / "mazes.jsonl").open(encoding="utf-8") as handle:
                    next(handle)
                    mazes = [decode(json.loads(line))[0] for line in handle if line.strip()]
        elapsed = time.perf_counter() - start
        if fixture is not None and len(mazes) != config.maze_count:
            raise BenchFailure(f"set-up decoded {len(mazes)} mazes, expected {config.maze_count}")
        return elapsed, context

    def _stages(self, mods, config, tracer, stages, out: Path) -> int:
        """Run stages in order until one raises; returns how many returned."""
        for done, stage in enumerate(stages):
            self.attempted += 1
            try:
                with tracer.span(f"cli.{stage.replace('-', '_')}"):
                    getattr(mods.cli, f"run_{stage.replace('-', '_')}")(config, out)
            except Exception:
                traceback.print_exc()
                self._fail(f"stage {stage} raised")
                return done
        return len(stages)

    def build(self, context: Context, config, tracer, run_id: str, out: Path) -> float | None:
        """annotate -> map into ``out``; returns the wall time if every stage
        returned and the output passed its checks."""
        out.mkdir(parents=True)
        tracer.run_id = run_id
        start = time.perf_counter()
        completed = self._stages(context.mods, config, tracer, BUILD_STAGES, out)
        elapsed = time.perf_counter() - start
        if completed < len(BUILD_STAGES):
            return None
        problems = checks.check_build(context.mods, config, out)
        if problems:
            self._reject(run_id, problems)
            return None
        self._compare(
            run_id,
            {
                "digests": checks.digests(out, checks.BUILD_ARTIFACTS),
                "counts": checks.build_counts(out, config.cluster_k),
            },
        )
        return elapsed

    def cohort(self, context: Context, tracer, run_id: str, library_dir: Path, out: Path) -> tuple[int, float] | None:
        """simulate -> analyze against the library in ``library_dir``; returns
        completed sessions and their wall time if both stages returned and the
        output passed its checks."""
        out.mkdir(parents=True)
        for name in ("library.sqlite", "mazes.jsonl"):
            shutil.copyfile(library_dir / name, out / name)
        config = context.cohort_config
        expected = config.sim_players * config.sim_sessions
        self.attempted += expected
        tracer.run_id = run_id
        start = time.perf_counter()
        completed = self._stages(context.mods, config, tracer, COHORT_STAGES, out)
        elapsed = time.perf_counter() - start
        if completed == 0:
            self.failed += expected
        if completed < len(COHORT_STAGES):
            return None
        library = context.library or context.mods.mapping.load_library(
            str(library_dir / "library.sqlite"), config.config_hash()
        )
        failed_sessions, problems = checks.check_cohort(library, config, out)
        if problems:
            # with no failed session, the problem is the report's: analyze failed
            self._reject(run_id, problems, ops=max(failed_sessions, 1))
            return None
        counts = checks.cohort_counts(out)
        self._compare(run_id, {"digests": checks.digests(out, checks.COHORT_ARTIFACTS), "counts": counts})
        shutil.rmtree(out)
        return counts["engine.sessions"], elapsed

    def run_pass(self, context: Context, tracer, deadline: float, tag: str) -> tuple[PassResult, Context]:
        """Repeat cycles until ``deadline`` (a ``time.perf_counter`` value).

        library-build builds the cohorts' library first. Its cycle is
        SETUPS_PER_CYCLE set-ups, one build from the workload seed and one
        cohort on the cohorts' library. A cohort workload's cycle rebuilds the
        cohorts' library, which must come out byte for byte the same, then
        runs the set-ups, which load it, and one cohort on it. Interleaving
        the samples over the run, instead of timing them back to back, keeps
        one slow spell of the machine from setting every sample at once. At
        least one cycle runs.
        """
        result = PassResult()
        pass_dir = self.work / tag
        kind = self.workload.kind
        library_dir = pass_dir / "library"
        if kind == "build":
            tracer.install(context.mods)
            elapsed = self.build(context, context.cohort_config, tracer, "fixture-0", library_dir)
            tracer.uninstall()
            if elapsed is None:
                raise BenchFailure("the cohorts' library could not be built")

        cycle_times: list[float] = []
        while not cycle_times or time.perf_counter() + statistics.median(cycle_times) / 2 < deadline:
            cycle_start = time.perf_counter()
            i = len(cycle_times)
            if kind == "cohort":
                built = pass_dir / f"library-{i}"
                tracer.install(context.mods)
                elapsed = self.build(context, context.cohort_config, tracer, f"fixture-{i}", built)
                tracer.uninstall()
                if elapsed is not None:
                    result.builds.append(elapsed)
                    shutil.rmtree(library_dir, ignore_errors=True)
                    built.rename(library_dir)
                elif not library_dir.is_dir():
                    raise BenchFailure("the cohorts' library could not be built")
                shutil.rmtree(built, ignore_errors=True)
            for j in range(SETUPS_PER_CYCLE):
                elapsed, context = self.set_up(tracer, f"setup-{i}-{j}", library_dir if kind == "cohort" else None)
                result.setup.append(elapsed)
            tracer.install(context.mods)
            if kind == "build":
                out = pass_dir / f"build-{i}"
                elapsed = self.build(context, context.config, tracer, f"build-{i}", out)
                if elapsed is not None:
                    result.builds.append(elapsed)
                shutil.rmtree(out, ignore_errors=True)
            played = self.cohort(context, tracer, f"cohort-{i}", library_dir, pass_dir / f"cohort-{i}")
            if played is not None:
                result.sessions += played[0]
                result.cohort_s += played[1]
            tracer.uninstall()
            cycle_times.append(time.perf_counter() - cycle_start)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        shutil.rmtree(pass_dir, ignore_errors=True)
        return result, context

    def check_record(self, traced_counts: dict[str, dict[str, int]]) -> None:
        """Compare this run's outputs with an earlier run of the same seed and
        the same program and benchmark files, if one is in .bench_work/."""
        record = dict(self.reference)
        if traced_counts:
            record["traced"] = traced_counts
        path = WORK / "records" / f"{self.name}-s{self.seed}-{source_digest()}.json"
        if path.is_file():
            stored = json.loads(path.read_text(encoding="utf-8"))
            for kind in sorted(set(stored) & set(record)):
                if stored[kind] != record[kind]:
                    self._fail(f"{kind} output differs from an earlier run of seed {self.seed}")
            merged = {**record, **stored}
        else:
            merged = record
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(merged, indent=1, sort_keys=True), encoding="utf-8")
        partial.replace(path)

    def run(self) -> dict:
        cold_start = time.perf_counter()
        _, context = self.set_up(NullTracer(), "setup-cold", None)
        cold_s = time.perf_counter() - cold_start

        end = STARTED + self.seconds
        if not self.trace:
            untraced, _ = self.run_pass(context, NullTracer(), end, "untraced")
            traced = None
        else:
            half = (end + time.perf_counter()) / 2
            untraced, context = self.run_pass(context, NullTracer(), half, "untraced")
            tracer = Tracer()
            traced, _ = self.run_pass(context, tracer, end, "traced")

        e2e = untraced.end_to_end()
        print(f"workload {self.name}  seed {self.seed}  seconds {self.seconds:g}  trace {int(self.trace)}")
        print(f"  cold set-up (first import, not a metric): {cold_s:.4f} s")
        print(
            f"  samples: {len(untraced.setup)} set-ups, {len(untraced.builds)} builds, "
            f"{untraced.sessions} sessions in {untraced.cohort_s:.2f} s of cohorts"
        )
        for name, (value, unit) in e2e.items():
            print(f"  {name:<16} {value:12.6g} {unit}")

        traced_counts: dict[str, dict[str, int]] = {}
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        if traced is not None:
            index = SpanIndex(tracer.spans)
            traced_counts = self._traced_counts(index)
            metrics = self.layer_metrics(index, traced_counts, e2e, traced.end_to_end())
            spans_path = WORK / f"spans-{self.name}-s{self.seed}.jsonl"
            tracer.write(spans_path)
            print(f"  spans written to {spans_path.relative_to(ROOT)}")
        self.check_record(traced_counts)

        for kind, record in sorted(self.reference.items()):
            for name, digest in sorted(record["digests"].items()):
                print(f"  sha256 {kind}/{name} {digest}")
        if traced is not None:
            for name, item in metrics.items():
                print(f"  {name:<36} {item['value']:14.6g} {item['unit']}")
            print(
                f"  percentiles over {len(index.named('engine.game'))} games and "
                f"{len(index.named('engine.session'))} sessions of the traced pass"
            )
        share = self.failed / self.attempted if self.attempted else 1.0
        print(f"  failed_share     {share:12.6g} ({self.failed} of {self.attempted} operations)")
        for problem in self.problems:
            print(f"  problem: {problem}")
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def _traced_counts(self, index: SpanIndex) -> dict[str, dict[str, int]]:
        """Per kind of repetition; every repetition of a kind must agree."""
        by_kind: dict[str, dict[str, int]] = {}
        for run_id, counts in sorted(index.run_counts().items()):
            kind = run_id.split("-")[0]
            reference = by_kind.setdefault(kind, counts)
            if reference != counts:
                self._fail(f"traced counts of {run_id} differ from the first {kind} repetition")
        return by_kind

    def layer_metrics(self, index: SpanIndex, traced_counts, untraced: dict, traced: dict) -> dict:
        metrics: dict[str, dict] = {}

        def put(name: str, value, unit: str) -> None:
            metrics[name] = {"value": value, "unit": unit}

        for stage in BUILD_STAGES + COHORT_STAGES:
            key = stage.replace("-", "_")
            put(f"cli.{key}_s", index.per_run(f"cli.{key}"), "s")
        for key in ("gen_space", "categorize", "cluster", "map", "simulate"):
            put(f"cli.{key}_self_s", index.per_run(f"cli.{key}", value=index.self_time), "s")
        # library-build reports the builds from its seed, the cohorts their library
        build_kind = "build" if "build" in self.reference else "fixture"
        counts = {
            **self.reference[build_kind]["counts"],
            **traced_counts.get(build_kind, {}),
            **self.reference["cohort"]["counts"],
            **traced_counts.get("cohort", {}),
        }
        put("cli.artifact_bytes", counts["cli.build_bytes"] + counts["cli.cohort_bytes"], "bytes")

        put("knowledge.annotate_s", index.per_run("knowledge.annotate"), "s")
        for name in ("generate", "features", "enumerate", "decode"):
            put(f"contentspace.{name}_s", index.per_run(f"contentspace.{name}"), "s")
        put("contentspace.mazes", counts["contentspace.mazes"], "count")
        put("contentspace.games", counts["contentspace.games"], "count")

        for name in ("build_tree", "silhouette", "summarize"):
            put(f"clustering.{name}_s", index.per_run(f"clustering.{name}"), "s")
        put("clustering.refine_s", index.per_run("clustering.refine"), "s")
        put("clustering.refine_max_s", index.per_run("clustering.refine", agg=max), "s")
        candidates = counts["clustering.candidates"]
        repeats = counts["clustering.repeat_partitions"]
        put("clustering.candidates", candidates, "count")
        put("clustering.leaves", counts["clustering.leaves"], "count")
        put("clustering.refine_merges", counts["clustering.refine_merges"], "count")
        put("clustering.repeat_partitions", repeats, "count")
        put("clustering.distinct_partition_ratio", (candidates - repeats) / candidates, "ratio")

        for name in ("deploy", "validate", "save", "export_json", "load"):
            put(f"mapping.{name}_s", index.per_run(f"mapping.{name}"), "s")
        put("mapping.library_bytes", counts["mapping.library_bytes"], "bytes")

        games_ms = [d * 1e3 for d in index.durations("engine.game")]
        sessions_ms = [d * 1e3 for d in index.durations("engine.session")]
        serve_us = [
            index.child_time(s, ("engine.candidate_pool", "engine.select_game")) * 1e6
            for s in index.named("engine.session")
        ]
        for name, values, unit in (("game_ms", games_ms, "ms"), ("session_ms", sessions_ms, "ms"), ("serve_us", serve_us, "us")):
            put(f"engine.{name}_p50", percentile(values, 0.50), unit)
            put(f"engine.{name}_p98", percentile(values, 0.98), unit)
        put("engine.practice_s", index.per_run("engine.practice"), "s")
        for name in ("sessions", "victories", "recycles", "ticks", "events"):
            put(f"engine.{name}", counts[f"engine.{name}"], "count")
        put("engine.recycle_ratio", counts["engine.recycles"] / counts["engine.sessions"], "ratio")

        put("gamestats.analyze_s", index.per_run("gamestats.analyze"), "s")
        put("config.load_s", index.per_run("config.load"), "s")

        for name, (value, unit) in untraced.items():
            put(f"trace.{name}_delta", traced[name][0] - value, unit)
        put("trace.spans", len(index.spans), "count")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for re-checking claims)",
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the whole run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "segforge" / "__init__.py").is_file():
        print(f"perfbench: no segforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
