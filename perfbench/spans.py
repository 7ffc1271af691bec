"""In-memory spans recorded around segforge's public functions, from outside.

The package itself is not changed. A timing wrapper is installed on the module
attribute that each caller looks up: ``cli.py`` imports names with
``from .x import y``, so its stages call ``cli.search_threshold``, while
``search_threshold`` calls ``clustering.refine_to_k`` through its own module.

A span is ``[id, name, start_ns, end_ns, parent_id, run_id, attrs]``. Spans stay
in memory while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ID, NAME, START, END, PARENT, RUN, ATTRS = range(7)

_PARTITION = "partition"


def _partition_digest(clusters) -> dict:
    """Identity of a leaf partition, so a repeated one can be counted."""
    digest = hashlib.sha1()
    for members in sorted(tuple(sorted(c.members)) for c in clusters):
        digest.update("\x1f".join(members).encode())
        digest.update(b"\x1e")
    return {_PARTITION: digest.hexdigest()}


def _game_ticks(result) -> dict:
    return {"ticks": result.duration}


def wrap_points(mods) -> list[tuple[object, str, str, object]]:
    """Every layer boundary the benchmark times: (module, attribute, span
    name, observer that turns the return value into span attributes)."""
    cli, clustering, engine = mods.cli, mods.clustering, mods.engine
    return [
        (cli, "annotate_dataset", "knowledge.annotate", None),
        (cli, "generate_mazes", "contentspace.generate", None),
        (cli, "extract_features", "contentspace.features", None),
        (cli, "enumerate_space", "contentspace.enumerate", None),
        (cli, "maze_from_record", "contentspace.decode", None),
        (cli, "search_threshold", "clustering.search", None),
        (cli, "summarize", "clustering.summarize", None),
        (clustering, "build_tree", "clustering.build_tree", None),
        (clustering, "leaf_clusters", "clustering.leaf_clusters", _partition_digest),
        (clustering, "refine_to_k", "clustering.refine", None),
        (clustering, "silhouette", "clustering.silhouette", None),
        (cli, "deploy", "mapping.deploy", None),
        (cli, "validate_library", "mapping.validate", None),
        (cli, "save_library", "mapping.save", None),
        (cli, "export_json", "mapping.export_json", None),
        (cli, "load_library", "mapping.load", None),
        (cli, "practice_session", "engine.practice", None),
        (cli, "run_session", "engine.session", None),
        (engine, "candidate_pool", "engine.candidate_pool", None),
        (engine, "select_game", "engine.select_game", None),
        (engine, "bot_simulate", "engine.game", _game_ticks),
        (cli, "analyze_sessions", "gamestats.analyze", None),
    ]


class NullTracer:
    """The untraced run: the same calls with nothing recorded."""

    run_id = ""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn, observe=None):
        return fn

    def install(self, mods) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer:
    """Records spans; ``run_id`` names the repetition that spans belong to."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), name, time.perf_counter_ns(), 0, parent, self.run_id, None]
        self.spans.append(record)
        self._stack.append(record[ID])
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                record[ATTRS] = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, mods) -> None:
        for module, attr, name, observe in wrap_points(mods):
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        origin = min((s[START] for s in self.spans), default=0)
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": s[ID],
                            "name": s[NAME],
                            "start_s": (s[START] - origin) / 1e9,
                            "end_s": (s[END] - origin) / 1e9,
                            "parent": s[PARENT],
                            "run": s[RUN],
                            "attrs": s[ATTRS],
                        }
                    )
                    + "\n"
                )


# ===== Reading spans back =====


def _duration(span: list) -> float:
    return (span[END] - span[START]) / 1e9


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals, in nanoseconds."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


class SpanIndex:
    """Queries over one traced run's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[int, list[list]] = {}
        self.by_name: dict[str, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[PARENT], []).append(s)
            self.by_name.setdefault(s[NAME], []).append(s)

    def named(self, name: str) -> list[list]:
        return self.by_name.get(name, [])

    def self_time(self, span: list) -> float:
        kids = [(c[START], c[END]) for c in self.children.get(span[ID], [])]
        return (span[END] - span[START] - _covered(kids)) / 1e9

    def per_run(self, name: str, value=_duration, agg=sum) -> float:
        """Median over repetitions of ``agg`` of a span's values in each one."""
        runs: dict[str, list[float]] = {}
        for s in self.named(name):
            runs.setdefault(s[RUN], []).append(value(s))
        if not runs:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(agg(v) for v in runs.values())

    def durations(self, name: str) -> list[float]:
        return [_duration(s) for s in self.named(name)]

    def child_time(self, span: list, names: tuple[str, ...]) -> float:
        return sum(_duration(c) for c in self.children.get(span[ID], []) if c[NAME] in names)

    def run_counts(self) -> dict[str, dict[str, int]]:
        """Counts taken from return values, per repetition.

        ``clustering.repeat_partitions`` counts threshold candidates whose leaf
        partition repeats an earlier candidate of the same search (the same
        difficulty level); ``engine.ticks`` sums simulated game seconds.
        """
        counts: dict[str, dict[str, int]] = {}
        seen: dict[int, set[str]] = {}
        for s in self.named("clustering.leaf_clusters"):
            run = counts.setdefault(s[RUN], {"clustering.repeat_partitions": 0})
            partitions = seen.setdefault(s[PARENT], set())
            run["clustering.repeat_partitions"] += s[ATTRS][_PARTITION] in partitions
            partitions.add(s[ATTRS][_PARTITION])
        for s in self.named("engine.game"):
            run = counts.setdefault(s[RUN], {})
            run["engine.ticks"] = run.get("engine.ticks", 0) + s[ATTRS]["ticks"]
        return counts
