"""Command line pipeline: one subcommand per stage over a shared config.

Stages write their artifacts into a working directory (``--out``, or the
``SEGFORGE_DIR`` environment variable) and read the previous stage's files
from the same place. Every artifact embeds the effective config hash so a
stage can warn when its inputs were produced under different settings.

``ARTIFACTS`` declares each file once: the stage that writes it, its format,
a CSV file's columns, the fields that key its records and the record a stage
reads from it. ``STAGE_TABLE`` declares the stages in pipeline order, each
with its ``run_*`` function, the files it reads and its own flags; the
subcommands, dispatch and each stage's files derive from the two. A stage
reads an input with one call by name, ``_read``, and writes a CSV or JSONL
file with ``_write_csv`` or ``_write_jsonl``.

``verify`` is not a stage: it writes nothing. It checks every rule of the
library, and runs the check that ``simulate`` runs on a maze when a game on
it is first served over every maze the library uses.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import logging
import os
import pickle
import signal
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable

from . import __version__
from .clustering import (
    ClusterSummary,
    ThresholdCandidate,
    ThresholdSearchResult,
    search_threshold,
    summarize,
)
from .config import ConfigInvalid, PipelineConfig, default_config_text, load_config
from .contentspace import (
    FEATURE_NAMES,
    Difficulty,
    FeatureScaler,
    GameParams,
    MazeFeatures,
    MazeGrid,
    classify_difficulty,
    enumerate_space,
    extract_features,
    generate_mazes,
    maze_from_record,
    maze_record_json,
)
from .engine import (
    CurriculumComplete,
    EmptyPool,
    ImperfectMaze,
    MazeTree,
    PlayerProfile,
    maze_tree,
    practice_session,
    practice_tree,
    run_session,
)
from .errors import SegforgeError
from .gamestats import analyze_sessions, format_report, report_rows
from .knowledge import CompoundAnnotation, annotate_dataset
from .mapping import (
    ContentLibrary,
    GameRecord,
    deploy,
    export_json,
    export_level_curves,
    load_library,
    replacing,
    row_decoder,
    save_library,
    text_parser,
    validate_library,
)

logger = logging.getLogger(__name__)


class MissingPrerequisite(SegforgeError):
    """A stage was invoked before the stage that produces its inputs."""


class WorkspaceLocked(SegforgeError):
    """Another pipeline run holds the working directory."""


class MalformedArtifact(SegforgeError):
    """An artifact line does not hold the record its stage expects."""


# ===== Artifact plumbing =====


@dataclass(frozen=True)
class _Artifact:
    """The stage that writes an artifact, its format (csv, jsonl, sqlite or
    text), a CSV file's columns, the fields that key each record and what a
    stage reads of a CSV row (a column -> text dict) or a JSONL record."""

    producer: str
    format: str
    columns: tuple[str, ...] = ()
    key: tuple[str, ...] = ()
    record: Callable[[dict], object] = lambda record: record


def _atomic_write(path: Path | str, text: str) -> None:
    with replacing(path) as temp:
        Path(temp).write_text(text, encoding="utf-8", newline="")


def _read(out: Path, name: str, config_hash: str, path: Path | None = None):
    """The records of artifact ``name`` in ``out``, or at ``path`` instead,
    as its declaration reads them; a missing file names the stage that
    writes it, and a configuration hash other than ``config_hash`` warns.
    A library file is opened, to be read on demand, and its reader closes
    it."""
    artifact = ARTIFACTS[name]
    path = path or out / name
    if not path.is_file():
        raise MissingPrerequisite(
            f"{path.name} not found in {path.parent}; run the {artifact.producer!r} stage first"
        )
    if artifact.format == "sqlite":
        library = load_library(str(path))
        _check_hash(library.metadata.get("config_hash"), config_hash, path)
        return library
    if artifact.format == "csv":
        return _read_csv(path, config_hash, artifact)
    return _read_jsonl(path, config_hash, artifact, Path(name).stem)


def _check_hash(found: str | None, expected: str, path: Path) -> None:
    if found is not None and found != expected:
        logger.warning(
            "%s was produced under a different configuration (hash %s, current %s)",
            path.name,
            found[:12],
            expected[:12],
        )


def _write_csv(out: Path, name: str, config_hash: str, rows) -> None:
    """CSV artifact ``name``: the config hash line, the declared columns,
    then ``rows``, each a sequence of values in column order."""
    buf = io.StringIO()
    buf.write(f"# config_hash={config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ARTIFACTS[name].columns)
    writer.writerows(rows)
    _atomic_write(out / name, buf.getvalue())


def _malformed(path: Path, line: int, exc: Exception) -> MalformedArtifact:
    return MalformedArtifact(f"{path.name} line {line}: {type(exc).__name__}: {exc}")


def _check_key(key: tuple[str, ...], record: dict, number: int, first_lines: dict) -> None:
    """Raise ValueError if the ``key`` fields of ``record``, on line
    ``number``, hold the values of an earlier record's, whose line
    ``first_lines`` keeps: each record of an artifact is identified once."""
    value = tuple(record[name] for name in key)
    if (first := first_lines.setdefault(value, number)) != number:
        named = ", ".join(f"{name} {v!r}" for name, v in zip(key, value))
        raise ValueError(f"{named} repeats line {first}")


def _read_csv(path: Path, config_hash: str, artifact: _Artifact) -> list:
    """The records of a stage CSV whose header is ``artifact``'s columns; a
    line that does not decode or convert, or repeats an earlier row's key,
    names its number, and so does a header other than the declared one."""
    found = None
    numbers: list[int] = []
    body: list[str] = []
    records = []
    first_lines: dict[tuple, int] = {}
    number = 0
    try:
        for number, raw in enumerate(path.read_bytes().splitlines(), 1):
            line = raw.decode("utf-8")
            if line.startswith("#"):
                if "config_hash=" in line:
                    found = line.split("config_hash=", 1)[1].strip()
            elif line:
                numbers.append(number)
                body.append(line)
        _check_hash(found, config_hash, path)
        rows = csv.reader(body)
        header = next(rows, [])
        number = numbers[0] if numbers else number + 1
        if header != list(artifact.columns):
            raise ValueError(f"the header is not {','.join(artifact.columns)}")
        for number, values in zip(numbers[1:], rows):
            if len(values) != len(header):
                raise ValueError(f"{len(values)} fields under a {len(header)}-column header")
            row = dict(zip(header, values))
            records.append(artifact.record(row))
            _check_key(artifact.key, row, number, first_lines)
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, number, exc) from None
    return records


def _write_jsonl(out: Path, name: str, config_hash: str, lines: list[str], **meta) -> None:
    """JSONL artifact ``name``: a meta line tagged with the file's stem, the
    config hash and ``meta``, then ``lines``."""
    head = json.dumps({"artifact": Path(name).stem, "config_hash": config_hash, **meta})
    _atomic_write(out / name, "\n".join([head] + lines) + "\n")


def _read_jsonl(path: Path, config_hash: str, artifact: _Artifact, tag: str) -> list:
    """The records of a stage JSONL file; a line that does not parse, or
    repeats an earlier record's key, names its number. Line 1 must be the
    meta line of a ``tag`` file, and its ``count``, where it has one, the
    number of records."""
    records: list = []
    meta: dict = {}
    first_lines: dict[tuple, int] = {}
    number = 0
    # each line decoded on its own, so a byte that is not UTF-8 names its line
    with path.open("rb") as handle:
        try:
            for number, raw in enumerate(handle, 1):
                line = raw.decode("utf-8").strip()
                if not line and number > 1:
                    continue
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise TypeError(f"a JSON {type(data).__name__}, not an object")
                if number == 1:
                    if data.get("artifact") != tag:
                        raise ValueError(f"not the meta line of a {tag!r} file")
                    meta = data
                else:
                    records.append(artifact.record(data))
                    _check_key(artifact.key, data, number, first_lines)
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(path, number, exc) from None
    if number == 0:
        raise _malformed(path, 1, ValueError("empty file, no meta line"))
    count = meta.get("count", len(records))
    if count != len(records):
        raise MalformedArtifact(
            f"{path.name}: the meta line gives count {count!r}, but {len(records)} records follow"
        )
    _check_hash(meta.get("config_hash"), config_hash, path)
    return records


def _record_line(path: Path, index: int) -> int:
    """The line number of record ``index`` (from 0) of a JSONL file that
    ``_read`` has read, counted as it counts them: line 1 is the meta line
    and a blank line holds no record."""
    with path.open("rb") as handle:
        numbers = [n for n, raw in enumerate(handle, 1) if n > 1 and raw.decode("utf-8").strip()]
    return numbers[index]


class _WorkspaceLock:
    """One pipeline per working directory, guarded by a lock file that holds
    the pid of its run; the lock of a pid that is no longer alive is taken
    over with a warning."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".segforge.lock"

    def __enter__(self):
        try:
            fd = self._create()
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()}\n")
            except OSError:
                os.unlink(self.path)  # this run made it
                raise
        except OSError as exc:
            raise SegforgeError(f"cannot write {self.path}: {exc.strerror}") from None
        return self

    def _create(self) -> int:
        try:
            return os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except FileExistsError:
            pid = self._dead_holder()
            if pid is None:
                raise self._locked() from None
            logger.warning("%s names pid %d, which is not running; taking it over", self.path, pid)
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            try:
                return os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            except FileExistsError:  # another run took it over first
                raise self._locked() from None

    def _locked(self) -> WorkspaceLocked:
        return WorkspaceLocked(
            f"{self.path} exists; another run may be active (remove the file if it is stale)"
        )

    def _dead_holder(self) -> int | None:
        """The pid the lock names if that process is gone, else None: a lock
        that cannot be read, or whose pid may be alive, counts as held."""
        try:
            pid = int(self.path.read_text(encoding="utf-8"))
            if pid > 0:
                os.kill(pid, 0)  # signal 0 sends nothing; it only checks the pid
        except ProcessLookupError:
            return pid
        except (OSError, OverflowError, ValueError):  # PermissionError: alive
            pass
        return None

    def __exit__(self, *exc_info):
        try:
            os.unlink(self.path)
        except OSError:
            pass
        return False


# ===== Stages =====


def run_annotate(config: PipelineConfig, out: Path) -> None:
    annotations = annotate_dataset(
        config.compounds_path or None, config.table_path or None
    )
    lines = [json.dumps(vars(a)) for a in annotations]
    _write_jsonl(out, "annotations.jsonl", config.config_hash(), lines, count=len(annotations))
    logger.info("annotated %d compounds", len(annotations))


def run_gen_space(config: PipelineConfig, out: Path) -> None:
    mazes = generate_mazes(
        config.maze_count, config.maze_width, config.maze_height, config.space_seed
    )
    features = {m.maze_id: extract_features(m) for m in mazes}
    games = enumerate_space(mazes)
    config_hash = config.config_hash()

    records = [maze_record_json(m, features[m.maze_id]) for m in mazes]
    meta = {"count": len(mazes), "width": config.maze_width, "height": config.maze_height}
    _write_jsonl(out, "mazes.jsonl", config_hash, records, **meta)

    in_order = itemgetter(*ARTIFACTS["space.csv"].columns)
    rows = [in_order({**vars(features[game.maze_id]), **vars(game)}) for game in games]
    _write_csv(out, "space.csv", config_hash, rows)
    logger.info("generated %d mazes and %d game variants", len(mazes), len(games))


def run_categorize(config: PipelineConfig, out: Path) -> None:
    config_hash = config.config_hash()
    params = _row_parser(GameParams)
    # games.csv keeps each value's text as space.csv holds it
    rows = _read(out, "space.csv", config_hash)
    for row in rows:
        row["difficulty"] = classify_difficulty(params(row))
    in_order = itemgetter(*ARTIFACTS["games.csv"].columns)
    _write_csv(out, "games.csv", config_hash, map(in_order, rows))
    logger.info("categorized %d games", len(rows))


def run_cluster(config: PipelineConfig, out: Path) -> None:
    config_hash = config.config_hash()
    # Earlier garbage is freed before the stage's data are loaded, so they
    # reuse its memory rather than leave holes that the search cannot fill.
    # The search's trees and clusters then stay alive until it returns, so
    # the cyclic collector would walk them again and again and free nothing:
    # it is paused for the search, and a forked child inherits the pause.
    collecting = gc.isenabled()
    if collecting:
        gc.collect()
    games = _read(out, "games.csv", config_hash)
    raw = {game.game_id: game.vector() for game in games}
    # one scaler over the whole space keeps the three levels comparable
    scaler = FeatureScaler.fit(list(raw.values()))
    work = {}
    for level in Difficulty:
        tags = sorted(game.game_id for game in games if game.difficulty == level)
        # a search can make no more leaf clusters than its level has games,
        # and with one game in each, every threshold would score 1.0
        if len(tags) <= config.cluster_k:
            share = "fewer than" if len(tags) < config.cluster_k else "exactly"
            raise ConfigInvalid(
                f"cluster.k is {config.cluster_k}, but level '{level}' has only "
                f"{len(tags)} games in games.csv, {share} one per cluster"
            )
        work[level] = (tags, scaler.transform([raw[tag] for tag in tags]))
    if collecting:
        gc.disable()
    try:
        # without os.sched_getaffinity (not Linux) or a second CPU, no fork
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            outcomes = _search_in_two_processes(config, work)
        else:
            outcomes = _search_levels(config, work)
    finally:
        if collecting:
            gc.enable()

    cluster_rows = []
    member_rows = []
    log_rows = []
    for level in Difficulty:
        # in level order, so the error raised is the first failing level's,
        # as when the levels run one after another
        result = outcomes[level]
        if isinstance(result, Exception):
            raise result
        # csv writes a float as its repr and None as an empty field
        for candidate in result.log:
            selected = "true" if candidate.threshold == result.best_threshold else "false"
            log_rows.append([level, *astuple(candidate), selected])
        for index, cluster in enumerate(result.clusters):
            summary = summarize(cluster, raw, level, f"{level}-{index:03d}")
            cluster_rows.append([*_summary_values(summary), *summary.centroid])
            member_rows.extend(
                [summary.cluster_id, game_id] for game_id in sorted(summary.member_game_ids)
            )
        logger.info(
            "level %s: threshold %g scored %.4f over %d clusters",
            level,
            result.best_threshold,
            result.score,
            len(result.clusters),
        )

    _write_csv(out, "clusters.csv", config_hash, cluster_rows)
    _write_csv(out, "membership.csv", config_hash, member_rows)
    _write_csv(out, "threshold_log.csv", config_hash, log_rows)


_LevelWork = dict[Difficulty, tuple[list[str], list[tuple[float, ...]]]]


def _search_levels(
    config: PipelineConfig, work: _LevelWork
) -> dict[Difficulty, ThresholdSearchResult | Exception]:
    """Each level's threshold search, in the order of ``work``, up to the
    first that raises; that level's exception stands in for its result."""
    outcomes: dict[Difficulty, ThresholdSearchResult | Exception] = {}
    for level, (tags, points) in work.items():
        try:
            outcomes[level] = search_threshold(
                points,
                tags,
                grid=config.cluster_threshold_grid,
                k=config.cluster_k,
                branching=config.cluster_branching,
                sample_cap=config.cluster_sample_cap,
                seed=config.cluster_seed,
            )
        except Exception as exc:
            outcomes[level] = exc
            break
    return outcomes


def _search_in_two_processes(
    config: PipelineConfig, work: _LevelWork
) -> dict[Difficulty, ThresholdSearchResult | Exception]:
    """``_search_levels`` with the level of the most games searched in this
    process and the others, in order, in one forked child.

    This process keeps the largest search, so its own peak memory and its
    own timings still cover the stage's largest level. The child sends its
    outcomes back pickled over a pipe and ends with ``os._exit``: it never
    runs this process's ``finally`` blocks or exit handlers, and never
    flushes the stdio buffers it inherited.
    """
    own = max(work, key=lambda level: len(work[level][0]))
    forked = {level: task for level, task in work.items() if level != own}
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:  # no process to spare: the same searches, one by one
        os.close(read_fd)
        os.close(write_fd)
        logger.warning("cannot fork (%s); searching every level in this process", exc.strerror)
        return _search_levels(config, work)
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(_search_levels(config, forked))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)

    os.close(write_fd)
    reaped = False
    try:
        with open(read_fd, "rb") as pipe:
            outcomes = _search_levels(config, {own: work[own]})
            # the child blocks on a full pipe until this read drains it
            payload = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        names = " and ".join(str(level) for level in forked)
        raise SegforgeError(f"the process clustering {names} {how} before sending its result")
    return {**pickle.loads(payload), **outcomes}


def run_map(config: PipelineConfig, out: Path) -> None:
    config_hash = config.config_hash()
    compounds = _read(out, "annotations.jsonl", config_hash)
    # distinct ids, so every id lies in 1..N only if they are exactly 1..N,
    # the curriculum positions the sessions walk through
    stray = next(
        (i for i, c in enumerate(compounds) if not 1 <= c.compound_id <= len(compounds)), None
    )
    if stray is not None:
        problem = ValueError(
            f"compound_id {compounds[stray].compound_id} is not in 1..{len(compounds)}, "
            f"the positions of the file's {len(compounds)} compounds"
        )
        path = out / "annotations.jsonl"
        raise _malformed(path, _record_line(path, stray), problem)
    if config.cluster_k != len(compounds):
        problem = f"map needs one cluster per level for each of the {len(compounds)} compounds"
        raise ConfigInvalid(f"cluster.k is {config.cluster_k}, but {problem} in annotations.jsonl")
    games = _read(out, "games.csv", config_hash)
    members: dict[str, list[str]] = {}
    for row in _read(out, "membership.csv", config_hash):
        members.setdefault(row["cluster_id"], []).append(row["game_id"])
    summaries = [
        replace(summary, member_game_ids=tuple(sorted(members.get(summary.cluster_id, ()))))
        for summary in _read(out, "clusters.csv", config_hash)
    ]
    by_level = {level: [s for s in summaries if s.difficulty == level] for level in Difficulty}
    mapping = deploy(compounds, by_level)
    library = ContentLibrary(
        compounds=compounds,
        games=games,
        clusters=summaries,
        mapping=mapping,
        metadata={"config_hash": config_hash, "tool_version": __version__},
    )
    validate_library(library)
    save_library(library, str(out / "library.sqlite"))
    _atomic_write(out / "library.json", export_json(library))
    n_rows, s_rows = export_level_curves(library)
    _write_csv(out, "mapping_N.csv", config_hash, n_rows)
    _write_csv(out, "mapping_S.csv", config_hash, s_rows)
    logger.info(
        "deployed %d compounds x %d levels over %d clusters",
        len(compounds),
        len(Difficulty),
        len(summaries),
    )


def _check_features(grid: MazeGrid, stored: MazeFeatures, games: list[GameRecord]) -> None:
    """Raise MalformedArtifact unless the features of ``grid``'s cells equal
    the ones its mazes.jsonl record stores and every library game on it."""
    actual = vars(extract_features(grid))
    holders = [(stored, "its record")] + [(g, f"library game {g.game_id!r}") for g in games]
    for holder, label in holders:
        for name, value in actual.items():
            if getattr(holder, name) != value:
                raise MalformedArtifact(
                    f"mazes.jsonl: maze {grid.maze_id!r} has {name} {value!r} in its cells "
                    f"but {getattr(holder, name)!r} in {label}"
                )


class _PlayedTrees(dict):
    """Routing tables keyed by maze id, each built when a game on its maze is
    first served and shared by every later game there. A maze's mazes.jsonl
    record stays undecoded, and the library games on it unread, until then,
    so a cohort decodes, checks and holds the tables of the mazes it plays
    rather than of the whole library.

    A maze that a game of ``library`` uses and ``records`` lacks raises
    MalformedArtifact.
    """

    def __init__(self, path: Path, records: list[dict], library: ContentLibrary):
        super().__init__()
        self.path = path
        self.records = records
        self.index = {record["maze_id"]: i for i, record in enumerate(records)}
        self.library = library
        missing = next((m for m in library.maze_ids if m not in self.index), None)
        if missing is not None:
            raise MalformedArtifact(f"mazes.jsonl has no maze {missing!r}, which the library uses")

    def __missing__(self, maze_id: str) -> MazeTree:
        tree = self[maze_id] = self.checked(maze_id)
        return tree

    def checked(self, maze_id: str) -> MazeTree:
        """The routing tables of maze ``maze_id``. Raises MalformedArtifact,
        naming the maze, unless its record decodes to a perfect maze whose
        cells have the features that its record and every library game on
        it store; a record that does not decode also names its line."""
        index = self.index[maze_id]
        try:
            # looked up when called, like every name this module imports, so
            # that a wrapper set on this module's name sees each call
            grid, stored = maze_from_record(self.records[index])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedArtifact(
                f"{self.path.name} line {_record_line(self.path, index)}: maze {maze_id!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        try:
            tree = maze_tree(grid)
        except ImperfectMaze as exc:
            raise MalformedArtifact(f"mazes.jsonl: {exc}") from None
        _check_features(grid, stored, self.library.games_on(maze_id))
        return tree


def _per_level(counts: dict[Difficulty, int]) -> str:
    return ", ".join(f"{level} {count}" for level, count in counts.items())


def run_simulate(config: PipelineConfig, out: Path) -> None:
    config_hash = config.config_hash()
    # a cluster and a maze are read and checked when a session first serves
    # them; verify checks the rest
    with _read(out, "library.sqlite", config_hash) as library:
        trees = _PlayedTrees(out / "mazes.jsonl", _read(out, "mazes.jsonl", config_hash), library)
        practice_maze = practice_tree()

        session_lines: list[str] = []
        event_lines: list[str] = []

        def log_events(player_id: str, game_id: str, events) -> None:
            event_lines.extend(
                json.dumps({"player_id": player_id, "game_id": game_id, **vars(event)})
                for event in events
            )

        victories = 0
        recycled = dict.fromkeys(Difficulty, 0)
        exhausted = dict.fromkeys(Difficulty, 0)
        for p in range(config.sim_players):
            profile = PlayerProfile(f"player-{p:03d}")
            practice = practice_session(
                profile,
                practice_maze,
                config.sim_policy,
                seed=config.sim_seed + p,
                easy_medium=config.easy_medium,
                medium_hard=config.medium_hard,
                positive_weights=config.positive_weights,
                negative_weights=config.negative_weights,
            )
            log_events(profile.player_id, practice.game_id, practice.events)
            for s in range(config.sim_sessions):
                seed = config.sim_seed + 1009 + p * config.sim_sessions + s
                try:
                    record = run_session(
                        profile,
                        library,
                        trees,
                        config.sim_policy,
                        seed,
                        recycle=config.sim_recycle,
                        positive_weights=config.positive_weights,
                        negative_weights=config.negative_weights,
                    )
                except CurriculumComplete:
                    stop = "curriculum_complete"
                except EmptyPool:
                    exhausted[profile.mastery] += 1
                    stop = "pool_exhausted"
                else:
                    session_lines.append(json.dumps(record.to_record(), sort_keys=False))
                    log_events(profile.player_id, record.game_id, record.events)
                    victories += record.outcome == "victory"
                    recycled[record.difficulty] += record.recycled
                    continue
                event_lines.append(json.dumps({"player_id": profile.player_id, "kind": stop}))
                break

    meta = {
        "players": config.sim_players,
        "sessions_per_player": config.sim_sessions,
        "policy": config.sim_policy,
    }
    _write_jsonl(out, "sessions.jsonl", config_hash, session_lines, **meta)
    _write_jsonl(out, "events.jsonl", config_hash, event_lines, **meta)
    logger.info("read %d of %d clusters and %d of %d library games", *library.read_counts())
    logger.info(
        "simulated %d sessions (%d victories) for %d players; recycled: %s; "
        "pools exhausted: %s; routing tables built for %d of %d library mazes",
        len(session_lines),
        victories,
        config.sim_players,
        _per_level(recycled),
        _per_level(exhausted),
        len(trees),
        len(library.maze_ids),
    )


def run_verify(config: PipelineConfig, out: Path) -> list[str]:
    """Check the whole library, as ``validate_library`` does, and raise on
    its first broken rule; then one line for each maze the library uses
    that ``simulate`` would refuse when a game on it is first served, in
    maze id order. The files are read as ``simulate`` reads them, so a file
    that it would refuse raises as there."""
    config_hash = config.config_hash()
    with _read(out, "library.sqlite", config_hash) as library:
        validate_library(library)
        trees = _PlayedTrees(out / "mazes.jsonl", _read(out, "mazes.jsonl", config_hash), library)
        problems = []
        for maze_id in library.maze_ids:
            try:
                trees.checked(maze_id)
            except MalformedArtifact as exc:
                problems.append(str(exc))
    logger.info(
        "verified %d mazes and %d library games: %d broken",
        len(library.maze_ids),
        len(library.games),
        len(problems),
    )
    return problems


def run_analyze(config: PipelineConfig, out: Path, sessions_path: str | None = None) -> None:
    config_hash = config.config_hash()
    path = Path(sessions_path) if sessions_path else None
    records = _read(out, "sessions.jsonl", config_hash, path)
    analysis = analyze_sessions(
        records,
        ci_level=config.stats_ci_level,
        significance=config.stats_significance,
        min_n=config.stats_min_n,
    )
    _atomic_write(out / "report.txt", format_report(analysis))
    _write_csv(out, "report_numbers.csv", config_hash, report_rows(analysis))
    logger.info(
        "analyzed %d sessions (%d learning-eligible)",
        analysis.total_sessions,
        analysis.eligible_sessions,
    )


# ===== Artifact records =====


def _names(cls: type, *without: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in without)


def _row_parser(cls: type):
    """Build a ``cls`` record from a CSV row, parsing each field by its type."""
    parsers = [(f.name, text_parser(f.type)) for f in fields(cls)]
    return lambda row: cls(*[parse(row[name]) for name, parse in parsers])


def _typed_text(cls: type):
    """A CSV row kept as text once each value parses as its ``cls`` field's
    type, so that a bad value stops the stage that reads it."""
    parsers = {f.name: text_parser(f.type) for f in fields(cls)}

    def check(row: dict[str, str]) -> dict[str, str]:
        for name, text in row.items():
            parsers[name](text)
        return row

    return check


# clusters.csv: the ClusterSummary fields, the centroid spread over one
# column per feature and the members left to membership.csv
_SUMMARY_SCALARS = _names(ClusterSummary, "centroid", "member_game_ids")
_summary_values = attrgetter(*_SUMMARY_SCALARS)
_CENTROID_COLUMNS = tuple(f"c{i}" for i in range(len(FEATURE_NAMES)))
_summary_parsers = [
    (f.name, text_parser(f.type)) for f in fields(ClusterSummary) if f.name in _SUMMARY_SCALARS
]
_coordinate = text_parser("float")


def _summary(row: dict[str, str]) -> ClusterSummary:
    """A clusters.csv row, without the members that membership.csv holds."""
    return ClusterSummary(
        *[parse(row[name]) for name, parse in _summary_parsers],
        centroid=tuple(_coordinate(row[c]) for c in _CENTROID_COLUMNS),
        member_game_ids=(),
    )


_annotation_values = row_decoder(fields(CompoundAnnotation))


def _annotation(record: dict) -> CompoundAnnotation:
    # the first build refuses a missing or unknown field, the decoders a
    # value that is not of its field's type, a missing compound_id too
    return CompoundAnnotation(*_annotation_values(vars(CompoundAnnotation(**record)).values()))


def _session(record: dict) -> dict:
    # the fields analyze_sessions reads, with the types it counts on
    if type(record["fun"]) is not bool:
        raise TypeError(f"fun is {record['fun']!r}, not true or false")
    for name in ("pre_exam", "post_exam"):
        if type(record[name]) is not int or record[name] not in (0, 1):
            raise ValueError(f"{name} is {record[name]!r}, not 0 or 1")
    return record


_LEVEL_CURVE = ("compound_id", *Difficulty)
ARTIFACTS = {
    "annotations.jsonl": _Artifact("annotate", "jsonl", key=("compound_id",), record=_annotation),
    # a record is decoded when a game on its maze is first served
    "mazes.jsonl": _Artifact("gen-space", "jsonl", key=("maze_id",)),
    "space.csv": _Artifact(
        "gen-space", "csv", _names(GameRecord, "difficulty"), ("game_id",), _typed_text(GameRecord)
    ),
    "games.csv": _Artifact(
        "categorize", "csv", _names(GameRecord), ("game_id",), _row_parser(GameRecord)
    ),
    "clusters.csv": _Artifact(
        "cluster", "csv", _SUMMARY_SCALARS + _CENTROID_COLUMNS, ("cluster_id",), _summary
    ),
    "membership.csv": _Artifact("cluster", "csv", ("cluster_id", "game_id"), ("game_id",)),
    "threshold_log.csv": _Artifact(
        "cluster", "csv", ("difficulty", *_names(ThresholdCandidate), "selected")
    ),
    "library.sqlite": _Artifact("map", "sqlite"),
    "library.json": _Artifact("map", "text"),
    "mapping_N.csv": _Artifact("map", "csv", _LEVEL_CURVE),
    "mapping_S.csv": _Artifact("map", "csv", _LEVEL_CURVE),
    "sessions.jsonl": _Artifact("simulate", "jsonl", key=("player_id", "seed"), record=_session),
    "events.jsonl": _Artifact("simulate", "jsonl"),
    "report.txt": _Artifact("analyze", "text"),
    "report_numbers.csv": _Artifact("analyze", "csv", ("metric", "value")),
}


# ===== Entry point =====


@dataclass(frozen=True)
class _Stage:
    """A stage's function, the artifacts it reads and its flags by ``run``
    keyword; the artifacts it writes are the ones that name it."""

    run: Callable[..., None]
    reads: tuple[str, ...] = ()
    flags: dict[str, tuple[str, dict]] = field(default_factory=dict)

    @property
    def writes(self) -> tuple[str, ...]:
        return tuple(name for name, a in ARTIFACTS.items() if STAGE_TABLE[a.producer] is self)


STAGE_TABLE = {
    "annotate": _Stage(run_annotate),
    "gen-space": _Stage(run_gen_space),
    "categorize": _Stage(run_categorize, ("space.csv",)),
    "cluster": _Stage(run_cluster, ("games.csv",)),
    "map": _Stage(run_map, ("annotations.jsonl", "games.csv", "membership.csv", "clusters.csv")),
    "simulate": _Stage(run_simulate, ("library.sqlite", "mazes.jsonl")),
    "analyze": _Stage(
        run_analyze,
        ("sessions.jsonl",),
        {"sessions_path": ("--sessions", {"metavar": "PATH", "help": "sessions.jsonl to read"})},
    ),
}


def _run_directory_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="path to a key=value config file")
    sub.add_argument(
        "--out",
        default=None,
        help="working directory for artifacts (default: $SEGFORGE_DIR or ./segforge_out)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segforge",
        description="Generate, cluster, map and exercise maze-game learning content.",
    )
    parser.add_argument("--version", action="version", version=f"segforge {__version__}")
    subparsers = parser.add_subparsers(dest="stage", required=True, metavar="stage")
    commands = {**{name: entry.flags for name, entry in STAGE_TABLE.items()}, "pipeline": {}}
    for name, flags in commands.items():
        sub = subparsers.add_parser(name, help=f"run the {name} stage")
        _run_directory_flags(sub)
        sub.add_argument(
            "--seed", type=int, default=None, help="override space, cluster and sim seeds"
        )
        for keyword, (option, settings) in flags.items():
            sub.add_argument(option, dest=keyword, **settings)
    verify = subparsers.add_parser(
        "verify", help="check the whole library and every maze it uses"
    )
    _run_directory_flags(verify)
    verify.set_defaults(seed=None)
    init = subparsers.add_parser("init-config", help="print a commented default config")
    init.add_argument("--config", default=None, help="write the template to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.stage == "init-config":
            text = default_config_text()
            if args.config:
                _atomic_write(args.config, text)
            else:
                sys.stdout.write(text)
            return 0

        overrides: dict[str, str] = {}
        if args.seed is not None:
            overrides = {
                "space.seed": str(args.seed),
                "cluster.seed": str(args.seed),
                "sim.seed": str(args.seed),
            }
        config = load_config(args.config, overrides)
        out = Path(args.out or os.environ.get("SEGFORGE_DIR") or "segforge_out")
        if args.stage == "verify":
            # reads only, so it neither makes the directory nor takes its lock
            problems = run_verify(config, out)
            for problem in problems:
                print(f"segforge verify: {problem}", file=sys.stderr)
            return 1 if problems else 0
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SegforgeError(f"cannot create directory {out}: {exc.strerror}") from None
        stages = STAGE_TABLE.values() if args.stage == "pipeline" else [STAGE_TABLE[args.stage]]
        with _WorkspaceLock(out):
            for stage in stages:
                stage.run(config, out, **{k: v for k, v in vars(args).items() if k in stage.flags})
    except SegforgeError as exc:
        print(f"segforge {args.stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
