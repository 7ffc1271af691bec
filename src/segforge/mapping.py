"""Compound-to-cluster deployment and the persistent content library.

Each difficulty level contributes as many game clusters as there are
compounds. Clusters are ranked by size (ascending) so the easiest compound
pairs with the level's smallest cluster, and the whole assignment is stored
in a single-file relational library with a lossless JSON export.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from .clustering import ClusterSummary
from .contentspace import FEATURE_NAMES, Difficulty, GameParams
from .errors import SegforgeError
from .knowledge import CompoundAnnotation

logger = logging.getLogger(__name__)


class CardinalityMismatch(SegforgeError):
    """A level's cluster count differs from the compound count."""


class IntegrityViolation(SegforgeError):
    """Cross-table references in a loaded library do not line up."""


class CorruptStore(SegforgeError):
    """The library file cannot be read as a relational store."""


@dataclass(frozen=True)
class GameRecord(GameParams):
    """One game variant with its difficulty and maze features.

    The fields, the ``GameParams`` ones first and then these in this order,
    are the columns of ``games.csv`` and of the library's ``games`` table,
    and the keys of its JSON export.
    """

    difficulty: Difficulty
    total_path: int
    total_corners: int
    total_intersections: int
    total_deadend: int
    complexity: float

    def vector(self) -> tuple[float, ...]:
        """The clustering feature vector, in FEATURE_NAMES order.

        Counts stay ints: every consumer mixes them with floats or divides
        them, which gives the same values as converting them first.
        """
        return _feature_values(self)


_feature_values = attrgetter(*FEATURE_NAMES)


@dataclass(frozen=True)
class MappingEntry:
    """One curriculum cell: a compound's game cluster at one level."""

    compound_id: int
    difficulty: Difficulty
    cluster_id: str


def sort_clusters(summaries: list[ClusterSummary]) -> list[ClusterSummary]:
    """Order clusters by size ascending, spread descending, id ascending."""
    return sorted(summaries, key=lambda c: (c.n, -c.s, c.cluster_id))


def deploy(
    compounds: list[CompoundAnnotation],
    clusters_by_level: dict[Difficulty, list[ClusterSummary]],
) -> list[MappingEntry]:
    """Pair compounds with clusters positionally, level by level.

    Compounds are taken in compound_id order (easiest first) and clusters in
    :func:`sort_clusters` order, so the easiest compound receives the
    smallest cluster of every level. Each level must supply exactly one
    cluster per compound.
    """
    ordered = sorted(compounds, key=lambda c: c.compound_id)
    entries: list[MappingEntry] = []
    for level in Difficulty:
        clusters = clusters_by_level.get(level, [])
        if len(clusters) != len(ordered):
            raise CardinalityMismatch(
                f"level '{level}' has {len(clusters)} clusters for {len(ordered)} compounds"
            )
        for compound, cluster in zip(ordered, sort_clusters(clusters)):
            entries.append(MappingEntry(compound.compound_id, level, cluster.cluster_id))
    return entries


class ContentLibrary:
    """The deployed curriculum: compounds, games, clusters and their wiring.

    ``map`` builds one whole in memory. :func:`load_library` opens one on a
    library file and reads its rows on demand: ``compounds``, ``games`` and
    ``clusters`` each read their whole table on first access, and
    ``cluster_for`` reads a cluster, its members and their game rows when it
    first serves the cluster. Either way :func:`check_cluster` checks a
    cluster when it is first served, and :func:`validate_library` checks the
    whole library. An opened library keeps its file open until
    :meth:`close`, which a ``with`` block calls on leaving.
    """

    def __init__(
        self,
        compounds: list[CompoundAnnotation],
        games: list[GameRecord],
        clusters: list[ClusterSummary],
        mapping: list[MappingEntry],
        metadata: dict[str, str] | None = None,
    ) -> None:
        # Canonical row order: makes equality content-based and saves
        # deterministic regardless of construction order.
        compounds = sorted(compounds, key=lambda c: c.compound_id)
        games = sorted(games, key=lambda g: g.game_id)
        clusters = sorted(
            (
                c
                if tuple(sorted(c.member_game_ids)) == c.member_game_ids
                else replace(c, member_game_ids=tuple(sorted(c.member_game_ids)))
                for c in clusters
            ),
            key=lambda c: c.cluster_id,
        )
        self._start(
            None,
            None,
            mapping,
            {} if metadata is None else metadata,
            compound_ids=[c.compound_id for c in compounds],
            cluster_levels={c.cluster_id: c.difficulty for c in clusters},
            maze_ids=sorted({g.maze_id for g in games}),
            game_count=len(games),
        )
        self._compounds, self._games, self._clusters = compounds, games, clusters
        self._games_by_id = {g.game_id: g for g in games}
        self._clusters_by_id = {c.cluster_id: c for c in clusters}

    def _start(
        self, conn, path, mapping, metadata, *, compound_ids, cluster_levels, maze_ids, game_count
    ) -> None:
        """The state a library holds before any row is read: the store it
        reads from, if any, the mapping and metadata, the ids that the
        mapping rules need, the mazes its games use and its game count."""
        self._conn = conn
        self._path = path
        self.mapping = sorted(mapping, key=lambda m: (m.compound_id, m.difficulty))
        self.metadata = metadata
        self._mapping_index = {
            (m.compound_id, m.difficulty): m.cluster_id for m in self.mapping
        }
        self._compound_ids = compound_ids
        self._cluster_levels = cluster_levels
        self.maze_ids = maze_ids
        self.game_count = game_count
        self._compounds = self._games = self._clusters = self._by_maze = None
        self._games_by_id: dict[str, GameRecord] = {}
        self._clusters_by_id: dict[str, ClusterSummary] = {}
        self._served: dict[str, ClusterSummary] = {}

    @classmethod
    def _opened(cls, conn: sqlite3.Connection, path: str) -> ContentLibrary:
        """The library in the store that ``conn`` reads, with none of its
        compound, game or cluster rows read yet; raises IntegrityViolation
        unless the mapping holds."""
        library = cls.__new__(cls)
        with _store_errors(path):
            library._start(
                conn,
                path,
                _select(conn, MappingEntry, "mapping", "compound_id, difficulty"),
                dict(conn.execute("SELECT key, value FROM metadata ORDER BY key")),
                compound_ids=[i for i, in _rows(conn, "compounds", _COMPOUND_ID, "compound_id")],
                cluster_levels=dict(_rows(conn, "clusters", _CLUSTER_LEVEL, "cluster_id")),
                maze_ids=[
                    m for m, in _rows(conn, "games", _MAZE_ID, "maze_id", "GROUP BY maze_id")
                ],
                game_count=conn.execute("SELECT count(*) FROM games").fetchone()[0],
            )
            _check_mapping(library)
        return library

    @property
    def compounds(self) -> list[CompoundAnnotation]:
        if self._compounds is None:
            with _store_errors(self._path):
                self._compounds = _select(
                    self._conn, CompoundAnnotation, "compounds", "compound_id"
                )
        return self._compounds

    @property
    def games(self) -> list[GameRecord]:
        if self._games is None:
            with _store_errors(self._path):
                self._games = _games(self._conn)
            self._games_by_id.update((g.game_id, g) for g in self._games)
        return self._games

    @property
    def clusters(self) -> list[ClusterSummary]:
        if self._clusters is None:
            with _store_errors(self._path):
                self._clusters = _clusters(self._conn)
            self._clusters_by_id.update((c.cluster_id, c) for c in self._clusters)
        return self._clusters

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContentLibrary):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in ("compounds", "games", "clusters", "mapping", "metadata")
        )

    __hash__ = None  # equal by content, which can change

    @property
    def compound_count(self) -> int:
        return len(self._compound_ids)

    def game(self, game_id: str) -> GameRecord:
        """A game of a cluster already served, or of a table read whole."""
        return self._games_by_id[game_id]

    def cluster_for(self, compound_id: int, difficulty: Difficulty) -> ClusterSummary:
        key = (compound_id, difficulty)
        if key not in self._mapping_index:
            raise KeyError(f"no cluster mapped for compound {compound_id} at '{difficulty}'")
        cluster_id = self._mapping_index[key]
        cluster = self._served.get(cluster_id)
        if cluster is None:
            cluster = self._served[cluster_id] = self._serve(cluster_id)
        return cluster

    def _serve(self, cluster_id: str) -> ClusterSummary:
        """Cluster ``cluster_id`` on its first serve: read from the store
        with its members' game rows, if the library has one, and checked."""
        with _store_errors(self._path, f"cluster {cluster_id!r}: "):
            if self._conn is not None:
                (cluster,) = _clusters(self._conn, "WHERE cluster_id = ?", (cluster_id,))
                self._clusters_by_id[cluster_id] = cluster
                members = _games(
                    self._conn,
                    "WHERE game_id IN (SELECT game_id FROM membership WHERE cluster_id = ?)",
                    (cluster_id,),
                )
                self._games_by_id.update((g.game_id, g) for g in members)
            cluster = self._clusters_by_id[cluster_id]
            check_cluster(cluster, self._games_by_id)
        return cluster

    def games_on(self, maze_id: str) -> list[GameRecord]:
        """The library games on maze ``maze_id``, in game id order: read
        from the store, unless the whole games table is already read."""
        if self._games is None:
            with _store_errors(self._path, f"maze {maze_id!r}: "):
                games = _games(self._conn, "WHERE maze_id = ?", (maze_id,))
            self._games_by_id.update((g.game_id, g) for g in games)
            return games
        if self._by_maze is None:
            self._by_maze = {}
            for game in self._games:
                self._by_maze.setdefault(game.maze_id, []).append(game)
        return self._by_maze.get(maze_id, [])

    def read_counts(self) -> tuple[int, int, int, int]:
        """The clusters served so far and all clusters; the games read so
        far, as members of a served cluster or as games on a maze that
        ``games_on`` was asked for, and all games. A library in memory has
        read every game."""
        clusters = len(self._cluster_levels)
        return len(self._served), clusters, len(self._games_by_id), self.game_count

    def close(self) -> None:
        """Close the library file; a row not read yet can no longer be."""
        if self._conn is not None:
            self._conn.close()

    def __enter__(self) -> ContentLibrary:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def _store_errors(path: str | None, rows: str = ""):
    """For a library read from the file at ``path``: a failure to read or
    decode ``rows`` raises CorruptStore and a broken rule
    IntegrityViolation, each naming the file. Without a file, nothing."""
    if path is None:
        yield
        return
    try:
        yield
    except (sqlite3.DatabaseError, TypeError, ValueError) as exc:
        raise CorruptStore(f"cannot read library at {path!r}: {rows}{exc}") from exc
    except IntegrityViolation as exc:
        raise IntegrityViolation(f"library at {path!r}: {exc}") from None


def check_cluster(cluster: ClusterSummary, games_by_id: dict[str, GameRecord]) -> None:
    """The rule of one cluster, run when it is first served: its ``n`` is
    its member count, and every member is a game of its level."""
    if cluster.n != len(cluster.member_game_ids):
        raise IntegrityViolation(
            f"cluster {cluster.cluster_id!r} claims n={cluster.n} but has "
            f"{len(cluster.member_game_ids)} members"
        )
    for game_id in cluster.member_game_ids:
        game = games_by_id.get(game_id)
        if game is None:
            raise IntegrityViolation(
                f"cluster {cluster.cluster_id!r} references unknown game {game_id!r}"
            )
        if game.difficulty != cluster.difficulty:
            raise IntegrityViolation(
                f"game {game_id!r} is '{game.difficulty}' but its cluster "
                f"{cluster.cluster_id!r} is '{cluster.difficulty}'"
            )


def _check_mapping(library: ContentLibrary) -> None:
    """The rules of the mapping, which need no game row: each entry names
    a known compound and a cluster of its level, no cluster is mapped
    twice, and every compound has a cluster at every level."""
    compound_ids = set(library._compound_ids)
    mapped_clusters: set[str] = set()
    for entry in library.mapping:
        if entry.compound_id not in compound_ids:
            raise IntegrityViolation(f"mapping references unknown compound {entry.compound_id}")
        level = library._cluster_levels.get(entry.cluster_id)
        if level is None:
            raise IntegrityViolation(f"mapping references unknown cluster {entry.cluster_id!r}")
        if level != entry.difficulty:
            raise IntegrityViolation(
                f"mapping puts '{entry.difficulty}' material of compound {entry.compound_id} "
                f"on '{level}' cluster {entry.cluster_id!r}"
            )
        if entry.cluster_id in mapped_clusters:
            raise IntegrityViolation(f"cluster {entry.cluster_id!r} mapped twice")
        mapped_clusters.add(entry.cluster_id)
    for compound_id in library._compound_ids:
        for level in Difficulty:
            if (compound_id, level) not in library._mapping_index:
                raise IntegrityViolation(f"compound {compound_id} has no '{level}' cluster")


def validate_library(library: ContentLibrary) -> None:
    """Check every rule over the whole library, reading every row of a
    stored one: each cluster's (:func:`check_cluster`), each game in
    exactly one cluster, and the mapping's. Raise IntegrityViolation on the
    first broken rule, or CorruptStore on a stored row that does not
    decode; either names the file of a stored library."""
    games_by_id = {g.game_id: g for g in library.games}
    clusters = library.clusters
    with _store_errors(library._path):
        owners: dict[str, str] = {}
        for cluster in clusters:
            check_cluster(cluster, games_by_id)
            for game_id in cluster.member_game_ids:
                owner = owners.setdefault(game_id, cluster.cluster_id)
                if owner != cluster.cluster_id:
                    raise IntegrityViolation(
                        f"game {game_id!r} belongs to clusters {owner!r} "
                        f"and {cluster.cluster_id!r}"
                    )
        for game_id in games_by_id:
            if game_id not in owners:
                raise IntegrityViolation(f"game {game_id!r} belongs to no cluster")
        _check_mapping(library)


# ===== Relational persistence =====


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


# field type -> (SQL column type, Python type of its stored value, parser of
# that value or None); a stored value of another type is refused, so a bool
# is no int, and neither is text or a null. A tuple is stored as its JSON list.
_FIELD_TYPES = {
    "str": ("TEXT", str, None),
    "int": ("INTEGER", int, None),
    "int | None": ("INTEGER", int, None),  # a stored compound has its id
    "float": ("REAL", float, _finite),
    "Difficulty": ("TEXT", str, Difficulty),
    "tuple[float, ...]": ("TEXT", str, lambda text: tuple(map(_finite, json.loads(text)))),
}


def text_parser(type_name: str):
    """The parser of a value of field type ``type_name`` written as CSV
    text: the type's parser, else its stored type."""
    _, kind, parse = _FIELD_TYPES[type_name]
    return parse or kind


# A cluster's members are rows of the membership table, not a column.
_CLUSTER_COLUMNS = tuple(f for f in fields(ClusterSummary) if f.name != "member_game_ids")


def _create_table(name: str, columns, constraints: dict[str, str], *table_constraints) -> str:
    """CREATE TABLE text, one ``name TYPE constraint`` line per dataclass
    field, then the table constraints; a column missing from ``constraints``
    is NOT NULL."""
    lines = [
        f"    {c.name} {_FIELD_TYPES[c.type][0]} {constraints.get(c.name, 'NOT NULL')}"
        for c in columns
    ]
    lines += [f"    {constraint}" for constraint in table_constraints]
    return f"CREATE TABLE {name} (\n" + ",\n".join(lines) + "\n);\n"


_SCHEMA = (
    # compound_id leads the table although it is the annotation's last field
    _create_table(
        "compounds",
        sorted(fields(CompoundAnnotation), key=lambda c: c.name != "compound_id"),
        {"compound_id": "PRIMARY KEY", "formula": "NOT NULL UNIQUE"},
    )
    + _create_table("games", fields(GameRecord), {"game_id": "PRIMARY KEY"})
    + _create_table("clusters", _CLUSTER_COLUMNS, {"cluster_id": "PRIMARY KEY"})
    + """CREATE TABLE membership (
    cluster_id TEXT NOT NULL REFERENCES clusters(cluster_id),
    game_id TEXT NOT NULL UNIQUE REFERENCES games(game_id),
    UNIQUE(cluster_id, game_id)
);
"""
    + _create_table(
        "mapping",
        fields(MappingEntry),
        {
            "compound_id": "NOT NULL REFERENCES compounds(compound_id)",
            "cluster_id": "NOT NULL UNIQUE REFERENCES clusters(cluster_id)",
        },
        "UNIQUE(compound_id, difficulty)",
    )
    + """CREATE TABLE metadata (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""
)


def row_decoder(columns):
    """A function from stored values, in ``columns`` order, to the list of
    the fields' values: a value of a type its field does not store raises
    TypeError, and one its field's parser refuses raises ValueError."""
    _, kinds, parsers = zip(*(_FIELD_TYPES[c.type] for c in columns))
    parsed = [(i, parse) for i, parse in enumerate(parsers) if parse]

    def decode(row) -> list:
        values = list(row)
        if tuple(map(type, values)) != kinds:
            value, kind = next((v, k) for v, k in zip(values, kinds) if type(v) is not k)
            raise TypeError(f"{value!r} is not {kind.__name__}")
        for i, parse in parsed:
            values[i] = parse(values[i])
        return values

    return decode


def _insert(conn: sqlite3.Connection, table: str, columns, records: list) -> None:
    """Insert dataclass records, one column per field in ``columns``; a
    tuple is stored as its JSON list."""
    names = [c.name for c in columns]
    rows = (
        [json.dumps(v) if type(v) is tuple else v for v in row]
        for row in map(attrgetter(*names), records)
    )
    conn.executemany(
        f"INSERT INTO {table} ({', '.join(names)}) VALUES ({','.join('?' * len(names))})",
        rows,
    )


def _rows(conn: sqlite3.Connection, table: str, columns, order_by: str, clause="", params=()):
    """The rows of ``table`` that ``clause`` (a WHERE or GROUP BY clause with
    ``params``) leaves, their values in ``columns`` order, decoded by their
    fields' types."""
    names = ", ".join(c.name for c in columns)
    rows = conn.execute(f"SELECT {names} FROM {table} {clause} ORDER BY {order_by}", params)
    return map(row_decoder(columns), rows)


def _select(conn: sqlite3.Connection, cls: type, table: str, order_by: str, clause="", params=()):
    """The rows of ``table`` that ``clause`` leaves as ``cls`` records,
    built positionally."""
    return [cls(*row) for row in _rows(conn, table, fields(cls), order_by, clause, params)]


def _clusters(conn: sqlite3.Connection, clause="", params=()) -> list[ClusterSummary]:
    """The clusters that a WHERE ``clause`` on ``cluster_id`` leaves, each
    with its members from the membership table."""
    members: dict[str, list[str]] = {}
    for cluster_id, game_id in conn.execute(
        f"SELECT cluster_id, game_id FROM membership {clause} ORDER BY cluster_id, game_id", params
    ):
        members.setdefault(cluster_id, []).append(game_id)
    return [
        ClusterSummary(*row, member_game_ids=tuple(members.get(row[0], ())))
        for row in _rows(conn, "clusters", _CLUSTER_COLUMNS, "cluster_id", clause, params)
    ]


def _games(conn: sqlite3.Connection, clause="", params=()) -> list[GameRecord]:
    """The games that a WHERE ``clause`` leaves, in game id order."""
    return _select(conn, GameRecord, "games", "game_id", clause, params)


def _columns(cls: type, *names: str) -> tuple:
    """The fields of ``cls`` named ``names``, in that order."""
    by_name = {f.name: f for f in fields(cls)}
    return tuple(by_name[name] for name in names)


# what load_library reads of the compounds, clusters and games
_COMPOUND_ID = _columns(CompoundAnnotation, "compound_id")
_CLUSTER_LEVEL = _columns(ClusterSummary, "cluster_id", "difficulty")
_MAZE_ID = _columns(GameRecord, "maze_id")


@contextmanager
def replacing(path: str | os.PathLike):
    """Write ``path`` whole or not at all. The block writes the yielded
    path, a fresh file next to ``path`` with the mode that a new file gets
    there; it replaces ``path`` when the block returns and is removed when
    the block raises. An OSError becomes one line naming ``path``."""
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        open(temp, "x").close()
        try:
            yield temp
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise SegforgeError(f"cannot write {os.fspath(path)}: {exc.strerror}") from None


def save_library(library: ContentLibrary, path: str) -> None:
    """Write the library as a fresh single-file relational store.

    The file is replaced atomically and built with a fixed insert order so
    identical libraries produce byte-identical files.
    """
    # sqlite opens the empty file as an empty database
    with replacing(path) as temp:
        conn = sqlite3.connect(temp)
        try:
            conn.executescript(_SCHEMA)
            # ContentLibrary keeps every list in canonical order
            _insert(conn, "compounds", fields(CompoundAnnotation), library.compounds)
            _insert(conn, "games", fields(GameRecord), library.games)
            _insert(conn, "clusters", _CLUSTER_COLUMNS, library.clusters)
            conn.executemany(
                "INSERT INTO membership VALUES (?,?)",
                [
                    (c.cluster_id, game_id)
                    for c in library.clusters
                    for game_id in c.member_game_ids
                ],
            )
            _insert(conn, "mapping", fields(MappingEntry), library.mapping)
            conn.executemany(
                "INSERT INTO metadata VALUES (?,?)",
                sorted(library.metadata.items()),
            )
            conn.commit()
        finally:
            conn.close()


def load_library(path: str, expected_config_hash: str | None = None) -> ContentLibrary:
    """Open a saved library read-only; its rows are read on demand.

    The metadata, the mapping, the compound ids, each cluster's id and level
    and the mazes the games use are read at once, and the mapping's rules
    checked: a broken one raises IntegrityViolation. The rest is read as
    :class:`ContentLibrary` says, and only :func:`validate_library` checks
    every row. A stored config hash that differs from
    ``expected_config_hash`` logs a warning but still loads; a missing or
    unreadable file raises CorruptStore. Nothing creates or changes the
    file.
    """
    if not os.path.exists(path):
        raise CorruptStore(f"no library file at {path!r}")
    with _store_errors(path):
        # mode=ro: sqlite neither creates the file nor writes to it
        conn = sqlite3.connect(Path(path).absolute().as_uri() + "?mode=ro", uri=True)
        # each row is read about once, so a page cache of 64 KiB serves as
        # well as the default 2 MiB and holds little while the file is open
        conn.execute("PRAGMA cache_size = -64")
    try:
        library = ContentLibrary._opened(conn, path)
    except BaseException:
        conn.close()
        raise
    stored_hash = library.metadata.get("config_hash")
    if (
        expected_config_hash is not None
        and stored_hash is not None
        and stored_hash != expected_config_hash
    ):
        logger.warning(
            "library at %s was built with config hash %s, expected %s",
            path,
            stored_hash,
            expected_config_hash,
        )
    return library


# ===== JSON export =====


def export_json(library: ContentLibrary) -> str:
    """Lossless canonical JSON rendering of the whole library."""
    payload = {
        "compounds": [vars(c) for c in library.compounds],
        "games": [vars(g) for g in library.games],
        "clusters": [vars(c) for c in library.clusters],
        "mapping": [vars(m) for m in library.mapping],
        "metadata": library.metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def export_level_curves(library: ContentLibrary) -> tuple[list[tuple], list[tuple]]:
    """Per-compound cluster size (N) and spread (S) curves as table rows.

    Returns the pair (n_rows, s_rows); each row is the compound id followed
    by one value per difficulty level, in ``Difficulty`` order.
    """
    n_rows = []
    s_rows = []
    for compound in sorted(library.compounds, key=lambda c: c.compound_id):
        clusters = [library.cluster_for(compound.compound_id, level) for level in Difficulty]
        n_rows.append((compound.compound_id, *(c.n for c in clusters)))
        s_rows.append((compound.compound_id, *(c.s for c in clusters)))
    return n_rows, s_rows
