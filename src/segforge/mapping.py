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
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

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


@dataclass
class ContentLibrary:
    """The deployed curriculum: compounds, games, clusters and their wiring."""

    compounds: list[CompoundAnnotation]
    games: list[GameRecord]
    clusters: list[ClusterSummary]
    mapping: list[MappingEntry]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonical row order: makes equality content-based and saves
        # deterministic regardless of construction order.
        self.compounds = sorted(self.compounds, key=lambda c: c.compound_id)
        self.games = sorted(self.games, key=lambda g: g.game_id)
        self.clusters = sorted(
            (
                c
                if tuple(sorted(c.member_game_ids)) == c.member_game_ids
                else replace(c, member_game_ids=tuple(sorted(c.member_game_ids)))
                for c in self.clusters
            ),
            key=lambda c: c.cluster_id,
        )
        self.mapping = sorted(self.mapping, key=lambda m: (m.compound_id, m.difficulty))
        self._games_by_id = {g.game_id: g for g in self.games}
        self._clusters_by_id = {c.cluster_id: c for c in self.clusters}
        self._compounds_by_id = {c.compound_id: c for c in self.compounds}
        self._mapping_index = {
            (m.compound_id, m.difficulty): m.cluster_id for m in self.mapping
        }

    @property
    def compound_count(self) -> int:
        return len(self.compounds)

    def game(self, game_id: str) -> GameRecord:
        return self._games_by_id[game_id]

    def cluster_for(self, compound_id: int, difficulty: Difficulty) -> ClusterSummary:
        key = (compound_id, difficulty)
        if key not in self._mapping_index:
            raise KeyError(f"no cluster mapped for compound {compound_id} at '{difficulty}'")
        return self._clusters_by_id[self._mapping_index[key]]


def validate_library(library: ContentLibrary) -> None:
    """Check cross-references; raise IntegrityViolation on the first hole."""
    seen_game_owner: dict[str, str] = {}
    for cluster in library.clusters:
        if cluster.n != len(cluster.member_game_ids):
            raise IntegrityViolation(
                f"cluster {cluster.cluster_id!r} claims n={cluster.n} but has "
                f"{len(cluster.member_game_ids)} members"
            )
        for game_id in cluster.member_game_ids:
            game = library._games_by_id.get(game_id)
            if game is None:
                raise IntegrityViolation(
                    f"cluster {cluster.cluster_id!r} references unknown game {game_id!r}"
                )
            if game.difficulty != cluster.difficulty:
                raise IntegrityViolation(
                    f"game {game_id!r} is '{game.difficulty}' but its cluster "
                    f"{cluster.cluster_id!r} is '{cluster.difficulty}'"
                )
            owner = seen_game_owner.setdefault(game_id, cluster.cluster_id)
            if owner != cluster.cluster_id:
                raise IntegrityViolation(
                    f"game {game_id!r} belongs to clusters {owner!r} and {cluster.cluster_id!r}"
                )
    for game in library.games:
        if game.game_id not in seen_game_owner:
            raise IntegrityViolation(f"game {game.game_id!r} belongs to no cluster")
    mapped_clusters: set[str] = set()
    for entry in library.mapping:
        if entry.compound_id not in library._compounds_by_id:
            raise IntegrityViolation(f"mapping references unknown compound {entry.compound_id}")
        cluster = library._clusters_by_id.get(entry.cluster_id)
        if cluster is None:
            raise IntegrityViolation(f"mapping references unknown cluster {entry.cluster_id!r}")
        if cluster.difficulty != entry.difficulty:
            raise IntegrityViolation(
                f"mapping puts '{entry.difficulty}' material of compound {entry.compound_id} "
                f"on '{cluster.difficulty}' cluster {entry.cluster_id!r}"
            )
        if entry.cluster_id in mapped_clusters:
            raise IntegrityViolation(f"cluster {entry.cluster_id!r} mapped twice")
        mapped_clusters.add(entry.cluster_id)
    for compound_id in library._compounds_by_id:
        for level in Difficulty:
            if (compound_id, level) not in library._mapping_index:
                raise IntegrityViolation(f"compound {compound_id} has no '{level}' cluster")


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


def _rows(conn: sqlite3.Connection, table: str, columns, order_by: str):
    """Every row of ``table``, its values in ``columns`` order, decoded by
    their fields' types."""
    names = ", ".join(c.name for c in columns)
    rows = conn.execute(f"SELECT {names} FROM {table} ORDER BY {order_by}")
    return map(row_decoder(columns), rows)


def _select(conn: sqlite3.Connection, cls: type, table: str, order_by: str) -> list:
    """Every row of ``table`` as a ``cls`` record, built positionally."""
    return [cls(*row) for row in _rows(conn, table, fields(cls), order_by)]


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
    """Load and validate a saved library.

    A stored config hash that differs from ``expected_config_hash`` logs a
    warning but still loads; broken cross-references raise
    IntegrityViolation and unreadable files raise CorruptStore.
    """
    if not os.path.exists(path):
        raise CorruptStore(f"no library file at {path!r}")
    try:
        conn = sqlite3.connect(path)
        try:
            compounds = _select(conn, CompoundAnnotation, "compounds", "compound_id")
            games = _select(conn, GameRecord, "games", "game_id")
            members: dict[str, list[str]] = {}
            for cluster_id, game_id in conn.execute(
                "SELECT cluster_id, game_id FROM membership ORDER BY cluster_id, game_id"
            ):
                members.setdefault(cluster_id, []).append(game_id)
            clusters = [
                ClusterSummary(*row, member_game_ids=tuple(members.get(row[0], ())))
                for row in _rows(conn, "clusters", _CLUSTER_COLUMNS, "cluster_id")
            ]
            mapping = _select(conn, MappingEntry, "mapping", "compound_id, difficulty")
            metadata = dict(conn.execute("SELECT key, value FROM metadata ORDER BY key"))
        finally:
            conn.close()
    except (sqlite3.DatabaseError, TypeError, ValueError) as exc:
        raise CorruptStore(f"cannot read library at {path!r}: {exc}") from exc
    library = ContentLibrary(
        compounds=compounds,
        games=games,
        clusters=clusters,
        mapping=mapping,
        metadata=metadata,
    )
    validate_library(library)
    stored_hash = metadata.get("config_hash")
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
