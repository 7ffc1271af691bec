"""Compound knowledge handling: parsing, annotation, difficulty ordering.

A compound record names one or two elements with per-element atom counts.
Annotation reduces each compound to six discrete attributes; ordering sorts
the annotated set so that structurally simpler compounds come first and
assigns a one-based ``compound_id`` used as the curriculum position.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from importlib import resources
from os import PathLike

from .errors import SegforgeError


class UnknownElement(SegforgeError):
    """An element symbol is missing from the periodic table."""


class MalformedRecord(SegforgeError):
    """A dataset line does not match the documented record format."""


class DuplicateCompound(SegforgeError):
    """The same formula appears more than once in an ordering request."""


# Matches "2 H", "2H" and bare "H"; count defaults to 1 when omitted.
_ELEMENT_FIELD = re.compile(r"^\s*(\d+)?\s*([A-Z][a-z]?)\s*$")


@dataclass(frozen=True)
class ElementCount:
    """An element symbol with how many atoms of it a compound contains."""

    symbol: str
    count: int


@dataclass(frozen=True)
class CompoundSpec:
    """A parsed dataset record before annotation.

    ``element_1`` is the element written first in the formula; single-element
    molecules leave ``element_2`` as ``None``.
    """

    formula: str
    name: str
    element_1: ElementCount
    element_2: ElementCount | None = None


@dataclass(frozen=True)
class CompoundAnnotation:
    """Six discrete difficulty attributes plus the curriculum position.

    Single-element molecules use 0 for the second-element attributes.
    ``compound_id`` is ``None`` until :func:`order_compounds` assigns it.
    """

    formula: str
    atom_1_number: int
    atom_2_number: int
    total_types_of_atom: int
    total_atom: int
    total_character_symbol_1: int
    total_character_symbol_2: int
    compound_id: int | None = None


def read_text(
    path: str | PathLike, what: str = "file", error: type[SegforgeError] = SegforgeError
) -> str:
    """The UTF-8 text of the file at ``path``; a file that is missing, cannot
    be read or is not UTF-8 raises ``error``, one line naming the file as ``what``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def load_periodic_table(path: str | None = None) -> dict[str, int]:
    """Load ``symbol -> atomic number`` from a ``symbol,atomic_number`` CSV.

    Without ``path`` the bundled table is used. A header row is skipped when
    present.
    """
    if path is None:
        text = resources.files("segforge.data").joinpath("periodic_table.csv").read_text()
    else:
        text = read_text(path)
    table: dict[str, int] = {}
    for row in csv.reader(text.splitlines()):
        if not row or not "".join(row).strip():
            continue
        if row[0].strip() == "symbol":
            continue
        if len(row) != 2:
            raise MalformedRecord(f"periodic table row needs 2 fields, got {row!r}")
        symbol = row[0].strip()
        try:
            number = int(row[1])
        except ValueError as exc:
            raise MalformedRecord(f"bad atomic number in row {row!r}") from exc
        if number < 1:
            raise MalformedRecord(f"atomic number must be >= 1 in row {row!r}")
        table[symbol] = number
    return table


def _parse_element_field(field: str, line: str) -> ElementCount:
    match = _ELEMENT_FIELD.match(field)
    if match is None:
        raise MalformedRecord(f"bad element field {field!r} in line {line!r}")
    count = int(match.group(1)) if match.group(1) else 1
    if count < 1:
        raise MalformedRecord(f"element count must be >= 1 in line {line!r}")
    return ElementCount(symbol=match.group(2), count=count)


def parse_compound_line(line: str) -> CompoundSpec:
    """Parse one ``formula|name|count element_1|count element_2`` record.

    The fourth field is empty for single-element molecules. Element fields
    accept ``2 H``, ``2H`` and bare ``H`` (count 1).
    """
    parts = line.rstrip("\n").split("|")
    if len(parts) != 4:
        raise MalformedRecord(f"expected 4 pipe-separated fields, got {len(parts)}: {line!r}")
    formula, name, first, second = (part.strip() for part in parts)
    if not formula or not name or not first:
        raise MalformedRecord(f"formula, name and element_1 are required: {line!r}")
    element_1 = _parse_element_field(first, line)
    element_2 = _parse_element_field(second, line) if second else None
    if element_2 is not None and element_2.symbol == element_1.symbol:
        raise MalformedRecord(f"element_2 repeats element_1 in line {line!r}")
    if element_1.count + (element_2.count if element_2 else 0) < 2:
        raise MalformedRecord(f"a compound needs at least two atoms: {line!r}")
    return CompoundSpec(formula=formula, name=name, element_1=element_1, element_2=element_2)


def load_compounds(path: str | None = None) -> list[CompoundSpec]:
    """Load the compound dataset; ``#`` lines and blank lines are skipped.

    Without ``path`` the bundled 100-compound dataset is used.
    """
    if path is None:
        text = resources.files("segforge.data").joinpath("compounds.txt").read_text()
    else:
        text = read_text(path)
    specs = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        specs.append(parse_compound_line(line))
    return specs


def annotate(spec: CompoundSpec, table: dict[str, int]) -> CompoundAnnotation:
    """Reduce a compound to its six discrete difficulty attributes.

    Attribute semantics:

    * ``atom_1_number`` / ``atom_2_number``: atomic numbers of the first and
      second element as written in the formula (0 when there is no second).
    * ``total_types_of_atom``: 1 or 2 distinct elements.
    * ``total_atom``: total atom count across both elements.
    * ``total_character_symbol_1`` / ``_2``: length of each element symbol,
      counting letters only, never numeric multipliers.
    """
    if spec.element_1.symbol not in table:
        raise UnknownElement(f"element {spec.element_1.symbol!r} not in periodic table")
    if spec.element_2 is not None and spec.element_2.symbol not in table:
        raise UnknownElement(f"element {spec.element_2.symbol!r} not in periodic table")
    second = spec.element_2
    return CompoundAnnotation(
        formula=spec.formula,
        atom_1_number=table[spec.element_1.symbol],
        atom_2_number=table[second.symbol] if second else 0,
        total_types_of_atom=2 if second else 1,
        total_atom=spec.element_1.count + (second.count if second else 0),
        total_character_symbol_1=len(spec.element_1.symbol),
        total_character_symbol_2=len(second.symbol) if second else 0,
    )


def sort_key(annotation: CompoundAnnotation) -> tuple[int, int, int, int, int, int, str]:
    """Ascending difficulty key: structural size first, then atomic numbers,
    then symbol lengths, with the formula string as the final tie-break."""
    return (
        annotation.total_types_of_atom,
        annotation.total_atom,
        annotation.atom_1_number,
        annotation.atom_2_number,
        annotation.total_character_symbol_1,
        annotation.total_character_symbol_2,
        annotation.formula,
    )


def order_compounds(annotations: list[CompoundAnnotation]) -> list[CompoundAnnotation]:
    """Sort annotations easiest-first and assign ``compound_id`` 1..n.

    The sort is a stable lexicographic ascending sort on the six attributes
    (ties broken by formula), so the result is invariant to input order.
    """
    seen: set[str] = set()
    for annotation in annotations:
        if annotation.formula in seen:
            raise DuplicateCompound(f"formula {annotation.formula!r} appears twice")
        seen.add(annotation.formula)
    ranked = sorted(annotations, key=sort_key)
    return [replace(annotation, compound_id=i) for i, annotation in enumerate(ranked, start=1)]


def annotate_dataset(
    compounds_path: str | None = None, table_path: str | None = None
) -> list[CompoundAnnotation]:
    """Load, annotate and order a compound dataset in one call."""
    table = load_periodic_table(table_path)
    specs = load_compounds(compounds_path)
    return order_compounds([annotate(spec, table) for spec in specs])
