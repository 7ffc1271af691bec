"""Tests for compound parsing, annotation and difficulty ordering."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segforge.knowledge import (
    CompoundAnnotation,
    CompoundSpec,
    DuplicateCompound,
    ElementCount,
    MalformedRecord,
    UnknownElement,
    annotate,
    annotate_dataset,
    load_compounds,
    load_periodic_table,
    order_compounds,
    parse_compound_line,
    sort_key,
)

TABLE = load_periodic_table()


def test_periodic_table_has_needed_elements() -> None:
    assert TABLE["H"] == 1
    assert TABLE["C"] == 6
    assert TABLE["O"] == 8
    assert TABLE["Ca"] == 20
    assert TABLE["B"] == 5


def test_parse_two_element_line() -> None:
    spec = parse_compound_line("H2O|water|2 H|1 O")
    assert spec.formula == "H2O"
    assert spec.name == "water"
    assert spec.element_1 == ElementCount("H", 2)
    assert spec.element_2 == ElementCount("O", 1)


def test_parse_single_element_line_leaves_second_empty() -> None:
    spec = parse_compound_line("O2|oxygen|2 O|")
    assert spec.element_1 == ElementCount("O", 2)
    assert spec.element_2 is None


def test_parse_decodes_concatenated_count_and_symbol() -> None:
    spec = parse_compound_line("CO2|carbon dioxide|1C|2O")
    assert spec.element_1 == ElementCount("C", 1)
    assert spec.element_2 == ElementCount("O", 2)


def test_parse_bare_symbol_means_count_one() -> None:
    spec = parse_compound_line("CO|carbon monoxide|C|O")
    assert spec.element_1.count == 1
    assert spec.element_2.count == 1


@pytest.mark.parametrize(
    "line",
    [
        "H2O|water|2 H",  # missing field
        "H2O|water|2 H|1 O|extra",  # extra field
        "H2O||2 H|1 O",  # empty name
        "H2O|water|two H|1 O",  # non-numeric count
        "H2O|water|2 h|1 O",  # lowercased symbol
        "H2O|water|0 H|1 O",  # zero count
        "H|hydrogen atom|1 H|",  # single atom is not a compound
        "O2|oxygen|1 O|1 O",  # repeated element type
    ],
)
def test_parse_rejects_malformed_lines(line: str) -> None:
    with pytest.raises(MalformedRecord):
        parse_compound_line(line)


def test_annotate_carbon_dioxide() -> None:
    spec = parse_compound_line("CO2|carbon dioxide|1 C|2 O")
    ann = annotate(spec, TABLE)
    assert ann.atom_1_number == 6
    assert ann.atom_2_number == 8
    assert ann.total_types_of_atom == 2
    assert ann.total_atom == 3
    assert ann.total_character_symbol_1 == 1
    assert ann.total_character_symbol_2 == 1


def test_annotate_single_element_uses_zero_for_second_slot() -> None:
    ann = annotate(parse_compound_line("H2|hydrogen|2 H|"), TABLE)
    assert ann.atom_1_number == 1
    assert ann.atom_2_number == 0
    assert ann.total_types_of_atom == 1
    assert ann.total_atom == 2
    assert ann.total_character_symbol_1 == 1
    assert ann.total_character_symbol_2 == 0


def test_annotate_two_character_symbol_counts_letters_not_multipliers() -> None:
    ann = annotate(parse_compound_line("CaB6|calcium hexaboride|1 Ca|6 B"), TABLE)
    assert ann.atom_1_number == 20
    assert ann.atom_2_number == 5
    assert ann.total_types_of_atom == 2
    assert ann.total_atom == 7
    assert ann.total_character_symbol_1 == 2
    assert ann.total_character_symbol_2 == 1


def test_annotate_uses_formula_written_order_not_magnitude() -> None:
    # OF2 is written oxygen-first, so slot 1 is O even though F is lighter.
    ann = annotate(parse_compound_line("OF2|oxygen difluoride|1 O|2 F"), TABLE)
    assert ann.atom_1_number == 8
    assert ann.atom_2_number == 9


def test_annotate_is_deterministic() -> None:
    spec = parse_compound_line("SO2|sulfur dioxide|1 S|2 O")
    assert annotate(spec, TABLE) == annotate(spec, TABLE)


def test_annotate_rejects_unknown_element() -> None:
    spec = CompoundSpec("XxO", "mystery oxide", ElementCount("Xx", 1), ElementCount("O", 1))
    with pytest.raises(UnknownElement):
        annotate(spec, TABLE)


def test_order_sorts_by_types_then_total_then_numbers() -> None:
    lines = [
        "CaB6|calcium hexaboride|1 Ca|6 B",
        "H2O|water|2 H|1 O",
        "H2|hydrogen|2 H|",
        "CO2|carbon dioxide|1 C|2 O",
        "O2|oxygen|2 O|",
    ]
    anns = [annotate(parse_compound_line(line), TABLE) for line in lines]
    ordered = order_compounds(anns)
    assert [a.formula for a in ordered] == ["H2", "O2", "H2O", "CO2", "CaB6"]
    assert [a.compound_id for a in ordered] == [1, 2, 3, 4, 5]


def test_order_breaks_full_ties_by_formula() -> None:
    # Two synthetic annotations with identical keys differ only in formula.
    a = CompoundAnnotation("ZZB", 1, 2, 2, 3, 1, 1)
    b = CompoundAnnotation("ZZA", 1, 2, 2, 3, 1, 1)
    ordered = order_compounds([a, b])
    assert [x.formula for x in ordered] == ["ZZA", "ZZB"]


def test_order_rejects_duplicate_formula() -> None:
    ann = annotate(parse_compound_line("H2O|water|2 H|1 O"), TABLE)
    with pytest.raises(DuplicateCompound):
        order_compounds([ann, ann])


def test_order_assigns_contiguous_one_based_ids() -> None:
    ordered = annotate_dataset()
    assert [a.compound_id for a in ordered] == list(range(1, 101))


def test_bundled_dataset_has_100_unique_compounds() -> None:
    specs = load_compounds()
    assert len(specs) == 100
    assert len({spec.formula for spec in specs}) == 100


def test_bundled_dataset_extremes() -> None:
    ordered = annotate_dataset()
    assert ordered[0].formula == "H2"
    assert ordered[-1].formula == "CaB6"


def test_bundled_dataset_all_elements_resolvable() -> None:
    # Every record annotates without UnknownElement.
    specs = load_compounds()
    for spec in specs:
        annotate(spec, TABLE)


def test_ordering_is_permutation_invariant() -> None:
    anns = [annotate(spec, TABLE) for spec in load_compounds()]
    ordered = order_compounds(anns)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = anns[:]
        rng.shuffle(shuffled)
        assert order_compounds(shuffled) == ordered


@st.composite
def annotation_strategy(draw: st.DrawFn) -> CompoundAnnotation:
    two_types = draw(st.booleans())
    count_1 = draw(st.integers(min_value=1, max_value=9))
    count_2 = draw(st.integers(min_value=1, max_value=9)) if two_types else 0
    formula = draw(st.text(alphabet="ABCDEFGH", min_size=1, max_size=6))
    return CompoundAnnotation(
        formula=formula,
        atom_1_number=draw(st.integers(min_value=1, max_value=90)),
        atom_2_number=draw(st.integers(min_value=1, max_value=90)) if two_types else 0,
        total_types_of_atom=2 if two_types else 1,
        total_atom=count_1 + count_2,
        total_character_symbol_1=draw(st.integers(min_value=1, max_value=2)),
        total_character_symbol_2=draw(st.integers(min_value=1, max_value=2)) if two_types else 0,
    )


@given(st.lists(annotation_strategy(), min_size=1, max_size=20, unique_by=lambda a: a.formula))
def test_order_is_monotone_in_sort_key(anns: list[CompoundAnnotation]) -> None:
    ordered = order_compounds(anns)
    keys = [sort_key(a) for a in ordered]
    assert keys == sorted(keys)
    assert [a.compound_id for a in ordered] == list(range(1, len(anns) + 1))


def test_json_round_trip_preserves_seven_fields() -> None:
    import json

    ordered = annotate_dataset()
    line = json.dumps(vars(ordered[0]))
    record = json.loads(line)
    for field in (
        "atom_1_number",
        "atom_2_number",
        "total_types_of_atom",
        "total_atom",
        "total_character_symbol_1",
        "total_character_symbol_2",
        "compound_id",
    ):
        assert field in record
    assert record["compound_id"] == 1
