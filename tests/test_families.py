"""The cycle family catalog: validity, expansion, selection."""

from fractions import Fraction

import pytest

from gsrs.cutout import cycle_polygon
from gsrs.dynamics import Cycle
from gsrs.exact import GaussianInt
from gsrs.families import (
    C0_CYCLES,
    FamilyInstance,
    PREFIX_INSTANCES,
    all_selection_instances,
    expected_cutout,
    instance_cycle,
    is_valid,
    selection,
    valid_instances,
)


def test_str_forms():
    assert str(FamilyInstance(0, 3)) == "C_0(3)"
    assert str(FamilyInstance(19, 7, 1)) == "C_19(7,1)"


def test_is_valid_examples():
    assert is_valid(FamilyInstance(0, 1))
    assert not is_valid(FamilyInstance(0, 99))
    assert is_valid(FamilyInstance(1, 2, -1))
    assert not is_valid(FamilyInstance(1, 2, 0))
    assert is_valid(FamilyInstance(5, 2, 0))
    assert is_valid(FamilyInstance(19, 3, 0))
    assert not is_valid(FamilyInstance(19, 2, 0))


def test_expand_rejects_invalid():
    with pytest.raises(ValueError):
        instance_cycle(FamilyInstance(1, 2, 0))
    with pytest.raises(ValueError):
        is_valid(FamilyInstance(20, 5, 0))


def test_explicit_cycles_have_no_repeats():
    for n, elems in C0_CYCLES.items():
        assert len(set(elems)) == len(elems), f"C_0({n}) repeats an element"


def test_explicit_cycles_are_realized():
    """Every explicit cycle, including the recomputed entries 15..26, is a
    genuine cycle of the map at an interior parameter of its own cutout."""
    for n in sorted(C0_CYCLES):
        cyc = instance_cycle(FamilyInstance(0, n))
        cell = cycle_polygon(cyc)
        assert not cell.is_empty(), f"C_0({n}) cuts out nothing"
        r = cell.interior_point()
        assert cell.contains(r)
        assert cyc.verify(r), f"C_0({n}) is not a cycle at {r}"


def test_family_expansion_sample_cycles_are_realized():
    for inst in all_selection_instances(8, 10):
        cyc = instance_cycle(inst)
        cell = cycle_polygon(cyc)
        assert not cell.is_empty(), f"{inst} cuts out nothing"
        r = cell.interior_point()
        if cell.contains(r):
            assert cyc.verify(r), f"{inst} is not a cycle at {r}"


def test_expected_cutout_only_for_printed_cases():
    assert not expected_cutout(FamilyInstance(0, 14)).is_empty()
    with pytest.raises(ValueError):
        expected_cutout(FamilyInstance(0, 15))


def test_selection_contains_only_valid_instances():
    for n in (7, 12, 30):
        insts = selection(n)
        assert insts
        assert all(is_valid(i) for i in insts)
    with pytest.raises(ValueError):
        selection(6)


def test_selection_near_head_includes_prefix_instances():
    insts = selection(7)
    for fixed in PREFIX_INSTANCES:
        assert fixed in insts
    far = selection(20)
    assert FamilyInstance(0, 1) not in far


def test_valid_instances_monotone():
    small = valid_instances(5, 10)
    large = valid_instances(5, 20)
    assert set(small) <= set(large)
    assert all(i.n <= 10 for i in small)
