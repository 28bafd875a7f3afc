"""Geometry design: rulers, nested/coprime arrays, difference sets, rank checks."""

import itertools
from fractions import Fraction

import pytest

from jafs import geometry
from jafs.geometry import (
    KNOWN_RULERS,
    RulerSolution,
    check_sine_grid_residues,
    check_virtual_ula,
    difference_set,
    generate_coprime,
    generate_nested,
    solve_sparse_ruler,
    validate_ruler,
)

MRA35 = (0, 1, 4, 10, 16, 22, 28, 30, 33, 35)


def brute_force_minimal_ruler(length):
    """Oracle: lexicographically least minimum-cardinality ruler, by direct
    enumeration of all mark subsets in increasing cardinality."""
    for k in range(2, length + 2):
        for interior in itertools.combinations(range(1, length), k - 2):
            marks = (0,) + interior + (length,)
            if validate_ruler(marks, length):
                return marks
    raise AssertionError("unreachable: {0..L} is always a ruler")


def test_small_ruler_example():
    sol = solve_sparse_ruler(3)
    assert sol.marks == (0, 1, 3)
    assert sol.cardinality == 3
    assert sol.minimal


@pytest.mark.parametrize("length", range(1, 14))
def test_exhaustive_search_matches_brute_force(length):
    expected = brute_force_minimal_ruler(length)
    sol = solve_sparse_ruler(length)
    assert sol.cardinality == len(expected)
    assert sol.marks == expected  # deterministic lex-least tie-break


def test_paper_scale_rulers_validate():
    sol35 = solve_sparse_ruler(35)
    assert sol35.marks == MRA35
    assert sol35.cardinality == 10
    assert validate_ruler(sol35.marks, 35)

    sol83 = solve_sparse_ruler(83)
    assert sol83.cardinality == 16
    assert validate_ruler(sol83.marks, 83)


def test_known_table_entries_are_valid():
    for length, marks in KNOWN_RULERS.items():
        assert validate_ruler(marks, length)


def test_user_supplied_marks_are_validated():
    sol = RulerSolution(6, (0, 2, 5, 6))
    assert sol.marks == (0, 2, 5, 6)
    with pytest.raises(ValueError):
        RulerSolution(6, (0, 5, 6))  # lag 2 missing


def test_exhausted_shrink_budget_keeps_the_best_ruler_so_far(monkeypatch):
    # the greedy start for length 17 has 8 marks; the shrinking search
    # finds 7 when it may search at all
    assert solve_sparse_ruler(17).cardinality == 7
    # solutions are cached per length; clear so neither budget's ruler
    # answers for the other, here or in a later test
    solve_sparse_ruler.cache_clear()
    monkeypatch.setattr(geometry, "_SHRINK_BUDGET", 0)
    sol = solve_sparse_ruler(17)
    solve_sparse_ruler.cache_clear()
    assert validate_ruler(sol.marks, 17)
    assert sol.cardinality == 8
    assert not sol.minimal


def test_heuristic_range_returns_valid_ruler():
    sol = solve_sparse_ruler(20)
    assert validate_ruler(sol.marks, 20)
    assert sol.cardinality <= 10
    assert not sol.minimal


@pytest.mark.parametrize("length", [14, 17, 18, 21])
def test_heuristic_lengths_return_valid_rulers(length):
    # lengths whose greedy start covers every lag only with its last mark
    sol = solve_sparse_ruler(length)
    assert validate_ruler(sol.marks, length)


def test_validate_ruler_examples():
    assert validate_ruler((0, 1, 3), 3)
    assert validate_ruler((0, 2, 3), 3)
    assert not validate_ruler((0, 3), 3)
    with pytest.raises(ValueError):
        validate_ruler((0, 4), 3)


def test_ruler_solution_rejects_invalid_marks():
    with pytest.raises(ValueError):
        RulerSolution(3, (0, 3))


def test_nested_examples():
    assert generate_nested(2, 2) == (0, 1, 2, 5)
    assert generate_nested(1, 1) == (0, 1)
    marks = generate_nested(3, 3)
    assert len(marks) == 6
    diffs = {a - b for a in marks for b in marks}
    assert set(range(-11, 12)) <= diffs


def test_coprime_examples():
    assert generate_coprime(2, 3) == (0, 2, 3, 4)
    assert generate_coprime(1, 1) == (0,)
    assert generate_coprime(3, 4) == (0, 3, 4, 6, 8, 9)
    with pytest.raises(ValueError):
        generate_coprime(2, 4)


def test_difference_set_examples():
    ds = difference_set((0, 1), 0.5)
    assert sorted(ds.values) == [Fraction(-1, 2), 0, 0, Fraction(1, 2)]
    assert difference_set((0,), 0.5).values == (Fraction(0),)

    half = Fraction(1, 2)
    mra = difference_set(MRA35, half)
    assert set(mra.unique()) == {k * half for k in range(-35, 36)}


@pytest.mark.parametrize("marks", [(0, 1, 3), MRA35, (0, 2, 3, 4)])
def test_difference_set_structure(marks):
    ds = difference_set(marks, Fraction(1, 2))
    assert len(ds.values) == len(marks) ** 2
    assert ds.values.count(Fraction(0)) == len(marks)
    assert sorted(ds.values) == sorted(-v for v in ds.values)  # negation closure


def test_virtual_ula_examples():
    half = Fraction(1, 2)
    mra = difference_set(MRA35, half)
    cert = check_virtual_ula(mra, 71, half)
    assert cert.passed
    assert cert.criterion == "virtual-ula"
    assert cert.witness["run_length"] == 71
    assert cert.witness["run_start"] == -17.5

    small = difference_set((0, 1), half)  # unique diffs {-0.5, 0, 0.5}
    assert check_virtual_ula(small, 3, half).passed
    short = check_virtual_ula(small, 4, half)
    assert not short.passed
    assert short.witness["run_length"] == 3


def test_virtual_ula_rejects_wide_spacing():
    ds = difference_set((0, 1), Fraction(1, 2))
    with pytest.raises(ValueError):
        check_virtual_ula(ds, 3, Fraction(3, 4))


def test_sine_grid_residue_examples():
    mra = difference_set(MRA35, Fraction(1, 2))
    cert = check_sine_grid_residues(mra, 71)
    assert cert.passed
    assert cert.criterion == "sine-grid-residues"
    assert cert.witness["distinct_residues"] == 71

    assert check_sine_grid_residues(difference_set((0,), 0.5), 1).passed

    small = check_sine_grid_residues(difference_set((0, 1), 0.5), 5)
    assert not small.passed
    assert small.witness["distinct_residues"] == 3


@pytest.mark.parametrize("length", [3, 5, 7, 13])
@pytest.mark.parametrize("spacing", [Fraction(1, 2), Fraction(1, 4)])
def test_any_ruler_yields_full_virtual_run(length, spacing):
    # a length-L ruler realizes every lag, so the co-array is the full
    # run -L..L and the virtual ULA condition holds with Q = 2L+1
    sol = solve_sparse_ruler(length)
    ds = difference_set(sol.marks, spacing)
    cert = check_virtual_ula(ds, 2 * length + 1, spacing)
    assert cert.passed
    assert cert.witness["run_length"] == 2 * length + 1

