"""Bundled worked examples replay exactly."""

import pytest

from qkdsim import fixture_names, run_fixture


def test_names():
    assert fixture_names() == ("fig6a", "fig6b", "vernam")


def test_quiet_exchange():
    outcome = run_fixture("fig6a")
    assert outcome.passed
    assert outcome.data["raw_alice"] == "011000"
    assert outcome.data["raw_bob"] == "011000"
    assert outcome.data["slots"] == [2, 4, 5, 6, 7, 9]


def test_tapped_exchange():
    outcome = run_fixture("fig6b")
    assert outcome.passed
    assert outcome.data["raw_bob"] == "011110"
    assert outcome.data["error_slots"] == [6, 7]
    assert outcome.data["error_positions"] == [4, 5]


def test_pad_example():
    outcome = run_fixture("vernam")
    assert outcome.passed
    assert outcome.data["cipher"] == "110010111001"


def test_unknown_fixture():
    with pytest.raises(KeyError):
        run_fixture("fig7")


def test_fixtures_have_no_randomness():
    for name in fixture_names():
        a, b = run_fixture(name), run_fixture(name)
        assert a.lines == b.lines and a.data == b.data


def test_tapped_errors_only_where_eve_chose_wrong():
    outcome = run_fixture("fig6b")
    assert outcome.passed
    assert outcome.data["eve_wrong_slots"] == [2, 6, 7]
    assert set(outcome.data["error_slots"]) <= set(outcome.data["eve_wrong_slots"])
    assert "eve measured in the wrong alphabet at slots 2,6,7" in outcome.lines
