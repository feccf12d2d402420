"""The comparison of two physics fingerprints (tools/fingerprint.py), without running one."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reads_bit_identical_outputs(fingerprint):
    out = {"a": fingerprint._numbers([1.0, 2.0]), "b": {"sha256": hashlib.sha256(b"csv").hexdigest()}}
    again = {"a": fingerprint._numbers(np.array([1.0, 2.0])), "b": dict(out["b"])}
    assert fingerprint.compare(out, again) == [("a", "bit-identical"), ("b", "bit-identical")]


def test_compare_gives_the_largest_relative_change(fingerprint):
    new = {"a": fingerprint._numbers([1.0, 2.0 * (1 + 3e-12), -4.0]), "b": {"sha256": "0"}}
    old = {"a": fingerprint._numbers([1.0, 2.0, -4.0 * (1 + 1e-13)]), "b": {"sha256": "1"}}
    [(name, change), bytes_row] = fingerprint.compare(new, old)
    assert name == "a" and change.startswith("max relative change ")
    relative, on_peak = change.split(", ")
    assert float(relative.rsplit(" ", 1)[1]) == pytest.approx(3e-12, rel=1e-2)
    assert on_peak.startswith("on its peak ")  # the largest change, 6e-12, over the peak |value|, 4
    assert float(on_peak.rsplit(" ", 1)[1]) == pytest.approx(1.5e-12, rel=1e-2)
    assert bytes_row == ("b", "bytes differ")  # a file's hash has no values to compare


def test_compare_names_an_output_of_one_tree_only(fingerprint):
    new = {"both": fingerprint._numbers([1.0]), "new": fingerprint._numbers([2.0])}
    old = {"both": fingerprint._numbers([1.0]), "old": fingerprint._numbers([3.0])}
    assert fingerprint.compare(new, old) == [
        ("both", "bit-identical"), ("new", "only in this tree"), ("old", "only in the other tree")]


def test_compare_reports_a_shape_mismatch(fingerprint):
    new = {"a": fingerprint._numbers([1.0, 2.0, 3.0])}
    old = {"a": fingerprint._numbers([1.0, 2.0])}
    assert fingerprint.compare(new, old) == [("a", "3 values against 2")]


def test_sampled_fields_are_hashed_with_their_grids(fingerprint):
    values = np.array([[3.0 + 4.0j, 0.0]])
    entry = fingerprint._array(values, np.array([0.0, 1.0]))
    assert entry["values"] == [5.0, 5.0]
    assert entry["sha256"] != fingerprint._array(values, np.array([0.0, 2.0]))["sha256"]
