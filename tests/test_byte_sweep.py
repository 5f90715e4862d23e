"""The committed byte-identity sweep (``tests/byte_sweep.py``): a fixed
slice of its requests prints what was recorded, and the record covers
every request."""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
import byte_sweep


def test_the_tier1_slice_prints_the_recorded_bytes():
    assert byte_sweep.mismatches(byte_sweep.tier1_slice()) == []


def test_the_record_covers_every_request():
    recorded = byte_sweep.load()
    assert recorded["rule"] == byte_sweep.VERSION_RULE
    assert {name: len(entries)
            for name, entries in recorded["classes"].items()} \
        == {name: len(argvs) for name, argvs in byte_sweep.classes().items()}


def test_another_python_compares_the_exit_code_alone_on_exit_two():
    other = "2.7"
    assert byte_sweep.same([2, "a"], [2, "b"], other)
    assert not byte_sweep.same([2, "a"], [1, "a"], other)
    assert not byte_sweep.same([0, "a"], [0, "b"], other)
    assert not byte_sweep.same([2, "a"], [2, "b"], byte_sweep.version())
