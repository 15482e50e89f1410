"""Byte-mutation fuzzing of the text readers.

Each reader is given a valid file with a few bytes replaced, inserted or
deleted.  It must either parse the file or raise a DataError subclass (which
the CLI turns into exit 3), never another exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosoparse.errors import DataError, FormatError
from prosoparse.prosody import read_alignment_file, read_frame_track_file
from prosoparse.treebank import read_tree_file

VALID = {
    "trees": (
        b"(ROOT (S (NP-SBJ-1 (PRP i)) (VP (VBP agree) (PP=2 (IN with) (NP (PRP you))))))\n"
        b"( (S (INTJ (UH uh)) (NP (-NONE- *T*)) (EDITED (VP (VB go))) (. .)) )\n"
    ),
    "alignments": (
        b"s1\ti\t0.0000\t0.2000\tA\n"
        b"s1\tagree\t0.2500\t0.6000\tA\n"
        b"\n"
        b"s2\tuh\t1.0000\t1.2000\tB\n"
    ),
    "track": (
        b"time_s,energy,f0\n"
        b"0.0000,0.500000,120.000000\n"
        b"0.0100,0.600000,0.000000\n"
        b"0.0200,0.400000,130.500000\n"
        b"0.0300,0.450000,128.250000\n"
    ),
}

READERS = {
    "trees": read_tree_file,
    "alignments": read_alignment_file,
    "track": read_frame_track_file,
}

# (kind, position, byte): kind 0 replaces, 1 inserts, 2 deletes
EDITS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10**4), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


def mutate(data, edits):
    data = bytearray(data)
    for kind, pos, byte in edits:
        if not data:
            data.append(byte)
            continue
        pos %= len(data)
        if kind == 0:
            data[pos] = byte
        elif kind == 1:
            data.insert(pos, byte)
        else:
            del data[pos]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_files_parse(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(VALID[name])
    assert READERS[name](path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_invalid_utf8_is_format_error(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(VALID[name][:1] + b"\xff" + VALID[name][1:])
    with pytest.raises(FormatError, match="not UTF-8"):
        READERS[name](path)


@pytest.mark.parametrize("name", sorted(READERS))
@given(edits=EDITS)
@settings(max_examples=300, deadline=None)
def test_mutated_file_parses_or_is_data_error(tmp_path_factory, name, edits):
    path = tmp_path_factory.getbasetemp() / f"mutated-{name}"
    path.write_bytes(mutate(VALID[name], edits))
    try:
        READERS[name](path)
    except DataError:
        pass

