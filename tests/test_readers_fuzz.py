"""Byte-mutation fuzzing of the text readers and the config loader.

Each reader is given a valid file with a few bytes replaced, inserted or
deleted.  It must either parse the file or raise a DataError subclass (which
the CLI turns into exit 3), never another exception.  The config loader must
likewise load a mutated config or raise ConfigError (exit 2).
"""

import functools

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from prosoparse import cli
from prosoparse.cli import _read_parse_input
from prosoparse.config import load_config
from prosoparse.embeddings import load_vector_store, load_word_vectors
from prosoparse.errors import ConfigError, DataError, FormatError
from prosoparse.prosody import read_alignment_file, read_frame_track_file
from prosoparse.treebank import LabeledSpan, parse_ptb, read_tree_file, spans_to_tree

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
    "vector_store": (
        b"dim=3 producer=test\n"
        b"sentence s1 2\n"
        b"0.5 -1.25 3\n"
        b"1e-3 0 2.5\n"
        b"sentence s2 1\n"
        b"7 8 9\n"
    ),
    "word_vectors": (
        b"the 0.5 -1.25 3\n"
        b"dog 1e-3 0 2.5\n"
        b"caf\xc3\xa9 7 8 9\n"
    ),
    "parse_input": (
        b"(S (NP (PRP i)) (VP (VBP agree)))\n"
        b"\n"
        b"the/DT caf\xc3\xa9/NN opens a/b/NN\n"
    ),
}

READERS = {
    "trees": read_tree_file,
    "alignments": read_alignment_file,
    "track": read_frame_track_file,
    "vector_store": load_vector_store,
    "word_vectors": load_word_vectors,
    "parse_input": _read_parse_input,
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


@pytest.mark.parametrize(
    "name,edit,lineno",
    [
        ("word_vectors", (b"the 0.5", b"the 1e39"), 1),
        ("word_vectors", (b"dog 1e-3", b"dog nan"), 2),
        ("vector_store", (b"7 8 9", b"nan inf 9"), 6),
        ("track", (b"0.0200,0.400000", b"0.0200,nan"), 4),
        ("track", (b"0.0300,0.450000,128.250000", b"0.0300,0.450000,inf"), 5),
        ("alignments", (b"0.2500\t0.6000", b"0.2500\tinf"), 2),
    ],
    ids=["word-vector-overflow", "word-vector-nan", "store-nan-inf", "track-nan-energy",
         "track-inf-f0", "alignment-inf-end"],
)
def test_non_finite_value_is_format_error(tmp_path, name, edit, lineno):
    path = tmp_path / name
    path.write_bytes(VALID[name].replace(*edit, 1))
    assert path.read_bytes() != VALID[name]
    with pytest.raises(FormatError, match=f"^{path}:{lineno}: "):
        READERS[name](path)


def test_parse_input_line_of_two_trees_is_data_error(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b"(S (NN a))\n(S (NN a)) (S (NN b))\n")
    with pytest.raises(DataError, match="line 2 holds 2 trees"):
        _read_parse_input(path)


# printable ASCII with the tree file's brackets, the token separator and
# the trace tag over-represented
PARSE_LINE = st.lists(
    st.one_of(
        st.sampled_from(["(", ")", "/", " ", "-NONE-", "XX"]),
        st.characters(min_codepoint=32, max_codepoint=126),
    ),
    max_size=20,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(PARSE_LINE)
def test_accepted_parse_input_round_trips_as_a_tree(tmp_path_factory, line):
    # a sentence that reads in must be written as a tree that reads back
    path = tmp_path_factory.mktemp("line") / "input"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        [sent] = _read_parse_input(path)
    except DataError:
        return
    tree = spans_to_tree([LabeledSpan(0, len(sent.tokens), "S")], sent.tokens)
    [back] = parse_ptb(tree.linearize())
    assert back == tree
    assert [(leaf.word, leaf.pos_tag) for leaf in back.leaves()] == sent.tokens


VALID_CONFIG = b"""\
data:
  train_trees: train.trees
  dev_trees: dev.trees
  alignments: alignments.tsv
  frame_tracks: tracks
model:
  encoder: {layers: 2, heads: 2, d_content: 64, d_position: 32, d_prosody: 32,
            d_ff: 128, dropout: 0.1, max_len: 40}
  cnn: {widths: [3, 5], filters_per_width: 8}
  span_hidden: 64
  embedding: {mode: learned, dim: 32, min_count: 1}
train: {seeds: [1, 2, 3], batch_size: 32, learning_rate: 0.004, corpus_weights: [1.0]}
eval: {n_resamples: 5000}
output_dir: run
"""


def test_valid_config_loads(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(VALID_CONFIG)
    assert load_config(path).model.span_hidden == 64


@pytest.mark.parametrize(
    "edit",
    [
        (b"span_hidden: 64", b"span_hidden: abc"),
        (b"seeds: [1, 2, 3]", b"seeds: 5"),
        (b"train_trees: train.trees", b"train_trees: 5"),
        (b"heads: 2", b"heads: 0"),
        (b"run\n", b"r\xffun\n"),
        (b"d_ff: 128", b"d_ff: 12.5"),
        (b"layers: 2,", b"layers: 2.5,"),
        (b"d_content: 64", b"d_content: 64.0"),
        (b"d_ff: 128", b"d_ff: true"),
        (b"filters_per_width: 8", b"filters_per_width: 2.5"),
        (b"widths: [3, 5]", b"widths: [3, 4.5]"),
        (b"span_hidden: 64", b"span_hidden: 12.5"),
        (b"span_hidden: 64", b"span_hidden: true"),
        (b"train: {", b"trian: {"),
        (b"span_hidden: 64", b"span_hiden: 64"),
        (b"span_hidden: 64", b"span_hidden: 1"),
        (b"batch_size: 32", b"batch_size: 2.5"),
        (b"batch_size: 32", b"batch_size: 32, max_epochs: 1.5"),
        (b"seeds: [1, 2, 3]", b"seeds: [1.5]"),
        (b"learning_rate: 0.004", b"learning_rate: abc"),
        (b"learning_rate: 0.004", b"learning_rate: 1e-3"),
        (b"learning_rate: 0.004", b"learning_rate: .inf"),
        (b"learning_rate: 0.004", b"learning_rate: 0"),
        (b"batch_size: 32", b"batch_size: 32, patience: true"),
        (b"batch_size: 32", b"batch_size: 32, warmup_steps: 4.0"),
        (b"n_resamples: 5000", b"n_resamples: 0"),
        (b"n_resamples: 5000", b"n_resamples: 5e3"),
        (b"n_resamples: 5000", b"n_resamples: 5000, delete_punctuation: 'no'"),
        (b"frame_tracks: tracks", b"frame_tracks: tracks\n  speechify: 'no'"),
        (b"mode: learned", b"mode: glove"),
        (b"mode: learned", b"mode: frozen"),
        (b"mode: learned", b"mode: finetuned"),
        (b"dim: 32", b"dim: 2.5"),
        (b"dim: 32", b"dim: -3"),
        (b"dim: 32", b"dim: 0"),
        (b"min_count: 1", b"min_count: x"),
        (b"min_count: 1", b"min_count: -1"),
        (b"corpus_weights: [1.0]", b"corpus_weights: [.inf]"),
        (b"corpus_weights: [1.0]", b"corpus_weights: [true]"),
        (b"output_dir: run", b"output_dir: 5"),
    ],
    ids=["span-hidden-text", "seeds-int", "train-trees-int", "zero-heads", "not-utf8",
         "d-ff-float", "layers-float", "d-content-float", "d-ff-bool", "filters-float",
         "width-float", "span-hidden-float", "span-hidden-bool", "unknown-section",
         "unknown-model-key", "span-hidden-one", "batch-size-float", "max-epochs-float",
         "seed-float", "learning-rate-text", "learning-rate-no-dot", "learning-rate-inf",
         "learning-rate-zero", "patience-bool", "warmup-float", "resamples-zero",
         "resamples-text", "delete-punctuation-text", "speechify-text", "embedding-mode-glove",
         "frozen-without-store", "finetuned-without-vectors", "embedding-dim-float",
         "embedding-dim-negative", "embedding-dim-zero", "min-count-text",
         "min-count-negative", "corpus-weight-inf", "corpus-weight-bool", "output-dir-int"],
)
def test_bad_config_value_is_config_error(tmp_path, edit):
    path = tmp_path / "config.yaml"
    path.write_bytes(VALID_CONFIG.replace(*edit))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("weights", ["[1.0, .nan]", "[.inf, 1.0]", "[1.0, true]"])
def test_corpus_weights_must_be_finite_numbers(tmp_path, weights):
    path = tmp_path / "config.yaml"
    text = VALID_CONFIG.replace(b"train_trees: train.trees", b"train_trees: [a.trees, b.trees]")
    path.write_bytes(text.replace(b"[1.0]", weights.encode()))
    with pytest.raises(ConfigError, match="corpus_weights must be finite numbers"):
        load_config(path)


def test_wrong_type_exits_2_and_is_named(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(VALID_CONFIG.replace(b"batch_size: 32", b"batch_size: 2.5"))
    assert cli.main(["train", "--config", str(path)]) == 2
    assert "batch_size must be an integer >= 1, got 2.5" in capsys.readouterr().err


# the documented type of each scalar a config file holds, by its keys
CONFIG_TYPES = {
    ("model", "embedding", "dim"): (int,),
    ("model", "embedding", "min_count"): (int,),
    ("model", "embedding", "mode"): (str,),
    ("output_dir",): (str,),
    ("train", "batch_size"): (int,),
    ("train", "learning_rate"): (int, float),
    ("train", "warmup_steps"): (int,),
    ("train", "max_epochs"): (int,),
    ("train", "patience"): (int,),
    ("eval", "n_resamples"): (int,),
    ("eval", "delete_punctuation"): (bool,),
    ("data", "speechify"): (bool,),
}
YAML_SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=8), st.none(),
    st.lists(st.integers(), max_size=3),
)


@given(field=st.sampled_from(sorted(CONFIG_TYPES)), value=YAML_SCALARS)
@settings(max_examples=300, deadline=None)
def test_config_scalar_is_config_error_or_its_type(tmp_path_factory, field, value):
    *sections, key = field
    raw = yaml.safe_load(VALID_CONFIG)
    functools.reduce(dict.__getitem__, sections, raw)[key] = value
    path = tmp_path_factory.getbasetemp() / "typed-config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    # model.embedding is read into cfg.embedding
    attrs = field[1:] if field[:2] == ("model", "embedding") else field
    assert type(functools.reduce(getattr, attrs, cfg)) in CONFIG_TYPES[field]


@pytest.mark.parametrize(
    "edit,key",
    [
        ((b"train: {", b"trian: {"), "trian"),
        ((b"span_hidden: 64", b"span_hiden: 64"), "span_hiden"),
        ((b"eval:", b"features: {context_s: 0.2}\neval:"), "features"),
        ((b"min_count: 1}", b"min_count: 1, store_path: x.vec}"), "store_path"),
    ],
    ids=["section", "model-key", "retired-features-section", "embedding-path"],
)
def test_unknown_config_key_exits_2_and_is_named(tmp_path, capsys, edit, key):
    path = tmp_path / "config.yaml"
    path.write_bytes(VALID_CONFIG.replace(*edit))
    assert cli.main(["train", "--config", str(path)]) == 2
    assert f"unknown key(s) {key} " in capsys.readouterr().err


@given(edits=EDITS)
@settings(max_examples=300, deadline=None)
def test_mutated_config_loads_or_is_config_error(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "mutated-config.yaml"
    path.write_bytes(mutate(VALID_CONFIG, edits))
    try:
        load_config(path)
    except ConfigError:
        pass
