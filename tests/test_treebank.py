import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_walk_tokenize, recursive_spans_to_tree
from prosoparse.errors import (
    CrossingSpanError,
    DataError,
    RejectedSentenceError,
    TreeSyntaxError,
)
from prosoparse.evaluation import parseval
from prosoparse.synthdata import random_tree
from prosoparse.treebank import (
    InternalNode,
    LabelVocab,
    LabeledSpan,
    LeafNode,
    _tokenize,
    bracket_multiset,
    classify_fluency,
    parse_ptb,
    read_tree_file,
    sentence_of,
    spans_to_tree,
    speechify,
    strip_punctuation,
    tree_to_spans,
    write_tree_file,
)


def leaf(w, t):
    return LeafNode(w, t)


def parse_one(text):
    trees = parse_ptb(text)
    assert len(trees) == 1
    return trees[0]


class TestParsePtb:
    @given(st.text(st.sampled_from("()aé-/ \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000")))
    @settings(max_examples=300, deadline=None)
    def test_tokenizer_equals_the_character_walk(self, text):
        # ASCII and Unicode whitespace, brackets and word characters
        assert _tokenize(text) == char_walk_tokenize(text)

    def test_two_word_sentence(self):
        t = parse_one("(S (NP (PRP i)) (VP (VBP agree)))")
        assert t.label == "S"
        assert sentence_of(t) == [("i", "PRP"), ("agree", "VBP")]

    def test_top_wrapper_stripped(self):
        plain = parse_one("(S (NP (PRP i)))")
        for wrapper in ["(TOP (S (NP (PRP i))))", "(ROOT (S (NP (PRP i))))",
                        "((S (NP (PRP i))))"]:
            assert parse_one(wrapper) == plain

    def test_unbalanced_reports_offset(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_ptb("(S (NP (PRP i)")
        assert err.value.offset == len("(S (NP (PRP i)")

    def test_garbage_between_trees(self):
        with pytest.raises(TreeSyntaxError):
            parse_ptb("(S (NN dog)) )")

    def test_bracketed_child_after_a_word_rejected(self):
        # a leaf's word ends its node: a child after it used to be dropped
        with pytest.raises(TreeSyntaxError, match="unexpected token '\\(' inside node 'NN'"):
            parse_ptb("(S (NN dog (X y)) (VB go))")

    def test_trace_removal_and_function_tags(self):
        t = parse_one("(S (NP-SBJ (PRP i)) (VP (VBP agree) (NP (-NONE- *T*-1))))")
        assert t == parse_one("(S (NP (PRP i)) (VP (VBP agree)))")

    def test_all_trace_sentence_rejected(self):
        with pytest.raises(RejectedSentenceError):
            parse_ptb("(S (NP (-NONE- *)))")

    def test_multiple_trees(self):
        trees = parse_ptb("(S (NN a))\n(S (NN b))")
        assert len(trees) == 2

    def test_no_depth_limit(self, tmp_path):
        # far deeper than Python's recursion limit
        text = "(S " * 4999 + "(NN x)" + ")" * 4999
        path = tmp_path / "deep.trees"
        path.write_text(text + "\n" + text + "\n")
        trees = read_tree_file(path)
        assert [t.linearize() for t in trees] == [text, text]
        with pytest.raises(TreeSyntaxError, match="missing '\\)'"):
            parse_ptb(text[:-1])

    def test_file_error_keeps_its_type_and_names_the_path(self, tmp_path):
        path = tmp_path / "bad.trees"
        path.write_text("(S (NP (PRP i))\n")
        with pytest.raises(TreeSyntaxError, match="bad.trees: unbalanced") as info:
            read_tree_file(path)
        assert info.value.offset == 16

    def test_round_trip_serialization(self):
        text = "(S (NP (PRP i)) (VP (VBP agree)))"
        assert parse_one(text).linearize() == text


class TestSpans:
    def test_basic_spans(self):
        t = parse_one("(S (NP (PRP i)) (VP (VBP agree)))")
        assert tree_to_spans(t) == {
            LabeledSpan(0, 2, "S"),
            LabeledSpan(0, 1, "NP"),
            LabeledSpan(1, 2, "VP"),
        }

    def test_unary_chain_collapse(self):
        t = parse_one("(S (VP (VB go)))")
        assert tree_to_spans(t) == {LabeledSpan(0, 1, "S+VP")}

    def test_spans_round_trip(self):
        t = parse_one("(S (NP (PRP i)) (VP (VBP agree)))")
        assert spans_to_tree(tree_to_spans(t), sentence_of(t)) == t

    def test_chain_expansion(self):
        t = spans_to_tree({LabeledSpan(0, 1, "S+VP")}, [("go", "VB")])
        assert t == parse_one("(S (VP (VB go)))")

    def test_duplicate_outer_span_joins_chain(self):
        spans = [
            LabeledSpan(0, 2, "S"),
            LabeledSpan(0, 1, "NP"),
            LabeledSpan(0, 2, "VP"),
            LabeledSpan(1, 2, "X"),
        ]
        t = spans_to_tree(spans, [("a", "DT"), ("b", "NN")])
        assert t == parse_one("(S (VP (NP (DT a)) (X (NN b))))")

    def test_crossing_spans_error(self):
        spans = [LabeledSpan(0, 3, "S"), LabeledSpan(0, 2, "A"), LabeledSpan(1, 3, "B")]
        with pytest.raises(CrossingSpanError):
            spans_to_tree(spans, [("a", "X"), ("b", "X"), ("c", "X")])

    def test_empty_label_spans_vanish(self):
        spans = [LabeledSpan(0, 2, "S"), LabeledSpan(0, 1, "")]
        t = spans_to_tree(spans, [("a", "DT"), ("b", "NN")])
        assert t == parse_one("(S (DT a) (NN b))")

    def test_missing_root_span(self):
        with pytest.raises(DataError):
            spans_to_tree({LabeledSpan(0, 1, "NP")}, [("a", "X"), ("b", "X")])

    def test_rebuild_leaves_no_reference_cycles(self):
        t = random_tree(np.random.default_rng(2), max_words=40)
        spans, leaves, text = tree_to_spans(t), sentence_of(t), t.linearize()
        gc.collect()
        gc.disable()
        try:
            assert spans_to_tree(spans, leaves) == t
            assert gc.collect() == 0
            for walk in (tree_to_spans, bracket_multiset, classify_fluency,
                         speechify, strip_punctuation):
                walk(t)
                assert gc.collect() == 0, walk.__name__
            assert parse_ptb(text) == [t]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_random_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            t = random_tree(rng, max_words=12)
            spans = tree_to_spans(t)
            assert spans_to_tree(spans, sentence_of(t)) == t
            n_words = len(sentence_of(t))
            assert len(spans) <= 2 * n_words - 1 or n_words == 1

    @staticmethod
    def random_spans(rng, i):
        """Spans over T leaves: every third case is a random tree's bracketing
        plus up to two random spans, the others random spans under a root
        that is sometimes missing.  In random order; every other case is a set."""
        if i % 3 == 0:
            tree = random_tree(rng, max_words=13)
            T = len(sentence_of(tree))
            spans = list(tree_to_spans(tree))
            extra = int(rng.integers(0, 3))
        else:
            T = int(rng.integers(1, 14))
            spans = [LabeledSpan(0, T, "S")] if rng.random() < 0.9 else []
            extra = int(rng.integers(0, 2 * T + 1))
        for _ in range(extra):
            a = int(rng.integers(0, T))
            b = int(rng.integers(a + 1, T + 1))
            spans.append(LabeledSpan(a, b, ["S", "NP", "VP", ""][int(rng.integers(4))]))
        spans = [spans[k] for k in rng.permutation(len(spans))]
        return (set(spans) if i % 2 else spans), [(f"w{j}", "X") for j in range(T)]

    @staticmethod
    def outcome(build, spans, leaves):
        try:
            return build(spans, leaves)
        except DataError as exc:
            return type(exc), str(exc), getattr(exc, "span_a", None), getattr(exc, "span_b", None)

    def test_same_trees_and_errors_as_recursive_build(self):
        rng = np.random.default_rng(6)
        kinds = Counter()
        for i in range(3000):
            spans, leaves = self.random_spans(rng, i)
            got = self.outcome(spans_to_tree, spans, leaves)
            want = self.outcome(recursive_spans_to_tree, spans, leaves)
            if isinstance(want, tuple):
                kinds[want[0].__name__] += 1
                assert got == want, spans
            else:
                kinds["tree"] += 1
                assert isinstance(got, InternalNode) and got == want, spans
                assert got.linearize() == want.linearize()
        # 1806 trees, 1090 crossings and 104 other data errors
        assert set(kinds) == {"tree", "CrossingSpanError", "DataError"}
        assert min(kinds.values()) > 100

    def test_random_serialization_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            t = random_tree(rng, max_words=10)
            back = parse_one(t.linearize())
            assert back == t and hash(back) == hash(t)


def deep_tree(n, leaf_of=lambda leaf: leaf):
    """S over (word i, S over (word i+1, ...)), n levels, with an EDITED+NP
    chain over the last word; every 7th word is a comma.  ``leaf_of`` maps
    each leaf and may drop it (None), as speechify and strip_punctuation do.
    """
    words = [LeafNode(",", ",") if i % 7 == 3 else LeafNode(f"W{i}", "NN") for i in range(n)]
    kept = [leaf_of(w) for w in words]
    node = InternalNode("EDITED", [InternalNode("NP", [kept[-1]])])
    for w in reversed(kept[:-1]):
        node = InternalNode("S", [w, node] if w is not None else [node])
    return node


class TestDeepTrees:
    """Trees nested far deeper than Python's recursion limit, as the parser
    can emit for long turns, go through every tree walk."""

    N = 2000

    def test_every_walk_takes_any_depth(self):
        n = self.N
        t = deep_tree(n)
        words = [(",", ",") if i % 7 == 3 else (f"W{i}", "NN") for i in range(n)]
        assert sentence_of(t) == words
        assert t.linearize() == (
            "".join(f"(S ({tag} {w}) " for w, tag in words[:-1])
            + f"(EDITED (NP (NN W{n - 1})))" + ")" * (n - 1)
        )
        twin = deep_tree(n)
        assert t == twin and hash(t) == hash(twin)
        assert t != deep_tree(n, lambda leaf: LeafNode(leaf.word.lower(), leaf.pos_tag))
        assert tree_to_spans(t) == {LabeledSpan(i, n, "S") for i in range(n - 1)} | {
            LabeledSpan(n - 1, n, "EDITED+NP")
        }
        assert bracket_multiset(t) == {
            **{(i, n, "S"): 1 for i in range(n - 1)},
            (n - 1, n, "EDITED"): 1,
            (n - 1, n, "NP"): 1,
        }
        kept_before = np.cumsum([0] + [i % 7 != 3 for i in range(n)])
        m = kept_before[-1]
        assert bracket_multiset(strip_punctuation(t)) == Counter(
            [(kept_before[i], m, "S") for i in range(n - 1)]
            + [(m - 1, m, "EDITED"), (m - 1, m, "NP")]
        )
        assert classify_fluency(t) == "disfluent"
        assert speechify(t).linearize() == deep_tree(
            n, lambda leaf: None if leaf.word == "," else LeafNode(leaf.word.lower(), "NN")
        ).linearize()
        no_commas = deep_tree(n, lambda leaf: None if leaf.word == "," else leaf)
        assert strip_punctuation(t) == no_commas
        report = parseval([t], [twin], delete_punctuation=True)
        assert report.f1 == 100.0 and report.fluency["disfluent"].exact_match == 1

    def test_rebuild_of_a_right_branching_parse(self, tmp_path):
        # the deepest tree a max_len-word sentence can decode to: every span
        # (i, T) with a three-label chain
        T = 300
        leaves = [(f"w{i}", "NN") for i in range(T)]
        spans = {LabeledSpan(i, T, "S+VP+NP") for i in range(T)}
        t = spans_to_tree(spans, leaves)
        assert tree_to_spans(t) == spans and sentence_of(t) == leaves
        text = t.linearize()
        assert text.count("(S (VP (NP") == T
        write_tree_file(tmp_path / "deep.trees", [t])
        assert (tmp_path / "deep.trees").read_text() == text + "\n"
        assert read_tree_file(tmp_path / "deep.trees") == [t]
        assert parseval([t], [t]).f1 == 100.0


class TestFluency:
    def test_intj_is_disfluent(self):
        t = parse_one("(S (INTJ (UH uh)) (NP (PRP i)))")
        assert classify_fluency(t) == "disfluent"

    def test_plain_tree_is_fluent(self):
        t = parse_one("(S (NP (PRP i)) (VP (VBP agree)))")
        assert classify_fluency(t) == "fluent"

    def test_edited_in_composite_label(self):
        t = InternalNode("EDITED+NP", [leaf("the", "DT")])
        assert classify_fluency(t) == "disfluent"

    def test_nested_edited(self):
        t = parse_one("(S (NP (EDITED (NN x)) (NN y)) (VP (VB go)))")
        assert classify_fluency(t) == "disfluent"


class TestSpeechify:
    def test_lowercase_and_punct_removal(self):
        t = parse_one("(S (INTJ (UH Yes)) (, ,) (NP (NN sir)))")
        out = speechify(t)
        assert sentence_of(out) == [("yes", "UH"), ("sir", "NN")]

    def test_all_punct_rejected(self):
        t = parse_one("(S (, ,) (. .))")
        with pytest.raises(RejectedSentenceError):
            speechify(t)

    def test_no_punct_only_lowercases(self):
        t = parse_one("(S (NP (NNP John)) (VP (VBZ Runs)))")
        out = speechify(t)
        assert sentence_of(out) == [("john", "NNP"), ("runs", "VBZ")]

    def test_childless_internal_pruned(self):
        t = parse_one("(S (PUNC (, ,)) (NP (NN dog)))")
        out = speechify(t)
        assert out == parse_one("(S (NP (NN dog)))")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_fluency_invariant_under_speechify(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(rng, max_words=8)
        try:
            out = speechify(t)
        except RejectedSentenceError:
            return
        # random_tree words are alphanumeric, so no EDITED/INTJ leaf vanishes
        assert classify_fluency(out) == classify_fluency(t)


class TestLabelVocab:
    def test_empty_label_reserved(self):
        v = LabelVocab(["S", "NP"])
        assert v.index("") == 0
        assert v.index("S") == 1
        assert len(v) == 3

    def test_from_trees_collapsed(self):
        trees = [parse_one("(S (VP (VB go)))"), parse_one("(S (NN a) (NN b))")]
        v = LabelVocab.from_trees(trees)
        assert "S+VP" in v
        assert "S" in v

    def test_unknown_label_raises(self):
        v = LabelVocab(["S"])
        with pytest.raises(DataError):
            v.index("ZZZ")
