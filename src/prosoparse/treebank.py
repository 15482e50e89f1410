"""Penn-Treebank-style trees, span conversion, and speech-style preprocessing.

Trees are immutable n-ary bracketings over tagged words.  Internally a node
is either an ``InternalNode`` (label + children) or a ``LeafNode``
(word + POS tag).  Fenceposts are 0-based: span ``(a, b)`` covers words
``a..b-1``.  Unary chains are collapsed into composite labels joined with
``+`` when converting to spans, and expanded again on the way back.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import (
    CrossingSpanError,
    DataError,
    FormatError,
    RejectedSentenceError,
    TreeSyntaxError,
    VocabularyError,
)

CHAIN_JOIN = "+"
EMPTY_LABEL = ""
_WRAPPER_LABELS = {"ROOT", "TOP", "S1", ""}
_TRACE_TAG = "-NONE-"
MAX_TREE_DEPTH = 200
# Tags whose leaves are dropped by speechify / optional EVALB-style deletion.
PUNCT_TAGS = {",", ":", ".", "``", "''", "-LRB-", "-RRB-"}

_ALNUM_RE = re.compile(r"[^\W_]", re.UNICODE)


class LabeledSpan(NamedTuple):
    a: int
    b: int
    label: str


class Node:
    __slots__ = ()

    def is_leaf(self):
        raise NotImplementedError

    def leaves(self):
        raise NotImplementedError

    def linearize(self):
        raise NotImplementedError

    def __repr__(self):
        return self.linearize()


class LeafNode(Node):
    __slots__ = ("word", "pos_tag")

    def __init__(self, word, pos_tag):
        self.word = word
        self.pos_tag = pos_tag

    def is_leaf(self):
        return True

    def leaves(self):
        yield self

    def linearize(self):
        return f"({self.pos_tag} {self.word})"

    def __eq__(self, other):
        return (
            isinstance(other, LeafNode)
            and self.word == other.word
            and self.pos_tag == other.pos_tag
        )

    def __hash__(self):
        return hash((self.word, self.pos_tag))


class InternalNode(Node):
    __slots__ = ("label", "children")

    def __init__(self, label, children):
        children = tuple(children)
        if not children:
            raise DataError(f"internal node {label!r} has no children")
        self.label = label
        self.children = children

    def is_leaf(self):
        return False

    def leaves(self):
        for child in self.children:
            yield from child.leaves()

    def linearize(self):
        body = " ".join(child.linearize() for child in self.children)
        return f"({self.label} {body})"

    def __eq__(self, other):
        return (
            isinstance(other, InternalNode)
            and self.label == other.label
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.label, self.children))


def sentence_of(tree):
    """(word, pos_tag) pairs of the tree's leaves, left to right."""
    return [(leaf.word, leaf.pos_tag) for leaf in tree.leaves()]


def _strip_function_tags(label):
    # NP-SBJ-1 -> NP, PP=2 -> PP; labels that *start* with '-' (-LRB- etc.)
    # are punctuation-style symbols and are kept whole.
    if label.startswith("-"):
        return label
    cut = len(label)
    for ch in "-=":
        pos = label.find(ch)
        if pos > 0:
            cut = min(cut, pos)
    return label[:cut]


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "()":
            tokens.append((c, i))
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def parse_ptb(text, strip_traces=True):
    """Parse zero or more bracketed trees from ``text``.

    ROOT/TOP wrappers are stripped, function tags removed from internal
    labels, and -NONE- trace subtrees deleted (with spans reindexed by
    virtue of the leaves simply disappearing).  A tree nested deeper than
    MAX_TREE_DEPTH levels is a TreeSyntaxError.
    """
    tokens = _tokenize(text)
    trees = []
    pos = 0

    def parse_node(pos, depth):
        tok, off = tokens[pos]
        if tok != "(":
            raise TreeSyntaxError(f"expected '(' but found {tok!r}", off)
        # keeps every recursive tree walk (here, _remove_traces and the
        # Tree methods) far from Python's recursion limit
        if depth > MAX_TREE_DEPTH:
            raise TreeSyntaxError(
                f"tree nested deeper than {MAX_TREE_DEPTH} levels", off
            )
        pos += 1
        if pos >= len(tokens):
            raise TreeSyntaxError("unbalanced brackets: input ends inside a node", off)
        label, label_off = tokens[pos]
        if label == ")":
            raise TreeSyntaxError("empty node '()'", label_off)
        if label == "(":
            # anonymous wrapper: "( (S ...) )"
            label = ""
        else:
            pos += 1
        children = []
        word = None
        while True:
            if pos >= len(tokens):
                raise TreeSyntaxError("unbalanced brackets: missing ')'", len(text))
            tok, off = tokens[pos]
            if tok == ")":
                pos += 1
                break
            if tok == "(":
                child, pos = parse_node(pos, depth + 1)
                children.append(child)
            else:
                if word is not None or children:
                    raise TreeSyntaxError(
                        f"unexpected token {tok!r} inside node {label!r}", off
                    )
                word = tok
                pos += 1
        if word is not None:
            return LeafNode(word, label), pos
        if not children:
            raise TreeSyntaxError(f"node {label!r} has no children", label_off)
        return _make_internal(label, children), pos

    def _make_internal(label, children):
        return InternalNode(_strip_function_tags(label), children)

    while pos < len(tokens):
        tok, off = tokens[pos]
        if tok != "(":
            raise TreeSyntaxError(f"expected '(' between trees, found {tok!r}", off)
        tree, pos = parse_node(pos, 1)
        while (
            not tree.is_leaf()
            and tree.label in _WRAPPER_LABELS
            and len(tree.children) == 1
            and not tree.children[0].is_leaf()
        ):
            tree = tree.children[0]
        if strip_traces:
            tree = _remove_traces(tree)
            if tree is None:
                raise RejectedSentenceError(
                    "sentence is empty after trace removal"
                )
        trees.append(tree)
    return trees


def _remove_traces(node):
    if node.is_leaf():
        return None if node.pos_tag == _TRACE_TAG else node
    kept = [c for c in (_remove_traces(ch) for ch in node.children) if c is not None]
    if not kept:
        return None
    return InternalNode(node.label, kept)


def read_tree_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse_ptb(text)
    except DataError as exc:
        # prefix the path in place: the subclasses' constructors differ
        exc.args = (f"{path}: {exc}",)
        raise


def write_tree_file(path, trees):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(tree.linearize())
            fh.write("\n")


def tree_to_spans(tree):
    """Labeled spans of the tree with unary chains collapsed.

    Leaf POS tags produce no span.  A chain S -> VP over the same span
    becomes one span labeled "S+VP".
    """
    spans = []

    def walk(node, start):
        if node.is_leaf():
            return start + 1
        labels = [node.label]
        while len(node.children) == 1 and not node.children[0].is_leaf():
            node = node.children[0]
            labels.append(node.label)
        end = start
        for child in node.children:
            end = walk(child, end)
        spans.append(LabeledSpan(start, end, CHAIN_JOIN.join(labels)))
        return end

    walk(tree, 0)
    return set(spans)


def spans_to_tree(spans, leaves):
    """Rebuild an n-ary tree from labeled spans over ``leaves``.

    Spans labeled with the empty label produce no node.  Spans sharing the
    same (a, b) merge into one unary chain: input order decides outer-to-inner
    for sequences; sets are ordered by label for determinism.  Crossing spans
    raise CrossingSpanError naming the offending pair.
    """
    T = len(leaves)
    if T < 1:
        raise DataError("cannot build a tree over zero leaves")
    if isinstance(spans, (set, frozenset)):
        spans = sorted(spans, key=lambda s: (s.a, -s.b, s.label))
    merged = {}
    order = []
    for span in spans:
        a, b, label = span
        if not (0 <= a < b <= T):
            raise DataError(f"span {span} out of range for {T} leaves")
        if label == EMPTY_LABEL:
            continue
        key = (a, b)
        if key in merged:
            merged[key] = merged[key] + CHAIN_JOIN + label
        else:
            merged[key] = label
            order.append(key)

    # outermost-first, leftmost-first; longer spans precede at equal start
    order.sort(key=lambda ab: (ab[0], -ab[1]))
    for (a1, b1), (a2, b2) in zip(order, order[1:]):
        if a1 < a2 < b1 < b2:
            raise CrossingSpanError((a1, b1), (a2, b2))

    root_key = (0, T)
    if root_key not in merged:
        raise DataError(f"no labeled span covers the whole sentence (0, {T})")

    leaf_nodes = [LeafNode(w, t) for w, t in leaves]
    inner = [key for key in order if key != root_key]
    children = _children(0, T, inner, leaf_nodes, merged)
    return _expand_chain(merged[root_key], children)


def _expand_chain(label, children):
    parts = label.split(CHAIN_JOIN)
    node = InternalNode(parts[-1], children)
    for part in reversed(parts[:-1]):
        node = InternalNode(part, [node])
    return node


# module level rather than nested in spans_to_tree: a nested recursive
# function refers to itself through its closure, so every call would leave a
# reference cycle for the garbage collector
def _children(a, b, inner, leaf_nodes, merged):
    """Child nodes of span (a, b); ``inner`` holds the spans strictly inside
    it, outermost-first, and ``merged`` maps each span to its label."""
    children = []
    pos = a
    i = 0
    while pos < b:
        if i < len(inner) and inner[i][0] == pos:
            ca, cb = inner[i]
            sub = []
            i += 1
            while i < len(inner) and inner[i][0] < cb:
                if inner[i][1] > cb:
                    raise CrossingSpanError((ca, cb), inner[i])
                sub.append(inner[i])
                i += 1
            grandchildren = _children(ca, cb, sub, leaf_nodes, merged)
            children.append(_expand_chain(merged[(ca, cb)], grandchildren))
            pos = cb
        else:
            children.append(leaf_nodes[pos])
            pos += 1
    return children


def classify_fluency(tree):
    """"disfluent" iff any constituent label is EDITED or INTJ, else "fluent".

    Composite chain labels are split first, so a node labeled "EDITED+NP"
    counts as disfluent.
    """

    def disfluent(node):
        if node.is_leaf():
            return False
        if any(part in ("EDITED", "INTJ") for part in node.label.split(CHAIN_JOIN)):
            return True
        return any(disfluent(c) for c in node.children)

    return "disfluent" if disfluent(tree) else "fluent"


def _is_punct_leaf(leaf):
    return leaf.pos_tag in PUNCT_TAGS or not _ALNUM_RE.search(leaf.word)


def speechify(tree):
    """Simulate speech-style text: lowercase words, drop punctuation leaves.

    Internal nodes left childless are pruned.  Raises RejectedSentenceError
    if nothing remains.
    """

    def walk(node):
        if node.is_leaf():
            if _is_punct_leaf(node):
                return None
            return LeafNode(node.word.lower(), node.pos_tag)
        kept = [c for c in (walk(ch) for ch in node.children) if c is not None]
        if not kept:
            return None
        return InternalNode(node.label, kept)

    out = walk(tree)
    if out is None:
        raise RejectedSentenceError("sentence is empty after punctuation removal")
    return out


def strip_punctuation(tree):
    """EVALB-style punctuation deletion (tags only, words kept verbatim)."""

    def walk(node):
        if node.is_leaf():
            return None if node.pos_tag in PUNCT_TAGS else node
        kept = [c for c in (walk(ch) for ch in node.children) if c is not None]
        if not kept:
            return None
        return InternalNode(node.label, kept)

    out = walk(tree)
    if out is None:
        raise RejectedSentenceError("sentence is empty after punctuation deletion")
    return out


class LabelVocab:
    """Indexed set of collapsed constituent labels; index 0 is the empty label."""

    def __init__(self, symbols=()):
        self.symbols = [EMPTY_LABEL]
        self._index = {EMPTY_LABEL: 0}
        for sym in symbols:
            self.add(sym)

    @classmethod
    def from_trees(cls, trees):
        labels = set()
        for tree in trees:
            for span in tree_to_spans(tree):
                labels.add(span.label)
        return cls(sorted(labels))

    def add(self, symbol):
        if symbol not in self._index:
            self._index[symbol] = len(self.symbols)
            self.symbols.append(symbol)
        return self._index[symbol]

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise VocabularyError(f"unknown constituent label {symbol!r}") from None

    def __contains__(self, symbol):
        return symbol in self._index

    def value(self, index):
        return self.symbols[index]

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, LabelVocab) and self.symbols == other.symbols


def bracket_multiset(tree, ignore_punctuation=False):
    """EVALB-style brackets: every internal node (chains NOT collapsed),
    preterminals excluded, as a multiset of (a, b, label)."""
    if ignore_punctuation:
        tree = strip_punctuation(tree)
    counts = {}

    def walk(node, start):
        if node.is_leaf():
            return start + 1
        end = start
        for child in node.children:
            end = walk(child, end)
        key = (start, end, node.label)
        counts[key] = counts.get(key, 0) + 1
        return end

    walk(tree, 0)
    return counts
