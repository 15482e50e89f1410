"""Penn-Treebank-style trees, span conversion, and speech-style preprocessing.

Trees are immutable n-ary bracketings over tagged words.  Internally a node
is either an ``InternalNode`` (label + children) or a ``LeafNode``
(word + POS tag).  Fenceposts are 0-based: span ``(a, b)`` covers words
``a..b-1``.  Unary chains are collapsed into composite labels joined with
``+`` when converting to spans, and expanded again on the way back.

Every traversal of a tree in memory goes through ``Node.walk``, an
iterative depth-first walk, and ``parse_ptb`` keeps its open nodes on an
explicit stack, so trees of any depth read, print, compare, convert and
score.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import (
    CrossingSpanError,
    DataError,
    RejectedSentenceError,
    TreeSyntaxError,
    VocabularyError,
    utf8_text,
)

CHAIN_JOIN = "+"
EMPTY_LABEL = ""
_WRAPPER_LABELS = {"ROOT", "TOP", "S1", ""}
TRACE_TAG = "-NONE-"
# Tags whose leaves are dropped by speechify / optional EVALB-style deletion.
PUNCT_TAGS = {",", ":", ".", "``", "''", "-LRB-", "-RRB-"}

_ALNUM_RE = re.compile(r"[^\W_]", re.UNICODE)


class LabeledSpan(NamedTuple):
    a: int
    b: int
    label: str


class Node:
    __slots__ = ()

    def walk(self):
        """Depth-first over the tree with an explicit stack, so any depth works.

        Yields ``(node, True)`` for each leaf and when an internal node
        opens, and ``(node, False)`` when it closes; children come in order.
        """
        yield self, True
        if self.is_leaf():
            return
        nodes, pending = [self], [iter(self.children)]  # the open path
        while pending:
            for child in pending[-1]:
                yield child, True
                if not child.is_leaf():
                    nodes.append(child)
                    pending.append(iter(child.children))
                    break
            else:
                pending.pop()
                yield nodes.pop(), False

    def leaves(self):
        for node, _ in self.walk():
            if node.is_leaf():
                yield node

    def linearize(self):
        # every opening and every leaf is preceded by one space: drop the root's
        parts = []
        for node, opening in self.walk():
            if not opening:
                parts.append(")")
            elif node.is_leaf():
                parts.append(f" ({node.pos_tag} {node.word})")
            else:
                parts.append(f" ({node.label}")
        return "".join(parts)[1:]

    def _key(self):
        # the walk's events spell the bracketing, so equal keys mean equal trees
        return tuple(
            (node.word, node.pos_tag) if node.is_leaf() else node.label if opening else None
            for node, opening in self.walk()
        )

    def __eq__(self, other):
        return isinstance(other, Node) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.linearize()


class LeafNode(Node):
    __slots__ = ("word", "pos_tag")

    def __init__(self, word, pos_tag):
        self.word = word
        self.pos_tag = pos_tag

    def is_leaf(self):
        return True


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
    """(token, offset) pairs: each bracket, and each run of other non-space
    characters."""
    return [(m.group(), m.start()) for m in re.finditer(r"[()]|[^\s()]+", text)]


def parse_ptb(text):
    """Parse zero or more bracketed trees from ``text``.

    ROOT/TOP wrappers are stripped, function tags removed from internal
    labels, and -NONE- trace subtrees deleted (with spans reindexed by
    virtue of the leaves simply disappearing).
    """
    tokens = _tokenize(text)
    trees = []
    pos = 0
    while pos < len(tokens):
        tok, off = tokens[pos]
        if tok != "(":
            raise TreeSyntaxError(f"expected '(' between trees, found {tok!r}", off)
        tree, pos = _parse_tree(tokens, pos, len(text))
        while (
            not tree.is_leaf()
            and tree.label in _WRAPPER_LABELS
            and len(tree.children) == 1
            and not tree.children[0].is_leaf()
        ):
            tree = tree.children[0]
        trees.append(_prune(tree, _drop_trace, "trace removal"))
    return trees


def _parse_tree(tokens, pos, text_len):
    """The tree whose "(" is ``tokens[pos]``, and the position after it."""
    open_nodes = []  # [label, label offset, word, children] from the root down
    while True:
        tok, off = tokens[pos]
        pos += 1
        if tok == "(":
            if open_nodes and open_nodes[-1][2] is not None:
                # a node that already holds its word takes no children
                raise TreeSyntaxError(
                    f"unexpected token {tok!r} inside node {open_nodes[-1][0]!r}", off
                )
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
            open_nodes.append([label, label_off, None, []])
        elif tok == ")":
            node = _close_node(*open_nodes.pop())
            if not open_nodes:
                return node, pos
            open_nodes[-1][3].append(node)
        else:
            label, _, word, children = open_nodes[-1]
            if word is not None or children:
                raise TreeSyntaxError(
                    f"unexpected token {tok!r} inside node {label!r}", off
                )
            open_nodes[-1][2] = tok
        if pos >= len(tokens):
            raise TreeSyntaxError("unbalanced brackets: missing ')'", text_len)


def _close_node(label, label_off, word, children):
    if word is not None:
        return LeafNode(word, label)
    if not children:
        raise TreeSyntaxError(f"node {label!r} has no children", label_off)
    return InternalNode(_strip_function_tags(label), children)


def _prune(tree, keep_leaf, what):
    """Copy of ``tree`` with each leaf replaced by ``keep_leaf(leaf)``.

    A leaf mapped to None is dropped, and so is every internal node left
    with no children.  Raises RejectedSentenceError, naming ``what`` pruned,
    if nothing remains.
    """
    kept = [[]]  # children gathered so far, one list per open node
    for node, opening in tree.walk():
        if node.is_leaf():
            new = keep_leaf(node)
            if new is not None:
                kept[-1].append(new)
        elif opening:
            kept.append([])
        else:
            children = kept.pop()
            if children:
                kept[-1].append(InternalNode(node.label, children))
    if not kept[0]:
        raise RejectedSentenceError(f"sentence is empty after {what}")
    return kept[0][0]


def _drop_trace(leaf):
    return None if leaf.pos_tag == TRACE_TAG else leaf


def read_tree_file(path):
    with utf8_text(path) as fh:
        text = fh.read()
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


def brackets(tree):
    """``(a, b, label)`` of every internal node, parents before children.

    Leaves produce no bracket; the members of a unary chain are consecutive
    and share one ``(a, b)``.
    """
    out = []
    open_at = []  # (index in out, start) of each open node
    pos = 0
    for node, opening in tree.walk():
        if not opening:
            i, start = open_at.pop()
            out[i] = (start, pos, node.label)
        elif node.is_leaf():
            pos += 1
        else:
            open_at.append((len(out), pos))
            out.append(None)
    return out


def tree_to_spans(tree):
    """Labeled spans of the tree with unary chains collapsed.

    Leaf POS tags produce no span.  A chain S -> VP over the same span
    becomes one span labeled "S+VP".
    """
    chains = {}
    for a, b, label in brackets(tree):
        key = (a, b)
        chains[key] = chains[key] + CHAIN_JOIN + label if key in chains else label
    return {LabeledSpan(a, b, label) for (a, b), label in chains.items()}


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
    # open nodes from the root down, as (end, label, children), under a
    # sentinel that receives the root; ``pos`` is the first leaf not yet placed
    roots = []
    stack = [(T, None, roots)]
    pos = 0
    for a, b in order:
        while stack[-1][0] <= a:
            pos = _close_innermost(stack, leaf_nodes, pos)
        if b > stack[-1][0]:
            raise CrossingSpanError(*_first_crossing(order))
        stack[-1][2].extend(leaf_nodes[pos:a])
        pos = a
        stack.append((b, merged[(a, b)], []))
    while len(stack) > 1:
        pos = _close_innermost(stack, leaf_nodes, pos)
    return roots[0]


def _close_innermost(stack, leaf_nodes, pos):
    """Pop the innermost open node, give it the leaves from ``pos`` to its
    end, and append it to its parent's children; return its end."""
    end, label, children = stack.pop()
    children.extend(leaf_nodes[pos:end])
    stack[-1][2].append(_expand_chain(label, children))
    return end


def _first_crossing(order):
    """The crossing pair that spans_to_tree reports, given sorted spans of
    which two cross: the first span in ``order`` that a later span crosses,
    and the first later span that does.  The later spans that start inside a
    span follow it in ``order``."""
    for i, (a1, b1) in enumerate(order):
        for a2, b2 in order[i + 1 :]:
            if a2 >= b1:
                break
            if b2 > b1:
                return (a1, b1), (a2, b2)


def _expand_chain(label, children):
    parts = label.split(CHAIN_JOIN)
    node = InternalNode(parts[-1], children)
    for part in reversed(parts[:-1]):
        node = InternalNode(part, [node])
    return node


def classify_fluency(tree):
    """"disfluent" iff any constituent label is EDITED or INTJ, else "fluent".

    Composite chain labels are split first, so a node labeled "EDITED+NP"
    counts as disfluent.
    """
    for _, _, label in brackets(tree):
        if any(part in ("EDITED", "INTJ") for part in label.split(CHAIN_JOIN)):
            return "disfluent"
    return "fluent"


def _speech_leaf(leaf):
    if leaf.pos_tag in PUNCT_TAGS or not _ALNUM_RE.search(leaf.word):
        return None
    return LeafNode(leaf.word.lower(), leaf.pos_tag)


def _drop_punct_tag(leaf):
    return None if leaf.pos_tag in PUNCT_TAGS else leaf


def speechify(tree):
    """Simulate speech-style text: lowercase words, drop punctuation leaves.

    Internal nodes left childless are pruned.  Raises RejectedSentenceError
    if nothing remains.
    """
    return _prune(tree, _speech_leaf, "punctuation removal")


def strip_punctuation(tree):
    """EVALB-style punctuation deletion (tags only, words kept verbatim)."""
    return _prune(tree, _drop_punct_tag, "punctuation deletion")


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


def bracket_multiset(tree):
    """EVALB-style brackets: every internal node (chains NOT collapsed),
    preterminals excluded, as a multiset of (a, b, label)."""
    counts = {}
    for key in brackets(tree):
        counts[key] = counts.get(key, 0) + 1
    return counts
