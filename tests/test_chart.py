import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    add_bias,
    attached_scores,
    chain_layer_norm,
    grad_check,
    mul,
    per_sentence_decode,
    per_sentence_margin_loss,
    sub,
    sum_all,
    tree_score,
)
from prosoparse import autograd as ag
from prosoparse._kernels import _cky_fill_loops, cky_fill_numba, cky_fill_numpy, per_chart
from prosoparse.chart import (
    HAMMING_COST,
    SpanScorer,
    SpanScores,
    _decode,
    cky_decode,
    margin_loss,
    score_spans,
    span_row,
)
from prosoparse.errors import CrossingSpanError, DataError, NumericError, ShapeError
from prosoparse.treebank import LabelVocab, LabeledSpan, tree_to_spans

VOCAB5 = LabelVocab(["S", "NP", "VP", "PP"])


def leaves(T):
    return [(f"w{i}", "NN") for i in range(T)]


def random_dense(rng, T, n_labels):
    # scores on a dyadic grid: float sums are exact in any association order,
    # so oracle comparisons can demand exact equality
    dense = rng.integers(-4096, 4097, size=(T + 1, T + 1, n_labels)) / 1024.0
    dense[:, :, 0] = 0.0
    return dense


def encoded_and_scorer(T, d_in=6, hidden=5, n_labels=4, seed=0):
    """Random float64 fenceposts (as a Parameter) and span scorer."""
    rng = np.random.default_rng(seed)
    fenceposts = ag.Parameter("fenceposts", rng.standard_normal((T + 1, d_in)))
    scorer = SpanScorer(d_in, n_labels, hidden=hidden, rng=rng, dtype=np.float64)
    scorer.b1.value[...] = rng.standard_normal(hidden)
    scorer.ln_gain.value[...] = 1.0 + 0.1 * rng.standard_normal(hidden)
    return fenceposts, scorer


def score_with(tape, fenceposts, scorer):
    T = fenceposts.value.shape[0] - 1
    vocab = LabelVocab(["S", "NP", "VP"])
    return score_spans(tape, tape.watch(fenceposts), scorer, vocab, [T])


# ----------------------------------------------------------------------
# independent oracles

def enumerate_best_score(dense):
    """Exhaustive recursion over every binary tree shape (no memoization);
    per span the best label is chosen, with the root forced non-empty."""
    T = dense.shape[0] - 1

    def span_best(a, b):
        if (a, b) == (0, T):
            return dense[a, b, 1:].max()
        return dense[a, b].max()

    def rec(a, b):
        here = span_best(a, b)
        if b - a == 1:
            return here
        return here + max(rec(a, k) + rec(k, b) for k in range(a + 1, b))

    return rec(0, T)


def enumerate_shapes(a, b):
    """All binary bracketings of [a, b) as frozensets of spans."""
    if b - a == 1:
        return [frozenset([(a, b)])]
    shapes = []
    for k in range(a + 1, b):
        for left in enumerate_shapes(a, k):
            for right in enumerate_shapes(k, b):
                shapes.append(left | right | {(a, b)})
    return shapes


def eight_op_span_scores(proj, b1, gain, beta, w2, b2):
    """The span scorer's hidden layer as the eight tape ops it once was,
    then the second layer's matmul and add_bias."""
    starts, ends = np.triu_indices(proj.value.shape[0], 1)
    h = add_bias(sub(ag.take_rows(proj, ends), ag.take_rows(proj, starts)), b1)
    h = chain_layer_norm(h, gain, beta)
    return add_bias(ag.matmul(ag.relu(h), w2), b2)


def dense_decode_cells(dense):
    """Argmax tree cells for a dense [T+1, T+1, labels] tensor whose
    empty-label column holds the empty label's scores, with the first max
    of each cell's labels winning: the decoder before it read score rows."""
    T = dense.shape[0] - 1
    label_best = dense.max(axis=2)
    label_arg = dense.argmax(axis=2)
    best, split = cky_fill_numpy(label_best)
    root_arg = int(dense[0, T, 1:].argmax()) + 1
    total = dense[0, T, root_arg] + (best[0, T] - label_best[0, T])
    cells = []
    stack = [(0, T)]
    while stack:
        a, b = stack.pop()
        cells.append((a, b, root_arg if (a, b) == (0, T) else int(label_arg[a, b])))
        if b - a > 1:
            k = int(split[a, b])
            stack += [(k, b), (a, k)]
    return sorted(cells), float(total)


def hamming_augment(dense, gold_idx):
    """The dense cost tensor of the margin loss: 1 on every entry that
    differs from the gold assignment, the empty label gold off the gold tree."""
    augment = np.full(dense.shape, HAMMING_COST)
    augment[:, :, 0] = 0.0
    for (a, b), li in gold_idx.items():
        augment[a, b, 0] = HAMMING_COST
        augment[a, b, li] = 0.0
    return augment


def random_gold(rng, T, keep=0.5):
    """Label indices in 1..3 for the root and a ``keep`` share of the other
    spans of a random binary bracketing of [0, T)."""
    gold, stack = {}, [(0, T)]
    while stack:
        a, b = stack.pop()
        if (a, b) == (0, T) or rng.random() < keep:
            gold[(a, b)] = int(rng.integers(1, 4))
        if b - a > 1:
            k = int(rng.integers(a + 1, b))
            stack += [(a, k), (k, b)]
    return gold


def chain_margin_loss(dense, gold_idx, seed):
    """The margin loss's score-matrix gradient and value as the chain of ops
    it once was: unsigned gathers of the predicted-only and the gold-only
    cells, their difference, plus the Hamming cost."""
    cells, _ = dense_decode_cells(dense + hamming_augment(dense, gold_idx))
    pred = {(a, b, li) for a, b, li in cells if li != 0}
    gold = {(a, b, li) for (a, b), li in gold_idx.items()}
    delta = HAMMING_COST * sum(li != gold_idx.get((a, b), 0) for a, b, li in cells)
    scores = attached_scores(dense, VOCAB5)
    tape = scores.matrix.tape

    def gathered(picked):
        if not picked:
            return tape.constant(0.0)
        a, b, cols = zip(*sorted(picked))
        rows = span_row(len(dense) - 1, np.array(a), np.array(b))
        return ag.gather_sum(scores.matrix, rows, cols, np.ones(len(cols)))

    loss = ag.add(sub(gathered(pred - gold), gathered(gold - pred)), tape.constant(delta))
    tape.backward(loss, seed=seed)
    return scores.matrix.grad, loss.value


def literal_best_score(dense):
    """Full cross product of shapes x label assignments (tiny inputs only)."""
    T = dense.shape[0] - 1
    n_labels = dense.shape[2]
    best = -np.inf
    for shape in enumerate_shapes(0, T):
        spans = sorted(shape)
        choices = [
            range(1, n_labels) if (a, b) == (0, T) else range(n_labels)
            for a, b in spans
        ]
        for assignment in itertools.product(*choices):
            score = sum(
                dense[a, b, l] for (a, b), l in zip(spans, assignment)
            )
            best = max(best, score)
    return best


# ----------------------------------------------------------------------

class TestKernels:
    def test_numba_import_selects_kernel(self, child_env):
        import subprocess
        import sys

        try:
            from numba import njit  # noqa: F401
            has_numba = True
        except ImportError:
            has_numba = False

        probe = (
            "from prosoparse import _kernels as k;"
            "print(k.USING_NUMBA, k.cky_fill is k.cky_fill_numpy)"
        )

        r = subprocess.run(
            [sys.executable, "-c", probe], env=child_env, capture_output=True, text=True
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == [str(has_numba), str(not has_numba)]

    def test_both_paths_bit_identical(self):
        rng = np.random.default_rng(0)
        for T in (1, 2, 5, 9, 17):
            label_best = rng.standard_normal((T + 1, T + 1))
            np_best, np_split = cky_fill_numpy(label_best)
            if cky_fill_numba is None:
                pytest.skip("numba unavailable")
            nb_best, nb_split = cky_fill_numba(label_best)
            np.testing.assert_array_equal(np_best, nb_best)
            np.testing.assert_array_equal(np_split, nb_split)

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 17, 40, 80])
    @pytest.mark.parametrize("chart", ["random", "integer", "non-finite"])
    def test_numpy_fill_equals_loop_reference(self, T, chart):
        rng = np.random.default_rng(T)
        if chart == "random":
            label_best = rng.standard_normal((T + 1, T + 1))
        elif chart == "integer":  # few distinct values: most cells have tied split candidates
            label_best = rng.integers(-2, 3, size=(T + 1, T + 1)).astype(np.float64)
        else:  # NaN and +inf cells: the first NaN candidate wins in both kernels
            label_best = rng.standard_normal((T + 1, T + 1))
            label_best[rng.random(label_best.shape) < 0.1] = np.nan
            label_best[rng.random(label_best.shape) < 0.1] = np.inf
        np_best, np_split = cky_fill_numpy(label_best)
        ref_best, ref_split = _cky_fill_loops(label_best)
        assert np_best.tobytes() == ref_best.tobytes()
        assert np_split.tobytes() == ref_split.tobytes()

    def test_split_tie_breaks_smallest(self):
        label_best = np.zeros((4, 4))
        _, split = cky_fill_numpy(label_best)
        assert split[0, 3] == 1  # all-equal candidates: first split wins

    @pytest.mark.parametrize("chart", ["random", "integer"])
    def test_padded_stack_equals_loop_reference_per_chart(self, chart):
        rng = np.random.default_rng(5)
        lengths = [7, 1, 12, 3, 12, 2]
        n = max(lengths) + 1
        stack = np.zeros((len(lengths), n, n))
        for chart_i, T in enumerate(lengths):
            if chart == "random":
                cells = rng.standard_normal((T + 1, T + 1))
            else:  # ties on splits
                cells = rng.integers(-2, 3, size=(T + 1, T + 1)).astype(np.float64)
            stack[chart_i, : T + 1, : T + 1] = np.triu(cells, 1)
        best, split = cky_fill_numpy(stack)
        assert best.shape == split.shape == stack.shape
        for chart_i, T in enumerate(lengths):
            ref_best, ref_split = _cky_fill_loops(stack[chart_i, : T + 1, : T + 1])
            assert best[chart_i, : T + 1, : T + 1].tobytes() == ref_best.tobytes()
            assert split[chart_i, : T + 1, : T + 1].tobytes() == ref_split.tobytes()

    def test_per_chart_fill_takes_a_stack(self):
        # the wrapper that lets a one-chart kernel (numba's) fill a bucket,
        # with the loop kernel standing in for the JIT-compiled one
        fill = per_chart(_cky_fill_loops)
        rng = np.random.default_rng(6)
        stack = rng.integers(-2, 3, size=(2, 3, 6, 6)).astype(np.float64)
        best, split = fill(stack)
        want_best, want_split = cky_fill_numpy(stack)
        assert best.dtype == np.float64 and split.dtype == np.int32
        assert best.tobytes() == want_best.tobytes()
        assert split.tobytes() == want_split.tobytes()
        one_best, one_split = fill(stack[1, 2])
        assert one_best.tobytes() == want_best[1, 2].tobytes()
        assert one_split.tobytes() == want_split[1, 2].tobytes()


class TestCkyDecode:
    def test_oracle_small_literal(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            T = int(rng.integers(1, 4))
            n_labels = int(rng.integers(2, 4))
            dense = random_dense(rng, T, n_labels)
            vocab = LabelVocab([f"L{i}" for i in range(1, n_labels)])
            [decoded] = cky_decode(attached_scores(dense, vocab), [leaves(T)])
            assert decoded.total_score == literal_best_score(dense)

    def test_oracle_exhaustive_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            T = int(rng.integers(2, 7))
            n_labels = int(rng.integers(2, 6))
            dense = random_dense(rng, T, n_labels)
            vocab = LabelVocab([f"L{i}" for i in range(1, n_labels)])
            [decoded] = cky_decode(attached_scores(dense, vocab), [leaves(T)])
            assert decoded.total_score == enumerate_best_score(dense)

    def test_single_word_unary_chain(self):
        vocab = LabelVocab(["S+VP", "NP"])
        dense = np.zeros((2, 2, 3))
        dense[0, 1, 1] = 2.0  # S+VP
        [decoded] = cky_decode(attached_scores(dense, vocab), [[("go", "VB")]])
        assert decoded.tree.linearize() == "(S (VP (VB go)))"
        assert decoded.total_score == 2.0

    def test_all_zero_scores_tiebreak(self):
        vocab = VOCAB5
        T = 4
        dense = np.zeros((T + 1, T + 1, len(vocab)))
        [decoded] = cky_decode(attached_scores(dense, vocab), [leaves(T)])
        assert decoded.total_score == 0.0
        # root takes label index 1; all other cells fall to the empty label,
        # leaving a flat tree
        assert decoded.tree.label == "S"
        assert all(child.is_leaf() for child in decoded.tree.children)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf at the root
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tree_total_is_numeric_error(self, bad):
        # a NaN or +inf label score in any cell of the second sentence's
        # chart reaches its tree's total; column 0 is never read
        lengths = [2, 4, 3]
        rows = np.random.default_rng(3).standard_normal((3 + 10 + 6, len(VOCAB5)))
        rows[:, 0] = np.nan

        def decode(rows):
            matrix = ag.Tape(dtype=np.float64).constant(rows)
            return cky_decode(SpanScores(VOCAB5, matrix, lengths), [leaves(T) for T in lengths])

        assert all(np.isfinite(d.total_score) for d in decode(rows))
        for row in range(3, 13):  # the second sentence's spans
            poisoned = rows.copy()
            poisoned[row, 2] = bad
            with pytest.raises(NumericError, match="sentence 1 of the bucket"):
                decode(poisoned)

    def test_score_consistency_and_span_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            T = int(rng.integers(1, 8))
            dense = random_dense(rng, T, len(VOCAB5))
            [decoded] = cky_decode(attached_scores(dense, VOCAB5), [leaves(T)])
            spans = tree_to_spans(decoded.tree)
            scores = attached_scores(dense, VOCAB5)
            assert abs(tree_score(scores, spans) - decoded.total_score) < 1e-4
            # decoding then converting tree -> spans -> tree is identity
            from prosoparse.treebank import sentence_of, spans_to_tree

            assert spans_to_tree(spans, sentence_of(decoded.tree)) == decoded.tree


class TestMarginLoss:
    def gold(self):
        return {
            LabeledSpan(0, 3, "S"),
            LabeledSpan(0, 2, "NP"),
        }

    def test_gold_dominates_zero_loss(self):
        # the margin requires non-gold labels to sit below the empty label by
        # the Hamming cost, not merely below the gold label
        dense = np.full((4, 4, len(VOCAB5)), -2.0)
        dense[:, :, 0] = 0.0
        for s in self.gold():
            dense[s.a, s.b, VOCAB5.index(s.label)] = 10.0
        scores = attached_scores(dense, VOCAB5)
        loss, [info] = margin_loss(scores, [self.gold()])
        assert float(loss.value) == 0.0
        assert info.loss == 0.0 and info.correct

    def test_gold_high_but_spurious_not_suppressed(self):
        # raising gold spans alone is not enough: every single-word span can
        # still pick up a free non-gold bracket under the augmented decode
        dense = np.zeros((4, 4, len(VOCAB5)))
        for s in self.gold():
            dense[s.a, s.b, VOCAB5.index(s.label)] = 10.0
        _, [info] = margin_loss(attached_scores(dense, VOCAB5), [self.gold()])
        assert info.loss == 3.0  # one spurious bracket per length-1 span

    def test_nan_score_gives_nan_loss(self):
        # max(0.0, nan) is 0.0: the hinge must keep the NaN, so that
        # training sees the divergence
        dense = np.zeros((4, 4, len(VOCAB5)))
        dense[0, 3, VOCAB5.index("S")] = np.nan
        _, [info] = margin_loss(attached_scores(dense, VOCAB5), [self.gold()])
        assert np.isnan(info.loss)

    def test_all_zero_scores_loss_is_delta(self):
        T = 3
        dense = np.zeros((T + 1, T + 1, len(VOCAB5)))
        scores = attached_scores(dense, VOCAB5)
        loss, [info] = margin_loss(scores, [self.gold()])
        # The augmented decode maximizes the Hamming cost alone; its loss
        # must equal the independently enumerated augmented optimum.
        augment = hamming_augment(
            dense, {(s.a, s.b): VOCAB5.index(s.label) for s in self.gold()}
        )
        expected = enumerate_best_score(dense + augment)  # minus gold score 0
        assert info.loss == expected
        assert float(loss.value) == pytest.approx(expected)
        assert info.delta == expected  # raw scores are all zero

    def test_loss_zero_iff_augmented_argmax_is_gold(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            T = 3
            dense = random_dense(rng, T, len(VOCAB5))
            scores = attached_scores(dense, VOCAB5)
            loss, [info] = margin_loss(scores, [self.gold()])
            if info.correct:
                assert info.loss == 0.0
            else:
                assert info.loss > 0.0
            assert float(loss.value) == pytest.approx(info.loss, abs=1e-9)

    def test_margin_matches_enumeration(self):
        rng = np.random.default_rng(17)
        gold = self.gold()
        for _ in range(50):
            dense = random_dense(rng, 3, len(VOCAB5))
            scores = attached_scores(dense, VOCAB5)
            _, [info] = margin_loss(scores, [gold])
            augment = hamming_augment(
                dense, {(s.a, s.b): VOCAB5.index(s.label) for s in gold}
            )
            gold_raw = sum(dense[s.a, s.b, VOCAB5.index(s.label)] for s in gold)
            expected = max(0.0, enumerate_best_score(dense + augment) - gold_raw)
            assert info.loss == pytest.approx(expected, abs=1e-9)

    def test_raising_gold_score_never_increases_loss(self):
        rng = np.random.default_rng(31)
        gold = sorted(self.gold())
        for _ in range(20):
            dense = random_dense(rng, 3, len(VOCAB5))
            base = margin_loss(attached_scores(dense, VOCAB5), [gold])[1][0].loss
            for s in gold:
                boosted = dense.copy()
                boosted[s.a, s.b, VOCAB5.index(s.label)] += 1.5
                new = margin_loss(attached_scores(boosted, VOCAB5), [gold])[1][0].loss
                assert new <= base + 1e-9

    def test_crossing_gold_spans_rejected(self):
        dense = np.zeros((4, 4, len(VOCAB5)))
        scores = attached_scores(dense, VOCAB5)
        bad = {LabeledSpan(0, 2, "NP"), LabeledSpan(1, 3, "VP"), LabeledSpan(0, 3, "S")}
        with pytest.raises(CrossingSpanError):
            margin_loss(scores, [bad])

    def test_gradient_signs(self):
        T = 3
        dense = np.zeros((T + 1, T + 1, len(VOCAB5)))
        dense[0, 2, VOCAB5.index("VP")] = 5.0  # wrong label on a gold span
        scores = attached_scores(dense, VOCAB5)
        loss, [info] = margin_loss(scores, [self.gold()])
        assert info.loss > 0
        scores.matrix.tape.backward(loss)
        g = scores.matrix.grad
        row = span_row(T, 0, 2)
        assert g[row, VOCAB5.index("VP")] > 0  # violator pushed down
        assert g[row, VOCAB5.index("NP")] < 0  # gold pushed up

    @pytest.mark.parametrize("T", [1, 2, 3, 6, 12])
    def test_gradient_equals_sub_add_chain(self, T):
        rng = np.random.default_rng(200 + T)
        seen = 0
        for _ in range(20):
            dense = random_dense(rng, T, len(VOCAB5))
            gold_idx = random_gold(rng, T)
            gold = {LabeledSpan(a, b, VOCAB5.value(li)) for (a, b), li in gold_idx.items()}
            scores = attached_scores(dense, VOCAB5)
            loss, [info] = margin_loss(scores, [gold])
            if info.loss == 0.0:
                continue
            seen += 1
            scores.matrix.tape.backward(loss, seed=0.25)
            want_grad, want_loss = chain_margin_loss(dense, gold_idx, seed=0.25)
            assert scores.matrix.grad.tobytes() == want_grad.tobytes()
            assert float(loss.value) == pytest.approx(float(want_loss), abs=1e-9)
        assert seen

    @pytest.mark.parametrize("integer", [True, False])
    def test_gradient_reaches_few_span_rows(self, integer):
        # ag.span_scores' backward gathers a sentence's live rows: its
        # predicted-only and gold-only spans.  Both trees hold the T one-word
        # spans and the root, and at most T - 2 other spans each, so at most
        # 3T - 3 rows are live (1 at T = 1), within 4T - 3
        rng = np.random.default_rng(30 + integer)
        reached = set()
        for _ in range(60):
            lengths = rng.integers(1, 21, size=int(rng.integers(1, 5))).tolist()
            denses = [
                random_dense(rng, T, len(VOCAB5)) if integer
                else rng.standard_normal((T + 1, T + 1, len(VOCAB5))) * [0, 3, 3, 3, 3]
                for T in lengths
            ]
            golds = [random_gold(rng, T, keep=rng.random()) for T in lengths]
            golds = [{LabeledSpan(a, b, VOCAB5.value(li)) for (a, b), li in g.items()}
                     for g in golds]
            tape = ag.Tape(dtype=np.float64)
            matrix = tape.constant(
                np.concatenate([d[np.triu_indices(len(d), 1)] for d in denses])
            )
            loss, _ = margin_loss(SpanScores(VOCAB5, matrix, lengths), golds)
            tape.backward(loss)
            if matrix.grad is None:
                continue
            spans = np.cumsum([0] + [T * (T + 1) // 2 for T in lengths])
            for T, lo, hi in zip(lengths, spans, spans[1:]):
                live = int(matrix.grad[lo:hi].any(axis=1).sum())
                assert live <= max(3 * T - 3, 1), (T, live)
                if live == max(3 * T - 3, 1):
                    reached.add(T)
        assert max(reached) > 1  # the bound is tight


class TestScoreSpans:
    def test_span_index_order_and_rows(self):
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 5)]
        starts, ends = ag.span_pairs([5])
        assert list(zip(starts.tolist(), ends.tolist())) == pairs
        for T in range(1, 41):
            starts, ends = ag.span_pairs([T + 1])
            assert span_row(T, starts, ends).tolist() == list(range(len(starts)))
            assert [span_row(T, a, b) for a, b in zip(starts.tolist(), ends.tolist())] == [
                a * T - a * (a - 1) // 2 + b - a - 1
                for a, b in zip(starts.tolist(), ends.tolist())
            ]

    def test_span_pairs_of_a_bucket(self):
        # each segment's pairs, shifted to its rows, one segment after another
        lengths = [6, 1, 2, 6, 41, 3]
        want, row = [], 0
        for n in lengths:
            want += [(row + a, row + b) for a, b in zip(*np.triu_indices(n, 1))]
            row += n
        starts, ends = ag.span_pairs(lengths)
        assert list(zip(starts.tolist(), ends.tolist())) == want

    def test_factored_first_layer_matches_span_differences(self):
        T = 9
        fenceposts, scorer = encoded_and_scorer(T)
        tape = ag.Tape(dtype=np.float64)
        scores = score_with(tape, fenceposts, scorer)
        starts, ends = np.triu_indices(T + 1, 1)
        f = fenceposts.value
        h = (f[ends] - f[starts]) @ scorer.w1.value + scorer.b1.value
        mu = h.mean(axis=-1, keepdims=True)
        h = (h - mu) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
        h = np.maximum(h * scorer.ln_gain.value + scorer.ln_bias.value, 0.0)
        explicit = h @ scorer.w2.value + scorer.b2.value
        np.testing.assert_allclose(scores.matrix.value, explicit, rtol=0, atol=1e-12)

    def test_dense_view(self):
        T = 5
        fenceposts, scorer = encoded_and_scorer(T)
        scores = score_with(ag.Tape(dtype=np.float64), fenceposts, scorer)
        starts, ends = np.triu_indices(T + 1, 1)
        expected = np.zeros((T + 1, T + 1, scorer.n_labels))
        expected[starts, ends] = scores.matrix.value
        expected[:, :, 0] = 0.0
        dense = scores.dense
        assert dense.tobytes() == expected.tobytes()
        assert not dense.flags.writeable

    def test_bucket_is_block_diagonal_and_views_score_each_sentence(self):
        lengths = [3, 1, 5, 3]
        rows = np.cumsum([0] + [T + 1 for T in lengths])
        spans = np.cumsum([0] + [T * (T + 1) // 2 for T in lengths])
        fenceposts, scorer = encoded_and_scorer(rows[-1] - 1)
        vocab = LabelVocab(["S", "NP", "VP"])
        tape = ag.Tape(dtype=np.float64)
        scores = score_spans(tape, tape.constant(fenceposts.value), scorer, vocab, lengths)
        assert scores.n_words == rows[-1] - 1
        dense = scores.dense
        on_blocks = np.zeros(dense.shape[:2], dtype=bool)
        decoded = cky_decode(scores, [leaves(T) for T in lengths])
        for i, (T, lo) in enumerate(zip(lengths, rows)):
            alone_tape = ag.Tape(dtype=np.float64)
            alone = score_spans(
                alone_tape, alone_tape.constant(fenceposts.value[lo : lo + T + 1]), scorer,
                vocab, [T],
            )
            np.testing.assert_allclose(
                scores.matrix.value[spans[i] : spans[i + 1]], alone.matrix.value,
                rtol=1e-12, atol=0,
            )
            block = dense[lo : lo + T + 1, lo : lo + T + 1]
            np.testing.assert_allclose(block, alone.dense, rtol=1e-12, atol=0)
            on_blocks[lo : lo + T + 1, lo : lo + T + 1] = True
            [want] = cky_decode(alone, [leaves(T)])
            assert decoded[i].tree == want.tree
        assert not dense[~on_blocks].any()
        with pytest.raises(DataError, match="leaves given"):
            cky_decode(scores, [leaves(scores.n_words)])
        with pytest.raises(DataError, match="leaves given"):
            cky_decode(scores, [leaves(T) for T in [3, 1, 5, 2]])

    def test_margin_of_a_view_reads_and_writes_its_rows(self):
        # one decode and one margin over a mixed-length bucket: each
        # sentence's tree, total, info and gradient block are those of the
        # sentence decoded alone
        rng = np.random.default_rng(8)
        denses = [random_dense(rng, T, len(VOCAB5)) for T in (3, 1, 4, 1, 6, 3)]
        golds = [random_gold(rng, len(d) - 1) for d in denses]
        golds = [{LabeledSpan(a, b, VOCAB5.value(li)) for (a, b), li in g.items()} for g in golds]
        bucket = np.concatenate([d[np.triu_indices(len(d), 1)] for d in denses])
        spans = np.cumsum([0] + [len(d) * (len(d) - 1) // 2 for d in denses])
        lengths = [len(d) - 1 for d in denses]
        tape = ag.Tape(dtype=np.float64)
        matrix = tape.constant(bucket)
        decoded = cky_decode(SpanScores(VOCAB5, matrix, lengths), [leaves(T) for T in lengths])
        loss, infos = margin_loss(SpanScores(VOCAB5, matrix, lengths), golds)
        assert sum(info.loss > 0.0 for info in infos) >= 2
        assert sum(info.loss > 0.0 for T, info in zip(lengths, infos) if T == 1) >= 1
        tape.backward(loss)
        for i, (dense, gold) in enumerate(zip(denses, golds)):
            [want_tree] = cky_decode(attached_scores(dense, VOCAB5), [leaves(lengths[i])])
            assert decoded[i].tree == want_tree.tree
            assert decoded[i].total_score == want_tree.total_score
            alone = attached_scores(dense, VOCAB5)
            want_loss, [want_info] = margin_loss(alone, [gold])
            assert infos[i] == want_info
            block = matrix.grad[spans[i] : spans[i + 1]]
            if want_info.loss == 0.0:
                assert not block.any()
                continue
            alone.matrix.tape.backward(want_loss)
            assert block.tobytes() == alone.matrix.grad.tobytes()

    def test_margin_needs_one_gold_per_sentence(self):
        scores = SpanScores(VOCAB5, ag.Tape().constant(np.zeros((9, len(VOCAB5)))), [2, 2, 1])
        with pytest.raises(DataError, match="3 sentences"):
            margin_loss(scores, [set(), set()])

    def test_sentence_without_words_is_data_error(self):
        # the empty sentence has no rows, so its loss would be read from
        # its neighbour's
        scores = SpanScores(VOCAB5, ag.Tape().constant(np.zeros((6, len(VOCAB5)))), [3, 0])
        with pytest.raises(DataError, match="no words"):
            margin_loss(scores, [{LabeledSpan(0, 3, "S")}, set()])
        with pytest.raises(DataError, match="no words"):
            cky_decode(scores, [leaves(3), []])

    def test_grad_check_fenceposts_and_first_layer(self):
        T = 6
        fenceposts, scorer = encoded_and_scorer(T, seed=4)
        weights = np.random.default_rng(5).standard_normal(
            (T * (T + 1) // 2, scorer.n_labels)
        )

        def f():
            tape = ag.Tape(dtype=np.float64)
            scores = score_with(tape, fenceposts, scorer)
            return sum_all(mul(scores.matrix, tape.constant(weights)))

        params = [fenceposts, scorer.w1, scorer.b1, scorer.ln_gain, scorer.ln_bias]
        err = grad_check(f, params, n_samples=40, h=1e-5)
        assert err < 1e-5, f"gradient error {err}"

    @pytest.mark.parametrize("T", [1, 2, 7, 40])
    @pytest.mark.parametrize("equal_fenceposts", [False, True])
    def test_span_hidden_matches_eight_op_chain(self, T, equal_fenceposts):
        # the hidden layer of ag.span_scores, seen through the scores
        rng = np.random.default_rng(T)
        hidden, n_labels = 8, 3
        params = [
            ag.Parameter("proj", rng.standard_normal((T + 1, hidden))),
            ag.Parameter("b1", rng.standard_normal(hidden)),
            ag.Parameter("gain", 1.0 + 0.1 * rng.standard_normal(hidden)),
            ag.Parameter("beta", 0.5 * rng.standard_normal(hidden)),
            ag.Parameter("w2", rng.standard_normal((hidden, n_labels))),
            ag.Parameter("b2", rng.standard_normal(n_labels)),
        ]
        if equal_fenceposts:
            # span (0, 1) has the row proj[1] - proj[0] + b1 = 0: zero variance
            params[0].value[1] = params[0].value[0]
            params[1].value[...] = 0.0
        weights = rng.standard_normal((T * (T + 1) // 2, n_labels))

        def run(op):
            for p in params:
                p.grad[...] = 0
            tape = ag.Tape(dtype=np.float64)
            out = op(*(tape.watch(p) for p in params))
            tape.backward(sum_all(mul(out, tape.constant(weights))))
            return [out.value] + [p.grad.copy() for p in params]

        got, want = run(ag.span_scores), run(eight_op_span_scores)
        if equal_fenceposts:
            beta, w2, b2 = (p.value for p in params[3:])
            np.testing.assert_allclose(
                want[0][0], np.maximum(beta, 0.0) @ w2 + b2, rtol=0, atol=1e-12
            )
        # a variance of ~0 from the fencepost statistics carries a float64
        # rounding error of ~1e-16 that 1/sqrt(var + 1e-5) scales by ~1e5
        names = ["out", "proj", "b1", "gain", "beta", "w2", "b2"]
        for name, g, w in zip(names, got, want):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_span_hidden_checks_shapes(self):
        tape = ag.Tape()
        proj = tape.constant(np.zeros((4, 3)))
        vec = tape.constant(np.zeros(3))
        w2, b2 = tape.constant(np.zeros((3, 2))), tape.constant(np.zeros(2))
        with pytest.raises(ShapeError, match="span_scores"):
            ag.span_scores(proj, tape.constant(np.zeros(2)), vec, vec, w2, b2)
        with pytest.raises(ShapeError, match="span_scores"):
            ag.span_scores(tape.constant(np.zeros(3)), vec, vec, vec, w2, b2)
        with pytest.raises(ShapeError, match="span_scores"):
            ag.span_scores(proj, vec, vec, vec, tape.constant(np.zeros((2, 2))), b2)
        with pytest.raises(ShapeError, match="span_scores"):
            ag.span_scores(proj, vec, vec, vec, w2, tape.constant(np.zeros(3)))

    def test_long_sentence_builds_no_span_sized_array(self):
        # the default scorer shape at T = 160: one [spans, hidden] float32
        # array would take 12.6 MB
        T, d_in, hidden, n_labels = 160, 384, 256, 64
        rng = np.random.default_rng(0)
        scorer = SpanScorer(d_in, n_labels, hidden=hidden, rng=rng)
        fenceposts = rng.standard_normal((T + 1, d_in)).astype(np.float32)
        vocab = LabelVocab([f"L{i}" for i in range(1, n_labels)])
        tape = ag.Tape(record=False)
        tracemalloc.start()
        try:
            scores = score_spans(tape, tape.constant(fenceposts), scorer, vocab, [T])
            cky_decode(scores, [leaves(T)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * (T + 1) // 2 * hidden * 4


@st.composite
def score_buckets(draw):
    """(rows, empty, lengths) of a bucket of 1-20-word sentences in any
    order, scored with integers (ties on labels, the empty label and
    splits) or at random, the empty label scoring one value or one per row."""
    lengths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = sum(T * (T + 1) // 2 for T in lengths)
    n_labels = draw(st.integers(2, 5))
    if draw(st.booleans()):
        rows = rng.integers(-2, 3, size=(n_rows, n_labels)).astype(np.float64)
        per_row = rng.integers(-2, 3, size=n_rows).astype(np.float64)
    else:
        rows = rng.standard_normal((n_rows, n_labels))
        per_row = rng.standard_normal(n_rows)
    empty = per_row if draw(st.booleans()) else draw(st.sampled_from([0.0, 1.0]))
    return rows, empty, lengths


class TestBucketDecode:
    """One fill over a bucket's zero-padded charts against filling each
    sentence's chart alone."""

    @settings(max_examples=80, deadline=None)
    @given(score_buckets())
    def test_equals_per_sentence_decode(self, bucket):
        rows, empty, lengths = bucket
        spans, at, labels, totals = _decode(rows, empty, lengths)
        w_spans, w_at, w_labels, w_totals = per_sentence_decode(rows, empty, lengths)
        assert spans == w_spans
        assert [len(tree) for tree in spans] == [2 * T - 1 for T in lengths]
        assert at.tolist() == w_at.tolist()
        assert labels.tolist() == w_labels.tolist()
        assert totals.tobytes() == w_totals.tobytes()


@st.composite
def margin_buckets(draw):
    """(matrix values, lengths, golds) of a bucket of 1-20-word sentences,
    float32 or float64, each scored with integers (ties), at random, so
    that its gold tree wins by the margin (loss 0), so that it ties the
    margin (loss 0, yet the augmented argmax labels the gold spans empty),
    or with a NaN."""
    lengths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, golds = [], []
    for T in lengths:
        n_rows = T * (T + 1) // 2
        gold_idx = random_gold(rng, T, keep=rng.random())
        kind = draw(st.sampled_from(["integer", "random", "gold wins", "gold ties", "nan"]))
        if kind == "integer":
            rows = rng.integers(-2, 3, size=(n_rows, len(VOCAB5))).astype(np.float64)
        elif kind.startswith("gold"):
            low, high = (-2.0, 10.0) if kind == "gold wins" else (-HAMMING_COST, HAMMING_COST)
            rows = np.full((n_rows, len(VOCAB5)), low)
            for (a, b), li in gold_idx.items():
                rows[span_row(T, a, b), li] = high
        else:
            rows = rng.standard_normal((n_rows, len(VOCAB5))) * 3
        if kind == "nan":
            rows[rng.integers(n_rows), rng.integers(1, len(VOCAB5))] = np.nan
        blocks.append(rows)
        golds.append({LabeledSpan(a, b, VOCAB5.value(li)) for (a, b), li in gold_idx.items()})
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return np.concatenate(blocks).astype(dtype), lengths, golds


class TestBucketMargin:
    """The margin loss's sums over the bucket against summing each
    sentence's scores in a Python loop."""

    @settings(max_examples=80, deadline=None)
    @given(margin_buckets())
    def test_equals_per_sentence_margin_loss(self, bucket):
        values, lengths, golds = bucket

        def run(margin):
            tape = ag.Tape(dtype=values.dtype)
            matrix = tape.constant(values.copy())
            loss, infos = margin(SpanScores(VOCAB5, matrix, lengths), golds)
            tape.backward(loss, seed=0.25)
            grad = None if matrix.grad is None else matrix.grad.tobytes()
            fields = [
                (np.float64(i.loss).tobytes(), np.float64(i.delta).tobytes(), i.correct)
                for i in infos
            ]
            assert all(type(i.loss) is type(i.delta) is float for i in infos)
            assert all(type(i.correct) is bool for i in infos)
            return fields, loss.value.tobytes(), grad

        assert run(margin_loss) == run(per_sentence_margin_loss)


def decoded_cells(rows, empty, lengths):
    """Each sentence's (cells [(a, b, label)], total) from the bucket decoder."""
    spans, _, labels, totals = _decode(rows, empty, lengths)
    labels = iter(labels.tolist())
    return [
        ([(a, b, li) for (a, b), li in zip(tree, labels)], total)
        for tree, total in zip(spans, totals.tolist())
    ]


class TestDecodeFromRows:
    """Decoding a bucket of charts from score rows against the dense-tensor
    decoder, chart by chart."""

    @staticmethod
    def bucket_rows(denses, rng):
        rows = np.concatenate([d[np.triu_indices(d.shape[0], 1)] for d in denses])
        rows[:, 0] = rng.standard_normal(len(rows))  # never read
        return rows

    @pytest.mark.parametrize("T", [1, 2, 3, 6, 12])
    def test_parse_equals_dense_decoder(self, T):
        rng = np.random.default_rng(T)
        # few distinct values: the empty label ties the best label often
        denses = [
            rng.integers(-2, 3, size=(T + 1, T + 1, 4)).astype(np.float64) for _ in range(20)
        ]
        for dense in denses:
            dense[:, :, 0] = 0.0
        got = decoded_cells(self.bucket_rows(denses, rng), 0.0, [T] * len(denses))
        assert got == [dense_decode_cells(dense) for dense in denses]

    @pytest.mark.parametrize("T", [1, 2, 3, 6, 12])
    def test_augmented_equals_dense_decoder(self, T):
        rng = np.random.default_rng(100 + T)
        denses, augmented, empty, want = [], [], [], []
        for _ in range(20):
            dense = rng.integers(-2, 3, size=(T + 1, T + 1, 4)).astype(np.float64)
            dense[:, :, 0] = 0.0
            gold_idx = random_gold(rng, T)
            rows = self.bucket_rows([dense], rng)
            aug = rows + HAMMING_COST
            gap = np.zeros(len(rows))
            for (a, b), li in gold_idx.items():
                aug[span_row(T, a, b), li] = rows[span_row(T, a, b), li]
                gap[span_row(T, a, b)] = HAMMING_COST
            augmented.append(aug)
            empty.append(gap)
            want.append(dense_decode_cells(dense + hamming_augment(dense, gold_idx)))
        got = decoded_cells(np.concatenate(augmented), np.concatenate(empty), [T] * 20)
        assert got == want
