import inspect
import tracemalloc

import numpy as np
import pytest

from conftest import (
    add_bias,
    chain_attention,
    chain_layer_norm,
    chain_span_scores,
    conv1d,
    grad_check,
    mul,
    relu_then_pool,
    sub,
    sum_all,
)
from prosoparse import autograd as ag
from prosoparse.errors import NumericError, ShapeError


def tape64():
    return ag.Tape(dtype=np.float64)


def check_op(build, n_params, tol=1e-6, seed=0, train=False):
    """Gradient-check a single op wired into a scalar loss; ``train`` turns
    dropout on, with the same mask on every pass."""
    rng = np.random.default_rng(seed)
    params = [
        ag.Parameter(f"p{i}", rng.standard_normal(shape).astype(np.float64) + off)
        for i, (shape, off) in enumerate(n_params)
    ]

    def f():
        tape = ag.Tape(rngs=[np.random.default_rng(seed)], train=train, dtype=np.float64)
        return build(tape, [tape.watch(p) for p in params])

    err = grad_check(f, params, n_samples=40, h=1e-5)
    assert err < tol, f"gradient error {err}"


class TestOpGradients:
    def test_matmul_grad(self):
        check_op(
            lambda tape, ps: sum_all(ag.matmul(ps[0], ps[1])),
            [((3, 4), 0.0), ((4, 5), 0.0)],
        )

    def test_matmul_bias_grad(self):
        check_op(
            lambda tape, ps: sum_all(mul(ag.matmul(ps[0], ps[1], ps[2]), ps[3])),
            [((3, 4), 0.0), ((4, 5), 0.0), ((5,), 0.0), ((3, 5), 0.0)],
        )

    def test_add_sub_bias(self):
        check_op(
            lambda tape, ps: sum_all(sub(add_bias(ag.add(ps[0], ps[1]), ps[2]), ps[0])),
            [((3, 4), 0.0), ((3, 4), 0.0), ((4,), 0.0)],
        )

    def test_mul_elementwise_and_vector(self):
        check_op(
            lambda tape, ps: sum_all(mul(mul(ps[0], ps[1]), ps[2])),
            [((3, 4), 0.0), ((3, 4), 0.5), ((4,), 1.0)],
        )

    def test_relu_away_from_kink(self):
        check_op(
            lambda tape, ps: sum_all(ag.relu(ps[0])),
            [((4, 4), 3.0)],  # offset keeps coordinates away from 0
        )

    def test_attention(self):
        # three streams of widths 4, 2 and 6 over 5 words, two heads
        def build(tape, ps):
            outs = ag.attention(ps[0:3], ps[3:6], ps[6:9], heads=2)
            losses = [sum_all(mul(o, w)) for o, w in zip(outs, ps[9:])]
            return ag.add(ag.add(losses[0], losses[1]), losses[2])

        shapes = [(5, 4), (5, 2), (5, 6)]
        check_op(build, [(shape, 0.0) for shape in shapes * 4])

    def test_layer_norm(self):
        check_op(
            lambda tape, ps: sum_all(mul(ag.layer_norm(ps[0], ps[1], ps[2]), ps[3])),
            [((3, 6), 0.0), ((6,), 1.0), ((6,), 0.0), ((3, 6), 0.0)],
        )

    def test_conv_pool(self):
        # conv_pool's input is data: only the filters and bias get gradients
        x = np.random.default_rng(1).standard_normal((2, 9, 2))
        check_op(
            lambda tape, ps: sum_all(ag.conv_pool(x, [9, 9], ps[0], ps[1])),
            [((3, 2, 4), 0.0), ((4,), 0.0)],
            tol=1e-5,
        )

    def test_conv_pool_ragged_lengths(self):
        lengths = [1, 6, 9]
        x = np.random.default_rng(1).standard_normal((3, 9, 2))
        outs = []

        def build(tape, ps):
            outs.append(ag.conv_pool(x, lengths, ps[0], ps[1]))
            return sum_all(mul(outs[-1], ps[2]))

        check_op(build, [((4, 2, 5), 0.0), ((5,), 0.0), ((3, 5), 0.0)], tol=1e-5)
        # relu cut some channels and passed others
        assert (outs[0].value == 0).any() and (outs[0].value > 0).any()

    def test_take_rows_concat_slice(self):
        # [rows, cols] ids: entry [r, c] reads row ids[r, c] of column c
        per_col = np.array([[3, 0, 1, 1, 2, 0, 3], [1, 0, 0, 3, 3, 2, 3], [1, 1, 2, 0, 2, 2, 0]])

        def build(tape, ps):
            picked = ag.take_rows(ps[0], np.array([0, 2, 2, 1]))
            joined = ag.concat([picked, ps[1]], axis=1)
            mixed = ag.slice_cols(ag.take_rows(joined, per_col), 1, 5)
            return sum_all(mul(mixed, mixed))

        check_op(build, [((3, 4), 0.0), ((4, 3), 0.0)])
        x = tape64().constant(np.arange(12.0).reshape(4, 3))
        assert ag.take_rows(x, [[3, 0, 1], [0, 2, 2]]).value.tolist() == [[9, 1, 5], [0, 7, 8]]
        with pytest.raises(ShapeError, match="take_rows"):
            ag.take_rows(x, [[3, 0], [0, 2]])

    def test_gather_sum(self):
        check_op(
            lambda tape, ps: ag.gather_sum(ps[0], [0, 1, 1, 0], [2, 0, 0, 1], [1, 1, 1, -1]),
            [((2, 3), 0.0)],
        )

    def test_attention_unused_stream(self):
        leaves = []

        def build(tape, ps):
            leaves.append(ps)
            outs = ag.attention(ps[0:2], ps[2:4], ps[4:6], heads=2)
            return sum_all(mul(outs[0], ps[6]))  # stream 1's output unused

        check_op(build, [((4, 6), 0.0), ((4, 2), 0.0)] * 3 + [((4, 6), 0.0)])
        # the first pass ran backward: stream 1's queries and keys steer the
        # weights, but its values reach no output
        q1, k1, v1 = leaves[0][1], leaves[0][3], leaves[0][5]
        assert q1.grad.any() and k1.grad.any() and not v1.grad.any()

    def test_dropout(self):
        check_op(
            lambda tape, ps: sum_all(mul(ag.dropout(ps[0], 0.5), ps[1])),
            [((4, 5), 0.0), ((4, 5), 0.0)],
            train=True,
        )

    def test_span_scores(self):
        check_op(
            lambda tape, ps: sum_all(mul(ag.span_scores(*ps[:6]), ps[6])),
            [((5, 6), 0.0), ((6,), 0.0), ((6,), 1.0), ((6,), 0.5), ((6, 3), 0.0),
             ((3,), 0.0), ((10, 3), 0.0)],
            tol=1e-5,
        )

    def test_span_scores_unused_output(self):
        outs = []

        def build(tape, ps):
            outs.append(ag.span_scores(*ps[:6]))
            return sum_all(mul(ps[0], ps[6]))  # the scores reach no loss

        check_op(build, [((5, 6), 0.0), ((6,), 0.0), ((6,), 1.0), ((6,), 0.5),
                         ((6, 3), 0.0), ((3,), 0.0), ((5, 6), 0.0)])
        # the first pass ran backward: nothing flowed through the scores
        assert outs[0].grad is None

    def test_quadratic_exact(self):
        p = ag.Parameter("x", np.arange(1.0, 7.0).reshape(2, 3))

        def f():
            tape = tape64()
            x = tape.watch(p)
            return sum_all(mul(x, x))

        assert grad_check(f, [p], h=1e-3) < 1e-6


def recording_ops():
    """Names of the public autograd functions that record a backward closure."""
    return {
        name
        for name, fn in vars(ag).items()
        if inspect.isfunction(fn)
        and not name.startswith("_")
        and any(getattr(c, "co_name", None) == "bwd" for c in fn.__code__.co_consts)
    }


class TestGradCheckCoverage:
    def test_every_recording_op_has_a_grad_check(self, monkeypatch):
        # run each TestOpGradients case with a grad_check that only notes the
        # kinds of op on the loss's tape
        checked = set()

        def note_ops(f, params, **_kwargs):
            for p in params:
                p.grad[...] = 0
            loss = f()
            checked.update(fn.__qualname__.split(".")[0] for fn in loss.tape._ops)
            loss.tape.backward(loss)
            return 0.0

        monkeypatch.setitem(globals(), "grad_check", note_ops)
        cases = TestOpGradients()
        for name, case in inspect.getmembers(cases, inspect.ismethod):
            if name.startswith("test_"):
                case()
        ops = recording_ops()
        assert {"attention", "matmul", "span_scores"} <= ops
        assert ops - checked == set(), "ops without a grad_check case"


class TestAttention:
    """``ag.attention`` against the per-head chain of tape ops it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 2, 5, 40, 160])
    @pytest.mark.parametrize(
        "widths,heads", [((64, 32, 32), 2), ((256, 64, 64), 4), ((16, 8, 8), 1)]
    )
    def test_bit_identical_to_per_head_chain(self, dtype, T, widths, heads):
        rng = np.random.default_rng(T + heads)
        inputs = [rng.standard_normal((T, d)).astype(dtype) for d in widths * 3]
        weights = [rng.standard_normal((T, d)).astype(dtype) for d in widths]

        def run(op):
            tape = ag.Tape(dtype=dtype)
            xs = [tape.constant(x) for x in inputs]
            n = len(widths)
            outs = op(xs[:n], xs[n : 2 * n], xs[2 * n :], heads)
            loss = sum_all(mul(outs[0], tape.constant(weights[0])))
            for out, w in zip(outs[1:], weights[1:]):
                loss = ag.add(loss, sum_all(mul(out, tape.constant(w))))
            tape.backward(loss)
            return [out.value for out in outs] + [x.grad for x in xs]

        got, want = run(ag.attention), run(chain_attention)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype == dtype and g.shape == w.shape, i
            assert g.tobytes() == w.tobytes(), i
            # the matmuls that consume them round a strided array differently
            assert g.flags.c_contiguous, i

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [(3, 5, 3, 1, 5, 5), (4, 4, 6, 7), (1, 1), (9,)])
    def test_segments_bit_identical_to_each_segment_alone(self, dtype, lengths):
        # equal lengths that are adjacent (5, 5) and apart (3 .. 3, 5 .. 5)
        widths, heads = (64, 32, 32), 2
        N = sum(lengths)
        rng = np.random.default_rng(N)
        inputs = [rng.standard_normal((N, d)).astype(dtype) for d in widths * 3]
        weights = [rng.standard_normal((N, d)).astype(dtype) for d in widths]

        def run(rows, segments):
            tape = ag.Tape(dtype=dtype)
            xs = [tape.constant(x[rows]) for x in inputs]
            outs = ag.attention(xs[:3], xs[3:6], xs[6:], heads, segments)
            loss = sum_all(mul(outs[0], tape.constant(weights[0][rows])))
            for out, w in zip(outs[1:], weights[1:]):
                loss = ag.add(loss, sum_all(mul(out, tape.constant(w[rows]))))
            tape.backward(loss)
            return [out.value for out in outs] + [x.grad for x in xs]

        packed = run(slice(None), lengths)
        lo = 0
        for n in lengths:
            alone = run(slice(lo, lo + n), None)
            for i, (p, a) in enumerate(zip(packed, alone)):
                assert p.dtype == a.dtype == dtype, i
                assert p[lo : lo + n].tobytes() == a.tobytes(), (lo, i)
            lo += n

    def test_checks_segments(self):
        t = tape64()
        x = t.constant(np.ones((5, 4)))
        for lengths in ((2, 2), (5, 0), (), (6, -1)):
            with pytest.raises(ShapeError, match="segments"):
                ag.attention([x], [x], [x], 2, lengths)

    def test_checks_shapes(self):
        t = tape64()
        x, y = t.constant(np.ones((3, 4))), t.constant(np.ones((2, 4)))
        with pytest.raises(ShapeError, match="attention"):
            ag.attention([x, y], [x, y], [x, y], heads=2)  # lengths differ
        with pytest.raises(ShapeError, match="attention"):
            ag.attention([x], [x], [x], heads=3)  # 4 columns over 3 heads
        with pytest.raises(ShapeError, match="attention"):
            ag.attention([x], [x], [], heads=2)


class TestSpanScores:
    """``ag.span_scores`` against the hidden-layer op, matmul and add_bias it
    replaced."""

    @staticmethod
    def run(op, T, dtype, hidden=64, n_labels=16, live=None):
        """Score rows and every input gradient; ``live`` (default: every row)
        lists the score rows that get an upstream gradient."""
        rng = np.random.default_rng(T)
        shapes = [(T + 1, hidden), (hidden,), (hidden,), (hidden,), (hidden, n_labels),
                  (n_labels,)]
        inputs = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        inputs[2] += 1.0  # gains near 1
        weights = rng.standard_normal((T * (T + 1) // 2, n_labels)).astype(dtype)
        if live is not None:
            dead = np.ones(len(weights), dtype=bool)
            dead[live] = False
            weights[dead] = 0.0
        tape = ag.Tape(dtype=dtype)
        xs = [tape.constant(x) for x in inputs]
        out = op(*xs)
        tape.backward(sum_all(mul(out, tape.constant(weights))))
        return [out.value] + [x.grad for x in xs]

    @staticmethod
    def assert_same_bytes(got, want, dtype):
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype == dtype and g.shape == w.shape, i
            assert g.tobytes() == w.tobytes(), i

    def assert_bit_identical(self, T, dtype, **sizes):
        got = self.run(ag.span_scores, T, dtype, **sizes)
        want = self.run(chain_span_scores, T, dtype, **sizes)
        self.assert_same_bytes(got, want, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 2, 5, 31, 32, 40, 160])
    def test_bit_identical_to_hidden_layer_then_matmul(self, dtype, T):
        # T = 31 and 32 give 496 and 528 spans: one block, and just over one
        self.assert_bit_identical(T, dtype)

    def test_bit_identical_at_default_sizes(self):
        # the default scorer: 256 hidden units and 64 labels, in float32
        self.assert_bit_identical(160, np.float32, hidden=256, n_labels=64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T,block", [(5, 7), (40, 9), (2, 2)])
    def test_no_one_row_block(self, monkeypatch, dtype, T, block):
        # 15 = 7 + 7 + 1, 820 = 91 * 9 + 1 and 3 = 2 + 1 spans: the spare
        # row joins the block before it
        monkeypatch.setattr(ag, "SPAN_BLOCK_ROWS", block)
        n = T * (T + 1) // 2
        sizes = [hi - lo for lo, hi in ag._row_blocks(n)]
        assert sum(sizes) == n and min(sizes) > 1
        self.assert_bit_identical(T, dtype)

    def test_single_span_is_one_row(self):
        assert list(ag._row_blocks(1)) == [(0, 1)]

    # Sparse upstream gradients: backward takes only the live rows past the
    # w2 products, and must give the chain's bits
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "T,live",
        [
            (5, [7]),  # one live row of 15: a product of it alone would be a gemv
            (5, [0]),
            (5, [14]),
            (2, [1]),
            (40, [3, 41, 42, 300, 301, 555, 819]),  # a few rows over several starts
            (40, range(0, 820, 3)),
            (60, range(5, 1830, 31)),  # 1830 spans, ~3% live
            (31, []),
        ],
    )
    def test_sparse_gradient_bit_identical(self, dtype, T, live):
        self.assert_bit_identical(T, dtype, live=np.array(live, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("live", [[40], [40, 41], [0, 9, 700], range(0, 12880, 33)])
    def test_sparse_gradient_bit_identical_at_default_sizes(self, dtype, live):
        # with 64 labels, OpenBLAS on AVX-512 gives a product of at most four
        # 256-wide rows a small-matrix kernel that rounds differently, so
        # the w2 products must not be taken over the live rows alone
        self.assert_bit_identical(
            160, dtype, hidden=256, n_labels=64, live=np.array(live, dtype=np.int64)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dead_first", [True, False])
    def test_sparse_bucket_with_a_dead_segment(self, dtype, dead_first):
        # a bucket of two sentences, one with no live row: every gradient is
        # the other sentence's own, bit for bit
        hidden, n_labels = 32, 8
        rng = np.random.default_rng(3)
        lengths = (8, 12) if dead_first else (12, 8)
        projs = [rng.standard_normal((T + 1, hidden)).astype(dtype) for T in lengths]
        vecs = [rng.standard_normal(hidden).astype(dtype) for _ in range(3)]
        vecs[1] += 1.0  # gains near 1
        w2 = rng.standard_normal((hidden, n_labels)).astype(dtype)
        b2 = rng.standard_normal(n_labels).astype(dtype)
        weights = [np.zeros((T * (T + 1) // 2, n_labels), dtype=dtype) for T in lengths]
        live = weights[1 if dead_first else 0]
        live[[0, 5, 6, 40, 77]] = rng.standard_normal((5, n_labels)).astype(dtype)

        def run(op, proj, weights, *lengths):
            tape = ag.Tape(dtype=dtype)
            xs = [tape.constant(x) for x in (proj, *vecs, w2, b2)]
            out = op(*xs, *lengths)
            tape.backward(sum_all(mul(out, tape.constant(weights))))
            return [out.value] + [x.grad for x in xs]

        got = run(ag.span_scores, np.concatenate(projs), np.concatenate(weights),
                  [T + 1 for T in lengths])
        alone = [run(chain_span_scores, p, w) for p, w in zip(projs, weights)]
        want = [np.concatenate([a[k] for a in alone]) for k in (0, 1)]
        want += [alone[0][k] + alone[1][k] for k in range(2, 7)]
        self.assert_same_bytes(got, want, dtype)

    def test_sparse_backward_peaks_below_half_of_dense(self):
        # with ~3% of rows live, the backward keeps the hidden rows and the
        # gradient product over every row, and no other [spans, h] buffer
        T, hidden, n_labels = 40, 256, 8

        def peak(live_frac):
            rng = np.random.default_rng(0)
            tape = tape64()
            xs = [tape.constant(rng.standard_normal(shape)) for shape in (
                (T + 1, hidden), (hidden,), (hidden,), (hidden,), (hidden, n_labels),
                (n_labels,))]
            out = ag.span_scores(*xs)
            weights = rng.standard_normal(out.shape)
            weights[rng.random(len(weights)) >= live_frac] = 0.0
            loss = sum_all(mul(out, tape.constant(weights)))
            tracemalloc.start()
            try:
                tape.backward(loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(0.03) < peak(1.0) / 2

    def test_backward_peak_with_every_row_live(self):
        # the rebuilt hidden rows, the gradient product, the live rows'
        # copies and the float64 layer-norm step: measured at 5.15 float64
        # [spans, h] buffers, 5.14 with the former all-rows branch
        T, hidden, n_labels = 40, 256, 8
        rng = np.random.default_rng(0)
        tape = tape64()
        xs = [tape.constant(rng.standard_normal(shape)) for shape in (
            (T + 1, hidden), (hidden,), (hidden,), (hidden,), (hidden, n_labels),
            (n_labels,))]
        out = ag.span_scores(*xs)
        loss = sum_all(mul(out, tape.constant(rng.standard_normal(out.shape))))
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.2 * (T * (T + 1) // 2) * hidden * 8

    @staticmethod
    def run_bucket(lengths, dtype, i, alone, hidden=32, n_labels=8):
        """Score rows and every input gradient of a bucket of sentences of
        ``lengths`` words, for a loss that weights sentence i's rows only;
        ``alone`` scores sentence i on its own."""
        rows = np.cumsum([0] + [T + 1 for T in lengths])
        spans = np.cumsum([0] + [T * (T + 1) // 2 for T in lengths])
        rng = np.random.default_rng(len(lengths))
        proj = rng.standard_normal((rows[-1], hidden)).astype(dtype)
        vecs = [rng.standard_normal(hidden).astype(dtype) for _ in range(3)]
        vecs[1] += 1.0  # gains near 1
        w2 = rng.standard_normal((hidden, n_labels)).astype(dtype)
        b2 = rng.standard_normal(n_labels).astype(dtype)
        weights = rng.standard_normal((spans[-1], n_labels)).astype(dtype)
        weights[: spans[i]] = weights[spans[i + 1] :] = 0.0
        if alone:
            proj, weights = proj[rows[i] : rows[i + 1]], weights[spans[i] : spans[i + 1]]
            lengths = lengths[i : i + 1]
        tape = ag.Tape(dtype=dtype)
        xs = [tape.constant(x) for x in (proj, *vecs, w2, b2)]
        out = ag.span_scores(*xs, [T + 1 for T in lengths])
        tape.backward(sum_all(mul(out, tape.constant(weights))))
        return [out.value] + [x.grad for x in xs], rows[i : i + 2], spans[i : i + 2]

    # rows may round differently inside a larger product (measured: 4e-16
    # in float64, 2.5e-7 in float32)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize(
        "lengths", [(5, 1, 5, 40, 40, 2), (2, 2, 1, 2), (40, 5, 1), (1, 40)]
    )
    def test_segments_match_each_sentence_alone(self, dtype, tol, lengths):
        # equal lengths that are adjacent (40, 40 and 2, 2) and apart (5 .. 5)
        for i in range(len(lengths)):
            packed, (r0, r1), (s0, s1) = self.run_bucket(lengths, dtype, i, alone=False)
            alone, _, _ = self.run_bucket(lengths, dtype, i, alone=True)
            packed[0] = packed[0][s0:s1]
            assert not packed[1][:r0].any() and not packed[1][r1:].any()
            packed[1] = packed[1][r0:r1]
            for k, (p, a) in enumerate(zip(packed, alone)):
                assert p.dtype == a.dtype == dtype and p.shape == a.shape, (i, k)
                scale = max(np.abs(a).max(), 1e-30)
                assert np.abs(p - a).max() <= tol * scale, (i, k)

    def test_segments_check_lengths(self):
        t = tape64()
        proj, vec = t.constant(np.ones((5, 4))), t.constant(np.ones(4))
        w2, b2 = t.constant(np.ones((4, 2))), t.constant(np.ones(2))
        for lengths in ((2, 2), (5, 0), (), (6, -1)):
            with pytest.raises(ShapeError, match="segments"):
                ag.span_scores(proj, vec, vec, vec, w2, b2, lengths)

    def test_bucket_backward_works_one_sentence_at_a_time(self):
        # the peak of a two-sentence bucket's backward exceeds a lone
        # sentence's by less than one float64 [spans, h] buffer: no
        # span-sized buffer of the backward covers both sentences
        T, hidden, n_labels = 40, 256, 8
        n_spans = T * (T + 1) // 2

        def peak(n_sents):
            rng = np.random.default_rng(0)
            tape = tape64()
            xs = [tape.constant(rng.standard_normal(shape)) for shape in (
                (n_sents * (T + 1), hidden), (hidden,), (hidden,), (hidden,),
                (hidden, n_labels), (n_labels,))]
            out = ag.span_scores(*xs, [T + 1] * n_sents)
            loss = sum_all(mul(out, tape.constant(rng.standard_normal(out.shape))))
            tracemalloc.start()
            try:
                tape.backward(loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = peak(1), peak(2)
        assert one > 3 * n_spans * hidden * 8
        assert two - one < n_spans * hidden * 8


class TestMatmulBias:
    """``ag.matmul`` with a bias against the matmul and add_bias ops it
    replaced."""

    @staticmethod
    def run(dense, T, dtype):
        rng = np.random.default_rng(T)
        shapes = [(T, 12), (12, 20), (20,), (20, 7), (7,), (12, 5), (5,)]
        inputs = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        weights = rng.standard_normal((T, 7)).astype(dtype)
        tape = ag.Tape(dtype=dtype)
        x, w1, b1, w2, b2, w3, b3 = xs = [tape.constant(v) for v in inputs]
        h = dense(x, w1, b1)
        y = dense(ag.relu(h), w2, b2)
        unused = dense(x, w3, b3)  # reaches no loss
        tape.backward(sum_all(mul(y, tape.constant(weights))))
        assert unused.grad is None and w3.grad is None and b3.grad is None
        return [h.value, y.value, unused.value] + [v.grad for v in xs[:5]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 2, 40])
    def test_bit_identical_to_matmul_then_add_bias(self, dtype, T):
        got = self.run(ag.matmul, T, dtype)
        want = self.run(lambda x, w, b: add_bias(ag.matmul(x, w), b), T, dtype)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype == dtype and g.shape == w.shape, i
            assert g.tobytes() == w.tobytes(), i

    def test_checks_shapes(self):
        t = tape64()
        x, w = t.constant(np.ones((3, 4))), t.constant(np.ones((4, 2)))
        with pytest.raises(ShapeError, match="matmul"):
            ag.matmul(x, w, t.constant(np.ones(4)))
        with pytest.raises(ShapeError, match="matmul"):
            ag.matmul(x, w, t.constant(np.ones((1, 2))))


class TestLayerNorm:
    """The affine ``ag.layer_norm`` against the plain layer norm, gain
    product and bias ops it replaced."""

    @staticmethod
    def run(op, T, dtype, constant_rows, reaches_loss):
        rng = np.random.default_rng(T)
        x = (3.0 * rng.standard_normal((T, 12)) + 1.5).astype(dtype)
        if constant_rows:
            x[::2] = 0.25  # every other row constant: its std is sqrt(eps)
        gain = (rng.standard_normal(12) + 1.0).astype(dtype)
        bias = rng.standard_normal(12).astype(dtype)
        weights = rng.standard_normal((T, 12)).astype(dtype)
        tape = ag.Tape(dtype=dtype)
        xs = [tape.constant(v) for v in (x, gain, bias)]
        out = op(*xs)
        # an output that reaches no loss leaves every input gradient unset
        tape.backward(sum_all(mul(out if reaches_loss else xs[0], tape.constant(weights))))
        assert (out.grad is None) != reaches_loss
        return [out.value] + [v.grad for v in xs]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 2, 40])
    @pytest.mark.parametrize("constant_rows", [False, True])
    @pytest.mark.parametrize("reaches_loss", [True, False])
    def test_bit_identical_to_norm_gain_bias_chain(self, dtype, T, constant_rows, reaches_loss):
        got = self.run(ag.layer_norm, T, dtype, constant_rows, reaches_loss)
        want = self.run(chain_layer_norm, T, dtype, constant_rows, reaches_loss)
        for i, (g, w) in enumerate(zip(got, want)):
            if w is None:
                assert g is None and not reaches_loss and i > 1, i
                continue
            assert g.dtype == w.dtype == dtype and g.shape == w.shape, i
            assert g.tobytes() == w.tobytes(), i

    def test_checks_shapes(self):
        t = tape64()
        x, v = t.constant(np.ones((3, 4))), t.constant(np.ones(4))
        with pytest.raises(ShapeError, match="layer_norm"):
            ag.layer_norm(x, t.constant(np.ones(3)), v)
        with pytest.raises(ShapeError, match="layer_norm"):
            ag.layer_norm(x, v, t.constant(np.ones((1, 4))))
        with pytest.raises(ShapeError, match="layer_norm"):
            ag.layer_norm(t.constant(np.ones(4)), v, v)


class TestProsodyPooling:
    """``conv_pool`` pools before it rectifies; relu is monotone, so it gives
    the bits of the chain it replaced: convolve, rectify every frame, then
    pool (``relu_then_pool(conv1d(...))``), on recording tapes and on tapes
    that record nothing."""

    @staticmethod
    def run(pool, x, lengths, w, b, weights, record):
        tape = ag.Tape(dtype=x.dtype, record=record)
        ps = [tape.constant(v) for v in (w, b)]
        out = pool(x, lengths, *ps)
        if not record:
            return [out.value]
        tape.backward(sum_all(mul(out, tape.constant(weights))))
        return [out.value] + [p.grad for p in ps]

    def check(self, x, lengths, w, b):
        weights = np.random.default_rng(9).standard_normal((len(x), w.shape[2]))
        weights = weights.astype(x.dtype)
        for record in (True, False):
            got = self.run(ag.conv_pool, x, lengths, w, b, weights, record)
            want = self.run(
                lambda x, n, w, b: relu_then_pool(conv1d(x, w, b), n),
                x, lengths, w, b, weights, record,
            )
            assert (want[0] == 0).any() and (want[0] > 0).any()
            for i, (g, v) in enumerate(zip(got, want)):
                assert g.dtype == v.dtype == x.dtype, (record, i)
                assert g.tobytes() == v.tobytes(), (record, i)
        return got[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_then_relu_bit_identical_to_relu_then_pool(self, dtype):
        rng = np.random.default_rng(4)
        lengths = [1, 3, 9, 6, 2]
        x = rng.standard_normal((5, 9, 3)).astype(dtype)
        # whole numbers: item 3's max ties between frames of different windows
        x[3] = rng.integers(-1, 2, (9, 3))
        w = np.round(rng.standard_normal((3, 3, 6))).astype(dtype)
        # channels 4 and 5 stay negative for most items: their max is <= 0
        b = np.array([0.0, 0.5, -0.5, 1.0, -4.0, -8.0], dtype=dtype)
        assert (self.check(x, lengths, w, b)[:, 4:] == 0).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [(1,), (23, 1, 100, 7, 54, 2), (48, 44, 56, 42)])
    def test_bit_identical_to_the_chain_at_default_size(self, dtype, lengths):
        # widths 3, 5 and 10 with 32 filters each, over words padded to the
        # longest, as the prosody CNN calls it; a lone one-frame word is the
        # spare-row case of the im2col product
        rng = np.random.default_rng(len(lengths))
        x = np.zeros((len(lengths), max(lengths), 3), dtype=dtype)
        for i, n in enumerate(lengths):
            x[i, :n, :2] = rng.standard_normal((n, 2))
            x[i, :n, 2] = rng.random(n) < 0.6
        for width in (3, 5, 10):
            w = (0.3 * rng.standard_normal((width, 3, 32))).astype(dtype)
            b = (0.5 * rng.standard_normal(32)).astype(dtype)
            b[:16] -= 8.0  # relu cuts these channels
            self.check(x, lengths, w, b)


class TestOpSemantics:
    def test_softmax_uniform(self):
        # all-zero queries give zero logits, so every word attends uniformly
        t = tape64()
        v = t.constant(np.random.default_rng(2).standard_normal((4, 2)))
        (out,) = ag.attention([t.constant(np.zeros((4, 2)))], [v], [v], heads=1)
        np.testing.assert_allclose(out.value, np.tile(v.value.mean(axis=0), (4, 1)))

    def test_softmax_rows_sum_to_one(self):
        # with every value 1, each output is the sum of a row of weights
        t = tape64()
        rng = np.random.default_rng(3)
        qs = [t.constant(rng.standard_normal((6, 4)) * 10) for _ in range(2)]
        ks = [t.constant(rng.standard_normal((6, 4)) * 10) for _ in range(2)]
        vs = [t.constant(np.ones((6, 4))) for _ in range(2)]
        for out in ag.attention(qs, ks, vs, heads=2):
            np.testing.assert_allclose(out.value, 1.0, atol=1e-6)

    def test_layer_norm_constant_rows_zero(self):
        t = tape64()
        gain, bias = t.constant(np.full(5, 2.0)), t.constant(np.zeros(5))
        out = ag.layer_norm(t.constant(np.full((2, 5), 3.7)), gain, bias)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_bit_identical_to_textbook(self, dtype):
        rng = np.random.default_rng(8)
        v = (3.0 * rng.standard_normal((37, 19)) + 1.5).astype(dtype)
        g = rng.standard_normal((37, 19)).astype(dtype)
        t = ag.Tape(dtype=dtype)
        x = t.constant(v)
        # unit gain and zero bias leave the normalized rows' bits unchanged
        out = ag.layer_norm(x, t.constant(np.ones(19, dtype)), t.constant(np.zeros(19, dtype)))
        loss = sum_all(mul(out, t.constant(g)))
        t.backward(loss)

        v64 = v.astype(np.float64)
        mu = v64.mean(axis=-1, keepdims=True)
        std = np.sqrt(v64.var(axis=-1, keepdims=True) + 1e-5)
        y = (v64 - mu) / std
        g64 = g.astype(np.float64)
        gm = g64.mean(axis=-1, keepdims=True)
        gym = (g64 * y).mean(axis=-1, keepdims=True)
        dx = (g64 - gm - y * gym) / std
        assert out.value.dtype == x.grad.dtype == dtype
        assert out.value.tobytes() == y.astype(dtype).tobytes()
        assert x.grad.tobytes() == dx.astype(dtype).tobytes()

    def test_conv_pool_width1_is_relu_of_the_max(self):
        t = tape64()
        x = np.random.default_rng(0).standard_normal((2, 7, 2))
        w = t.constant(np.eye(2)[None, :, :])  # width 1, identity across channels
        b = t.constant(np.zeros(2))
        out = ag.conv_pool(x, [7, 7], w, b)
        np.testing.assert_array_equal(out.value, np.maximum(x.max(axis=1), 0))

    def test_conv_pool_short_input_still_valid(self):
        t = tape64()
        w = t.constant(np.ones((5, 2, 3)))
        b = t.constant(np.zeros(3))
        out = ag.conv_pool(np.ones((1, 1, 2)), [1], w, b)
        np.testing.assert_array_equal(out.value, [[2.0, 2.0, 2.0]])

    def test_conv_pool_ignores_padding_first_max_wins(self):
        # channel 0 is convolved; channel 1 has zero weight and marks each
        # frame, so its filter gradient sums the winning frames' marks
        t = tape64()
        values = np.array([[1.0, 3.0, 3.0, 9.0], [2.0, 2.0, 0.0, 0.0], [-1.0, -2.0, 5.0, 0.0]])
        marks = np.broadcast_to(10.0 ** np.arange(4), values.shape)
        x = np.stack([values, marks], axis=2)
        w = t.constant(np.array([[[1.0], [0.0]]]))
        b = t.constant(np.zeros(1))
        out = ag.conv_pool(x, [3, 2, 2], w, b)
        np.testing.assert_array_equal(out.value, [[3.0], [2.0], [0.0]])
        t.backward(sum_all(out))
        # frame 1 wins item 0, frame 0 item 1; relu cuts item 2
        np.testing.assert_array_equal(w.grad[0, :, 0], [3.0 + 2.0, 10.0 + 1.0])
        np.testing.assert_array_equal(b.grad, [2.0])

    @pytest.mark.parametrize("lengths", [[0, 4], [4, 5], [4]])
    def test_conv_pool_rejects_bad_lengths(self, lengths):
        t = tape64()
        w, b = t.constant(np.ones((1, 3, 2))), t.constant(np.zeros(2))
        with pytest.raises((NumericError, ShapeError), match="conv_pool"):
            ag.conv_pool(np.ones((2, 4, 3)), lengths, w, b)

    def test_conv_pool_checks_shapes(self):
        t = tape64()
        w, b = t.constant(np.ones((3, 3, 2))), t.constant(np.zeros(2))
        with pytest.raises(ShapeError, match="conv_pool"):
            ag.conv_pool(np.ones((2, 4, 2)), [4, 4], w, b)
        with pytest.raises(ShapeError, match="conv_pool bias"):
            ag.conv_pool(np.ones((2, 4, 3)), [4, 4], w, t.constant(np.zeros(3)))

    def test_dropout_eval_mode_identity(self):
        t = ag.Tape(train=False, dtype=np.float64)
        x = t.constant(np.ones((3, 3)))
        assert ag.dropout(x, 0.5) is x

    def test_dropout_train_mode_deterministic(self):
        def run():
            t = ag.Tape(rngs=[np.random.default_rng(42)], train=True, dtype=np.float64)
            return ag.dropout(t.constant(np.ones((20, 20))), 0.3).value

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)
        assert (a == 0).any() and (a > 1).any()

    def test_dropout_segments_draw_from_their_own_rngs(self):
        x = np.random.default_rng(1).standard_normal((9, 5))
        lengths = (4, 2, 3)

        def run(rows, seeds, segments):
            t = ag.Tape(rngs=[np.random.default_rng(s) for s in seeds], train=True,
                        dtype=np.float64)
            v = t.constant(x[rows])
            out = ag.dropout(v, 0.3, segments)
            t.backward(sum_all(out))
            return out.value, v.grad

        packed = run(slice(None), (5, 6, 7), lengths)
        lo = 0
        for seed, n in zip((5, 6, 7), lengths):
            alone = run(slice(lo, lo + n), (seed,), None)
            for p, a in zip(packed, alone):
                assert p[lo : lo + n].tobytes() == a.tobytes()
            lo += n
        with pytest.raises(NumericError, match="one tape rng per segment"):
            run(slice(None), (5, 6), lengths)

    def test_shape_mismatch_named(self):
        t = tape64()
        with pytest.raises(ShapeError, match="matmul"):
            ag.matmul(t.constant(np.ones((2, 3))), t.constant(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            ag.add(t.constant(np.ones((2, 3))), t.constant(np.ones((3, 2))))

    def test_determinism_same_seed_bit_identical(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            t = ag.Tape(rngs=[rng], train=True, dtype=np.float32)
            x = t.constant(np.ones((8, 8), dtype=np.float32))
            y = ag.dropout(ag.relu(ag.matmul(x, x)), 0.1)
            return y.value.tobytes()

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_backward_accumulates_into_parameter(self):
        p = ag.Parameter("w", np.ones((2, 2)))
        t = ag.Tape()
        w = t.watch(p)
        loss = sum_all(mul(w, w))
        t.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0)

    def test_non_recording_tape_keeps_nothing_and_cannot_backward(self):
        p = ag.Parameter("w", np.ones((2, 2)))
        t = ag.Tape(record=False)
        loss = sum_all(mul(t.watch(p), t.watch(p)))
        assert float(loss.value) == 4.0
        assert t._ops == [] and t.watch(p).grad is None
        with pytest.raises(NumericError, match="does not record"):
            t.backward(loss)
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_watched_leaves_accumulate_straight_into_the_parameter(self):
        p = ag.Parameter("w", np.ones((2, 2)))
        p.grad[...] = 1.0
        t = ag.Tape()
        a, b = t.watch(p), t.watch(p)
        assert a.grad is p.grad and b.grad is p.grad
        t.backward(sum_all(mul(a, b)))  # one contribution per leaf
        np.testing.assert_allclose(p.grad, 1.0 + 1.0 + 1.0)

        # a loss no op produced reaches no closure, and still frees the tape
        unreached = ag.Tape()
        sum_all(mul(unreached.watch(p), unreached.watch(p)))
        unreached.backward(unreached.constant(0.0))
        assert unreached._ops == []
        np.testing.assert_allclose(p.grad, 3.0)

    def test_backward_scaled_seed(self):
        p = ag.Parameter("w", np.ones(3).reshape(1, 3))
        t = ag.Tape()
        loss = sum_all(t.watch(p))
        t.backward(loss, seed=0.5)
        np.testing.assert_allclose(p.grad, 0.5)
