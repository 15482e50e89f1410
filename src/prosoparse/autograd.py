"""Minimal reverse-mode autodiff over numpy arrays.

A recording ``Tape`` (the default) keeps one backward closure per op in a
flat list, with the op's output Vars.  ``Tape.backward`` replays the list in
reverse, runs a closure only when a gradient reached one of its op's
outputs (so a constant loss, such as a zero margin loss, runs none), drops
each closure once passed, and leaves the tape released.  A watched
``Parameter``'s leaf shares the parameter's ``grad`` array, so gradients
accumulate straight into it.  The closures hold their ``Var`` operands and
every ``Var`` holds its tape, so until ``backward`` runs a tape is a
reference cycle that keeps every array of its forward pass until the
cyclic garbage collector runs.  A non-recording tape (``record=False``, for
inference) keeps no closures, so its arrays are freed as soon as nothing
references them; ``backward`` on it raises.

A tape's rows are usually the words of a length bucket: several sentences
(segments) packed end to end.  Row-wise ops need not know the segments;
``attention``, ``dropout`` and ``span_scores`` take the segment lengths.
They attend within each segment, draw each segment's mask from its own
generator, and score the spans within each segment, so a segment gets the
bits it gets on a tape of its own (``span_scores`` within rounding of a
larger product, and exactly for a bucket of one).

``train`` is independent of recording: it only turns dropout on.  Storage
is float32 by default (float64 available for gradient checking); attention,
layer_norm, span_scores and gather_sum reduce in float64 regardless.  Where
a chain of simpler ops gives the same bits, forward and backward, one op
does its work as one tape entry: ``attention`` covers every head,
``matmul`` adds an optional bias, ``layer_norm`` is affine and shares its
backward step with ``span_scores``, and ``conv_pool`` convolves, max-pools
and rectifies one filter width of the prosody CNN.
``gather_sum`` is signed, so a batch's margin loss reads every sentence's
cells in one op, and adds into the gradient in place.  Ops keep what their
backward needs and no more: ``conv_pool`` takes its input as data (no
gradient reaches it), keeps the winning frames' indices and rebuilds its
im2col windows from its input in backward, and ``dropout`` keeps a boolean
mask.  There is no broadcasting beyond bias/vector-over-rows; shapes are
validated on every op.

Independent tapes share nothing except read-only parameter values, so
separate buckets can be processed concurrently.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CheckpointError, NumericError, ShapeError


class Parameter:
    """Named trainable array with a persistent gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Init:
    """Makes a model's parameters, one call each, and lists them in ``made``
    in the order made.  Without ``tensors``, a value is drawn from ``rng``
    or is a constant.  With ``tensors`` (name -> array), it is a copy of the
    tensor of its name, cast to ``dtype``, and nothing is drawn; a missing or
    reshaped tensor gets a zero placeholder and is noted for ``check``."""

    def __init__(self, dtype, rng=None, tensors=None):
        self.dtype = np.dtype(dtype)
        self.rng = rng
        self.tensors = tensors
        self.made = []
        self.missing = []
        self.reshaped = []

    def __call__(self, name, shape, fill=None):
        """Parameter ``name`` of ``shape``: a copy of its tensor, else
        ``fill(z)`` for a standard-normal draw ``z`` of that shape if
        ``fill`` is callable, else an array of the number ``fill``."""
        shape = tuple(shape)
        if self.tensors is None:
            value = fill(self.rng.standard_normal(shape)) if callable(fill) else np.full(shape, fill)
            value = value.astype(self.dtype)
        elif name not in self.tensors:
            self.missing.append(name)
            value = np.zeros(shape, self.dtype)
        elif self.tensors[name].shape != shape:
            self.reshaped.append(f"{name}: checkpoint {self.tensors[name].shape} vs model {shape}")
            value = np.zeros(shape, self.dtype)
        else:
            value = self.tensors[name].astype(self.dtype)
        param = Parameter(name, value)
        self.made.append(param)
        return param

    def xavier(self, name, fan_in, fan_out):
        """A [fan_in, fan_out] weight drawn with Xavier (Glorot) scaling."""
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        return self(name, (fan_in, fan_out), lambda z: z * scale)

    def check(self, source):
        """Raise CheckpointError naming every missing, extra and reshaped
        tensor of ``tensors``."""
        made = {p.name for p in self.made}
        extra = [name for name in self.tensors if name not in made]
        if self.missing or extra or self.reshaped:
            raise CheckpointError(
                f"{source}: architecture mismatch; "
                f"missing={self.missing} extra={extra} shape_diffs={self.reshaped}"
            )


class Var:
    """A node on a tape: forward value plus a lazily allocated gradient."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value, tape):
        self.value = value
        self.grad = None
        self.tape = tape

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """One computation: typically one length bucket's forward pass, whose
    rows are the words of one or more sentences (segments) packed end to end.

    ``rngs`` holds one random Generator per segment, in segment order;
    dropout draws each segment's mask from that segment's generator, so a
    segment gets the masks it gets on a tape of its own.  ``record=False``
    gives an inference tape that keeps no backward closures; ``backward`` on
    it raises NumericError.
    """

    def __init__(self, rngs=None, train=False, dtype=np.float32, record=True):
        self.rngs = rngs
        self.train = train
        self.dtype = np.dtype(dtype)
        self.record = record
        self._ops = []  # backward closures, in recording order
        self._outs = []  # each closure's op outputs

    def constant(self, value):
        return Var(np.asarray(value, dtype=self.dtype), self)

    def watch(self, param):
        """Leaf Var for a Parameter; on a recording tape its grad is
        ``param.grad``, so backward() accumulates into it in place."""
        leaf = Var(param.value, self)
        if self.record:
            leaf.grad = param.grad
        return leaf

    def _record(self, bwd, *outs):
        if self.record:
            self._ops.append(bwd)
            self._outs.append(outs)

    def backward(self, loss, seed=1.0):
        """Backpropagate d(seed * loss) into every watched Parameter's grad,
        then release the tape.

        A closure runs only when one of its op's outputs holds a gradient,
        and is dropped once passed, so an op's output and its gradient are
        freed once the ops that read them are done.
        """
        if not self.record:
            raise NumericError("backward() on a tape that does not record")
        if loss.tape is not self:
            raise NumericError("backward() on a Var from a different tape")
        if loss.value.shape != ():
            raise ShapeError("backward", loss.value.shape)
        loss.grad = np.asarray(seed, dtype=self.dtype)
        ops, outs = self._ops, self._outs
        self._ops, self._outs = [], []
        while ops:
            bwd = ops.pop()
            if any(out.grad is not None for out in outs.pop()):
                bwd()


def _accum(var, g):
    if var.grad is None:
        var.grad = np.array(g, dtype=var.value.dtype, copy=True)
    else:
        var.grad += g


def _same_tape(op, *vars_):
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise NumericError(f"{op}: operands recorded on different tapes")
    return tape


def add(a, b):
    tape = _same_tape("add", a, b)
    if a.value.shape != b.value.shape:
        raise ShapeError("add", a.value.shape, b.value.shape)
    out = Var(a.value + b.value, tape)

    def bwd():
        _accum(a, out.grad)
        _accum(b, out.grad)

    tape._record(bwd, out)
    return out


def matmul(a, w, bias=None):
    """``a @ w``, with a given ``bias`` added to every row in place: one
    dense layer is one op."""
    tape = _same_tape("matmul", *((a, w) if bias is None else (a, w, bias)))
    bad_bias = bias is not None and bias.value.shape != w.value.shape[1:]
    if a.value.ndim != 2 or w.value.ndim != 2 or a.value.shape[1] != w.value.shape[0] or bad_bias:
        raise ShapeError("matmul", a.value.shape, w.value.shape)
    out = Var(a.value @ w.value, tape)
    if bias is not None:
        out.value += bias.value

    def bwd():
        if bias is not None:
            _accum(bias, out.grad.sum(axis=0))
        _accum(a, out.grad @ w.value.T)
        _accum(w, a.value.T @ out.grad)

    tape._record(bwd, out)
    return out


def relu(x):
    tape = x.tape
    out = Var(np.maximum(x.value, 0), tape)

    def bwd():
        _accum(x, out.grad * (x.value > 0))

    tape._record(bwd, out)
    return out


def _segment_lengths(n_rows, lengths):
    """Validated segment lengths over ``n_rows`` packed rows, as a list of
    ints; None means one segment of every row."""
    lengths = [n_rows] if lengths is None else [int(n) for n in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n_rows:
        raise ShapeError("segments", (n_rows,), tuple(lengths))
    return lengths


def _length_groups(lengths):
    """(T, rows) for each run of consecutive segments of T rows: ``rows``
    slices the run's packed rows."""
    row = 0
    for T, run in itertools.groupby(lengths):
        n = T * len(list(run))
        yield T, slice(row, row + n)
        row += n


# axes that split [g, T, heads, dh] rows into per-head blocks, and back
_HEAD_ROWS = (0, 2, 1, 3)  # -> [g, heads, T, dh]; its own inverse
_HEAD_COLS = (0, 2, 3, 1)  # -> [g, heads, dh, T]
_HEAD_COLS_BACK = (0, 3, 1, 2)  # [g, heads, dh, T] -> [g, T, heads, dh]


def _split_heads(x, heads, T, axes):
    """[g*T, heads*dh] (g segments of T rows) -> C-contiguous [g*heads, T, dh]
    (_HEAD_ROWS) or [g*heads, dh, T] (_HEAD_COLS)."""
    y = np.ascontiguousarray(x.reshape(-1, T, heads, x.shape[1] // heads).transpose(axes))
    return y.reshape(-1, y.shape[2], y.shape[3])


def _merge_heads(x, heads, axes):
    """Inverse of _split_heads given the inverse axes, C-contiguous: BLAS
    rounds a strided operand differently."""
    y = np.ascontiguousarray(x.reshape(-1, heads, x.shape[1], x.shape[2]).transpose(axes))
    return y.reshape(-1, heads * y.shape[3])


def attention(qs, ks, vs, heads, lengths=None):
    """Factored multi-head self-attention (Kitaev & Klein 2018) over streams,
    within each segment of packed rows.

    qs, ks, vs: one [N, d_s] Var per stream s, each d_s divisible by
    ``heads`` -> one [N, d_s] Var per stream.  The N rows are segments of
    ``lengths`` rows (default: one segment), and a row attends to the rows
    of its own segment only.  Head h of stream s is columns
    h*dh:(h+1)*dh, dh = d_s / heads.  A head's logits are the sum over
    streams, in stream order, of q_h k_h^T / sqrt(dh); one float64 softmax
    per head gives the weights that every stream applies to its own values.
    Each head's q, k^T and v is a C-contiguous copy and gradients sum over
    streams in reverse order, so forward and backward give the bits of the
    per-head chain of slice, transpose, matmul, scale, add and softmax ops.
    Each run of equal-length segments (all of a length, in a sorted bucket)
    is one batched product of per-head [T, T] blocks, so a segment gets the
    bits it gets alone.
    """
    n = len(qs)
    if not (n == len(ks) == len(vs) > 0) or any(
        q.value.ndim != 2 or q.value.shape[0] != qs[0].value.shape[0]
        or q.value.shape[1] % heads or not k.value.shape == v.value.shape == q.value.shape
        for q, k, v in zip(qs, ks, vs)
    ):
        raise ShapeError("attention", tuple(x.value.shape for x in (*qs, *ks, *vs)))
    tape = _same_tape("attention", *qs, *ks, *vs)
    lengths = _segment_lengths(len(qs[0].value), lengths)
    dt = qs[0].value.dtype
    scales = [np.asarray(1.0 / np.sqrt(q.value.shape[1] // heads), dtype=dt) for q in qs]
    outs = [Var(np.empty_like(v.value), tape) for v in vs]
    groups = []
    for T, rows in _length_groups(lengths):
        q_h = [_split_heads(q.value[rows], heads, T, _HEAD_ROWS) for q in qs]
        kt_h = [_split_heads(k.value[rows], heads, T, _HEAD_COLS) for k in ks]
        v_h = [_split_heads(v.value[rows], heads, T, _HEAD_ROWS) for v in vs]
        logits = (q_h[0] @ kt_h[0]) * scales[0]
        for s in range(1, n):
            logits += (q_h[s] @ kt_h[s]) * scales[s]
        e = np.exp(logits.astype(np.float64) - logits.max(axis=-1, keepdims=True))
        y64 = e / e.sum(axis=-1, keepdims=True)
        weights = y64.astype(dt)
        for out, vh in zip(outs, v_h):
            out.value[rows] = _merge_heads(weights @ vh, heads, _HEAD_ROWS)
        groups.append((T, rows, q_h, kt_h, v_h, y64, weights))

    def bwd():
        live = [s for s in reversed(range(n)) if outs[s].grad is not None]
        dv = {s: np.empty_like(vs[s].value) for s in live}
        dk = [np.empty_like(k.value) for k in ks]
        dq = [np.empty_like(q.value) for q in qs]
        for T, rows, q_h, kt_h, v_h, y64, weights in groups:
            dw = None
            for s in live:
                g = _split_heads(outs[s].grad[rows], heads, T, _HEAD_ROWS)
                part = g @ v_h[s].transpose(0, 2, 1)
                dw = part if dw is None else dw + part
                dv[s][rows] = _merge_heads(weights.transpose(0, 2, 1) @ g, heads, _HEAD_ROWS)
            g64 = dw.astype(np.float64)
            dot = (g64 * y64).sum(axis=-1, keepdims=True)
            dlogits = ((g64 - dot) * y64).astype(dt)
            for s in reversed(range(n)):
                dm = dlogits * scales[s]
                dk[s][rows] = _merge_heads(q_h[s].transpose(0, 2, 1) @ dm, heads, _HEAD_COLS_BACK)
                dq[s][rows] = _merge_heads(dm @ kt_h[s].transpose(0, 2, 1), heads, _HEAD_ROWS)
        for s in live:
            _accum(vs[s], dv[s])
        for s in reversed(range(n)):
            _accum(ks[s], dk[s])
            _accum(qs[s], dq[s])

    tape._record(bwd, *outs)
    return outs


# added to the variance of every layer norm
LN_EPS = 1e-5


def _centered(v):
    """Float64 copy of ``v`` with each row's mean subtracted."""
    c = v.astype(np.float64)
    c -= c.mean(axis=-1, keepdims=True)
    return c


def _layer_norm_backward(g, y, std):
    """Gradient at a layer norm's input from the gradient ``g`` at its
    normalized rows ``y`` and their per-row ``std``, reduced in float64 and
    returned in ``g``'s dtype."""
    g64 = g.astype(np.float64)
    gm = g64.mean(axis=-1, keepdims=True)
    gym = (g64 * y).mean(axis=-1, keepdims=True)
    g64 -= gm
    g64 -= y * gym
    g64 /= std
    return g64.astype(g.dtype, copy=False)


def layer_norm(x, gain, bias):
    """``normalize(x) * gain + bias`` over the last axis of a [T, d] Var.

    Each row is normalized in float64, as (v - v.mean()) / sqrt(v.var() +
    LN_EPS) computed in place, and rounded to the tape dtype before the
    affine step, so the op has the bits of a plain layer norm followed by
    separate gain and bias ops.  It keeps only the per-row std; backward
    rebuilds the normalized rows from ``x`` with the same arithmetic.
    """
    tape = _same_tape("layer_norm", x, gain, bias)
    if x.value.ndim != 2 or not gain.value.shape == bias.value.shape == x.value.shape[1:]:
        raise ShapeError("layer_norm", x.value.shape, gain.value.shape)
    y64 = _centered(x.value)
    std = np.sqrt(np.square(y64).sum(axis=-1, keepdims=True) / y64.shape[-1] + LN_EPS)
    y64 /= std
    out = Var(y64.astype(x.value.dtype), tape)
    out.value *= gain.value
    out.value += bias.value

    def bwd():
        y64 = _centered(x.value)
        y64 /= std
        _accum(bias, out.grad.sum(axis=0))
        _accum(gain, (out.grad * y64.astype(x.value.dtype)).sum(axis=0))
        _accum(x, _layer_norm_backward(out.grad * gain.value, y64, std))

    tape._record(bwd, out)
    return out


# rows per block of span_scores: a block's [rows, h] hidden slab fits in L2
SPAN_BLOCK_ROWS = 512


def _row_blocks(n):
    """[lo, hi) bounds of SPAN_BLOCK_ROWS-row blocks over n rows.  No block
    holds one row unless n == 1: numpy computes a one-row product with gemv,
    which rounds differently from the gemm the rows get in a larger block."""
    bounds = list(range(0, n, SPAN_BLOCK_ROWS)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def span_pairs(lengths):
    """(starts, ends): every pair of rows a < b within each segment of packed
    rows of ``lengths`` rows, segment after segment, each segment's pairs
    ordered by start and then end (``np.triu_indices`` order)."""
    n = np.asarray(lengths, dtype=np.int64)
    rows = np.arange(n.sum())
    # pairs that start at each row: the rows after it in its segment
    per_row = np.repeat(np.cumsum(n), n) - rows - 1
    starts = np.repeat(rows, per_row)
    ends = starts + 1 + np.arange(len(starts)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    return starts, ends


def span_scores(proj, b1, gain, beta, w2, b2, lengths=None):
    """The span scorer's two layers over every fencepost pair a < b of each
    segment: ``relu(layer_norm(proj[b] - proj[a] + b1) * gain + beta) @ w2 + b2``.

    proj: [R, h] first-layer fenceposts, segments of ``lengths`` rows packed
    end to end (default: one segment); w2: [h, L] -> [spans, L], the rows of
    ``span_pairs(lengths)``: a segment of n rows gives n(n-1)/2 rows, by start
    and then end, one segment after another.  Each span's mean and variance
    come from float64 statistics of the fenceposts: with P = proj and
    Q = proj + b1, centered by their row means as Pc and Qc, a span's mean is
    mean(Q[b]) - mean(P[a]) and its variance is
    (|Qc[b]|^2 + |Pc[a]|^2 - 2 Pc[a].Qc[b]) / h, the cross term read from its
    segment's own [n, n] Gram block.  The hidden rows are formed, normalized,
    rectified and multiplied by w2 in blocks of SPAN_BLOCK_ROWS rows, so the
    forward pass builds no [spans, h] array; each block's product has the bits
    of the full one.  Backward works one segment at a time, so its [spans, h]
    buffers never exceed one segment's: it rebuilds the segment's hidden rows
    with the same arithmetic and takes the backward steps of the product and
    the hidden layer in turn.

    After the two ``w2`` products, backward takes the live rows (those with a
    gradient) alone: the relu mask, the ``beta``, ``gain`` and ``b1`` sums,
    the float64 layer-norm step and the scatter onto the fenceposts.  A
    margin loss leaves at most 4T - 3 live rows of a T-word sentence's
    T(T+1)/2, its predicted-only and gold-only spans: each tree has at most
    2T - 1 spans, and both have the root (and the one-word spans, so for
    T >= 2 the bound is 3T - 3).  Each of those steps is row-wise or a
    sequential axis-0 sum, to which a dead row adds exact zeros, so the bits
    are those of the all-rows backward; numpy keeps such a sum sequential
    only for h >= 2 (a sum over [k, 1] is pairwise).  The products take every
    row: BLAS may round a product over fewer rows differently (one row is a
    gemv; OpenBLAS gives a few rows a small-matrix kernel).  The scatter adds
    each live row at its end in row order, then subtracts each start's rows
    summed from zero.
    """
    tape = _same_tape("span_scores", proj, b1, gain, beta, w2, b2)
    if (
        proj.value.ndim != 2
        or any(v.value.shape != proj.value.shape[1:] for v in (b1, gain, beta))
        or w2.value.ndim != 2
        or w2.value.shape[0] != proj.value.shape[1]
        or b2.value.shape != w2.value.shape[1:]
    ):
        raise ShapeError("span_scores", proj.value.shape, w2.value.shape)
    h = proj.value.shape[1]
    lengths = _segment_lengths(len(proj.value), lengths)
    starts, ends = span_pairs(lengths)
    # (first row, rows, first span, spans) of each segment
    segments, row, span = [], 0, 0
    for n in lengths:
        segments.append((row, n, span, n * (n - 1) // 2))
        row += n
        span += n * (n - 1) // 2
    p64 = proj.value.astype(np.float64)
    q64 = p64 + b1.value
    p_mean = p64.mean(axis=-1)
    q_mean = q64.mean(axis=-1)
    p64 -= p_mean[:, None]
    q64 -= q_mean[:, None]
    cross = np.empty(len(starts))
    for row, n, span, S in segments:
        gram = p64[row : row + n] @ q64[row : row + n].T
        cross[span : span + S] = gram[starts[span : span + S] - row, ends[span : span + S] - row]
    var = (
        np.square(q64).sum(axis=-1)[ends]
        + np.square(p64).sum(axis=-1)[starts]
        - 2.0 * cross
    ) / h
    # cancellation guard: the three terms may leave a tiny negative variance
    std = np.sqrt(np.maximum(var, 0.0) + LN_EPS)
    dt = proj.value.dtype
    shift = (q_mean[ends] - p_mean[starts]).astype(dt)[:, None]
    inv_std = (1.0 / std).astype(dt)[:, None]

    def normalized(lo, hi):
        """The layer-normalized span rows lo:hi."""
        y = proj.value[ends[lo:hi]]
        y -= proj.value[starts[lo:hi]]
        y += b1.value
        y -= shift[lo:hi]
        y *= inv_std[lo:hi]
        return y

    def hidden(y):
        """relu(y * gain + beta), written over ``y``."""
        y *= gain.value
        y += beta.value
        return np.maximum(y, 0, out=y)

    out = Var(np.empty((len(starts), w2.value.shape[1]), dtype=dt), tape)
    for lo, hi in _row_blocks(len(starts)):
        y = normalized(lo, hi)
        np.matmul(hidden(y), w2.value, out=out.value[lo:hi])
    out.value += b2.value

    def segment_bwd(row, n, span, S, dproj):
        """One segment's backward, summed into its rows of ``dproj``; its
        buffers are freed on return."""
        grad = out.grad[span : span + S]
        y = normalized(span, span + S)
        live = np.flatnonzero(grad.any(axis=1))
        y_live = y[live]  # a copy, so the hidden rows may overwrite y
        hid = hidden(y)
        _accum(w2, hid.T @ grad)
        g = (grad @ w2.value.T)[live]
        g *= hid[live] > 0
        _accum(beta, g.sum(axis=0))
        _accum(gain, (g * y_live).sum(axis=0))
        g *= gain.value
        dx = _layer_norm_backward(g, y_live, std[span : span + S, None][live])
        _accum(b1, dx.sum(axis=0))
        # each row at its end in row order, then each start's rows summed
        # from zero (np.add.reduceat rounds differently)
        seg = dproj[row : row + n]
        np.add.at(seg, ends[span : span + S][live] - row, dx)
        start_sums = np.zeros_like(seg)
        np.add.at(start_sums, starts[span : span + S][live] - row, dx)
        seg -= start_sums

    def bwd():
        _accum(b2, out.grad.sum(axis=0))
        dproj = np.zeros_like(proj.value)
        for segment in segments:
            segment_bwd(*segment, dproj)
        _accum(proj, dproj)

    tape._record(bwd, out)
    return out


def dropout(x, rate, lengths=None):
    """Inverted dropout; identity when the tape is not in training mode.

    The rows of x are segments of ``lengths`` rows (default: one segment),
    and segment i's keep mask is drawn from ``tape.rngs[i]``.  The op keeps
    the boolean mask; backward rebuilds the scaled float mask from it.
    """
    tape = x.tape
    if not tape.train or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise NumericError(f"dropout rate must be < 1, got {rate}")
    lengths = _segment_lengths(len(x.value), lengths)
    if tape.rngs is None or len(tape.rngs) != len(lengths):
        raise NumericError("dropout in training mode requires one tape rng per segment")
    keep = 1.0 - rate
    dt = x.value.dtype
    kept = np.concatenate([
        rng.random((n, *x.value.shape[1:])) < keep for rng, n in zip(tape.rngs, lengths)
    ])
    out = Var(x.value * (kept.astype(dt) / keep), tape)

    def bwd():
        _accum(x, out.grad * (kept.astype(dt) / keep))

    tape._record(bwd, out)
    return out


def _conv_windows(x, width):
    """im2col matrix of x [items, time, in_ch], same-padded with (width-1)//2
    zero frames left and width//2 right: row i*time + t holds frames
    t..t+width-1 of item i's padded input, in_ch values per frame.  It has
    one spare zero row at the end: numpy computes a one-row product with
    gemv, which rounds differently from gemm, so without it a lone one-frame
    item would not give the bits it gives inside a batch."""
    n, t, cin = x.shape
    pad_l = (width - 1) // 2
    xp = np.zeros((n, t + width - 1, cin), dtype=x.dtype)
    xp[:, pad_l : pad_l + t] = x
    spare = np.zeros((n * t + 1, width * cin), dtype=x.dtype)
    windows = spare[:-1].reshape(n, t, width * cin)
    for k in range(width):
        windows[:, :, k * cin : (k + 1) * cin] = xp[:, k : k + t]
    return spare


def conv_pool(x, lengths, w, b):
    """One filter width of the prosody CNN: a same-padded 1-D convolution
    over time, the max over each item's first ``lengths[i]`` frames, then
    relu.

    x: [items, time, in_ch] input data, an ndarray (it gets no gradient);
    w: [width, in_ch, out_ch] and b: [out_ch] Vars -> [items, out_ch].
    Zero padding of (width-1)//2 left and width//2 right guarantees at least
    one output position for any input length.  An item whose trailing frames
    are zeros therefore gives, at its leading frames, exactly what it gives
    without them.  Frames past an item's length never win; among equal
    values the first frame wins.  relu is monotone, so rectifying the max
    gives the values and gradients of pooling the rectified frames.  A
    recording tape keeps only the winning frames' [items, out_ch] indices;
    backward rebuilds the im2col windows from x.
    """
    tape = _same_tape("conv_pool", w, b)
    lengths = np.asarray(lengths, dtype=np.int64)
    if x.ndim != 3 or w.value.ndim != 3 or x.shape[2] != w.value.shape[1]:
        raise ShapeError("conv_pool", x.shape, w.value.shape)
    if b.value.ndim != 1 or b.value.shape[0] != w.value.shape[2]:
        raise ShapeError("conv_pool bias", b.value.shape, w.value.shape)
    if lengths.shape != x.shape[:1]:
        raise ShapeError("conv_pool", x.shape, lengths.shape)
    n, t, cin = x.shape
    width, _, cout = w.value.shape
    if n and (lengths.min() < 1 or lengths.max() > t):
        raise NumericError(f"conv_pool: item lengths must lie in [1, {t}]")
    rows = n * t
    conv = (_conv_windows(x, width) @ w.value.reshape(width * cin, cout))[:rows]
    conv = conv.reshape(n, t, cout)
    conv += b.value
    conv[np.arange(t)[None, :] >= lengths[:, None]] = -np.inf
    out = Var(np.maximum(conv.max(axis=1), 0), tape)
    if not tape.record:
        return out
    idx = conv.argmax(axis=1)

    def bwd():
        g = np.zeros((rows, cout), dtype=out.value.dtype)
        g[np.arange(n)[:, None] * t + idx, np.arange(cout)] = out.grad * (out.value > 0)
        _accum(b, g.sum(axis=0))
        _accum(w, (_conv_windows(x, width)[:rows].T @ g).reshape(width, cin, cout))

    tape._record(bwd, out)
    return out


def take_rows(x, ids):
    """Row gather: x[ids] for [n] ids.  For [rows, cols] ids, entry [r, c]
    is x[ids[r, c], c], each column gathering its own rows.  The gradient
    scatter-adds back into x."""
    tape = x.tape
    ids = np.asarray(ids, dtype=np.int64)
    if x.value.ndim != 2 or ids.ndim not in (1, 2) or ids.shape[1:] not in ((), x.value.shape[1:]):
        raise ShapeError("take_rows", x.value.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= x.value.shape[0]):
        raise NumericError(
            f"take_rows: index out of range for {x.value.shape[0]} rows"
        )
    index = ids if ids.ndim == 1 else (ids, np.arange(x.value.shape[1]))
    out = Var(x.value[index], tape)

    def bwd():
        g = np.zeros_like(x.value)
        np.add.at(g, index, out.grad)
        _accum(x, g)

    tape._record(bwd, out)
    return out


def concat(vars_, axis):
    if not vars_:
        raise ShapeError("concat", ())
    tape = _same_tape("concat", *vars_)
    if axis not in (0, 1):
        raise ShapeError("concat axis", (axis,))
    shapes = [v.value.shape for v in vars_]
    if any(len(s) != 2 for s in shapes):
        raise ShapeError("concat", shapes[0])
    other = 1 - axis
    if any(s[other] != shapes[0][other] for s in shapes):
        raise ShapeError("concat", shapes[0], tuple(shapes))
    out = Var(np.concatenate([v.value for v in vars_], axis=axis), tape)
    sizes = [s[axis] for s in shapes]
    offsets = np.cumsum([0] + sizes)

    def bwd():
        for v, lo, hi in zip(vars_, offsets[:-1], offsets[1:]):
            if axis == 0:
                _accum(v, out.grad[lo:hi])
            else:
                _accum(v, out.grad[:, lo:hi])

    tape._record(bwd, out)
    return out


def slice_cols(x, lo, hi):
    tape = x.tape
    if x.value.ndim != 2 or not (0 <= lo <= hi <= x.value.shape[1]):
        raise ShapeError("slice_cols", x.value.shape, (lo, hi))
    out = Var(np.ascontiguousarray(x.value[:, lo:hi]), tape)

    def bwd():
        g = np.zeros_like(x.value)
        g[:, lo:hi] = out.grad
        _accum(x, g)

    tape._record(bwd, out)
    return out


def gather_sum(x, rows, cols, signs):
    """Signed sum of matrix entries, sum of signs[i] * x[rows[i], cols[i]],
    as a float64 sum rounded to a scalar of x's dtype.  Each listed entry
    gets its sign times the output's gradient, added into x's gradient in
    place: one gather reads the cells of every sentence of a bucket."""
    tape = x.tape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    signs = np.asarray(signs, dtype=x.value.dtype)
    if x.value.ndim != 2 or not rows.shape == cols.shape == signs.shape or rows.ndim != 1:
        raise ShapeError("gather_sum", x.value.shape, rows.shape)
    out = Var(
        np.asarray((signs * x.value[rows, cols]).sum(dtype=np.float64), dtype=x.value.dtype),
        tape,
    )

    def bwd():
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        np.add.at(x.grad, (rows, cols), signs * out.grad)

    tape._record(bwd, out)
    return out


def check_finite(x, where):
    if not np.isfinite(x.value).all():
        raise NumericError(f"non-finite values in {where}")
    return x
