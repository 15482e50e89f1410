"""Factored self-attention encoder over lexical, positional and prosodic streams.

Each word contributes three input streams: a projected word embedding, a
learned position embedding, and (optionally) a projection of its prosodic
features, i.e. pause/duration values plus the CNN summary of its energy/f0
frame patch.  Attention keeps the streams factored: every layer learns
separate query/key/value maps per stream, attention logits are the sum of
the per-stream dot products, and values are aggregated per stream and
re-projected within the stream.  Streams only mix inside the position-wise
feed-forward block.  Layer norm is applied per stream, after each residual,
so that a model whose prosody pathway is zeroed is numerically identical to
a narrower text-only model with the same remaining weights; each stream norm
is one affine ``layer_norm`` op with its own gain and bias.

The encoder runs over a length bucket: the words of one or more sentences
packed end to end as the rows of one matrix.  Projections, feed-forward
blocks, norms, dropout and the prosody CNN run once over all rows; only
attention sees the sentence boundaries, and a word attends to the words of
its own sentence.  The prosody CNN reads the words' frame patches packed end
to end (``ProsodyInputs``), scattered into one zero-padded [words, longest
patch, 3] array.

Word outputs are split into forward/backward halves per stream to build
fencepost (word boundary) vectors, with learned sentinel halves at each
sentence's edges.  The bucket's fenceposts are one packed matrix, each
sentence's T + 1 rows in turn, which the span scorer reads whole.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .errors import ConfigError, DataError, LengthError
from .prosody import N_PAUSE_BUCKETS

PAUSE_EMB_DIM = 4
N_DURATION_SCALARS = 2  # duration_norm, log1p(duration_raw)
PHI_DIM = 2 * PAUSE_EMB_DIM + N_DURATION_SCALARS
CNN_IN_CHANNELS = 3  # energy, f0, word-interior mask


def check_sizes(minimum, **sizes):
    """Sizes and counts are ints of at least ``minimum``: a float or a bool
    passes a range check but fails once arrays or loops are built from it."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class CnnConfig:
    widths: tuple = (3, 5, 10)
    filters_per_width: int = 32

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(self.widths))
        check_sizes(1, filters_per_width=self.filters_per_width,
                    **{f"widths[{i}]": w for i, w in enumerate(self.widths)})
        if len(set(self.widths)) != len(self.widths):
            raise ConfigError(f"cnn widths must be distinct: {self.widths}")

    @property
    def output_dim(self):
        return len(self.widths) * self.filters_per_width


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 4
    heads: int = 4
    d_content: int = 256
    d_position: int = 64
    d_prosody: int = 64  # 0 disables the prosody stream (text-only model)
    d_ff: int = 512
    dropout: float = 0.2
    max_len: int = 300

    def __post_init__(self):
        check_sizes(1, layers=self.layers, heads=self.heads, d_ff=self.d_ff,
                    d_content=self.d_content, d_position=self.d_position)
        check_sizes(0, d_prosody=self.d_prosody, max_len=self.max_len)
        for name in ("d_content", "d_position", "d_prosody"):
            width = getattr(self, name)
            if width % self.heads != 0:
                raise ConfigError(f"{name}={width} not divisible by heads={self.heads}")
            if width % 2 != 0:
                raise ConfigError(f"{name}={width} must be even for fencepost splitting")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")

    @property
    def use_prosody(self):
        return self.d_prosody > 0

    @property
    def stream_dims(self):
        dims = [self.d_content, self.d_position]
        if self.use_prosody:
            dims.append(self.d_prosody)
        return dims

    @property
    def d_total(self):
        return sum(self.stream_dims)


@dataclass
class ProsodyInputs:
    """Per-word prosodic inputs for one sentence (or, joined by
    ``join_prosody``, for the words of several sentences in order).

    The words' energy/f0 frame patches are packed end to end: word i owns
    ``patch_lens[i]`` consecutive rows of ``frames`` and ``mask``, starting
    after the rows of words 0..i-1.  This is also the feature-cache layout.
    """

    pause_before: np.ndarray  # [T] bucket ids
    pause_after: np.ndarray  # [T] bucket ids
    duration_scalars: np.ndarray  # [T, 2]: duration_norm, log1p(duration_raw)
    frames: np.ndarray  # [N, 2] float32: energy, f0
    mask: np.ndarray  # [N] bool: the frame lies inside its word
    patch_lens: np.ndarray  # [T] int64 frames per word; N = patch_lens.sum()

    def __post_init__(self):
        self.duration_scalars = np.asarray(self.duration_scalars, dtype=np.float32)
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.mask = np.asarray(self.mask, dtype=bool)
        lens, frames, mask = self.patch_lens, self.frames, self.mask
        if lens.ndim != 1 or lens.dtype.kind != "i" or (lens < 1).any():
            raise DataError("patch_lens are not positive frame counts")
        if frames.shape != (lens.sum(), 2) or mask.shape != (lens.sum(),):
            raise DataError(
                f"patch_lens sum to {lens.sum()} but frames have shape "
                f"{frames.shape} and mask {mask.shape}"
            )
        T = len(lens)
        if self.pause_before.shape != (T,) or self.pause_after.shape != (T,):
            raise DataError(f"pause arrays do not hold {T} words")
        if self.duration_scalars.shape != (T, N_DURATION_SCALARS):
            raise DataError("bad duration block")


def join_prosody(prosodies):
    """Sentences' ProsodyInputs joined end to end: the inputs of all their
    words, in order."""
    return ProsodyInputs(*(
        np.concatenate([getattr(p, f.name) for p in prosodies]) for f in fields(ProsodyInputs)
    ))


def _small(z):
    """A standard-normal draw scaled to a standard deviation of 0.1."""
    return z * 0.1


class _StreamAttention:
    def __init__(self, name, dim, init):
        self.wq, self.wk, self.wv, self.wo = (
            init.xavier(f"{name}.{w}", dim, dim) for w in ("wq", "wk", "wv", "wo")
        )


class _StreamNorm:
    def __init__(self, name, dim, init):
        self.gain = init(f"{name}.gain", (dim,), 1.0)
        self.bias = init(f"{name}.bias", (dim,), 0.0)

    def __call__(self, tape, x):
        return ag.layer_norm(x, tape.watch(self.gain), tape.watch(self.bias))


class _Layer:
    def __init__(self, name, config, init):
        streams = list(zip(_stream_names(config), config.stream_dims))
        self.attn = [_StreamAttention(f"{name}.attn.{s}", d, init) for s, d in streams]
        self.norm1 = [_StreamNorm(f"{name}.norm1.{s}", d, init) for s, d in streams]
        self.norm2 = [_StreamNorm(f"{name}.norm2.{s}", d, init) for s, d in streams]
        d_total, d_ff = config.d_total, config.d_ff
        self.ff_w1 = init.xavier(f"{name}.ff.w1", d_total, d_ff)
        self.ff_b1 = init(f"{name}.ff.b1", (d_ff,), 0.0)
        self.ff_w2 = init.xavier(f"{name}.ff.w2", d_ff, d_total)
        self.ff_b2 = init(f"{name}.ff.b2", (d_total,), 0.0)


def _stream_names(config):
    return ("content", "position", "prosody")[: 2 + int(config.use_prosody)]


class Encoder:
    """Parameters, made by ``init`` (an ``autograd.Init``), and forward pass
    from input features to fencepost vectors."""

    def __init__(self, config, cnn_config, embed_dim, init):
        self.config = config
        self.embed_dim = embed_dim

        self.w_content = init.xavier("encoder.input.content.w", embed_dim, config.d_content)
        self.b_content = init("encoder.input.content.b", (config.d_content,), 0.0)
        d_pos = config.d_position
        self.pos_table = init(
            "encoder.positions", (config.max_len, d_pos), lambda z: z / np.sqrt(d_pos)
        )

        if config.use_prosody:
            pause_shape = (N_PAUSE_BUCKETS, PAUSE_EMB_DIM)
            self.pause_before_table = init("encoder.pause_before", pause_shape, _small)
            self.pause_after_table = init("encoder.pause_after", pause_shape, _small)
            n = cnn_config.filters_per_width
            self.cnn_filters = [
                (init(f"encoder.cnn.w{w}.filters", (w, CNN_IN_CHANNELS, n),
                      lambda z: z * np.sqrt(2.0 / (w * CNN_IN_CHANNELS))),
                 init(f"encoder.cnn.w{w}.bias", (n,), 0.0))
                for w in cnn_config.widths
            ]
            pros_in = PHI_DIM + cnn_config.output_dim
            self.w_prosody = init.xavier("encoder.input.prosody.w", pros_in, config.d_prosody)
            self.b_prosody = init("encoder.input.prosody.b", (config.d_prosody,), 0.0)

        self.layers = [_Layer(f"encoder.layer{i}", config, init) for i in range(config.layers)]

        self.sentinels = [
            tuple(init(f"encoder.sentinel.{name}.{end}", (1, dim // 2), _small)
                  for end in ("start", "stop"))
            for name, dim in zip(_stream_names(config), config.stream_dims)
        ]

    # ------------------------------------------------------------------
    # prosodic feature sub-networks

    def prosody_cnn(self, tape, prosody):
        """CNN summaries of the words' frame patches: [T x widths*filters].

        Energy, f0 and the word-interior mask enter as three channels.  The
        packed patches are scattered into a [T, longest patch] array, each
        zero-padded at its end, so each filter width is one ``conv_pool`` op
        (same-padded convolution, max-pool over each word's own frames, then
        relu) for all the words, of one sentence or of a joined bucket.  The
        zero padding is exactly a word's per-word same padding, so its row
        equals what its patch gives alone.  The per-width outputs are
        concatenated in ascending width order.
        """
        lens = prosody.patch_lens
        width = lens.max()
        # packed row r of word w lands at padded row w*width + (r - first row of w)
        rows = np.arange(len(prosody.mask)) + np.repeat(
            np.arange(len(lens)) * width - (np.cumsum(lens) - lens), lens
        )
        x = np.zeros((len(lens), width, CNN_IN_CHANNELS), dtype=tape.dtype)
        flat = x.reshape(-1, CNN_IN_CHANNELS)
        flat[rows, :2] = prosody.frames
        flat[rows, 2] = prosody.mask
        return ag.concat(
            [ag.conv_pool(x, lens, tape.watch(w), tape.watch(b)) for w, b in self.cnn_filters],
            axis=1,
        )

    def prosody_stream(self, tape, prosody):
        """Projected pause embeddings, duration scalars and CNN summaries."""
        joint = ag.concat([
            ag.take_rows(tape.watch(self.pause_before_table), prosody.pause_before),
            ag.take_rows(tape.watch(self.pause_after_table), prosody.pause_after),
            tape.constant(prosody.duration_scalars),
            self.prosody_cnn(tape, prosody),
        ], axis=1)
        return ag.matmul(joint, tape.watch(self.w_prosody), tape.watch(self.b_prosody))

    # ------------------------------------------------------------------

    def _attention(self, tape, streams, layer, lengths):
        cfg = self.config
        qs, ks, vs = [], [], []
        for x, attn in zip(streams, layer.attn):
            qs.append(ag.matmul(x, tape.watch(attn.wq)))
            ks.append(ag.matmul(x, tape.watch(attn.wk)))
            vs.append(ag.matmul(x, tape.watch(attn.wv)))
        merged = ag.attention(qs, ks, vs, cfg.heads, lengths)
        outs = []
        for si, (x, attn) in enumerate(zip(streams, layer.attn)):
            proj = ag.matmul(merged[si], tape.watch(attn.wo))
            proj = ag.dropout(proj, cfg.dropout, lengths)
            outs.append(layer.norm1[si](tape, ag.add(x, proj)))
        return outs

    def _feed_forward(self, tape, streams, layer, lengths):
        cfg = self.config
        x = ag.concat(streams, axis=1)
        h = ag.relu(ag.matmul(x, tape.watch(layer.ff_w1), tape.watch(layer.ff_b1)))
        f = ag.matmul(h, tape.watch(layer.ff_w2), tape.watch(layer.ff_b2))
        f = ag.dropout(f, cfg.dropout, lengths)
        y = ag.add(x, f)
        outs = []
        lo = 0
        for si, dim in enumerate(cfg.stream_dims):
            piece = ag.slice_cols(y, lo, lo + dim)
            outs.append(layer.norm2[si](tape, piece))
            lo += dim
        return outs

    def encode(self, tape, e_var, lengths, prosodies=None):
        """Fencepost representations of each sentence of a packed bucket.

        e_var: [N, embed_dim] word embeddings of sentences of ``lengths``
        words, packed end to end; prosodies: each sentence's ProsodyInputs.
        Every layer runs once over the N rows, and attention stays within
        each sentence.  Returns the bucket's packed fencepost matrix, a
        [N + len(lengths), d_total] Var holding each sentence's T+1 fenceposts
        in turn.
        """
        cfg = self.config
        lengths = [int(T) for T in lengths]
        if not lengths or min(lengths) < 1:
            raise DataError("cannot encode an empty sentence")
        if max(lengths) > cfg.max_len:
            raise LengthError(f"sentence length {max(lengths)} exceeds max_len {cfg.max_len}")
        N = e_var.value.shape[0]
        if e_var.value.shape[1] != self.embed_dim:
            raise DataError(
                f"embedding width {e_var.value.shape[1]} != encoder's {self.embed_dim}"
            )
        if sum(lengths) != N:
            raise DataError(f"{N} embedding rows for sentences of {sum(lengths)} words")

        content = ag.matmul(e_var, tape.watch(self.w_content), tape.watch(self.b_content))
        positions = ag.take_rows(
            tape.watch(self.pos_table), [j for T in lengths for j in range(T)]
        )
        streams = [content, positions]
        if cfg.use_prosody:
            if prosodies is None:
                raise DataError("model expects prosodic features but none were given")
            streams.append(self.prosody_stream(tape, join_prosody(prosodies)))

        for i, layer in enumerate(self.layers):
            streams = self._attention(tape, streams, layer, lengths)
            streams = self._feed_forward(tape, streams, layer, lengths)
            for s in streams:
                ag.check_finite(s, f"encoder layer {i}")

        # Fencepost j of a sentence of T words starting at word w joins the
        # forward halves of word w+j-1 and the backward halves of word w+j.
        # Row N holds each stream's start sentinel in its forward half and its
        # stop sentinel in its backward half, for j = 0 and j = T.  One gather
        # reads each column's row: fwd_rows in a forward half, else bwd_rows.
        fwd_rows, bwd_rows, w = [], [], 0
        for T in lengths:
            words = list(range(w, w + T))
            fwd_rows += [N, *words]
            bwd_rows += [*words, N]
            w += T
        fwd_cols = np.concatenate([np.arange(dim) < dim // 2 for dim in cfg.stream_dims])
        ids = np.where(fwd_cols, np.array(fwd_rows)[:, None], np.array(bwd_rows)[:, None])
        sentinels = ag.concat([tape.watch(p) for pair in self.sentinels for p in pair], axis=1)
        rows = ag.concat([ag.concat(streams, axis=1), sentinels], axis=0)
        return ag.take_rows(rows, ids)
