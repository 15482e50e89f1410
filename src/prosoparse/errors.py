"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.  Everything else is a plain bug and escapes as-is.
"""

from contextlib import contextmanager


class ProsoparseError(Exception):
    pass


class ConfigError(ProsoparseError):
    pass


class DataError(ProsoparseError):
    pass


class NumericError(ProsoparseError):
    pass


class TreeSyntaxError(DataError):
    """Malformed bracketed tree; carries the character offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RejectedSentenceError(DataError):
    """Sentence became empty (e.g. all traces or all punctuation)."""


class CrossingSpanError(DataError):
    """Two spans partially overlap and cannot form a bracketing."""

    def __init__(self, span_a, span_b):
        super().__init__(f"crossing spans {span_a} and {span_b}")
        self.span_a = span_a
        self.span_b = span_b


class AlignmentError(DataError):
    """Time alignments or stored vectors do not line up with the tokens."""


class FormatError(DataError):
    """A data file violates its documented format."""


class VocabularyError(DataError):
    """A label or word falls outside the vocabulary a model was built with."""


class CheckpointError(DataError):
    """Checkpoint cannot be loaded against the requested architecture."""


class ShapeError(NumericError):
    """Tensor operands have incompatible shapes for an op."""

    def __init__(self, op, shape_a, shape_b=None):
        detail = f"{op}: {shape_a}" if shape_b is None else f"{op}: {shape_a} vs {shape_b}"
        super().__init__(f"shape mismatch in {detail}")


class LengthError(DataError):
    """Sentence longer than the encoder's position table."""


class TrainingDivergedError(NumericError):
    """Loss became non-finite during optimization."""

    def __init__(self, seed, step):
        super().__init__(f"loss diverged (NaN/inf) at step {step} for seed {seed}")
        self.seed = seed
        self.step = step


@contextmanager
def utf8_text(path, newline=None):
    """The open text file; a decoding error while it is read is a FormatError."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
