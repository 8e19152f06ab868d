"""Exception types shared across the package.

Each class corresponds to one documented error contract; callers catch by
type, messages carry the offending detail.
"""


class NonFiniteInputError(ValueError):
    """An input tensor contains NaN or inf where finite values are required."""


class EmptyAttentionRowError(ValueError):
    """An attention mask row has no allowed key, softmax would be undefined."""


class EvenKernelError(ValueError):
    """Depthwise convolution kernels must have odd length."""


class BlankInTargetError(ValueError):
    """A target sequence contains the blank id."""


class OracleTooLargeError(ValueError):
    """The alignment-enumeration oracle refuses lattices beyond its bound."""


class ModeShapeMismatchError(ValueError):
    """Offline and streaming joint logits disagree in shape or lengths."""


class EmptyContextSetError(ValueError):
    """A context candidate set has no entries to sample from."""


class InputTooShortError(ValueError):
    """Feature sequence shorter than one subsampling group."""


class BadTokenError(ValueError):
    """Token id outside the vocabulary range."""


class EmptyBatchError(ValueError):
    """A training step, a training run or an evaluation received no
    utterances."""


class ManifestMismatchError(ValueError):
    """Manifest metadata disagrees with the feature file on disk."""


class MalformedRecordError(ValueError):
    """A line of a run file (a JSON-lines manifest or metrics file, an eval
    CSV) lacks a field it needs or holds one of the wrong type, or a manifest
    line names a feature file holding a value that is not finite; the message
    names the file and line."""


class MissingFeatureFileError(FileNotFoundError):
    """Manifest references a feature file that does not exist."""


class VersionMismatchError(ValueError):
    """Checkpoint format version or model config does not match."""


class CorruptCheckpointError(ValueError):
    """Checkpoint file is truncated or has a bad magic header."""


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""
