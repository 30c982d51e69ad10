"""Exception hierarchy shared across the pipeline.

Exit-code contract for the CLI: 0 success, 1 validation failure,
2 stage failure, 3 I/O failure or an artifact unlike its manifest.
"""

from __future__ import annotations


class PushRespError(Exception):
    """Base class for all pushresp errors."""

    exit_code = 2


class ValidationFailed(PushRespError):
    """Static configuration or input validation failed (exit 1)."""

    exit_code = 1

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class StageFailure(PushRespError):
    """A pipeline stage failed (exit 2)."""

    exit_code = 2

    def __init__(self, stage: str, cause: str):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


class ArtifactIOError(PushRespError):
    """An artifact is unlike its manifest or not of its format, or an
    OSError ended a stage, which `pipeline.run_stage` turns into this
    (exit 3)."""

    exit_code = 3


class MalformedRecord(PushRespError):
    """A quote record failed to parse; carries line number and field name,
    and the file's name once the reader of that file has added it."""

    def __init__(self, line_no: int, field: str, detail: str = "", source: str = ""):
        self.line_no = line_no
        self.field = field
        self.detail = detail
        msg = f"line {line_no}: bad field '{field}'"
        if source:
            msg = f"{source}: {msg}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EmptyInput(PushRespError):
    """An operation requiring non-empty input received none."""


class InvalidGrid(ValidationFailed):
    """A lag family or bin grid violates its invariants."""


class InsufficientSupport(PushRespError):
    """Fewer than two admissible anchors at a lag."""

    def __init__(self, lag: int, n_pairs: int):
        self.lag = lag
        self.n_pairs = n_pairs
        super().__init__(f"lag {lag}: only {n_pairs} admissible anchors")


class ZeroVariance(PushRespError):
    """Push or response variance is exactly zero at a lag."""

    def __init__(self, lag: int, which: str):
        self.lag = lag
        self.which = which
        super().__init__(f"lag {lag}: zero {which} variance")


class MissingMoments(PushRespError):
    """Surface accumulation was requested for a lag without usable moments."""

    def __init__(self, lag: int):
        self.lag = lag
        super().__init__(f"no moments available for lag {lag}")


class InvalidSpec(ValidationFailed):
    """A synthetic-series spec violates its invariants."""


class MissingArtifact(PushRespError):
    """An artifact, or the part of one a stage needs, does not exist."""

    exit_code = 3
