"""Exception types shared across the package."""


class RadscalesError(Exception):
    """Base class for all errors raised by this package."""


class MalformedLineError(RadscalesError, ValueError):
    """A text input line does not match the expected record format."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class UnknownVertexError(RadscalesError):
    """A partition file names a vertex that is not in the graph."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown vertex {label!r}")


class MissingVertexError(RadscalesError):
    """A graph vertex was left unassigned by a partition file."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"vertex {label!r} has no group assignment")


class DuplicateAssignmentError(RadscalesError):
    """A vertex appears more than once in a partition file."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"vertex {label!r} assigned more than once")


class EmptyGraphError(RadscalesError):
    """The operation needs a graph with at least one edge (or vertex)."""


class MissingDelimiterError(RadscalesError):
    """A dictionary file lacks the %%-delimited category block."""


class UnknownCategoryError(RadscalesError):
    """A dictionary entry references a category id that was never declared."""

    def __init__(self, category_id: int, line_no: int):
        self.category_id = category_id
        self.line_no = line_no
        super().__init__(f"line {line_no}: unknown category id {category_id}")


class FoundationMapError(RadscalesError):
    """A foundation axis maps to no category present in the lexicon."""


class EmptyCorpusError(RadscalesError):
    """Frequency scores are undefined over a corpus with zero tokens."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"corpus for {label!r} has no tokens")


class SchemaMismatchError(RadscalesError):
    """Points or criteria do not have the expected shape or schema."""


class DuplicateLabelError(RadscalesError, ValueError):
    """Two points share a label, so a label cannot name its frontier point."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"more than one point is labelled {label!r}")


class EmptyInputError(RadscalesError):
    """The operation needs at least one input element."""


class NoEventsError(RadscalesError):
    """Event ingestion or graph construction produced nothing usable."""


class ConfigError(RadscalesError, ValueError):
    """A usage error: a run config with an unknown or missing key, a value that breaks
    its setting's rule or a bad window set, or command-line flags that do not go together."""


class InvalidRhoError(ConfigError):
    """A coverage fraction outside (0, 1]; *name* is the setting that holds it."""

    def __init__(self, rho: float, name: str = "rho"):
        self.rho = rho
        super().__init__(f"{name}: coverage fraction {rho!r} is not in (0, 1]")
