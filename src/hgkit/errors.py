"""Exception hierarchy.

Errors fall into three families so callers (the CLI in particular) can
map them to stable exit codes:

* ``FormatError`` - a document (HGF, JSON, CSV) violates its format
* ``ContractError`` - bad ids or arguments passed to an operation
* ``DegenerateInputError`` - the requested quantity is undefined for
  the given input (empty graph, isolated vertex, zero variance, ...)
"""


class HgkitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


# --- document / format problems -------------------------------------------


class FormatError(HgkitError):
    exit_code = 3


class MalformedHeaderError(FormatError):
    """HGF header is not two non-negative integers."""


class LineCountMismatchError(FormatError):
    """HGF body does not contain exactly one line per hyperedge."""


class BadWeightTokenError(FormatError):
    """HGF token is not of the form vertex=finite_weight, or repeats a vertex on its line."""


class IndexOutOfRangeError(FormatError):
    """Serialized vertex or hyperedge id falls outside the declared range."""


class SchemaViolationError(FormatError):
    """JSON document does not match the hypergraph schema."""


class DualInconsistencyError(FormatError):
    """Serialized vertex->hyperedge and hyperedge->vertex maps disagree."""


class MalformedRecordError(FormatError):
    """A review or scene record is unparseable or out of domain."""


# --- contract violations ---------------------------------------------------


class ContractError(HgkitError):
    exit_code = 4


class UnknownVertexError(ContractError):
    pass


class UnknownHyperedgeError(ContractError):
    pass


class UnknownNodeError(ContractError):
    """Node id outside a graph view's node universe."""


class NonFiniteWeightError(ContractError):
    pass


class NonNumericWeightError(ContractError):
    """Weight is not an int or float; bools and strings are not coerced."""


class NonRectangularError(ContractError):
    """Incidence matrix rows have differing lengths."""


class PartitionNotTotalError(ContractError):
    """Partition does not label exactly the live vertex set."""


class DomainMismatchError(ContractError):
    """Two inputs that must share a vertex universe do not."""


class InvalidSError(ContractError):
    """Overlap threshold s must be a positive integer."""


# --- degenerate inputs -----------------------------------------------------


class DegenerateInputError(HgkitError):
    exit_code = 5


class IsolatedVertexError(DegenerateInputError):
    """Random walk started at a vertex with no incident hyperedge."""


class NoHyperedgesError(DegenerateInputError):
    pass


class NoUsableHyperedgesError(NoHyperedgesError):
    """Every hyperedge is empty, so modularity is undefined."""


class EmptyGraphError(DegenerateInputError):
    """Graph modularity over a graph with no edge weight."""


class EmptyDomainError(DegenerateInputError):
    """Partition comparison over an empty vertex set."""


class EmptyEvaluationSetError(DegenerateInputError):
    """No vertex received a defined prediction."""


class ZeroVarianceError(DegenerateInputError):
    """Correlation of a constant score vector."""
