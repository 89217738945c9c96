"""Exception hierarchy.

Every error class carries the process exit code the CLI maps it to:

    2  usage errors (argparse handles these itself)
    3  malformed input specs
    4  exploration budget exhausted
    5  structural preconditions (layer sizes, matchings, empty graphs, ...)
    6  geodesic-ray and monotone-path errors
    7  invariance / certificate violations
"""


class HoroscopeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class MalformedSpec(HoroscopeError):
    """Input JSON spec is structurally invalid (message says where)."""

    exit_code = 3


class NonConsecutiveEdge(MalformedSpec):
    """A layered-graph edge does not join consecutive layers."""


class MalformedSubsequence(HoroscopeError):
    """Layer subsequence is not strictly increasing / not representable."""

    exit_code = 3


class BudgetExhausted(HoroscopeError):
    """A search hit its cap without finishing: a BFS its vertex budget, or the
    stride analysis its number of boolean matrix powers."""

    exit_code = 4


class EmptySphere(HoroscopeError):
    """A sphere S_N is empty: the graph is finite, outside the theory."""

    exit_code = 5


class UnequalLayers(HoroscopeError):
    """Operation requires consecutive/selected layers of equal cardinality."""

    exit_code = 5


class NoMatching(HoroscopeError):
    """No perfect matching at some layer pair; carries the Hall certificate."""

    exit_code = 5

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class EmptyGraph(HoroscopeError):
    """Pruning removed every vertex: no infinite monotone path exists."""

    exit_code = 5


class NoConstantSubsequence(HoroscopeError):
    """No sphere size recurs often enough within the explored radius bound."""

    exit_code = 5


class NotGeodesic(HoroscopeError):
    """Vertex sequence violates the geodesic-prefix invariants."""

    exit_code = 6


class NotMonotone(HoroscopeError):
    """Names do not form a monotone path of the layered graph."""

    exit_code = 6


class RayNotExtendable(HoroscopeError):
    """The ray prefix cannot be extended to the needed depth."""

    exit_code = 6


class PrefixTooShort(HoroscopeError):
    """Constancy not yet witnessed; extend the ray and retry."""

    exit_code = 6


class RayTooShort(HoroscopeError):
    """Ray does not cross the last requested sphere."""

    exit_code = 6


class GeneratorsDoNotGenerate(HoroscopeError):
    """Ball census shows small group elements missing from the Cayley ball."""

    exit_code = 7


class DomainTooSmall(HoroscopeError):
    """A value map does not cover the domain an operation needs."""

    exit_code = 7


class NotInvariant(HoroscopeError):
    """A generator maps a member of the horofunction set outside the set."""

    exit_code = 7


class AdditivityViolation(HoroscopeError):
    """Sampled stabilizer values fail f(hg) = f(h) + f(g)."""

    exit_code = 7


class TrivialImage(HoroscopeError):
    """All sampled stabilizer values are zero, contradicting unboundedness."""

    exit_code = 7
