"""Exception types shared across the package."""


class DpmodError(Exception):
    """Base class for all package-specific errors."""


class MeshError(DpmodError):
    """Invalid mesh data (bad indices, degenerate cells, disconnected skeleton)."""


class DegenerateCellError(MeshError):
    """A cell has zero euclidean volume or repeated vertices."""


class DisconnectedMeshError(MeshError):
    """The 1-skeleton is not connected."""


class MetricError(DpmodError):
    """Invalid metric data (non-SPD cell tensor, shape/mesh mismatch)."""


class NotSPDError(MetricError):
    """A cell tensor is not symmetric positive definite."""


class MeshMismatchError(DpmodError):
    """Two objects were built over different meshes or cell counts."""


class ParseError(DpmodError):
    """A mesh/metric/config file failed to parse.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class SolverError(DpmodError):
    """Invalid solver input (bad exponent, same vertex, zero-distance pair)."""


class SameVertexError(SolverError):
    """Source and sink coincide (after identification)."""


class ZeroDistancePairError(SolverError):
    """A constrained pair has zero background distance."""


class NonConvergedError(DpmodError):
    """A solve exhausted its step or centering budget before its stop rule fired.

    ``result`` holds the best-so-far ``DistanceResult`` (``converged=False``)
    so callers can still inspect or record the partial answer.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class OracleError(DpmodError):
    """Oracle preconditions violated (too many free vertices, wrong dimension)."""
