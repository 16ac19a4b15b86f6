"""Selected inversion and selected quadratic solution for block-tridiagonal
and block-tridiagonal-with-arrowhead complex matrices.

Public API:

* containers and generators: :class:`BtaMatrix`, :class:`SelectedSolution`,
  :func:`generate_dd_bta`, :func:`to_dense`, :func:`mask_to_pattern`,
  :func:`hermitianize`, :func:`read_bta`, :func:`write_bta`
* sequential solver: :func:`solve_selected` (facade over the forward /
  backward block sweeps)
* distributed solver: :func:`dist_solve`, :func:`plan_partitions`
* reference oracles: :func:`dense_solve`, :func:`batched_solve`
* kernels and instrumentation: :class:`OpCounter`, :func:`block_inverse`
"""

from .baselines import batched_solve, dense_solve
from .bench import BenchReport, run_benchmark, weak_scaling_sweep
from .collectives import SocketCollectives, ThreadHub
from .dist import dist_solve, local_forward, assemble_reduced, solve_reduced, local_backward
from .errors import (
    BadMagicError,
    BtaselError,
    DenseGuardError,
    FormatError,
    NonFiniteInputError,
    ProtocolError,
    ShapeInconsistencyError,
    ShapeMismatchError,
    SingularBlockError,
    TruncatedPayloadError,
    WorkerError,
)
from .fileio import read_bta, read_bta_header, write_bta
from .kernels import OpCounter, block_inverse
from .matrix import (
    BtaMatrix,
    SelectedSolution,
    generate_dd_bta,
    hermitianize,
    mask_to_pattern,
    to_dense,
)
from .partition import PartitionPlan, plan_partitions
from .rgf import RgfFactors, bt_backward, bt_forward, bta_backward, bta_forward, solve_selected
from .threads import set_blas_threads

__version__ = "0.1.0"

__all__ = [
    "BtaMatrix",
    "SelectedSolution",
    "RgfFactors",
    "OpCounter",
    "PartitionPlan",
    "BenchReport",
    "ThreadHub",
    "SocketCollectives",
    "generate_dd_bta",
    "to_dense",
    "mask_to_pattern",
    "hermitianize",
    "read_bta",
    "read_bta_header",
    "write_bta",
    "block_inverse",
    "bt_forward",
    "bt_backward",
    "bta_forward",
    "bta_backward",
    "solve_selected",
    "dense_solve",
    "batched_solve",
    "plan_partitions",
    "local_forward",
    "assemble_reduced",
    "solve_reduced",
    "local_backward",
    "dist_solve",
    "run_benchmark",
    "weak_scaling_sweep",
    "BtaselError",
    "ShapeMismatchError",
    "NonFiniteInputError",
    "SingularBlockError",
    "DenseGuardError",
    "ProtocolError",
    "WorkerError",
    "FormatError",
    "BadMagicError",
    "TruncatedPayloadError",
    "ShapeInconsistencyError",
    "set_blas_threads",
]
