"""Numerical tolerances used across the library.

All structural and comparison tolerances live here so that every check in
the code base pulls the same constant instead of re-inventing magic
numbers.  Values fall in two bands: structural validation of states and
operators at 1e-10, and derived operators and fixed points at 1e-8 to
1e-9.
"""

import sys

# Structural validation of operators and states.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10

# Unitarity / completeness of derived objects.
UNITARITY_ATOL = 1e-9
KRAUS_COMPLETENESS_ATOL = 1e-9

# Entropy handling: eigenvalues are clipped to [0, 1] before taking logs,
# but only if the clip magnitude stays below this limit.
ENTROPY_CLIP_LIMIT = 1e-9
# Below this entropy a bath state counts as pure and entropy ratios are
# undefined.
ENTROPY_FLOOR = 1e-12

# Spectral analysis of channels.
PERIPHERAL_ATOL = 1e-8      # |lambda| within this of the unit circle
DEGENERACY_ATOL = 1e-8      # eigenvalues within this of 1 count as the same
FIXED_POINT_RESIDUAL_ATOL = 1e-8
FIXED_POINT_PSD_ATOL = 1e-8
# Superoperator entries at or below this multiple of the largest entry's
# modulus are treated as zero when splitting the matrix into independent
# blocks before its eigendecomposition.  Each dropped entry is then smaller
# than the round-off LAPACK's eig already commits on the whole matrix (a
# backward error of about n * eps * ||S||).
BLOCK_SPLIT_RTOL = 64 * sys.float_info.epsilon

# Eigenspace grouping and factorized-eigenvector counting.
EIGENSPACE_GROUP_ATOL = 1e-8
FACTORIZED_WEIGHT_ATOL = 1e-8

# Dense superoperator construction, and the block split of a channel's
# superoperator, are refused above this system dimension.  It bounds the
# dense matrix, dim**4 complex entries (268 MB at 64), and the size and
# eigvals cost of the blocks that the split holds, until a limit on the
# largest block replaces it.
SUPEROPERATOR_DIM_LIMIT = 64

# Configs are refused when the joint dimension of the network and its bath
# ancillas exceeds this; the dense joint unitary alone would pass 256 MB.
JOINT_DIM_LIMIT = 4096

# A trajectory analysis keeps every state it visits; configs are refused
# when its (steps + 1) * D**2 matrix entries exceed this, the size of the
# largest joint unitary above.
TRAJECTORY_ENTRIES_LIMIT = JOINT_DIM_LIMIT ** 2

# A linspace sweep may ask for at most this many points.
SWEEP_POINTS_LIMIT = 100_000

# Iterative fixed-point defaults.
DEFAULT_ITERATE_TOL = 1e-10
DEFAULT_MAX_ITER = 20_000
