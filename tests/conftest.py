import numpy as np
import pytest

from btasel import BtaMatrix, generate_dd_bta, mask_to_pattern, to_dense
from btasel.threads import set_blas_threads

# The test matrices use small blocks, where BLAS thread spin-up costs far
# more than it saves (and the distributed tests already run one worker
# thread per rank).  Pin the BLAS pools to one thread for the session.
set_blas_threads(1)


def dense_selected_inverse(a: BtaMatrix) -> BtaMatrix:
    """Independent oracle: full dense inverse, masked to the pattern."""
    return mask_to_pattern(np.linalg.inv(to_dense(a)), a.shape_params)


def dense_selected_quadratic(a: BtaMatrix, b: BtaMatrix) -> BtaMatrix:
    """Independent oracle: dense inv(A) @ B @ inv(A)^H, masked."""
    inv = np.linalg.inv(to_dense(a))
    return mask_to_pattern(inv @ to_dense(b) @ inv.conj().T, a.shape_params)


def max_block_rel_err(candidate: BtaMatrix, reference: BtaMatrix) -> float:
    """Worst per-block relative error; ``inf`` if a block holds a NaN or
    an infinity on either side, so that no bound passes it."""
    worst = 0.0
    for (_, _, blk_c), (_, _, blk_r) in zip(
        candidate.pattern_blocks(), reference.pattern_blocks()
    ):
        if blk_r.size == 0:
            continue
        denom = np.linalg.norm(blk_r)
        err = np.linalg.norm(blk_c - blk_r)
        rel = err / denom if denom > 0 else err
        worst = max(worst, rel if np.isfinite(rel) else np.inf)
    return worst


def identity_block_row_residual(a: BtaMatrix, x: BtaMatrix) -> float:
    """Worst block-row residual of ``A @ X == I`` on the pattern.

    Because ``A``'s block row j only touches blocks j-1, j, j+1, and the
    tip, the j-th diagonal block of ``A @ X`` is computable from pattern
    blocks of ``X`` alone.  This gives an inverse check that is
    independent of any dense expansion and works at sizes far beyond the
    dense-oracle guard.
    """
    worst = 0.0
    n = a.n
    for j in range(n):
        acc = a.diag[j] @ x.diag[j]
        if j > 0:
            acc = acc + a.lower[j - 1] @ x.upper[j - 1]
        if j < n - 1:
            acc = acc + a.upper[j] @ x.lower[j]
        if a.a:
            acc = acc + a.arrow_col[j] @ x.arrow_row[j]
        worst = max(worst, np.linalg.norm(acc - np.eye(a.b)) / np.sqrt(a.b))
    if a.a:
        acc = a.tip @ x.tip
        for i in range(n):
            acc = acc + a.arrow_row[i] @ x.arrow_col[i]
        worst = max(worst, np.linalg.norm(acc - np.eye(a.a)) / np.sqrt(a.a))
    return worst


def random_system(n, b, a, seed, hermitian_rhs=False):
    from btasel import hermitianize

    system = generate_dd_bta(n, b, a, seed=seed)
    rhs = generate_dd_bta(n, b, a, seed=seed + 1_000_003)
    if hermitian_rhs:
        rhs = hermitianize(rhs)
    return system, rhs


def signed_system(n, b, a, seed, sigma):
    """A system and a right-hand side with ``B == sigma·B^H`` bit for bit:
    Hermitian for ``sigma = 1``, and ``1j`` times that for ``sigma = -1``
    (skew-Hermitian, like the lesser self-energy of NEGF transport)."""
    system, rhs = random_system(n, b, a, seed, hermitian_rhs=True)
    if sigma < 0:
        rhs = BtaMatrix(n, b, a, *(1j * s for s in rhs.stacks))
    return system, rhs


def mirror(x, sigma):
    """``sigma·x^H`` of every block of a stack."""
    m = x.conj().swapaxes(-1, -2)
    return m if sigma > 0 else -m


def assert_mirrored(x: BtaMatrix, sigma):
    """The upper couplings and arrow columns of ``x`` are exactly ``sigma``
    times the conjugate transposes of its lower couplings and arrow rows."""
    assert np.array_equal(x.upper, mirror(x.lower, sigma))
    assert np.array_equal(x.arrow_col, mirror(x.arrow_row, sigma))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
