"""Block-tridiagonal-with-arrowhead containers and generators.

A :class:`BtaMatrix` stores the pattern blocks of an ``N x N`` complex
matrix tiled into ``n`` diagonal blocks of size ``b``, first off-diagonal
blocks, dense arrow strips coupling every diagonal block to a trailing
tip of size ``a``, and the tip itself (``N = n*b + a``).  Setting
``a = 0`` yields a plain block-tridiagonal matrix; the arrow stacks
are then empty strips and all code paths degrade gracefully.

Containers are treated as immutable once handed to a solver facade;
solvers work on copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, ShapeMismatchError
from .kernels import COMPLEX

__all__ = [
    "BtaMatrix",
    "SelectedSolution",
    "generate_dd_bta",
    "to_dense",
    "mask_to_pattern",
    "hermitianize",
]

MODES = ("si", "siq")


def _solve_rhs(a: BtaMatrix, b: BtaMatrix | None, mode: str | None) -> BtaMatrix | None:
    """The right-hand side a solve of ``a`` reads: ``b`` in ``"siq"`` mode,
    None in ``"si"``, the default without ``b``.  Raises ``ValueError`` for
    another mode or ``"siq"`` without ``b``, :class:`ShapeMismatchError` if
    ``b``'s shape is not ``a``'s, and :class:`NonFiniteInputError` if ``a``,
    or a ``b`` that is read, holds a NaN or infinite entry."""
    if mode not in (None, *MODES):
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "siq" and b is None:
        raise ValueError("mode 'siq' requires a right-hand side")
    if b is not None and b.shape_params != a.shape_params:
        raise ShapeMismatchError(f"right-hand side shape {b.shape_params} is not {a.shape_params}")
    a.require_finite("a")
    if mode == "si" or b is None:
        return None
    b.require_finite("b")
    return b


_HUGE_PAGE = 2 << 20  # bytes: the x86-64 and arm64 (4 KiB base page) PMD size


def stack_shapes(n: int, b: int, a: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the six fields, in :attr:`BtaMatrix.FIELDS` order."""
    return ((n, b, b), (n - 1, b, b), (n - 1, b, b), (n, a, b), (n, b, a), (a, a))


def _container(data: np.ndarray, n: int, b: int, a: int) -> "BtaMatrix":
    """The container whose stacks are consecutive views of ``data``."""
    stacks, start = [], 0
    for shape in stack_shapes(n, b, a):
        size = math.prod(shape)
        stacks.append(data[start : start + size].reshape(shape))
        start += size
    return BtaMatrix(n, b, a, *stacks)


def _as_stack(name: str, blocks, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous complex128 array of ``shape``: ``blocks`` itself when
    it already is one, else the blocks stacked once."""
    if blocks is None:
        return np.zeros(shape, dtype=COMPLEX)
    try:
        arr = np.ascontiguousarray(blocks, dtype=COMPLEX)
    except ValueError as exc:  # ragged block sequence
        raise ShapeMismatchError(f"{name} blocks do not stack to {shape}: {exc}") from exc
    if arr.shape != shape and arr.size == 0 and arr.shape[:1] == shape[:1] == (0,):
        arr = arr.reshape(shape)  # an empty block list, e.g. lower at n=1
    if arr.shape != shape:
        raise ShapeMismatchError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


class BtaMatrix:
    """Container for the pattern blocks of a BT(A) matrix.

    Each field is one C-contiguous ``complex128`` array: a stack of
    blocks whose ``i``-th entry is a view of block ``i``.  A field given
    as such an array is stored as given (not copied); a sequence of
    blocks is stacked once.  The fields of a :meth:`copy` are views of
    one array.

    Parameters
    ----------
    n, b, a : int
        Number of diagonal blocks, diagonal block size, arrow tip size.
    diag : (n, b, b) stack, or a sequence of n (b, b) blocks
    lower : (n-1, b, b)
        Block ``(i+1, i)``.
    upper : (n-1, b, b)
        Block ``(i, i+1)``.
    arrow_row : (n, a, b), zeros when omitted
        Block ``(t, i)`` coupling diagonal block ``i`` to the tip row.
    arrow_col : (n, b, a), zeros when omitted
        Block ``(i, t)``.
    tip : (a, a), zeros when omitted
    """

    FIELDS = ("diag", "lower", "upper", "arrow_row", "arrow_col", "tip")

    def __init__(self, n, b, a, diag, lower, upper, arrow_row=None, arrow_col=None, tip=None):
        if n < 1 or b < 1 or a < 0:
            raise ShapeMismatchError(f"invalid shape parameters (n={n}, b={b}, a={a})")
        self.n, self.b, self.a = int(n), int(b), int(a)
        given = (diag, lower, upper, arrow_row, arrow_col, tip)
        for name, blocks, shape in zip(self.FIELDS, given, stack_shapes(*self.shape_params)):
            setattr(self, name, _as_stack(name, blocks, shape))

    @property
    def shape_params(self) -> tuple[int, int, int]:
        return (self.n, self.b, self.a)

    @property
    def total_size(self) -> int:
        return self.n * self.b + self.a

    @property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """The six field arrays, in :attr:`FIELDS` (and ``BTA1`` payload) order."""
        return (self.diag, self.lower, self.upper, self.arrow_row, self.arrow_col, self.tip)

    @classmethod
    def zeros(cls, n: int, b: int, a: int = 0) -> "BtaMatrix":
        return cls(n, b, a, *(np.zeros(shape, COMPLEX) for shape in stack_shapes(n, b, a)))

    @classmethod
    def empty(cls, n: int, b: int, a: int = 0) -> "BtaMatrix":
        """Stacks for a solver to fill: uninitialised but for a zero tip."""
        return cls(n, b, a, *(np.empty(s, COMPLEX) for s in stack_shapes(n, b, a)[:-1]))

    @classmethod
    def identity(cls, n: int, b: int, a: int = 0) -> "BtaMatrix":
        m = cls.zeros(n, b, a)
        idx = np.arange(b)
        m.diag[:, idx, idx] = 1.0
        np.fill_diagonal(m.tip, 1.0)
        return m

    def copy(self) -> "BtaMatrix":
        """A copy whose fields share no memory with this container's.

        The copy is one array, its fields consecutive views of it in
        ``BTA1`` payload order; a field keeps the whole array alive.  A
        copy of one huge page (2 MiB) or more starts on a 2 MiB boundary
        inside an array that numpy advises as huge pages, so the kernel
        can back it with huge pages rather than 4 KiB ones (see the
        README's performance note for what that saves and when).
        """
        nbytes = sum(x.nbytes for x in self.stacks)
        align = _HUGE_PAGE if nbytes >= _HUGE_PAGE else np.dtype(COMPLEX).itemsize
        buf = np.empty(nbytes + align, np.uint8)
        start = -buf.ctypes.data % align
        data = buf[start : start + nbytes].view(COMPLEX)
        np.concatenate([x.reshape(-1) for x in self.stacks], out=data)
        return _container(data, *self.shape_params)

    def pattern_blocks(self):
        """Yield ``(kind, index, block)`` over all pattern blocks."""
        for kind, stack in zip(self.FIELDS[:-1], self.stacks):
            for i, blk in enumerate(stack):
                yield (kind, i, blk)
        yield ("tip", 0, self.tip)

    def equals_exact(self, other: "BtaMatrix") -> bool:
        return self.shape_params == other.shape_params and all(
            np.array_equal(x, y) for x, y in zip(self.stacks, other.stacks)
        )

    def require_finite(self, name: str = "matrix") -> None:
        """Raise :class:`NonFiniteInputError` if any entry is NaN or infinite."""
        for field_name, stack in zip(self.FIELDS, self.stacks):
            # As float64 pairs: half the cost of the complex isfinite.
            if not np.isfinite(stack.reshape(-1).view(np.float64)).all():
                raise NonFiniteInputError(f"{name}.{field_name} has non-finite entries")

    def __repr__(self) -> str:
        return f"BtaMatrix(n={self.n}, b={self.b}, a={self.a})"


@dataclass
class SelectedSolution:
    """Pattern-restricted solution containers.

    ``x_a`` holds the selected entries of the inverse; ``x_b`` holds the
    selected entries of the quadratic solution, or None: its presence is
    the :attr:`mode`.
    """

    x_a: BtaMatrix
    x_b: BtaMatrix | None

    @property
    def mode(self) -> str:
        return "si" if self.x_b is None else "siq"

    def __post_init__(self):
        if self.x_b is not None and self.x_b.shape_params != self.x_a.shape_params:
            raise ShapeMismatchError("x_a and x_b shapes disagree")


# ---------------------------------------------------------------------------
# Deterministic generator
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, offset: int, count: int) -> np.ndarray:
    """Vectorized splitmix64 stream: outputs ``count`` values starting at
    position ``offset`` of the stream for ``seed``.

    The stream is a pure function of (seed, position), identical on every
    platform; this is the repository's pinned PRNG contract.
    """
    # In place: a whole field is drawn at once, and its temporaries are
    # as large as the field.
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _uniform_complex(seed: int, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """Complex array with real/imag parts i.i.d. uniform in [-1, 1), filled
    in C order from the stream, real part first."""
    count = 2 * math.prod(shape)
    if count == 0:
        return np.zeros(shape, dtype=COMPLEX)
    u = _splitmix64(seed, offset, count)
    u >>= np.uint64(11)
    d = u.astype(np.float64)
    del u
    d *= 2.0 ** -53  # [0, 1)
    d *= 2.0
    d -= 1.0
    return d.view(COMPLEX).reshape(shape)  # consecutive (real, imag) pairs


def generate_dd_bta(
    n: int, b: int, a: int, seed: int, dominance: float = 1.5
) -> BtaMatrix:
    """Generate a deterministic, diagonally dominant random BT(A) matrix.

    All pattern blocks are filled with i.i.d. complex entries whose real
    and imaginary parts are uniform in [-1, 1); then each global diagonal
    entry is shifted by ``dominance * (off-diagonal absolute row sum + 1)``
    along its own phase, so its modulus grows by exactly that amount and
    every row is strictly dominant for any ``dominance >= 1``.  The
    stream consumption order is diag, lower, upper, arrow_row, arrow_col,
    tip, block by block, so instances sharing ``(n, b, seed)`` draw
    identical BT blocks regardless of the arrow size (only the dominance
    shift on the diagonal entries sees the arrow mass).

    Deterministic: fixed ``(n, b, a, seed, dominance)`` reproduces the
    matrix bit-for-bit on any platform.
    """
    if n < 1 or b < 1 or a < 0:
        raise ValueError(f"invalid shape parameters (n={n}, b={b}, a={a})")
    if dominance < 1.0:
        raise ValueError(f"dominance must be >= 1, got {dominance}")

    # One draw per field reads the stream exactly as one draw per block.
    fields, offset = [], 0
    for shape in stack_shapes(n, b, a):
        fields.append(_uniform_complex(seed, offset, shape))
        offset += 2 * math.prod(shape)
    diag, lower, upper, arrow_row, arrow_col, tip = fields

    def shift_diagonal(blocks, rs):
        idx = np.arange(blocks.shape[-1])
        d = blocks[..., idx, idx]
        mag = np.abs(d)
        phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
        blocks[..., idx, idx] = d + dominance * (rs + 1.0) * phase

    idx = np.arange(b)
    rs = np.abs(diag).sum(axis=2) - np.abs(diag[:, idx, idx])
    rs[1:] += np.abs(lower).sum(axis=2)
    rs[:-1] += np.abs(upper).sum(axis=2)
    if a:
        rs += np.abs(arrow_col).sum(axis=2)
    shift_diagonal(diag, rs)
    if a:
        rs = np.abs(tip).sum(axis=1) - np.abs(np.diagonal(tip))
        for row_sums in np.abs(arrow_row).sum(axis=2):  # block order, as summed per block
            rs += row_sums
        shift_diagonal(tip, rs)

    return BtaMatrix(n, b, a, *fields)


# ---------------------------------------------------------------------------
# Dense bridges
# ---------------------------------------------------------------------------


def _block_grid(dense: np.ndarray, n: int, b: int) -> np.ndarray:
    """View of the leading ``n*b`` square of ``dense`` as ``(n, b, n, b)``:
    ``grid[i, :, j, :]`` is block ``(i, j)``."""
    return dense[: n * b, : n * b].reshape(n, b, n, b)


def to_dense(m: BtaMatrix) -> np.ndarray:
    """Expand to the full ``N x N`` dense array; off-pattern entries are zero."""
    n, b, a = m.shape_params
    nb = n * b
    big = np.zeros((m.total_size, m.total_size), dtype=COMPLEX)
    grid = _block_grid(big, n, b)
    i = np.arange(n)
    grid[i, :, i, :] = m.diag
    grid[i[1:], :, i[:-1], :] = m.lower
    grid[i[:-1], :, i[1:], :] = m.upper
    big[nb:, :nb] = m.arrow_row.transpose(1, 0, 2).reshape(a, nb)
    big[:nb, nb:] = m.arrow_col.reshape(nb, a)
    big[nb:, nb:] = m.tip
    return big


def mask_to_pattern(dense: np.ndarray, shape: tuple[int, int, int]) -> BtaMatrix:
    """Copy the in-pattern entries of a dense array into a fresh container.

    Raises
    ------
    ShapeMismatchError
        If ``dense`` is not ``N x N`` with ``N = n*b + a``.
    """
    n, b, a = shape
    nb = n * b
    total = nb + a
    dense = np.asarray(dense, dtype=COMPLEX)
    if dense.shape != (total, total):
        raise ShapeMismatchError(
            f"dense array has shape {dense.shape}, expected {(total, total)}"
        )
    grid = _block_grid(dense, n, b)
    i = np.arange(n)
    return BtaMatrix(
        n, b, a,
        grid[i, :, i, :],
        grid[i[1:], :, i[:-1], :],
        grid[i[:-1], :, i[1:], :],
        dense[nb:, :nb].reshape(a, n, b).transpose(1, 0, 2).copy(),
        dense[:nb, nb:].reshape(n, b, a).copy(),
        dense[nb:, nb:].copy(),
    )


def hermitianize(m: BtaMatrix) -> BtaMatrix:
    """Return ``(m + m^H) / 2`` restricted to the pattern.

    The result satisfies ``upper[i] == lower[i]^H``,
    ``arrow_col[i] == arrow_row[i]^H``, and Hermitian diag and tip
    blocks, making it a structurally Hermitian right-hand side.
    """
    return _signed_part(m, 1)


def _signed_part(m: BtaMatrix, sigma: int) -> BtaMatrix:
    """``(m + sigma·m^H) / 2`` restricted to the pattern, for ``sigma`` = ±1:
    exactly ``sigma`` times its own conjugate transpose, bit for bit."""
    op = np.add if sigma > 0 else np.subtract

    def mean_h(x, y):  # (x + sigma·y^H) / 2, block by block
        return op(x, y.conj().swapaxes(-1, -2)) / 2.0

    return BtaMatrix(
        m.n, m.b, m.a,
        mean_h(m.diag, m.diag),
        mean_h(m.lower, m.upper),
        mean_h(m.upper, m.lower),
        mean_h(m.arrow_row, m.arrow_col),
        mean_h(m.arrow_col, m.arrow_row),
        mean_h(m.tip, m.tip),
    )
