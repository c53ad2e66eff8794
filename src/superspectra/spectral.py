"""Exact integer Laplacian analytics: characteristic polynomials, integral
spectra and spanning-tree counts, all in exact arithmetic.

``analyze`` reads the spectrum and the tree count of a graph from one
characteristic polynomial, that of the twin quotient of its Laplacian.

The characteristic polynomial is computed modulo a batch of primes
(similarity reduction to Hessenberg form over F_p, then the leading-minor
recurrence) and the integer coefficients are recovered by Chinese
remaindering against a Hadamard-style bound.  Reduction mod p commutes with
det(xI - M), so every prime contributes a correct residue and no "unlucky
prime" handling is needed.  The primes are 26-bit up to order 2048 and
narrower above it, chosen so that every modular dot product of length N
stays inside int64, which lets numpy carry the O(N^3) inner loops.

The Kirchhoff cofactor (``integer_determinant``) is computed the same way,
by CRT against the Hadamard row-norm bound, but its residues come from a
blocked LU over a float32 stack of residues, one prime per layer, allocated
once per call and about 1.5 MB with its float64 temporaries.  Per panel of
16 columns, Gauss-Jordan on the diagonal block in float64 gives its pivots
and inverse, and the trailing matrix takes its Schur complement in row
blocks, each one batched float64 matmul on BLAS and one reduction mod p.
A Kirchhoff minor is symmetric, so symmetric int64 input keeps only the
lower triangle, packed in row blocks of about n**2 / 2 + 8n entries per
prime, and updates each row block only up to its diagonal, with no row
swaps.  A prime whose pivot is 0 there, and every prime of other input,
goes to the general LU over a (P, n, n) stack, which pivots from below.
The primes are 24-bit at every order, and two bounds are asserted at run
time: p < 2**24, below which float32 holds every residue exactly, and
16 * (p - 1)**2 + p < 2**53, below which float64 holds every sum of up to
16 products of residues and its rounding product exactly.  The two prime
widths come from one selector with an int64 budget (63 bits) for the char
poly and a float64 budget (53 bits) for the cofactor.

The spectrum and the eigenvalue tree count first reduce a graph Laplacian
along its twin classes.  Its closed twins (N[u] = N[v]) and open twins
(N(u) = N(v)) form an equitable partition, so the spectrum is that of a
k x k integer quotient plus s - 1 copies of deg + 1 (closed) or deg (open)
for each twin class of size s.  The lifts of this package are compositions
of cliques, so k stays small however large the group.  Graph input
(``analyze``, the eigenvalue tree count) is reduced straight from its bool
adjacency and its degrees, bit-packed rows giving both kinds of twins; the
N x N int64 Laplacian is built only for a graph with no twins, whose full
Laplacian is its own quotient, and for the Kirchhoff cofactor.  Matrix
input (``integral_spectrum``) counts as a graph Laplacian when it is
symmetric, its off-diagonal entries lie in {0, -1} and its rows sum to
zero, and then takes the same reduction through its -1 entries and its
diagonal; every other matrix is its own quotient.  The reduction is
certified by its dimension and its trace: tr Q + sum (s - 1) * eigenvalue
must equal the degree sum exactly.  ``char_poly`` and the Kirchhoff
cofactor always work on the matrix they are given, as the independent
paths the quotient is checked against, and ``char_poly`` checks its
reconstruction against one prime outside its CRT batch.

No rounded floating point enters any certified result: the Kirchhoff LU
uses float32 and float64 only as integer arithmetic inside the asserted
bounds.  Float eigensolvers are fine as an external diagnostic but are
never consulted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIntegral
from .graphs import SimpleGraph, _is_symmetric

_PRIME_BITS = 26
_INT64_BITS = 63  # int64 holds every integer below 2**63
_FLOAT64_BITS = 53  # float64 holds every integer below 2**53 exactly
_FLOAT32_BITS = 24  # float32 holds every integer below 2**24 exactly
_DET_PANEL = 16  # Kirchhoff LU panel width, and rows per block of its trailing update
# float32 residue stack of one batch of primes with its float64 temporaries:
# 4 * _packed_size(n) + 40 * _DET_PANEL * n bytes per prime for symmetric input,
# 7 primes at order 200 and 13 at 128; 4n**2 + 40 * _DET_PANEL * n for the
# general LU, 5 at order 200.  Larger stacks raise peak RSS (2 MB float64
# stacks: +10% on a catalog sweep).
_DET_STACK_BYTES = 3 << 19


# ---------------------------------------------------------------------------
# polynomials and spectra


@dataclass(frozen=True)
class IntegerPolynomial:
    """Dense univariate polynomial, exact integer coefficients low-to-high."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def synthetic_division(self, root: int) -> tuple["IntegerPolynomial", int]:
        """Quotient and remainder of division by (x - root)."""
        coeffs = self.coefficients
        quotient = [0] * max(len(coeffs) - 1, 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * root + coeffs[i]
            quotient[i - 1] = acc
        remainder = acc * root + coeffs[0]
        return IntegerPolynomial(tuple(quotient)), remainder

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                x = "x" if power == 1 else f"x^{power}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with multiplicities, strictly descending."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(v), int(m)) for v, m in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        values = [v for v, _ in pairs]
        if values != sorted(values, reverse=True) or len(set(values)) != len(values):
            raise ValueError("eigenvalues must be strictly descending")
        if any(m < 1 for _, m in pairs):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_pairs(cls, pairs) -> "SpectrumMultiset":
        """Normalise arbitrary (value, multiplicity) pairs: merge coincident
        values, drop zero multiplicities, sort descending."""
        merged: dict[int, int] = {}
        for value, multiplicity in pairs:
            if multiplicity:
                merged[int(value)] = merged.get(int(value), 0) + int(multiplicity)
        return cls(tuple(sorted(merged.items(), reverse=True)))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def weighted_sum(self) -> int:
        return sum(v * m for v, m in self.pairs)

    def multiplicity(self, value: int) -> int:
        return dict(self.pairs).get(int(value), 0)

    def compact(self) -> str:
        return " ".join(f"{v}^{m}" for v, m in self.pairs)


# ---------------------------------------------------------------------------
# matrix plumbing


def _as_square_int_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.dtype == object:
        return np.array([[int(x) for x in row] for row in m], dtype=object)
    if not np.issubdtype(m.dtype, np.integer):
        raise TypeError("exact routines accept integer matrices only")
    return m.astype(np.int64, copy=False)


def _mod_reduce(matrix: np.ndarray, p: int) -> np.ndarray:
    return (matrix % p).astype(np.int64)


def laplacian(graph: SimpleGraph) -> np.ndarray:
    """Degree matrix minus adjacency matrix, as int64: one N x N array, the
    adjacency cast and negated in place, degrees written to its diagonal."""
    lap = graph.adjacency.astype(np.int64)
    np.negative(lap, out=lap)
    lap[np.diag_indices_from(lap)] = graph.degrees()
    return lap


# ---------------------------------------------------------------------------
# prime batches

_SMALL_PRIMES: list[int] = []
_PRIMES: dict[int, list[int]] = {}  # bit width -> descending primes below 2**width


def _small_primes() -> list[int]:
    if not _SMALL_PRIMES:
        limit = 1 << 13  # covers trial division up to 2^26
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for q in range(2, int(limit ** 0.5) + 1):
            if sieve[q]:
                sieve[q * q :: q] = False
        _SMALL_PRIMES.extend(int(q) for q in np.flatnonzero(sieve))
    return _SMALL_PRIMES


def _ensure_primes(width: int, count: int) -> list[int]:
    primes = _PRIMES.setdefault(width, [])
    small = _small_primes()
    candidate = primes[-1] - 2 if primes else (1 << width) - 1
    while len(primes) < count:
        if all(candidate % q for q in small):
            primes.append(candidate)
        candidate -= 2
    return primes


def _prime_width(n: int, budget: int = _INT64_BITS) -> int:
    """Widest prime width, at most 26 bits, for which a sum of n products of
    two residues plus one more residue stays below 2**budget:
    n * (p - 1)**2 + p < 2**budget for every p < 2**width.

    Budget 63 is int64, for the Hessenberg dot products of length n: 26 bits
    up to n = 2048, 25 bits from 2049.  Budget 53 is the range in which
    float64 holds every integer exactly, for the Kirchhoff LU, whose longest
    dot product is ``_DET_PANEL`` = 16 at every order: 24 bits up to n = 32.
    Its float32 stack caps its primes at 24 bits as well."""
    width = _PRIME_BITS
    while n * ((1 << width) - 2) ** 2 + (1 << width) - 1 >= 1 << budget:
        width -= 1
    return width


def _prime_batch(bits: float, width: int = _PRIME_BITS) -> list[int]:
    """Enough descending primes below 2**width for a modulus above 2**bits."""
    got = 0.0
    count = 0
    while got <= bits:
        count += 1
        got += math.log2(_ensure_primes(width, count)[count - 1])
    return _PRIMES[width][:count]


# ---------------------------------------------------------------------------
# modular characteristic polynomial


def _hessenberg_inplace(h: np.ndarray, p: int) -> None:
    """Similarity-reduce to upper Hessenberg form over F_p, pivoting within
    each column; entries stay reduced mod p."""
    n = h.shape[0]
    for j in range(n - 2):
        col = h[j + 1 :, j]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv], :] = h[[piv, j + 1], :]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv = pow(int(h[j + 1, j]), p - 2, p)
        mult = (h[j + 2 :, j] * inv) % p
        h[j + 2 :, :] = (h[j + 2 :, :] - mult[:, None] * h[j + 1, :]) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ mult) % p


def _hessenberg_charpoly(h: np.ndarray, p: int) -> np.ndarray:
    """char poly mod p of an upper Hessenberg matrix via the leading-minor
    recurrence; returns N+1 coefficients low-to-high."""
    n = h.shape[0]
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1, :k]
        polys[k, 1 : k + 1] = prev
        polys[k, :k] = (polys[k, :k] - int(h[k - 1, k - 1]) * prev) % p
        if k >= 2:
            weights = np.zeros(k - 1, dtype=np.int64)
            prod = 1
            for i in range(k - 2, -1, -1):
                prod = (prod * int(h[i + 1, i])) % p
                if prod == 0:
                    break
                weights[i] = (int(h[i, k - 1]) * prod) % p
            if weights.any():
                corr = (weights @ polys[: k - 1, :k]) % p
                polys[k, :k] = (polys[k, :k] - corr) % p
    return polys[n]


def _square_norms(m: np.ndarray, axis: int) -> list[int]:
    """Exact squared Euclidean norms of the rows (axis=1) or the columns
    (axis=0) of a nonempty matrix, summed in int64 when n * max|a|**2 < 2**63
    and in Python ints otherwise."""
    if m.dtype != object:
        top = max(-int(m.min()), int(m.max()))
        if m.shape[axis] * top * top < 1 << _INT64_BITS:
            return (m * m).sum(axis=axis).tolist()
    m = m.astype(object)
    return (m * m).sum(axis=axis).tolist()


def _charpoly_coeff_bits(m: np.ndarray) -> float:
    """log2 bound on |char poly coefficients|: each coefficient is a signed
    sum of at most C(N,k) principal minors, each Hadamard-bounded by the
    largest column norm to the k-th power."""
    n = m.shape[0]
    max_norm_sq = max(1, *_square_norms(m, axis=0))
    return n * (1.0 + 0.5 * math.log2(max_norm_sq)) + 2


def _crt_columns(residues: np.ndarray, primes: list[int]) -> list[int]:
    """Symmetric-range CRT per column of a (len(primes), width) table."""
    modulus = math.prod(primes)
    half = modulus // 2
    basis = []
    for p in primes:
        m = modulus // p
        basis.append(m * pow(m % p, -1, p))
    out = []
    for col in range(residues.shape[1]):
        acc = 0
        for i in range(len(primes)):
            acc += int(residues[i, col]) * basis[i]
        acc %= modulus
        if acc > half:
            acc -= modulus
        out.append(acc)
    return out


def _charpoly_mod(m: np.ndarray, p: int) -> np.ndarray:
    """det(xI - M) mod p, N + 1 coefficients low-to-high."""
    h = _mod_reduce(m, p)
    _hessenberg_inplace(h, p)
    return _hessenberg_charpoly(h, p)


def char_poly(matrix) -> IntegerPolynomial:
    """Exact det(xI - M) for a square integer matrix.

    The coefficients are reconstructed from a batch of primes, then reduced
    mod the next prime of the same width, outside the batch, and compared
    with that prime's own residues: a wrong residue anywhere in the batch
    fails the comparison, even when its reconstruction stays in bound."""
    m = _as_square_int_matrix(matrix)
    n = m.shape[0]
    if n == 0:
        return IntegerPolynomial((1,))
    width = _prime_width(n)
    primes = _prime_batch(_charpoly_coeff_bits(m) + 1, width)
    residues = np.empty((len(primes), n + 1), dtype=np.int64)
    for i, p in enumerate(primes):
        residues[i] = _charpoly_mod(m, p)
    coefficients = _crt_columns(residues, primes)
    poly = IntegerPolynomial(tuple(coefficients))
    if poly.degree != n or not poly.is_monic:
        raise AssertionError("characteristic polynomial reconstruction out of bound")
    check = _ensure_primes(width, len(primes) + 1)[len(primes)]
    if [c % check for c in coefficients] != _charpoly_mod(m, check).tolist():
        raise AssertionError("characteristic polynomial fails its extra-prime certificate")
    return poly


# ---------------------------------------------------------------------------
# exact determinant


def _check_float64_sums(length: int, top: int) -> None:
    """Refuse sums of ``length`` residue products, plus a residue, past float64's exact range."""
    if length * (top - 1) ** 2 + top >= 1 << _FLOAT64_BITS:
        raise AssertionError("sum of products too long for exact float64 arithmetic")


def _reduce(c: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> None:
    """c <- c - rint(c / p) * p in place, which leaves |c| <= p/2 + 2."""
    q = c * p_inv
    np.rint(q, out=q)
    q *= p
    c -= q


def _pivot_from_below(
    a: np.ndarray, g: np.ndarray, j0: int, t: int, p: np.ndarray, p_inv: np.ndarray
) -> int:
    """Give one prime a nonzero pivot in column t of the panel at j0; ``a``
    and ``g`` are its layers of the stack and of the Gauss-Jordan state.

    Takes the first nonzero at or below the diagonal: block rows from ``g``,
    rows below the block brought up to date for this column alone.  Swaps
    that row with the diagonal row in the stack and rebuilds the two rows'
    Gauss-Jordan state from it.  Returns the swap count, 0 or 1."""
    w = g.shape[0]
    j1 = j0 + w
    done = g[:t, t:]
    _reduce(done, p, p_inv)
    low = a[j1:, j0 + t] - a[j1:, j0 : j0 + t] @ done[:, 0]
    _reduce(low, p, p_inv)
    nonzero = np.flatnonzero(np.concatenate([g[t + 1 :, t], low]))
    if nonzero.size == 0:
        return 0
    r = j0 + t + 1 + int(nonzero[0])
    a[[j0 + t, r], j0:] = a[[r, j0 + t], j0:]
    for i in (t, r - j0) if r < j1 else (t,):
        g[i, t:w] = a[j0 + i, j0 + t : j1]
        g[i, w:] = np.arange(w) == i
        g[i, t:] -= a[j0 + i, j0 : j0 + t] @ done
        _reduce(g[i, t:], p, p_inv)
    return 1


def _det_mod_stack(m: np.ndarray, primes: list[int], stack: np.ndarray | None = None) -> list[int]:
    """det m mod p for each prime, by one blocked LU over a (P, n, n) float32
    stack of residues, one prime per layer, held in ``stack`` when given.

    Right-looking, ``_DET_PANEL`` = b columns at a time.  Gauss-Jordan on
    the diagonal block A11, in float64 and augmented by the identity, gives
    its pivots and A11^-1; the trailing matrix then becomes the Schur
    complement A22 - A21 (A11^-1 A12), a block of b rows at a time, each
    with one batched matmul and one reduction.  A prime whose diagonal
    residue is zero pivots on the first nonzero at or below the diagonal
    (``_pivot_from_below``), swapping whole rows of the stack; a prime with
    no pivot in some column gets a zero on its diagonal.  Columns left of
    the panel are never read again.

    Exactness: the reduction leaves |r| <= p/2 + 2, so a residue is zero
    exactly when it is 0 mod p, and float32 stores every residue exactly
    while p < 2**24.  Between two reductions an entry gathers at most k
    products of two reduced factors: k = w - 1 in the Gauss-Jordan state of
    a panel of width w and in the rows ``_pivot_from_below`` brings up to
    date, k = w in A11^-1 A12 and in the trailing update.  It and its
    rounding product then stay below k * (p - 1)**2 + p for p > 16, which is
    checked against 2**53 before each such sum is formed.
    """
    n = m.shape[0]
    top = max(primes)
    if top >= 1 << _FLOAT32_BITS:
        raise AssertionError("prime too wide for exact float32 storage")
    a = np.empty((len(primes), n, n), dtype=np.float32) if stack is None else stack[: len(primes)]
    for i, q in enumerate(primes):
        np.remainder(m, q, out=a[i], casting="unsafe")
    p = np.array(primes, dtype=np.float64)[:, None, None]
    p_inv = 1.0 / p
    swaps = np.zeros(len(primes), dtype=np.int64)
    diagonal = np.empty((len(primes), n))
    for j0 in range(0, n, _DET_PANEL):
        j1 = min(j0 + _DET_PANEL, n)
        w = j1 - j0
        _check_float64_sums(w - 1, top)
        eye = np.broadcast_to(np.eye(w), (len(primes), w, w))
        g = np.concatenate((a[:, j0:j1, j0:j1], eye), axis=2, dtype=np.float64)
        for t in range(w):
            column = g[:, :, t]
            _reduce(column, p[:, 0], p_inv[:, 0])
            if not column[:, t].all():
                for s in np.flatnonzero(column[:, t] == 0):
                    swaps[s] += _pivot_from_below(a[s], g[s], j0, t, p[s, 0], p_inv[s, 0])
            pivots = column[:, t].tolist()
            diagonal[:, j0 + t] = pivots
            row = g[:, t, t + 1 :]
            _reduce(row, p[:, 0], p_inv[:, 0])
            row *= np.array([pow(int(v), -1, q) if v else 0 for v, q in zip(pivots, primes)])[:, None]
            _reduce(row, p[:, 0], p_inv[:, 0])
            column[:, t] = 0
            g[:, :, t + 1 :] -= column[:, :, None] * row[:, None, :]
        if j1 == n:
            break
        _check_float64_sums(w, top)
        a11_inv = g[:, :, w:]
        _reduce(a11_inv, p, p_inv)
        x = np.matmul(a11_inv, a[:, j0:j1, j1:].astype(np.float64))
        _reduce(x, p, p_inv)
        for r0 in range(j1, n, _DET_PANEL):
            r1 = min(r0 + _DET_PANEL, n)
            c = np.matmul(a[:, r0:r1, j0:j1].astype(np.float64), x)
            np.subtract(a[:, r0:r1, j1:], c, out=c)
            _reduce(c, p, p_inv)
            a[:, r0:r1, j1:] = c
    residues = diagonal.astype(np.int64).tolist()
    return [(-1) ** int(t) * math.prod(d) % q for d, t, q in zip(residues, swaps, primes)]


def _packed_size(n: int) -> int:
    """Entries per prime of the packed lower triangle: row block i of
    ``_DET_PANEL`` rows holds columns 0 .. min(b (i + 1), n)."""
    b = _DET_PANEL
    return sum((min(r0 + b, n) - r0) * min(r0 + b, n) for r0 in range(0, n, b))


def _det_mod_stack_symmetric(
    m: np.ndarray, primes: list[int], stack: np.ndarray | None = None
) -> list[int | None]:
    """det m mod p for each prime, for symmetric m: blocked LDL^T with no
    row swaps over the packed lower triangle, one prime per row of a
    float32 stack of ``_packed_size(n)`` entries each, held in ``stack``
    when given.

    Row block i of the packed layout holds columns 0 .. min(b (i + 1), n),
    b = ``_DET_PANEL``, so each b x b diagonal block is stored in full.
    Per panel, Gauss-Jordan in float64 inverts the diagonal block A11 in
    place, its pivots being those of the elimination; X = A11^-1 A21^T,
    and each later row block takes the Schur complement A22 - A21 X from
    column j1 up to its own diagonal, which keeps the trailing matrix
    symmetric.  With no swaps a zero pivot cannot be avoided: the residue
    of that prime comes back as None, for the general ``_det_mod_stack``
    to recompute.

    Exactness is argued as in ``_det_mod_stack``: the in-place Gauss-Jordan
    forms at most w - 1 products of reduced factors between two reductions
    of an entry, X and the trailing update w, both checked against 2**53.
    """
    n = m.shape[0]
    top = max(primes)
    if top >= 1 << _FLOAT32_BITS:
        raise AssertionError("prime too wide for exact float32 storage")
    count = len(primes)
    if stack is None:
        stack = np.empty((count, _packed_size(n)), dtype=np.float32)
    moduli = np.array(primes, dtype=np.int64)[:, None, None]
    blocks = []
    offset = 0
    for r0 in range(0, n, _DET_PANEL):
        r1 = min(r0 + _DET_PANEL, n)
        block = stack[:count, offset : offset + (r1 - r0) * r1].reshape(count, r1 - r0, r1)
        np.remainder(m[r0:r1, :r1], moduli, out=block, casting="unsafe")
        blocks.append(block)
        offset += (r1 - r0) * r1
    p = np.array(primes, dtype=np.float64)[:, None, None]
    p_inv = 1.0 / p
    failed = np.zeros(count, dtype=bool)
    diagonal = np.empty((count, n))
    for j, block in enumerate(blocks):
        j0 = j * _DET_PANEL
        j1 = block.shape[2]
        w = j1 - j0
        _check_float64_sums(w - 1, top)
        g = block[:, :, j0:j1].astype(np.float64)
        for t in range(w):
            column = g[:, :, t].copy()
            _reduce(column, p[:, 0], p_inv[:, 0])
            pivots = column[:, t].tolist()
            diagonal[:, j0 + t] = pivots
            if not all(pivots):
                failed |= column[:, t] == 0
            column[:, t] = 0
            g[:, :, t] = 0
            g[:, t, t] = 1
            row = g[:, t, :]
            _reduce(row, p[:, 0], p_inv[:, 0])
            row *= np.array([pow(int(v), -1, q) if v else 0 for v, q in zip(pivots, primes)])[:, None]
            _reduce(row, p[:, 0], p_inv[:, 0])
            g -= column[:, :, None] * row[:, None, :]
        if j1 == n:
            break
        _check_float64_sums(w, top)
        _reduce(g, p, p_inv)
        below = np.concatenate([b[:, :, j0:j1] for b in blocks[j + 1 :]], axis=1, dtype=np.float64)
        x = np.matmul(g, below.transpose(0, 2, 1))
        _reduce(x, p, p_inv)
        for b in blocks[j + 1 :]:
            r1 = b.shape[2]
            c = np.matmul(below[:, r1 - b.shape[1] - j1 : r1 - j1], x[:, :, : r1 - j1])
            np.subtract(b[:, :, j1:], c, out=c)
            _reduce(c, p, p_inv)
            b[:, :, j1:] = c
    residues = diagonal.astype(np.int64).tolist()
    return [None if bad else math.prod(d) % q for d, bad, q in zip(residues, failed, primes)]


def _stacked_residues(routine, m: np.ndarray, primes: list[int], layer: tuple, charge: int) -> list:
    """``routine`` over batches of ``primes``, in one float32 stack of
    ``layer``-shaped layers sized so that ``charge`` bytes per prime fit
    ``_DET_STACK_BYTES``, allocated once and reused for every batch."""
    per_stack = min(len(primes), max(1, _DET_STACK_BYTES // charge))
    stack = np.empty((per_stack, *layer), dtype=np.float32)
    residues = []
    for start in range(0, len(primes), per_stack):
        residues += routine(m, primes[start : start + per_stack], stack)
    return residues


def _det_residues(m: np.ndarray, primes: list[int]) -> list[int]:
    """det m mod p for each prime.  Symmetric int64 input takes the packed
    symmetric LU; the primes it leaves without a pivot, and every prime of
    other input, take the general LU.  Each runs in its own stack, the
    packed one freed before the general one is allocated."""
    n = m.shape[0]
    temporaries = 40 * _DET_PANEL * n  # bytes per prime of float64 panels and update blocks
    residues: list = [None] * len(primes)
    if m.dtype != object and _is_symmetric(m):
        size = _packed_size(n)
        residues = _stacked_residues(_det_mod_stack_symmetric, m, primes, (size,), 4 * size + temporaries)
    failed = [q for q, r in zip(primes, residues) if r is None]
    if failed:
        redone = iter(_stacked_residues(_det_mod_stack, m, failed, (n, n), 4 * n * n + temporaries))
        residues = [next(redone) if r is None else r for r in residues]
    return residues


def integer_determinant(matrix) -> int:
    """Exact determinant: blocked modular LU on float32 stacks of primes,
    packed to the lower triangle for symmetric input, then CRT against the
    Hadamard row-norm bound."""
    m = _as_square_int_matrix(matrix)
    n = m.shape[0]
    if n == 0:
        return 1
    bits = 1.0
    for norm_sq in _square_norms(m, axis=1):
        bits += 0.5 * math.log2(max(1, norm_sq))
    width = min(_FLOAT32_BITS, _prime_width(_DET_PANEL, _FLOAT64_BITS))
    primes = _prime_batch(bits + 1, width)
    return _crt_columns(np.array(_det_residues(m, primes), dtype=np.int64)[:, None], primes)[0]


# ---------------------------------------------------------------------------
# twin quotient


def _is_graph_laplacian(m: np.ndarray) -> bool:
    """Symmetric, off-diagonal entries in {0, -1}, zero row sums.  Entries
    above 0 or below -1 are counted and must all lie on the diagonal, so no
    N x N integer copy is made."""
    if m.dtype == object or not _is_symmetric(m):
        return False
    diagonal = np.diagonal(m)
    return bool(
        np.count_nonzero(m > 0) == np.count_nonzero(diagonal > 0)
        and np.count_nonzero(m < -1) == np.count_nonzero(diagonal < -1)
        and not m.sum(axis=1).any()
    )


def _twin_classes(packed: np.ndarray) -> list[list[int]]:
    """Indices of identical bit-packed rows, in classes of two or more."""
    classes: dict[bytes, list[int]] = {}
    for v, row in enumerate(packed):
        classes.setdefault(row.tobytes(), []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def _quotient_by_twins(
    adj: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray | None, list[tuple[int, int]]]:
    """Reduce the Laplacian of a graph, given by its bool adjacency and its
    degrees, along its closed- and open-twin classes.

    Returns the quotient Q and the (eigenvalue, multiplicity) pairs the
    classes split off, or (None, []) when there are no twins.  A class of
    size s carries s - 1 eigenvectors that live on it and sum to zero
    there, with eigenvalue deg + 1 (closed twins, a clique) or deg (open
    twins, an independent set).  The remaining k eigenvalues are those of
    Q, indexed by one representative per class: its degree less its
    in-class neighbours on the diagonal, minus the size of each adjacent
    class off it.  No vertex has both a closed and an open twin, so the
    classes are disjoint.  The closed neighbourhoods are the bit-packed
    rows with each vertex's own bit set, so no N x N array is made.
    """
    n = adj.shape[0]
    # a symmetric adjacency equals its transpose: pack along the contiguous axis
    packed = np.packbits(adj.T if adj.flags.f_contiguous else adj, axis=1)
    closed_rows = packed.copy()
    v = np.arange(n)
    closed_rows[v, v >> 3] |= (0x80 >> (v & 7)).astype(np.uint8)
    closed = _twin_classes(closed_rows)
    open_ = _twin_classes(packed)
    if not closed and not open_:
        return None, []
    keep = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    inner = np.zeros(n, dtype=np.int64)
    twins = []
    for in_class, classes in ((1, closed), (0, open_)):
        for cls in classes:
            rep, size = cls[0], len(cls)
            keep[cls[1:]] = False
            sizes[rep] = size
            inner[rep] = in_class * (size - 1)
            twins.append((int(degrees[rep]) + in_class, size - 1))
    reps = np.flatnonzero(keep)
    quotient = np.diag(degrees[reps] - inner[reps]) - adj[np.ix_(reps, reps)] * sizes[reps]
    return quotient, twins


def _twin_quotient(m: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """``_quotient_by_twins`` for a matrix that passes the graph-Laplacian
    test, read through its -1 entries and its diagonal.  Input that is not
    a graph Laplacian, or has no twins, is returned as its own quotient."""
    if not _is_graph_laplacian(m):
        return m, []
    quotient, twins = _quotient_by_twins(m == -1, np.diagonal(m))
    return (m, []) if quotient is None else (quotient, twins)


def _checked_char_poly(
    quotient: np.ndarray, twins: list[tuple[int, int]], n: int, trace: int
) -> IntegerPolynomial:
    """char poly of a twin quotient, checked against the order n and the
    trace of the Laplacian it reduces."""
    poly = char_poly(quotient)
    quotient_trace = -poly.coefficients[-2] if poly.degree >= 1 else 0
    if (
        poly.degree + sum(mult for _, mult in twins) != n
        or quotient_trace + sum(value * mult for value, mult in twins) != trace
    ):
        raise AssertionError("twin quotient fails the dimension or trace identity")
    return poly


def _graph_char_poly(graph: SimpleGraph) -> tuple[IntegerPolynomial, list[tuple[int, int]]]:
    """char poly of the twin quotient of a graph's Laplacian and the twin
    pairs, read from the adjacency and the degrees.  ``SimpleGraph`` is
    bool, symmetric and loop-free, so no Laplacian test is needed, and the
    int64 Laplacian is built only when there are no twins."""
    degrees = graph.degrees()
    quotient, twins = _quotient_by_twins(graph.adjacency, degrees)
    if quotient is None:
        quotient = laplacian(graph)
    return _checked_char_poly(quotient, twins, graph.vertex_count, int(degrees.sum())), twins


# ---------------------------------------------------------------------------
# integral spectra and spanning trees


def decimal_string(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str`` refuses integers longer than ``sys.get_int_max_str_digits()``
    (4300 digits by default), which tree counts pass at a few thousand
    vertices.  ``decimal.Decimal`` converts from the binary representation
    exactly at any size, so the interpreter-wide limit is left as it is.
    """
    import decimal  # here, not at the top: it adds about 5 ms to every package import

    return str(decimal.Decimal(value))


def _split_spectrum(
    poly: IntegerPolynomial, twins: list[tuple[int, int]], n: int
) -> tuple[SpectrumMultiset, IntegerPolynomial]:
    """The roots in 0..n of the quotient char poly, merged with the twin
    eigenvalues, and the factor those roots leave."""
    pairs, residual = factor_integer_roots(poly, n)
    return SpectrumMultiset.from_pairs(pairs + tuple(twins)), residual


def _eigenvalue_tree_count(poly: IntegerPolynomial, twins: list[tuple[int, int]], n: int) -> int:
    """Product of the nonzero Laplacian eigenvalues over n: the degree-one
    coefficient of the quotient char poly, times the twin eigenvalues."""
    c1 = poly.coefficients[1] if poly.degree >= 1 else 0
    signed = c1 if (poly.degree - 1) % 2 == 0 else -c1
    trees, rem = divmod(math.prod(value**mult for value, mult in twins) * signed, n)
    if rem != 0 or trees < 0:
        raise AssertionError("eigenvalue product is not a valid tree count")
    return trees


def integral_spectrum(matrix) -> SpectrumMultiset:
    """Full eigenvalue multiset of an integral-spectrum symmetric matrix.

    Laplacian eigenvalues lie in [0, N], so the integer candidates 0..N are
    complete.  They are split off the characteristic polynomial of the twin
    quotient, and the twin eigenvalues are merged in.  Raises
    :class:`NotIntegral` when the candidates do not exhaust the spectrum.
    """
    m = _as_square_int_matrix(matrix)
    quotient, twins = _twin_quotient(m)
    poly = _checked_char_poly(quotient, twins, m.shape[0], int(np.trace(m)))
    spectrum, residual = _split_spectrum(poly, twins, m.shape[0])
    if residual.degree > 0:
        raise NotIntegral(residual=residual, partial=spectrum.pairs)
    return spectrum


@dataclass(frozen=True)
class LaplacianAnalysis:
    """Spectrum and tree count of one graph, read from one char poly.

    ``spectrum`` holds the integer eigenvalues found, twin eigenvalues
    included; ``residual`` is the factor of the char poly they leave, the
    constant 1 exactly when the graph is Laplacian-integral; ``trees`` is
    the product of the nonzero eigenvalues over the vertex count.
    """

    spectrum: SpectrumMultiset
    residual: IntegerPolynomial
    trees: int

    @property
    def integral(self) -> bool:
        return self.residual.degree == 0


def _vertex_count(graph: SimpleGraph) -> int:
    n = graph.vertex_count
    if n == 0:
        raise ValueError("graph has an empty vertex set: its Laplacian has no spectrum or tree count")
    return n


def analyze(graph: SimpleGraph) -> LaplacianAnalysis:
    """Spectrum, residual and eigenvalue tree count of a graph's Laplacian,
    from one characteristic polynomial of its twin quotient.  Never raises
    :class:`NotIntegral`; the Kirchhoff cofactor is left to the caller.
    Raises ``ValueError`` for a graph with no vertices."""
    n = _vertex_count(graph)
    poly, twins = _graph_char_poly(graph)
    spectrum, residual = _split_spectrum(poly, twins, n)
    return LaplacianAnalysis(spectrum, residual, _eigenvalue_tree_count(poly, twins, n))


def spanning_tree_count(graph: SimpleGraph, method: str = "both") -> int:
    """Number of spanning trees (0 when disconnected).

    ``eigenvalues`` reads the product of the nonzero Laplacian eigenvalues
    off the degree-one coefficient of the twin quotient's characteristic
    polynomial, times the twin eigenvalues; ``determinant`` takes the
    Kirchhoff cofactor (reduced-Laplacian determinant) of the full
    Laplacian.  ``both`` computes the two independently and insists they
    agree.  Raises ``ValueError`` for a graph with no vertices.
    """
    if method not in ("both", "eigenvalues", "determinant"):
        raise ValueError(f"unknown method {method!r}")
    n = _vertex_count(graph)
    by_eigen = by_det = None
    if method in ("eigenvalues", "both"):
        by_eigen = _eigenvalue_tree_count(*_graph_char_poly(graph), n)
    if method in ("determinant", "both"):
        by_det = integer_determinant(laplacian(graph)[1:, 1:])
        if by_det < 0:
            raise AssertionError("Kirchhoff cofactor came out negative")
    if method == "eigenvalues":
        return by_eigen
    if method == "determinant":
        return by_det
    if by_eigen != by_det:
        raise AssertionError(
            f"tree-count paths disagree: {decimal_string(by_eigen)} vs {decimal_string(by_det)}"
        )
    return by_det


def factor_integer_roots(poly: IntegerPolynomial, upper: int) -> tuple[tuple[tuple[int, int], ...], IntegerPolynomial]:
    """Split off all roots in 0..upper, descending; returns (pairs, residual)."""
    pairs = []
    remainder = poly
    for t in range(upper, -1, -1):
        mult = 0
        while remainder(t) == 0:
            remainder = remainder.synthetic_division(t)[0]
            mult += 1
        if mult:
            pairs.append((t, mult))
    return tuple(pairs), remainder
