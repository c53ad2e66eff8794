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
blocked LDL^T with no row swaps over a float32 stack that holds the packed
lower triangle of the minor for a batch of primes, allocated once per call
and about 1.5 MB with its float64 temporaries.  Per 16-column panel,
Gauss-Jordan on the diagonal block in float64 gives its pivots and
inverse, and each later row block takes its Schur complement up to its
diagonal, one batched float64 matmul on BLAS and one reduction mod p.  The
leading minors of a connected graph's Kirchhoff minor count rooted
spanning forests (the all-minors matrix-tree theorem), so none is 0, and a
prime that meets a zero pivot is replaced by the next; a disconnected
graph reaches no cofactor.  The primes are 24-bit at every order, and two
bounds are asserted at run time: p < 2**24, below which float32 holds
every residue exactly, and 16 * (p - 1)**2 + p < 2**53, below which
float64 holds every sum of up to 16 products of residues and its rounding
product exactly.  The two prime widths come from one selector with an
int64 budget (63 bits) for the char poly and a float64 budget (53 bits)
for the cofactor.

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

import itertools
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
# 4 * _packed_size(n) + 40 * _DET_PANEL * n bytes per prime, 7 primes at
# order 200 and 13 at 128.  Larger stacks raise peak RSS (2 MB float64
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
    """At least ``count`` primes of exactly ``width`` bits, descending.
    ``_prime_width`` and the Kirchhoff drop bound rely on every one lying
    above 2**(width - 1), so running out of them is an error."""
    primes = _PRIMES.setdefault(width, [])
    small = _small_primes()
    candidate = primes[-1] - 2 if primes else (1 << width) - 1
    while len(primes) < count:
        if candidate <= 1 << (width - 1):
            raise AssertionError(f"fewer than {count} primes of {width} bits")
        if all(candidate % q for q in itertools.takewhile(lambda q: q * q <= candidate, small)):
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


def _packed_size(n: int) -> int:
    """Entries per prime of the packed lower triangle: row block i of
    ``_DET_PANEL`` rows holds columns 0 .. min(b (i + 1), n)."""
    b = _DET_PANEL
    return sum((min(r0 + b, n) - r0) * min(r0 + b, n) for r0 in range(0, n, b))


def _det_mod_stack_symmetric(m: np.ndarray, primes: list[int], stack: np.ndarray) -> tuple[list[int], list[int]]:
    """det m mod p for each prime, for symmetric m: blocked LDL^T with no
    row swaps over the packed lower triangle, one prime per row of the
    float32 ``stack``, whose rows hold ``_packed_size(n)`` entries or more.

    Row block i of the packed layout holds columns 0 .. min(b (i + 1), n),
    b = ``_DET_PANEL``, so each b x b diagonal block is stored in full.
    Per panel, Gauss-Jordan in float64 inverts the diagonal block A11 in
    place, its pivots being those of the elimination; X = A11^-1 A21^T,
    and each later row block takes the Schur complement A22 - A21 X from
    column j1 up to its own diagonal, which keeps the trailing matrix
    symmetric.  Columns left of the panel are never read again.

    With no swaps the k-th pivot is D_k / D_(k-1) mod p, D_k the k-th
    leading principal minor.  Returns the residues and, for each prime, the
    first k < n with p | D_k, whose residue is then invalid, or 0.  A zero
    at the last pivot is det m = 0 mod p, a valid residue.

    Exactness: the reduction leaves |r| <= p/2 + 2, so a residue is zero
    exactly when it is 0 mod p, and float32 stores every residue exactly
    while p < 2**24.  Between two reductions an entry gathers at most k
    products of two reduced factors: k = w - 1 in the Gauss-Jordan of a
    panel of width w, k = w in X and in the trailing update.  It and its
    rounding product then stay below k * (p - 1)**2 + p for p > 16, which
    is checked against 2**53 before each such sum is formed.
    """
    n = m.shape[0]
    top = max(primes)
    if top >= 1 << _FLOAT32_BITS:
        raise AssertionError("prime too wide for exact float32 storage")
    count = len(primes)
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
    zero_at = np.zeros(count, dtype=np.int64)
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
            if not all(pivots) and j0 + t < n - 1:
                zero_at[(column[:, t] == 0) & (zero_at == 0)] = j0 + t + 1
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
    return [math.prod(d) % q for d, q in zip(residues, primes)], zero_at.tolist()


def integer_determinant(matrix) -> int:
    """Exact determinant of a symmetric integer matrix whose leading
    principal minors D_1 .. D_(n-1) are nonzero, as those of the Kirchhoff
    minor of a connected graph are: blocked modular LDL^T on float32 stacks
    of primes, then CRT against the Hadamard row-norm bound.

    A prime that divides some D_k, k < n, meets a zero pivot and is
    replaced by the next prime of its width w.  The primes dropped at pivot
    k are distinct divisors of D_k above 2**(w - 1), and |D_k| <= H_k, the
    Hadamard bound of the first k rows, so at most log2(H_k) / (w - 1) of
    them can be dropped there; one more proves D_k = 0.  Raises
    ``ValueError`` for object-dtype or non-symmetric input, before any
    stack is allocated, and for a vanishing D_k, k < n.
    """
    m = _as_square_int_matrix(matrix)
    if m.dtype == object or not _is_symmetric(m):
        raise ValueError("integer_determinant takes a symmetric matrix of int64 entries")
    n = m.shape[0]
    if n == 0:
        return 1
    # log2 H_k for k = 1 .. n; c primes above 2**(w - 1) multiply to more than
    # 2**(c (w - 1)) by a margin far above the rounding of these sums
    leading = list(itertools.accumulate(0.5 * math.log2(max(1, s)) for s in _square_norms(m, axis=1)))
    bits = leading[-1] + 2
    width = min(_FLOAT32_BITS, _prime_width(_DET_PANEL, _FLOAT64_BITS))
    primes = _prime_batch(bits, width)
    size = _packed_size(n)
    # bytes per prime: the packed stack and its float64 panels and update blocks
    per_stack = min(len(primes), max(1, _DET_STACK_BYTES // (4 * size + 40 * _DET_PANEL * n)))
    stack = np.empty((per_stack, size), dtype=np.float32)
    kept, residues = [], []
    drops = [0] * n
    dropped_bits = 0.0
    drawn = 0
    while drawn < len(primes):
        batch = primes[drawn : drawn + per_stack]
        drawn += len(batch)
        for q, residue, k in zip(batch, *_det_mod_stack_symmetric(m, batch, stack)):
            if k == 0:
                kept.append(q)
                residues.append(residue)
                continue
            drops[k] += 1
            if drops[k] > leading[k - 1] // (width - 1):
                raise ValueError(f"leading minor D_{k} is 0: {drops[k]} primes of {width} bits divide it")
            dropped_bits += math.log2(q)
            # a prefix of this width's primes, less those dropped, passes the bound
            primes = _prime_batch(bits + dropped_bits, width)
    return _crt_columns(np.array(residues, dtype=np.int64)[:, None], kept)[0]


# ---------------------------------------------------------------------------
# twin quotient


def _is_graph_laplacian(m: np.ndarray, adj: np.ndarray) -> bool:
    """Off-diagonal entries in {0, -1}, symmetric, zero row sums, for an
    int64 matrix m and its -1 pattern ``adj``.  Entries above 0 or below -1
    are counted and must all lie on the diagonal, so no N x N integer copy
    is made; the off-diagonal entries are then fixed by ``adj``, so m is
    symmetric exactly when the bool ``adj`` is."""
    diagonal = np.diagonal(m)
    return bool(
        np.count_nonzero(m > 0) == np.count_nonzero(diagonal > 0)
        and np.count_nonzero(m < -1) == np.count_nonzero(diagonal < -1)
        and _is_symmetric(adj)
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
    packed = np.packbits(adj, axis=1)
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
    test, read through its -1 entries and its diagonal.  Object-dtype
    input, input that is not a graph Laplacian, and a Laplacian with no
    twins are returned as their own quotient."""
    if m.dtype == object:
        return m, []
    adj = m == -1
    if not _is_graph_laplacian(m, adj):
        return m, []
    quotient, twins = _quotient_by_twins(adj, np.diagonal(m))
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


def _connected(adj: np.ndarray) -> bool:
    """Whether a graph, given by its bool adjacency, is connected: a
    breadth-first sweep from vertex 0, one frontier of rows at a time."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        frontier = adj[frontier].any(axis=0) & ~seen
    return bool(seen.all())


def spanning_tree_count(graph: SimpleGraph, method: str = "both") -> int:
    """Number of spanning trees (0 when disconnected).

    ``eigenvalues`` reads the product of the nonzero Laplacian eigenvalues
    off the degree-one coefficient of the twin quotient's characteristic
    polynomial, times the twin eigenvalues; ``determinant`` takes the
    Kirchhoff cofactor (reduced-Laplacian determinant) of the full
    Laplacian of a connected graph, and 0 for a disconnected one, found by
    a breadth-first sweep with no cofactor.  ``both`` computes the two
    independently and insists they agree.  Raises ``ValueError`` for a
    graph with no vertices.
    """
    if method not in ("both", "eigenvalues", "determinant"):
        raise ValueError(f"unknown method {method!r}")
    n = _vertex_count(graph)
    by_eigen = by_det = None
    if method in ("eigenvalues", "both"):
        by_eigen = _eigenvalue_tree_count(*_graph_char_poly(graph), n)
    if method in ("determinant", "both"):
        by_det = integer_determinant(laplacian(graph)[1:, 1:]) if _connected(graph.adjacency) else 0
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
