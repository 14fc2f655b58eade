"""Exact scalar arithmetic and dimension-tagged sparse operators.

Scalars are Gaussian rationals (pairs of exact ``Fraction`` parts), so every
algebraic identity in the toolkit can be tested with zero tolerance.  An
operator is stored as a Gaussian-integer grid over one positive common
denominator; sums and products then run in pure integer arithmetic, with a
single gcd normalization at the end of each operation.

The grid kernels live in ``_core``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _core as _k

BACKEND = _k.BACKEND


class ExactScalar:
    """Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def parse(cls, text: str) -> "ExactScalar":
        """Inverse of str(); accepts "p/q", "r/s*i" and "p/q+r/s*i" forms."""
        text = text.strip().replace(" ", "")
        if not text:
            raise ValueError("empty scalar string")
        if "i" not in text:
            return cls(Fraction(text))
        body = text[:-2] if text.endswith("*i") else text[:-1]
        # split real from imaginary on the last +/- that is not a leading sign
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/*":
                re_part, im_part = body[:pos], body[pos:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return cls(Fraction(re_part), Fraction(im_part))
        return cls(0, Fraction(body if body not in ("", "+", "-") else body + "1"))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # real values hash like their Fraction so x == n implies equal hashes
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = f"{self.im}*i"
        if not self.re:
            return im
        return f"{self.re}+{im}" if self.im > 0 else f"{self.re}{im}"

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"


def _coerce(value):
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(value)
    return NotImplemented


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 1)


class SparseOperator:
    """Square sparse matrix over ExactScalar, stored over a common denominator.

    Immutable once constructed; all operations return new operators.  Entries
    are kept in canonical form: no stored zeros, denominator positive, and
    gcd(denominator, all numerator components) = 1, so equality is structural.
    """

    __slots__ = ("dim", "_rows", "_den")

    def __init__(self, dim: int, rows=None, den: int = 1, _normalized=False):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.dim = dim
        self._rows = rows or {}
        self._den = den
        if not _normalized:
            self._normalize()

    def _normalize(self):
        g = _k.content_gcd(self._rows, self._den)
        if g > 1:
            self._rows = _k.div_grid(self._rows, g)
            self._den //= g

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SparseOperator":
        return cls(dim, {}, 1, _normalized=True)

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        return cls(dim, {i: {i: (1, 0)} for i in range(dim)}, 1, _normalized=True)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SparseOperator":
        """Build from a {(row, col): value} mapping; values may be int,
        Fraction, ExactScalar or (re, im) pairs."""
        scalars = {}
        den = 1
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r},{c}) outside dimension {dim}")
            if isinstance(v, tuple):
                v = ExactScalar(*v)
            elif not isinstance(v, ExactScalar):
                v = ExactScalar(v)
            if v:
                scalars[(r, c)] = v
                den = lcm(den, v.re.denominator, v.im.denominator)
        rows = {}
        for (r, c), v in scalars.items():
            rows.setdefault(r, {})[c] = (
                int(v.re * den),
                int(v.im * den),
            )
        return cls(dim, rows, den)

    # -- inspection --------------------------------------------------------

    def entry(self, r: int, c: int) -> ExactScalar:
        v = self._rows.get(r, {}).get(c)
        if v is None:
            return ZERO
        return ExactScalar(Fraction(v[0], self._den), Fraction(v[1], self._den))

    def items(self):
        """Yield ((row, col), ExactScalar) sorted by (row, col)."""
        den = self._den
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                re, im = row[c]
                yield (r, c), ExactScalar(Fraction(re, den), Fraction(im, den))

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def is_zero(self) -> bool:
        return not self._rows

    def first_nonzero(self):
        """((row, col), ExactScalar) of the first stored entry, or None."""
        if not self._rows:
            return None
        r = min(self._rows)
        c = min(self._rows[r])
        return (r, c), self.entry(r, c)

    def trace(self) -> ExactScalar:
        tr_re = tr_im = 0
        for r, row in self._rows.items():
            v = row.get(r)
            if v is not None:
                tr_re += v[0]
                tr_im += v[1]
        return ExactScalar(Fraction(tr_re, self._den), Fraction(tr_im, self._den))

    def to_complex_array(self):
        import numpy as np

        out = np.zeros((self.dim, self.dim), dtype=complex)
        den = self._den
        for r, row in self._rows.items():
            for c, (re, im) in row.items():
                out[r, c] = complex(re, im) / den
        return out

    def submatrix(self, rows, cols) -> "SparseOperator":
        """Square submatrix picked by equal-length row/col index lists."""
        if len(rows) != len(cols):
            raise ValueError("submatrix requires equally many rows and cols")
        rmap = {old: new for new, old in enumerate(rows)}
        cmap = {old: new for new, old in enumerate(cols)}
        grid = {}
        for r, row in self._rows.items():
            nr = rmap.get(r)
            if nr is None:
                continue
            picked = {cmap[c]: v for c, v in row.items() if c in cmap}
            if picked:
                grid[nr] = picked
        return SparseOperator(len(rows), grid, self._den)

    def permuted(self, perm) -> "SparseOperator":
        """Conjugate by a basis permutation: new[i, j] = old[perm[i], perm[j]]."""
        inv = {old: new for new, old in enumerate(perm)}
        grid = {}
        for r, row in self._rows.items():
            grid[inv[r]] = {inv[c]: v for c, v in row.items()}
        return SparseOperator(self.dim, grid, self._den, _normalized=True)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        den = lcm(self._den, other._den)
        rows = _k.add_grids(self._rows, other._rows, den // self._den, den // other._den)
        return SparseOperator(self.dim, rows, den)

    def __sub__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        den = lcm(self._den, other._den)
        rows = _k.add_grids(self._rows, other._rows, den // self._den, -(den // other._den))
        return SparseOperator(self.dim, rows, den)

    def __neg__(self):
        return SparseOperator(self.dim, _k.scale_grid(self._rows, -1, 0), self._den,
                              _normalized=True)

    def scale(self, s) -> "SparseOperator":
        """Multiply by an exact scalar (int, Fraction or ExactScalar)."""
        if not isinstance(s, ExactScalar):
            s = ExactScalar(s)
        if not s:
            return SparseOperator.zero(self.dim)
        q = lcm(s.re.denominator, s.im.denominator)
        gre = int(s.re * q)
        gim = int(s.im * q)
        rows = _k.scale_grid(self._rows, gre, gim)
        return SparseOperator(self.dim, rows, self._den * q)

    def __matmul__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        rows = _k.mul_grid(self._rows, other._rows)
        return SparseOperator(self.dim, rows, self._den * other._den)

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.dim, self._den, self.nnz))

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz})"


def kron(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Kronecker product a (x) b."""
    rows = _k.kron_grid(a._rows, b._rows, b.dim)
    return SparseOperator(a.dim * b.dim, rows, a._den * b._den)


def embed_pair(op: SparseOperator, slots, dims) -> SparseOperator:
    """Two-slot embedding: op lives on V_{s1} (x) V_{s2} (s1 < s2, in that
    index order) inside the full product over ``dims``."""
    s1, s2 = slots
    dims = list(dims)
    if not (0 <= s1 < s2 < len(dims)):
        raise ValueError(f"invalid slot pair {slots}")
    d1, d2 = dims[s1], dims[s2]
    if op.dim != d1 * d2:
        raise ValueError(f"operator dim {op.dim} != {d1}*{d2}")
    strides = [0] * len(dims)
    acc = 1
    for k in reversed(range(len(dims))):
        strides[k] = acc
        acc *= dims[k]
    others = [k for k in range(len(dims)) if k not in (s1, s2)]
    offsets = [0]
    for k in others:
        offsets = [o + x * strides[k] for o in offsets for x in range(dims[k])]
    grid = {}
    for r, row in op._rows.items():
        i1, i2 = divmod(r, d2)
        rbase = i1 * strides[s1] + i2 * strides[s2]
        for c, v in row.items():
            j1, j2 = divmod(c, d2)
            cbase = j1 * strides[s1] + j2 * strides[s2]
            for o in offsets:
                grid.setdefault(rbase + o, {})[cbase + o] = v
    return SparseOperator(acc, grid, op._den, _normalized=True)


class RowSymmetry:
    """Monomial matrices g on V (the ``lifts``) and what the Yang-Baxter
    row reduction needs of them: each g (x) g on V (x) V as ``pairs``
    (perm, phase) lists, and in ``rows`` the least row of each orbit of
    V (x) V (x) V under (i, j, k) -> (s(i), s(j), s(k)), with s running over
    the lifts' permutations.

    If operators a, b and c on V (x) V each commute with every g (x) g, the
    Yang-Baxter residual and lhs commute with g (x) g (x) g, which maps row
    r to a nonzero multiple of row s(r).  So the rows of one orbit are zero
    or nonzero together: the residual is zero iff every orbit minimum row
    is, and its first nonzero row is the least nonzero orbit minimum.  With
    no lifts every row is its own orbit.
    """

    def __init__(self, lifts, n: int):
        self.n = n
        self.lifts = tuple(lifts)
        perms, pairs = [], []
        for g in self.lifts:
            perm, phase = _monomial(g, n)
            perms.append(perm)
            pairs.append(([perm[i] * n + perm[j] for i in range(n) for j in range(n)],
                          [(pr * qr - pi * qi, pr * qi + pi * qr)
                           for pr, pi in phase for qr, qi in phase]))
        self.pairs = tuple(pairs)
        self.rows = _orbit_minima(perms, n)

    def certifies(self, *ops) -> bool:
        """True iff every operator commutes exactly with every g (x) g."""
        return all(_k.commutes_monomial(op._rows, perm, phase)
                   for op in ops for perm, phase in self.pairs)


def _monomial(g: SparseOperator, n: int):
    """(perm, phase) with g[perm[i], i] = phase[i] / den(g); ValueError
    unless g is an invertible monomial n x n matrix."""
    perm, phase = [None] * n, [None] * n
    if g.dim != n or len(g._rows) != n:
        raise ValueError(f"lift {g!r} is not a monomial {n}x{n} matrix")
    for r, row in g._rows.items():
        if len(row) != 1:
            raise ValueError(f"lift {g!r} is not monomial: row {r} has {len(row)} entries")
        (c, v), = row.items()
        if perm[c] is not None:
            raise ValueError(f"lift {g!r} is not monomial: column {c} repeats")
        perm[c], phase[c] = r, v
    return perm, phase


def _orbit_minima(perms, n: int) -> tuple:
    """Least index of each orbit of {0..n^3-1} under r = (i*n + j)*n + k ->
    (s(i)*n + s(j))*n + s(k), s in ``perms``, ascending."""
    size = n ** 3
    seen = bytearray(size)
    minima = []
    for r in range(size):
        if seen[r]:
            continue
        minima.append(r)
        seen[r] = 1
        stack = [r]
        while stack:
            x = stack.pop()
            ij, k = divmod(x, n)
            i, j = divmod(ij, n)
            for s in perms:
                y = (s[i] * n + s[j]) * n + s[k]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return tuple(minima)


def yb_first_row(a: SparseOperator, b: SparseOperator, c: SparseOperator,
                 n: int, symmetry: RowSymmetry | None = None,
                 with_rhs: bool = True) -> SparseOperator:
    """The first nonzero row of (a (x) 1)(1 (x) b)(c (x) 1) -
    (1 (x) c)(b (x) 1)(1 (x) a) on V (x) V (x) V, or of its lhs alone when
    ``with_rhs`` is false, for operators a, b, c on V (x) V with dim V = n:
    the residual of every Yang-Baxter-type relation.  It is returned as an
    operator that holds that row alone, so it is zero iff the residual is
    and its ``first_nonzero`` is the residual's.

    Rows are built one at a time, without any three-space factor or
    product, and the stream stops at the first nonzero row.  If
    ``symmetry`` certifies a, b and c, only its orbit minima stream;
    otherwise every row streams in order."""
    if not a.dim == b.dim == c.dim == n * n:
        raise ValueError(f"operator dims {a.dim}, {b.dim}, {c.dim} are not {n}*{n}")
    rows = range(n ** 3)
    if symmetry is not None:
        if symmetry.n != n:
            raise ValueError(f"symmetry on dimension {symmetry.n}, operands on {n}")
        if symmetry.certifies(a, b, c):
            rows = symmetry.rows
    for r, row in _k.yb_rows(a._rows, b._rows, c._rows, n, rows, with_rhs):
        return SparseOperator(n ** 3, {r: row}, a._den * b._den * c._den)
    return SparseOperator.zero(n ** 3)
