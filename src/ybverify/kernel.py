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
from functools import lru_cache
from math import gcd, hypot, lcm, prod

from . import _core as _k

BACKEND = _k.BACKEND


class ExactScalar:
    """Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

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


def _gaussian(c) -> tuple:
    """(gre, gim, q) with c = (gre + i gim) / q and q > 0 least, for an
    exact scalar c (int, Fraction or ExactScalar)."""
    if isinstance(c, int):
        return c, 0, 1
    if not isinstance(c, ExactScalar):
        c = ExactScalar(c)
    re, im = c.re, c.im
    q = lcm(re.denominator, im.denominator)
    return re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 1)


class SparseOperator:
    """Square sparse matrix over ExactScalar, stored over a common denominator.

    Immutable once constructed; all operations return new operators.  Entries
    are kept in canonical form: no stored zeros, denominator positive, and
    gcd(denominator, all numerator components) = 1, so equality is structural.

    ``certified_lifts`` is a mark: the tuple of lifts g for which the operator,
    on V (x) V, is known to commute exactly with every g (x) g; or, on
    V (x) W, the pair (lifts g on V, lifts h on W) of every g (x) h; or None.
    Only ``PatternTable.combination`` sets it, on a combination of a family
    that passed its certificate, and ``rmatrix.quantum_L``, on u 1 + K for a
    certified K; every other constructor and operation leaves it None, and
    ``==`` and ``hash`` ignore it.
    """

    __slots__ = ("dim", "_rows", "_den", "certified_lifts")

    def __init__(self, dim: int, rows=None, den: int = 1, _normalized=False):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.dim = dim
        self._rows = rows or {}
        self._den = den
        self.certified_lifts = None
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
        gaussians = {}
        den = 1
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r},{c}) outside dimension {dim}")
            gre, gim, q = _gaussian(ExactScalar(*v) if isinstance(v, tuple) else v)
            if gre or gim:
                gaussians[(r, c)] = gre, gim, q
                den = lcm(den, q)
        rows = {}
        for (r, c), (gre, gim, q) in gaussians.items():
            rows.setdefault(r, {})[c] = (gre * (den // q), gim * (den // q))
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
        return combination([(self, 1), (other, 1)], self.dim)

    def __sub__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return combination([(self, 1), (other, -1)], self.dim)

    def __neg__(self):
        return combination([(self, -1)], self.dim)

    def scale(self, s) -> "SparseOperator":
        """Multiply by an exact scalar (int, Fraction or ExactScalar)."""
        return combination([(self, s)], self.dim)

    def shifted(self, u) -> "SparseOperator":
        """self + u 1 for a rational u."""
        return combination([(self, 1), (SparseOperator.identity(self.dim), u)], self.dim)

    def __matmul__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        rows = _k.mul_grid(self._rows, other._rows, self.dim)
        return SparseOperator(self.dim, rows, self._den * other._den)

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._rows == other._rows)

    def __hash__(self):
        # O(1): component families are looked up by their operator tuples
        return hash((self.dim, self._den, len(self._rows)))

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz})"


def kron(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Kronecker product a (x) b."""
    rows = _k.kron_grid(a._rows, b._rows, b.dim)
    return SparseOperator(a.dim * b.dim, rows, a._den * b._den)


def combination(terms, dim: int) -> SparseOperator:
    """Sum of c X over the (X, c) pairs in ``terms``, for dim-dimensional
    operators X and exact scalars c: the one path of every operator sum,
    difference, negation, scale and shift.  Every scaled term is
    accumulated in one grid over the lcm of the denominators, then
    normalized once.  A lone term 1 X shares the grid of X, as no grid is
    ever changed in place."""
    scaled, den = [], 1
    for op, c in terms:
        if op.dim != dim:
            raise ValueError(f"dimension mismatch: {op.dim} vs {dim}")
        gre, gim, q = _gaussian(c)
        if not (gre or gim) or not op._rows:
            continue
        scaled.append((op, gre, gim, op._den * q))
        den = lcm(den, op._den * q)
    if len(scaled) == 1:
        op, gre, gim, sden = scaled[0]
        if (gre, gim, sden) == (1, 0, op._den):  # the lone term is 1 X
            return SparseOperator(dim, op._rows, den, _normalized=True)
    rows = _k.combine_grids([(op._rows, gre * (den // sden), gim * (den // sden))
                             for op, gre, gim, sden in scaled])
    return SparseOperator(dim, rows, den)


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
    strides = [prod(dims[k + 1:]) for k in range(len(dims))]
    offsets = [0]
    for k in (k for k in range(len(dims)) if k not in (s1, s2)):
        offsets = [o + x * strides[k] for o in offsets for x in range(dims[k])]
    grid = {}
    # row (r, o) of the embedding is row r of op shifted by the offset o
    # of the other slot, and no two (r, o) give the same row
    for r, row in op._rows.items():
        i1, i2 = divmod(r, d2)
        rbase = i1 * strides[s1] + i2 * strides[s2]
        cols = [((c // d2) * strides[s1] + (c % d2) * strides[s2], v)
                for c, v in row.items()]
        for o in offsets:
            grid[rbase + o] = {cbase + o: v for cbase, v in cols}
    return SparseOperator(prod(dims), grid, op._den, _normalized=True)


class RowSymmetry:
    """Monomial matrices on the three slots of X0 (x) X1 (x) X2 and what the
    row reductions need of them.  ``lifts`` holds, per slot, the images
    g_0, g_1, g_2 of the same group elements in the same order, and ``dims``
    the slot dimensions; ``rows`` holds the least row of each orbit of
    (i, j, k) -> (s_0(i), s_1(j), s_2(k)), with s_t the permutation of g_t.

    Let a residual be a sum of products of two-slot operators.  If each
    operator on slots (s, t) commutes with every g_s (x) g_t, the residual
    commutes with g_0 (x) g_1 (x) g_2, which maps row r to a nonzero
    multiple of row s(r).  So the rows of one orbit are zero or nonzero
    together: the residual is zero iff every orbit minimum row is, and its
    first nonzero row is the least nonzero orbit minimum.  With no lifts
    every row is its own orbit.

    ``certifies`` takes that commutation exactly, per operator.  An operator
    whose ``certified_lifts`` mark names the lifts of its slots (a
    ``PatternTable.combination`` of a certified family, or a
    ``rmatrix.quantum_L`` of a certified K) skips its certificate in the row
    reductions.
    """

    def __init__(self, lifts, dims):
        self.lifts = tuple(tuple(slot) for slot in lifts)
        self.dims = tuple(dims)
        if (len(self.lifts) != 3 or len(self.dims) != 3
                or len({len(slot) for slot in self.lifts}) != 1):
            raise ValueError("a row symmetry needs three slots with equally many lifts")
        self._monomials = tuple(tuple(_monomial(g, dim) for g in slot)
                                for slot, dim in zip(self.lifts, self.dims))
        self._pairs = {}
        self.rows = _orbit_minima([[perm for perm, _ in slot] for slot in self._monomials],
                                  self.dims)

    def certifies(self, slots, *ops) -> bool:
        """True iff every operator on the slot pair ``slots`` = (s, t)
        commutes exactly with every g_s (x) g_t."""
        s, t = slots
        ns, nt = self.dims[s], self.dims[t]
        for op in ops:
            if op.dim != ns * nt:
                raise ValueError(f"operator dim {op.dim} != {ns}*{nt}")
        pairs = self._pairs.get(slots)
        if pairs is None:
            pairs = self._pairs[slots] = tuple(
                ([ps[i] * nt + pt[j] for i in range(ns) for j in range(nt)],
                 [(ar * br - ai * bi, ar * bi + ai * br)
                  for ar, ai in phs for br, bi in pht])
                for (ps, phs), (pt, pht) in zip(self._monomials[s], self._monomials[t]))
        return all(_k.commutes_monomial(op._rows, perm, phase)
                   for op in ops for perm, phase in pairs)

    def _require(self, dims, shared):
        """ValueError unless the symmetry is on ``dims`` and the slots in
        ``shared`` carry the same lifts."""
        if self.dims != dims:
            raise ValueError(f"symmetry on dimensions {self.dims}, operands on {dims}")
        if any(self.lifts[s] != self.lifts[shared[0]] for s in shared):
            raise ValueError(f"slots {shared} of the symmetry carry different lifts")


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


def _orbit_minima(perms, dims) -> tuple:
    """Least index of each orbit of {0..n0*n1*n2-1}, (n0, n1, n2) = dims,
    under r = (i*n1 + j)*n2 + k -> (s0(i)*n1 + s1(j))*n2 + s2(k), for
    (s0, s1, s2) the permutations of one lift on each slot (``perms`` holds
    them per slot), ascending."""
    n0, n1, n2 = dims
    size = n0 * n1 * n2
    gens = tuple(zip(*perms))
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
            ij, k = divmod(x, n2)
            i, j = divmod(ij, n1)
            for s0, s1, s2 in gens:
                y = (s0[i] * n1 + s1[j]) * n2 + s2[k]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return tuple(minima)


class PatternTable:
    """A family of operators X_0..X_d on V (x) V, certified once, with its
    stored positions grouped by weight pattern.

    Over the family's common denominator, each stored position carries the
    vector of its Gaussian-integer numerators in X_k, k in an index set;
    positions with one vector take one value in every combination
    sum_k c_k X_k.  So a combination evaluates each distinct vector once
    and writes its positions: at d = 8 the 4240 stored entries of the
    As-components fall on 1296 positions with 23 vectors.  The table of an
    index set is built at its first use.

    ``lifts`` is the slot-0 lifts of ``symmetry`` when every X_k commutes
    exactly with every g (x) g (the family certificate, taken once at
    construction), else None.  Each exact combination carries it as its
    ``certified_lifts`` mark: a combination of invariant operators is
    invariant."""

    def __init__(self, ops, symmetry: RowSymmetry):
        self.ops = tuple(ops)
        self.dim = self.ops[0].dim
        self.den = lcm(*(op._den for op in self.ops))
        symmetry._require(symmetry.dims, (0, 1))
        self.lifts = symmetry.lifts[0] if symmetry.certifies((0, 1), *self.ops) else None
        self._tables = {}

    def _table(self, ks):
        """(vectors, layout) of the index tuple ks: vectors[p] holds the
        (i, re, im) of the nonzero numerators of pattern p, i indexing ks,
        and layout the (row, ((col, p), ...)) pairs of every position, rows
        and columns in order of first appearance over X_k, k in ks."""
        table = self._tables.get(ks)
        if table is None:
            weights = {}
            for i, k in enumerate(ks):
                op = self.ops[k]
                f = self.den // op._den
                for r, row in op._rows.items():
                    for c, (re, im) in row.items():
                        weights.setdefault((r, c), []).append((i, f * re, f * im))
            index, layout = {}, {}
            for (r, c), vec in weights.items():
                p = index.setdefault(tuple(vec), len(index))
                layout.setdefault(r, []).append((c, p))
            table = self._tables[ks] = (tuple(index),
                                        tuple((r, tuple(row)) for r, row in layout.items()))
        return table

    def combination(self, coeffs) -> SparseOperator:
        """sum_k c_k X_k over the {k: c_k} mapping ``coeffs`` of exact
        scalars, marked with ``lifts``: the coefficients over one
        denominator, one Gaussian-integer dot product per pattern, the
        positions of the nonzero patterns written, and one division by the
        gcd of the pattern values."""
        vectors, layout = self._table(tuple(coeffs))
        gaussians = [_gaussian(c) for c in coeffs.values()]
        q = lcm(*(qc for _, _, qc in gaussians))
        nums = [(gre * (q // qc), gim * (q // qc)) for gre, gim, qc in gaussians]
        values = []
        for vec in vectors:
            re = im = 0
            for i, wr, wi in vec:
                ar, ai = nums[i]
                re += ar * wr - ai * wi
                im += ar * wi + ai * wr
            values.append((re, im))
        den = q * self.den
        g = gcd(den, *(x for v in values for x in v))
        if g > 1:
            values = [(re // g, im // g) for re, im in values]
            den //= g
        op = SparseOperator(self.dim, _write_patterns(layout, values), den, _normalized=True)
        op.certified_lifts = self.lifts
        return op

    def float_combination(self, coeffs) -> dict:
        """sum_k c_k X_k over the {k: c_k} mapping ``coeffs`` of real
        floats, as a float grid ``{row: {col: (re, im)}}``: a factor of
        ``yb_float_max``.  Each entry sums its terms in the order of k, as
        an entrywise sum of the scaled X_k would."""
        vectors, layout = self._table(tuple(coeffs))
        cs = [c / self.den for c in coeffs.values()]
        values = []
        for vec in vectors:
            re = im = 0.0
            for i, wr, wi in vec:
                re += cs[i] * wr
                im += cs[i] * wi
            values.append((re, im))
        return _write_patterns(layout, values)


def _write_patterns(layout, values) -> dict:
    """The grid holding values[p] at every position of pattern p in
    ``layout``, zero values dropped."""
    values = [v if v[0] or v[1] else None for v in values]
    grid = {}
    for r, row in layout:
        kept = {c: values[p] for c, p in row if values[p] is not None}
        if kept:
            grid[r] = kept
    return grid


def _uncertified(lifts, ops) -> list:
    """The operators in ``ops`` whose mark does not name ``lifts``."""
    return [op for op in ops if op.certified_lifts != lifts]


def _first_row(stream, dim, den) -> SparseOperator:
    """The first (r, row) of a row stream as an operator holding that row
    alone, or zero if the stream is empty."""
    for r, row in stream:
        return SparseOperator(dim, {r: row}, den)
    return SparseOperator.zero(dim)


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
    ``symmetry``, which must carry one set of lifts on all three slots,
    certifies a, b and c, only its orbit minima stream; otherwise every row
    streams in order.  An operand whose ``certified_lifts`` mark names
    those lifts is invariant by construction and skips the certificate;
    every other operand is certified here."""
    if not a.dim == b.dim == c.dim == n * n:
        raise ValueError(f"operator dims {a.dim}, {b.dim}, {c.dim} are not {n}*{n}")
    rows = range(n ** 3)
    if symmetry is not None:
        symmetry._require((n, n, n), (0, 1, 2))
        if symmetry.certifies((0, 1), *_uncertified(symmetry.lifts[0], (a, b, c))):
            rows = symmetry.rows
    lhs = (a._rows, b._rows, c._rows)
    stream = _k.slot_rows(*_yb_sides(lhs, lhs[::-1] if with_rhs else None), (n, n, n), rows)
    return _first_row(stream, n ** 3, a._den * b._den * c._den)


def yb_float_max(lhs, rhs, n: int, rows) -> tuple:
    """(max |L|, max |L - R|), the largest entry moduli over the rows in
    ``rows`` of L = (A1 (x) 1)(1 (x) A2)(A3 (x) 1) and of L - R, with
    R = (1 (x) B1)(B2 (x) 1)(1 (x) B3), on V (x) V (x) V, dim V = n, for
    float grids lhs = (A1, A2, A3) and rhs = (B1, B2, B3) from
    ``PatternTable.float_combination``.  Rows stream as in
    ``yb_first_row``, in one pass: each row meets the six factors once."""
    lhs_max = diff_max = 0.0
    for _, lhs_row, row in _k.slot_rows(*_yb_sides(lhs, rhs), (n, n, n), rows, with_lhs=True):
        lhs_max = max([lhs_max, *(hypot(*v) for v in lhs_row.values())])
        diff_max = max([diff_max, *(hypot(*v) for v in row.values())])
    return lhs_max, diff_max


def _yb_sides(lhs, rhs):
    """The ``_core.slot_rows`` lhs and rhs (None: no rhs) of the
    Yang-Baxter sides in ``yb_first_row`` and ``yb_float_max``."""
    left, right = (0, 1), (1, 2)
    return (tuple(zip(lhs, (left, right, left))),
            None if rhs is None else tuple(zip(rhs, (right, left, right))))


def rll_first_row(R: SparseOperator, K: SparseOperator, u, v, n: int, m: int,
                  symmetry: RowSymmetry | None = None) -> SparseOperator:
    """The first nonzero row of R12 L13(u) L23(v) - L13(v) L23(u) R12 on
    V (x) V (x) W, with L(x) = x 1 + K, for R on V (x) V, K on V (x) W
    (dim V = n, dim W = m) and rational u, v: the residual of the RLL
    relation, returned as ``yb_first_row`` returns its residual.

    Rows stream as in ``yb_first_row``.  Each L(x) streams from K at both
    of its slots as the affine factor den(x) K + num(x) den(K) 1 over
    den(x) den(K), so no L grid is built: R12 and L23 apply by index
    arithmetic, and L13 through K13, embedded once per value of K and dims
    (``_embedded13``).  Both sides are then over
    den(R) den(u) den(v) den(K)^2.  If ``symmetry``, on (V, V, W) with one
    set of lifts on both V slots, certifies R on slots (0, 1) and K on
    slots (0, 2), only its orbit minima stream (x 1 commutes with every
    lift, so each L(x) is then invariant); otherwise every row streams in
    order.  An R whose ``certified_lifts`` mark names the V lifts, and a K
    whose mark names the (V, W) lifts, skip their certificates; every
    other operand is certified here."""
    if R.dim != n * n or K.dim != n * m:
        raise ValueError(f"operator dims {R.dim}, {K.dim} are not {n}*{n}, {n}*{m}")
    dims = (n, n, m)
    rows = range(n * n * m)
    if symmetry is not None:
        symmetry._require(dims, (0, 1))
        vw = (symmetry.lifts[0], symmetry.lifts[2])
        if (symmetry.certifies((0, 1), *_uncertified(symmetry.lifts[0], (R,)))
                and symmetry.certifies((0, 2), *_uncertified(vw, (K,)))):
            rows = symmetry.rows
    u, v = Fraction(u), Fraction(v)
    K13 = _embedded13(K, dims)

    def L(grid, slots, x):
        return grid, slots, x.denominator, x.numerator * K._den

    R12 = (R._rows, (0, 1))
    stream = _k.slot_rows((R12, L(K13, (0, 1, 2), u), L(K._rows, (1, 2), v)),
                          (L(K13, (0, 1, 2), v), L(K._rows, (1, 2), u), R12), dims, rows)
    return _first_row(stream, n * n * m,
                      R._den * u.denominator * v.denominator * K._den ** 2)


@lru_cache(maxsize=16)
def _embedded13(K: SparseOperator, dims) -> dict:
    """The grid of K on slots (0, 2) of dims, embedded once per value of K
    and dims: the cache compares operators by ``==``."""
    return embed_pair(K, (0, 2), dims)._rows
