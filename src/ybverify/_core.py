"""Pure-Python arithmetic kernels for sparse Gaussian-integer grids.

A grid is ``{row: {col: (re, im)}}`` with arbitrary-precision integer parts
and no stored zeros.  All exact matrix arithmetic reduces to these
functions, which ``ybverify.kernel`` wraps.  ``combine_grids`` and
``yb_rows`` also take grids whose parts are floats, which the float local
Yang-Baxter check multiplies.
"""

from math import gcd

BACKEND = "python"


def mul_grid(arows, brows):
    """Row-major sparse product of two grids (Gaussian-integer entries)."""
    crows = {}
    for i, arow in arows.items():
        row = _nonzero(_row_times(arow, brows, {}))
        if row:
            crows[i] = row
    return crows


def _row_times(vec, brows, out):
    """Add the row vector vec times the grid B into out, an accumulator
    {col: [re, im]}.  Vectors are {col: (re, im)} or {col: [re, im]}."""
    for j, (vr, vi) in vec.items():
        brow = brows.get(j)
        if brow is None:
            continue
        for k, (br, bi) in brow.items():
            re = vr * br - vi * bi
            im = vr * bi + vi * br
            cur = out.get(k)
            if cur is None:
                out[k] = [re, im]
            else:
                cur[0] += re
                cur[1] += im
    return out


def _nonzero(acc):
    """An accumulator row as a grid row: (re, im) tuples, zeros dropped."""
    return {col: (v[0], v[1]) for col, v in acc.items() if v[0] or v[1]}


def chain_rows(a, b, rows):
    """Yield (r, row) for each index r in ``rows`` whose row of
    A1 A2 A3 - B1 B2 B3 is nonzero, for triples of grids a = (A1, A2, A3)
    and b = (B1, B2, B3) whose products are over one denominator.  Each row
    starts from row r of A1 (or B1) and meets the stored grids one product
    at a time, so no product of two grids is formed."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    for r in rows:
        acc = {}
        arow = a1.get(r)
        if arow:
            _row_times(_row_times(arow, a2, {}), a3, acc)
        brow = b1.get(r)
        if brow:
            brow = {c: (-v[0], -v[1]) for c, v in brow.items()}
            _row_times(_row_times(brow, b2, {}), b3, acc)
        row = _nonzero(acc)
        if row:
            yield r, row


def add_grids(arows, brows, sa, sb):
    """sa*A + sb*B with plain integer scale factors (common-denominator step)."""
    crows = {}
    for i, arow in arows.items():
        crows[i] = {j: (sa * v[0], sa * v[1]) for j, v in arow.items()}
    for i, brow in brows.items():
        crow = crows.get(i)
        if crow is None:
            crows[i] = {j: (sb * v[0], sb * v[1]) for j, v in brow.items()}
            continue
        for j, v in brow.items():
            cur = crow.get(j)
            if cur is None:
                crow[j] = (sb * v[0], sb * v[1])
            else:
                re = cur[0] + sb * v[0]
                im = cur[1] + sb * v[1]
                if re or im:
                    crow[j] = (re, im)
                else:
                    del crow[j]
    return {i: row for i, row in crows.items() if row}


def scale_grid(rows, gre, gim):
    """Multiply every entry by the Gaussian integer gre + i*gim."""
    if gre == 0 and gim == 0:
        return {}
    out = {}
    for i, row in rows.items():
        out[i] = {
            j: (gre * v[0] - gim * v[1], gre * v[1] + gim * v[0])
            for j, v in row.items()
        }
    return out


def combine_grids(terms):
    """Sum of (gre + i*gim) * A over the (grid, gre, gim) triples in
    ``terms``, accumulated in one grid."""
    acc = {}
    for rows, gre, gim in terms:
        for i, row in rows.items():
            arow = acc.get(i)
            if arow is None:
                arow = acc[i] = {}
            for j, (vr, vi) in row.items():
                re = gre * vr - gim * vi
                im = gre * vi + gim * vr
                cur = arow.get(j)
                if cur is None:
                    arow[j] = [re, im]
                else:
                    cur[0] += re
                    cur[1] += im
    out = {}
    for i, arow in acc.items():
        row = _nonzero(arow)
        if row:
            out[i] = row
    return out


def kron_grid(arows, brows, bdim):
    """Kronecker product grid; indices are i*bdim + k, j*bdim + l."""
    crows = {}
    for i, arow in arows.items():
        ib = i * bdim
        for k, brow in brows.items():
            crow = {}
            for j, av in arow.items():
                ar, ai = av
                jb = j * bdim
                for l, bv in brow.items():
                    br, bi = bv
                    crow[jb + l] = (ar * br - ai * bi, ar * bi + ai * br)
            crows[ib + k] = crow
    return crows


def _times_left(vec, xrows, n, out):
    """Add the row vector vec (X (x) 1) into out: X acts on the first two
    factors of V (x) V (x) V, so entry p*n + k of vec meets row p of X and
    lands at q*n + k.  Vectors are {col: (re, im)} or {col: [re, im]}."""
    for x, (vr, vi) in vec.items():
        p = x // n
        xrow = xrows.get(p)
        if xrow is None:
            continue
        k = x - p * n
        for q, (xr, xi) in xrow.items():
            col = q * n + k
            re = vr * xr - vi * xi
            im = vr * xi + vi * xr
            cur = out.get(col)
            if cur is None:
                out[col] = [re, im]
            else:
                cur[0] += re
                cur[1] += im
    return out


def _times_right(vec, xrows, n2, out):
    """Add the row vector vec (1 (x) X) into out: X acts on the last two
    factors, so entry i*n2 + q of vec meets row q of X and lands at
    i*n2 + q'."""
    for x, (vr, vi) in vec.items():
        q = x % n2
        xrow = xrows.get(q)
        if xrow is None:
            continue
        base = x - q
        for q2, (xr, xi) in xrow.items():
            col = base + q2
            re = vr * xr - vi * xi
            im = vr * xi + vi * xr
            cur = out.get(col)
            if cur is None:
                out[col] = [re, im]
            else:
                cur[0] += re
                cur[1] += im
    return out


def yb_rows(lhs, rhs, n, rows):
    """Yield (r, row) for each index r in ``rows`` whose row of
    (A1 (x) 1)(1 (x) A2)(A3 (x) 1) - (1 (x) B1)(B2 (x) 1)(1 (x) B3) on
    V (x) V (x) V is nonzero, for grids lhs = (A1, A2, A3) and
    rhs = (B1, B2, B3) on V (x) V, dim V = n; of the lhs alone when ``rhs``
    is None.  Row-wise (Gustavson): row r = (i, j, k) of the lhs starts
    from row i*n + j of A1 shifted by k, row r of the rhs from row j*n + k
    of B1 shifted by i*n*n, and each factor is applied to the sparse row
    vector by index arithmetic, so no n^3 x n^3 factor or product is
    stored.  Integer rows are over the product of the lhs denominators,
    which the rhs must share."""
    a1, a2, a3 = lhs
    b1, b2, b3 = rhs or ({}, {}, {})
    n2 = n * n
    for r in rows:
        ij, k = divmod(r, n)
        acc = {}
        arow = a1.get(ij)
        if arow:
            start = {p * n + k: v for p, v in arow.items()}
            _times_left(_times_right(start, a2, n2, {}), a3, n, acc)
        jk = r % n2
        brow = b1.get(jk)
        if brow:
            base = r - jk
            start = {base + q: (-v[0], -v[1]) for q, v in brow.items()}
            _times_right(_times_left(start, b2, n, {}), b3, n2, acc)
        row = _nonzero(acc)
        if row:
            yield r, row


def commutes_monomial(rows, perm, phase):
    """True iff the grid A commutes with the monomial matrix G with
    G[perm[i], i] = phase[i] (Gaussian integers, none zero), i.e.
    A[perm r, perm c] phase[c] = phase[r] A[r, c] for every (r, c).  Only
    stored entries are visited: if each maps to a stored entry, the
    position bijection maps the nonzero set onto itself, so every zero maps
    to a zero.  One pass over nnz, in integers."""
    for r, row in rows.items():
        target = rows.get(perm[r], {})
        pr, pi = phase[r]
        for c, (vr, vi) in row.items():
            t = target.get(perm[c])
            if t is None:
                return False
            tr, ti = t
            qr, qi = phase[c]
            if (tr * qr - ti * qi != pr * vr - pi * vi
                    or tr * qi + ti * qr != pr * vi + pi * vr):
                return False
    return True


def content_gcd(rows, den):
    """gcd of ``den`` and every numerator component in the grid."""
    g = den
    for row in rows.values():
        for re, im in row.values():
            if re:
                g = gcd(g, re)
            if im:
                g = gcd(g, im)
            if g == 1:
                return 1
    return g


def div_grid(rows, g):
    """Divide every numerator component by the exact common divisor g."""
    return {
        i: {j: (v[0] // g, v[1] // g) for j, v in row.items()}
        for i, row in rows.items()
    }
