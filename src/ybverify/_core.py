"""Pure-Python arithmetic kernels for sparse Gaussian-integer grids.

A grid is ``{row: {col: (re, im)}}`` with arbitrary-precision integer parts
and no stored zeros.  All exact matrix arithmetic reduces to these
functions, which ``ybverify.kernel`` wraps.  ``slot_rows`` also takes grids
whose parts are floats, which the float local Yang-Baxter check multiplies.
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
    """Add the row vector vec (X (x) 1) into out, 1 the identity on the
    last n indices: entry p*n + k of vec meets row p of X and lands at
    q*n + k.  Vectors are {col: (re, im)} or {col: [re, im]}."""
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
    """Add the row vector vec (1 (x) X) into out, X on the last n2
    indices: entry i*n2 + q of vec meets row q of X and lands at
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


def _affine(times, scale, shift):
    """``times`` for scale X + shift 1: shift 1 acts as X does on a last
    slot of dimension one."""
    one = {0: {0: (shift, 0)}}

    def apply(vec, xrows, n, out):
        times({col: (scale * v[0], scale * v[1]) for col, v in vec.items()}, xrows, n, out)
        return _times_right(vec, one, 1, out)
    return apply


def slot_rows(sides, dims, rows):
    """Yield (r, row) for each index r in ``rows`` whose row of
    sum_s w_s X1 X2 X3 is nonzero, on three slots of dimensions
    dims = (d0, d1, d2), for the (factors, w) pairs in ``sides``: w an
    integer weight and factors a triple of (grid, slots) or
    (grid, slots, scale, shift) factors.  A grid on slots (0, 1) acts as
    X (x) 1, on (1, 2) as 1 (x) X, and on (0, 1, 2) on the whole space;
    with integers (scale, shift) it acts as scale X + shift 1.
    Row-wise (Gustavson): row r of a side is w e_r met by its factors one
    at a time, each by index arithmetic, so no embedded factor or product
    is stored.  Sides over different integer denominators meet over a
    common one when each w is that denominator over its side's; the
    Yang-Baxter residual takes w = 1 and -1.  Float grids stream as well."""
    d0, d1, d2 = dims
    # slots -> (times, stride): times applies the factor to a row vector
    tags = {(0, 1): (_times_left, d2), (1, 2): (_times_right, d1 * d2),
            (0, 1, 2): (_times_right, d0 * d1 * d2)}
    chains = []
    for factors, w in sides:
        chain = [(w, 0)]
        # a (grid, slots) factor is (grid, slots, 1, 0)
        for x, s, scale, shift in ((*f, 1, 0)[:4] for f in factors):
            times, stride = tags[s]
            chain += [times if (scale, shift) == (1, 0) else _affine(times, scale, shift),
                      x, stride]
        chains.append(chain)
    for r in rows:
        acc = {}
        for w, times1, x1, n1, times2, x2, n2, times3, x3, n3 in chains:
            times3(times2(times1({r: w}, x1, n1, {}), x2, n2, {}), x3, n3, acc)
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
