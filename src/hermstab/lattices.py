"""Exact integer-lattice utilities: the Hermite normal form with
transformation tracking, membership tests, and cokernel invariants from
the Smith normal form.

Everything runs on arbitrary-precision Python integers; the Hermite
transformation is kept so that lattice members can be rewritten as
explicit combinations of the original generators.
"""

from __future__ import annotations

__all__ = [
    "hnf_with_transform",
    "lattice_reduce",
    "lattice_member",
    "lattice_coefficients",
    "smith_normal_form",
    "cokernel_invariants",
]


def hnf_with_transform(rows):
    """Row Hermite normal form of the lattice spanned by ``rows``.

    Returns (basis, transform): basis rows with positive pivots and
    reduced entries above them, and for each basis row its integer
    combination of the input rows.
    """
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0:
        return [], []
    m = len(rows[0])
    comb = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    r = 0
    for c in range(m):
        while True:
            nz = [i for i in range(r, k) if rows[i][c] != 0]
            if not nz:
                break
            if len(nz) == 1 and all(rows[i][c] == 0 for i in range(r, k) if i != nz[0]):
                i = nz[0]
                rows[r], rows[i] = rows[i], rows[r]
                comb[r], comb[i] = comb[i], comb[r]
                break
            i = min(nz, key=lambda t: abs(rows[t][c]))
            rows[r], rows[i] = rows[i], rows[r]
            comb[r], comb[i] = comb[i], comb[r]
            for j in range(r + 1, k):
                if rows[j][c] != 0:
                    q = rows[j][c] // rows[r][c]
                    rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
                    comb[j] = [a - q * b for a, b in zip(comb[j], comb[r])]
        if r < k and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
                comb[r] = [-a for a in comb[r]]
            for j in range(r):
                q = rows[j][c] // rows[r][c]
                if q:
                    rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
                    comb[j] = [a - q * b for a, b in zip(comb[j], comb[r])]
            r += 1
        if r == k:
            break
    basis = [tuple(rows[i]) for i in range(r)]
    transform = [tuple(comb[i]) for i in range(r)]
    return basis, transform


def lattice_reduce(basis, v):
    """Reduce v by an HNF basis; returns (residue, coefficients)."""
    v = list(v)
    coeffs = []
    for row in basis:
        pivot_col = next((i for i, a in enumerate(row) if a != 0), None)
        if pivot_col is None:
            coeffs.append(0)
            continue
        p = row[pivot_col]
        q = v[pivot_col] // p
        v = [a - q * b for a, b in zip(v, row)]
        coeffs.append(q)
    return v, coeffs


def lattice_member(basis, v) -> bool:
    residue, _ = lattice_reduce(basis, v)
    return all(a == 0 for a in residue)


def lattice_coefficients(basis, transform, v):
    """Express v over the ORIGINAL generators, or None if not a member."""
    residue, coeffs = lattice_reduce(basis, v)
    if any(a != 0 for a in residue):
        return None
    k = len(transform[0]) if transform else 0
    out = [0] * k
    for q, comb in zip(coeffs, transform):
        for j in range(k):
            out[j] += q * comb[j]
    return out


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns the diagonal entries d1 | d2 | ... (zeros last) of its Smith
    normal form; the transforming matrices are not built.
    """
    A = [list(r) for r in matrix]
    n = len(A)
    m = len(A[0]) if n else 0

    def row_op(i, j, q):  # row_i -= q row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]

    def col_op(i, j, q):  # col_i -= q col_j
        for r in range(n):
            A[r][i] -= q * A[r][j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    t = 0
    while t < min(n, m):
        # find a pivot
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        t += 1
    # enforce divisibility d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(n, m) - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # add column i+1 to column i, then re-eliminate the 2x2 block
                col_op(i, i + 1, -1)
                dirty = True
                while dirty:
                    dirty = False
                    if A[i + 1][i] != 0:
                        q = A[i + 1][i] // A[i][i]
                        row_op(i + 1, i, q)
                        if A[i + 1][i] != 0:
                            row_swap(i, i + 1)
                            dirty = True
                    if A[i][i + 1] != 0:
                        q = A[i][i + 1] // A[i][i]
                        col_op(i + 1, i, q)
                        if A[i][i + 1] != 0:
                            col_swap(i, i + 1)
                            dirty = True
                if A[i][i] < 0:
                    A[i] = [-a for a in A[i]]
                if A[i + 1][i + 1] < 0:
                    A[i + 1] = [-a for a in A[i + 1]]
                changed = True
    return [A[i][i] for i in range(min(n, m))]


def cokernel_invariants(rows, ambient_dim: int):
    """Invariant factors of Z^m modulo the row lattice.

    Returns (torsion_factors, free_rank): the nontrivial finite cyclic
    factors (> 1, in divisibility order) and the rank of the free part.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], ambient_dim
    diag = smith_normal_form(rows)
    nonzero = [d for d in diag if d != 0]
    free = ambient_dim - len(nonzero)
    torsion = [d for d in nonzero if d != 1]
    return torsion, free
