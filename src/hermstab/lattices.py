"""Exact integer-lattice utilities: the Hermite normal form, exact
coordinates on its basis, and cokernel invariants from alternating row
and column Hermite forms.

Everything runs on arbitrary-precision Python integers.  There is one
Hermite loop and it keeps no bookkeeping; the transformation that writes
lattice members as explicit combinations of the original generators is
the Hermite form of [rows | I], built only on request.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "hnf",
    "hnf_with_transform",
    "lattice_solve",
    "lattice_member",
    "lattice_coefficients",
    "cokernel_invariants",
]


def hnf(rows):
    """Row Hermite normal form of the lattice spanned by ``rows``: basis
    rows with positive pivots and reduced entries above them."""
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0:
        return []
    m = len(rows[0])
    r = 0
    for c in range(m):
        while True:
            nz = [i for i in range(r, k) if rows[i][c] != 0]
            if not nz:
                break
            i = min(nz, key=lambda t: abs(rows[t][c]))
            rows[r], rows[i] = rows[i], rows[r]
            if len(nz) == 1:
                break
            for j in range(r + 1, k):
                if rows[j][c] != 0:
                    q = rows[j][c] // rows[r][c]
                    rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
        if r < k and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            for j in range(r):
                q = rows[j][c] // rows[r][c]
                if q:
                    rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
            r += 1
        if r == k:
            break
    return [tuple(rows[i]) for i in range(r)]


def hnf_with_transform(rows):
    """Returns (basis, transform): ``hnf(rows)`` and, for each basis row,
    its integer combination of the input rows, read off the Hermite form
    of [rows | I]."""
    k = len(rows)
    if k == 0:
        return [], []
    m = len(rows[0])
    aug = [[*r, *(int(i == j) for j in range(k))] for i, r in enumerate(rows)]
    top = [row for row in hnf(aug) if any(row[:m])]
    return [row[:m] for row in top], [row[m:] for row in top]


def lattice_solve(basis, v):
    """Exact coordinates of v on an echelon basis, as Fractions, or None
    when v is outside the rational span."""
    v = [Fraction(a) for a in v]
    coords = []
    for row in basis:
        p = next(i for i, a in enumerate(row) if a != 0)
        c = v[p] / row[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
        coords.append(c)
    return None if any(v) else coords


def lattice_member(basis, v) -> bool:
    coords = lattice_solve(basis, v)
    return coords is not None and all(c.denominator == 1 for c in coords)


def lattice_coefficients(basis, transform, v):
    """Express v over the ORIGINAL generators, or None if not a member."""
    coords = lattice_solve(basis, v)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    k = len(transform[0]) if transform else 0
    out = [0] * k
    for q, comb in zip(coords, transform):
        for j in range(k):
            out[j] += int(q) * comb[j]
    return out


def cokernel_invariants(rows, ambient_dim: int):
    """Invariant factors of Z^m modulo the row lattice.

    Alternates the Hermite form of the rows and of their transpose until
    every row has one nonzero entry (Kannan-Bachem), then replaces each
    pair of entries (a, b) by (gcd, lcm) to reach d1 | d2 | ....
    Returns (torsion_factors, free_rank): the nontrivial finite cyclic
    factors (> 1, in divisibility order) and the rank of the free part.
    """
    basis = hnf(rows)
    while any(sum(a != 0 for a in row) > 1 for row in basis):
        basis = hnf(list(zip(*basis)))
    diag = [next(a for a in row if a) for row in basis]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [d for d in diag if d != 1], ambient_dim - len(diag)
