"""Exact integer-lattice utilities: the Hermite normal form with
transformation tracking, membership tests, and cokernel invariants from
alternating row and column Hermite forms.

Everything runs on arbitrary-precision Python integers; the Hermite
transformation is kept so that lattice members can be rewritten as
explicit combinations of the original generators.
"""

from __future__ import annotations

import math

__all__ = [
    "hnf_with_transform",
    "lattice_reduce",
    "lattice_member",
    "lattice_coefficients",
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


def cokernel_invariants(rows, ambient_dim: int):
    """Invariant factors of Z^m modulo the row lattice.

    Alternates the Hermite form of the rows and of their transpose until
    every row has one nonzero entry (Kannan-Bachem), then replaces each
    pair of entries (a, b) by (gcd, lcm) to reach d1 | d2 | ....
    Returns (torsion_factors, free_rank): the nontrivial finite cyclic
    factors (> 1, in divisibility order) and the rank of the free part.
    """
    basis = hnf_with_transform(rows)[0]
    while any(sum(a != 0 for a in row) > 1 for row in basis):
        basis = hnf_with_transform(list(zip(*basis)))[0]
    diag = [next(a for a in row if a) for row in basis]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [d for d in diag if d != 1], ambient_dim - len(diag)
