"""Exact rank of sparse integer matrices, and rank over GF(2) of 0/1 rows.

One elimination serves both fields: the column reduction of boundary
matrices (H. Edelsbrunner, D. Letscher and A. Zomorodian, "Topological
persistence and simplification", Discrete Comput. Geom. 28, 2002).  Each
column is the boundary of a cell, and its pivot is its last nonzero row.
A column is reduced against the basis column with the same pivot until its
pivot is new, when it joins the basis, or it vanishes; the rank is the size
of the basis.

sparse_rank works over the rationals, in Python integers of unbounded size,
so ranks are exact.  Each step is col <- a*col - b*pivot_col, where a and b
are the pivot-row entries of pivot_col and col divided by their gcd, signed
so that a > 0: a pivot entry of +-1 gives a = 1 and needs no scaling.
Dividing a column by the gcd of its entries (its content) changes no rank;
it only keeps the entries small.

rank_mod2 takes each boundary as a Python int whose set bits are its 1
entries, pivots on the leading bit and reduces by XOR.  The rank of
an integer matrix over GF(2) is at most its rank over the rationals (an odd
minor is nonzero), so rank_mod2 of the entries taken mod 2 is a lower bound
on sparse_rank.
"""

from __future__ import annotations

from math import gcd

IMPL = "pure"


def sparse_rank(entries):
    """Rank over the rationals of the integer matrix given as (row, col, val)
    triples; duplicate positions are summed."""
    cols = {}
    for r, c, v in entries:
        col = cols.setdefault(c, {})
        col[r] = col.get(r, 0) + v
    basis = {}  # last nonzero row -> the one reduced column ending there
    for col in cols.values():
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = col
                break
            pv, cv = pivot[low], col[low]
            g = gcd(pv, cv) if pv > 0 else -gcd(pv, cv)  # signed so that a > 0
            a, b = pv // g, cv // g
            if a != 1:
                for r in col:
                    col[r] *= a
            for r, v in pivot.items():
                nv = col.get(r, 0) - b * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            if a != 1:
                content = gcd(*col.values())
                if content > 1:
                    for r in col:
                        col[r] //= content
    return len(basis)


def rank_mod2(rows):
    """Rank over GF(2) of the 0/1 matrix whose rows are the bit masks ``rows``."""
    basis = {}  # leading bit -> the one basis row with that leading bit
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return len(basis)
