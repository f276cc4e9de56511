"""Exact rank of sparse integer matrices, and rank over GF(2) of 0/1 rows.

One elimination over the rationals with integer bookkeeping, in Python
integers of unbounded size: each update is row <- a*row - b*pivot_row with
a, b integers and a != 0, rows are kept primitive by content division, so
ranks are exact.  Pivots favour columns of low fill and unit entries (rows
with a single entry eliminate for free, which lets sphere-like boundary
matrices cascade away cheaply).

rank_mod2 takes each row as a Python int whose set bits are the columns of
its 1 entries, and eliminates by XOR.  The rank of an integer matrix over
GF(2) is at most its rank over the rationals (an odd minor is nonzero), so
rank_mod2 of the entries taken mod 2 is a lower bound on sparse_rank.
"""

from __future__ import annotations

import heapq
from math import gcd

IMPL = "pure"


def sparse_rank(entries):
    """Rank over the rationals of the integer matrix given as (row, col, val)
    triples; duplicate positions are summed."""
    rows = {}
    for r, c, v in entries:
        if v:
            row = rows.setdefault(r, {})
            row[c] = row.get(c, 0) + v
    cols = {}
    for r in list(rows):
        row = rows[r]
        for c in [c for c, v in row.items() if not v]:
            del row[c]
        if not row:
            del rows[r]
            continue
        for c in row:
            cols.setdefault(c, set()).add(r)

    heap = [(len(rs), c) for c, rs in cols.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        cnt, c = heapq.heappop(heap)
        rs = cols.get(c)
        if rs is None:
            continue
        if len(rs) != cnt:
            heapq.heappush(heap, (len(rs), c))
            continue
        pr = min(rs, key=lambda r: (abs(rows[r][c]) != 1, len(rows[r]), r))
        prow = rows[pr]
        pv = prow[c]
        touched = set()
        for r in list(rs):
            if r == pr:
                continue
            row = rows[r]
            rv = row.pop(c)
            g = gcd(pv, rv)
            a = pv // g
            b = rv // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for cc, vv in prow.items():
                if cc == c:
                    continue
                nv = row.get(cc, 0) - b * vv
                if nv:
                    if cc not in row:
                        cols[cc].add(r)
                        touched.add(cc)
                    row[cc] = nv
                else:
                    if cc in row:
                        del row[cc]
                        cols[cc].discard(r)
                        touched.add(cc)
            if row:
                content = 0
                for vv in row.values():
                    content = gcd(content, vv)
                    if content == 1:
                        break
                if content > 1:
                    for k in row:
                        row[k] //= content
            else:
                del rows[r]
        for cc in prow:
            if cc != c:
                cols[cc].discard(pr)
                touched.add(cc)
        del rows[pr]
        del cols[c]
        rank += 1
        for cc in touched:
            rs2 = cols.get(cc)
            if rs2 is not None:
                if rs2:
                    heapq.heappush(heap, (len(rs2), cc))
                else:
                    del cols[cc]
    return rank


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
