"""Exact arithmetic for polynomials in the noncommuting letters c and d.

Words over {c, d} are plain strings; c has degree 1 and d degree 2.  A
CdPolynomial maps words to exact coefficients.  The t-substitution sends a
word to a multilinear polynomial in t_1, ..., t_n by replacing, left to
right, c with (t_i + 1) and d with (t_i + t_{i+1}), each position used once;
SubsetPolynomial holds such a polynomial as the list ``values`` of its 2^n
coefficients by subset mask, and ``terms`` is a subset map derived from it.
to_cd peels ``values`` one letter at a time, with additions only, in
O(2^n).  All coefficients are exact (int or Fraction), never floats.
"""

from __future__ import annotations

import re
from fractions import Fraction


class NotACdPolynomial(ValueError):
    """The subset polynomial is not in the image of the t-substitution.

    For flag data this certifies that the source poset is not Eulerian.
    """


def _norm(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def word_degree(w):
    """Degree of a word: #c + 2 * #d."""
    return len(w) + w.count("d")


def enumerate_cd_words(n):
    """All words of degree n in lexicographic order (c < d); Fibonacci many."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    prev, cur = [], [""]
    for _ in range(n):
        prev, cur = cur, ["c" + w for w in cur] + ["d" + w for w in prev]
    return cur


def word_to_str(w):
    # runs of c collapse to c^k; d is never exponentiated
    out = []
    i = 0
    while i < len(w):
        if w[i] == "d":
            out.append("d")
            i += 1
        else:
            j = i
            while j < len(w) and w[j] == "c":
                j += 1
            out.append("c" if j - i == 1 else f"c^{j - i}")
            i = j
    return "".join(out)


class CdPolynomial:
    """Polynomial in noncommuting c, d with exact coefficients.

    Supports +, -, scalar and polynomial *, and ** for powers; the product
    concatenates words.  str() gives the canonical text form, e.g.
    "c^3 + 3*cd + 3*dc", with terms in lexicographic word order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, v in (terms or {}).items():
            if any(ch not in "cd" for ch in w):
                raise ValueError(f"bad word {w!r}")
            v = _norm(v)
            if v:
                clean[w] = v
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({"": 1})

    def coefficient(self, w):
        return self.terms.get(w, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, CdPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, v in other.terms.items():
            out[w] = out.get(w, 0) + v
        return CdPolynomial(out)

    def __neg__(self):
        return CdPolynomial({w: -v for w, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CdPolynomial):
            out = {}
            for w1, v1 in self.terms.items():
                for w2, v2 in other.terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, 0) + v1 * v2
            return CdPolynomial(out)
        return CdPolynomial({w: v * other for w, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = CdPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        """Maximum word degree; -1 for the zero polynomial."""
        return max((word_degree(w) for w in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {word_degree(w) for w in self.terms}
        return len(degs) <= 1

    def is_integral(self):
        return all(isinstance(v, int) for v in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, v in self.sorted_terms():
            body = word_to_str(w)
            mag = abs(v)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if v > 0 else f"-{text}")
            else:
                parts.append(("+ " if v > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self):
        return f"CdPolynomial({str(self)!r})"


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?(?:\*)?(?P<word>(?:c(?:\^\d+)?|d)*)$"
)


def parse_cd(text):
    """Parse the canonical cd-polynomial text form (inverse of str())."""
    text = text.strip()
    if text == "0":
        return CdPolynomial.zero()
    text = text.replace("-", "+-")
    terms = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk.replace(" ", ""))
        if not m or (not m.group("coeff") and not m.group("word")):
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff = m.group("coeff")
        if coeff is None:
            val = 1
        elif "/" in coeff:
            val = Fraction(coeff)
        else:
            val = int(coeff)
        word = ""
        for run in re.findall(r"c\^\d+|c|d", m.group("word")):
            if run.startswith("c^"):
                word += "c" * int(run[2:])
            else:
                word += run
        terms[word] = terms.get(word, 0) + sign * val
    return CdPolynomial(terms)


class SubsetPolynomial:
    """Multilinear polynomial in t_1..t_n: ``values[mask(S)]`` is the
    coefficient of t^S, where mask(S) = sum of 2^(i-1) over i in S, and
    ``terms`` is the subset -> nonzero coefficient map, derived on each read."""

    __slots__ = ("n", "values")

    def __init__(self, n, terms=None):
        self.n = int(n)
        self.values = [0] * (1 << self.n)
        for s, v in (terms or {}).items():
            mask = self._mask(s)
            if mask is None:
                raise ValueError(f"subset {sorted(set(s))} outside 1..{self.n}")
            if v:
                self.values[mask] = _norm(v)

    @classmethod
    def from_values(cls, n, values):
        """The polynomial with ``values[mask(S)]`` at S, for 2^n values."""
        self = cls(n)
        if len(values) != len(self.values):
            raise ValueError(f"{len(values)} values for the 2^{n} subsets of 1..{n}")
        self.values = [_norm(v) for v in values]
        return self

    def _mask(self, s):
        # mask(s), or None when s leaves 1..n; 2^i summed is 2 * mask(s)
        s = frozenset(s)
        if not s or 1 <= min(s) and max(s) <= self.n:
            return sum(map((1).__lshift__, s)) >> 1

    @property
    def terms(self):
        n = self.n
        return {
            frozenset(i + 1 for i in range(n) if mask >> i & 1): v
            for mask, v in enumerate(self.values)
            if v
        }

    def get(self, s):
        mask = self._mask(s)
        return 0 if mask is None else self.values[mask]

    # equal values have equal lengths 2^n, hence equal n
    def __eq__(self, other):
        return isinstance(other, SubsetPolynomial) and self.values == other.values

    def __hash__(self):
        return hash(tuple(self.values))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        pairs = zip(self.values, other.values)
        return self.from_values(self.n, [a + b for a, b in pairs])

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        return self.from_values(self.n, [v * scalar for v in self.values])

    __rmul__ = __mul__

    def shift_in(self, i):
        """Multiply by t_i (every subset must avoid position i)."""
        n, bit = max(self.n, i), 1 << (i - 1)
        out = [0] * (1 << n)
        for mask, v in enumerate(self.values):
            if v:
                if mask & bit:
                    raise ValueError(f"t_{i} already present")
                out[mask | bit] = v
        return self.from_values(n, out)

    def restrict(self, m):
        """Set t_{m+1} = ... = t_n = 0: keep subsets within 1..m."""
        if not 0 <= m <= self.n:
            raise ValueError(f"restriction level {m} out of range")
        return self.from_values(m, self.values[: 1 << m])

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    def to_json(self):
        terms = {",".join(map(str, sorted(s))): v for s, v in self.sorted_terms()}
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data):
        terms = {}
        for key, v in data["terms"].items():
            terms[tuple(int(p) for p in key.split(",") if p)] = v
        return cls(data["n"], terms)

    def __repr__(self):
        body = ", ".join(
            f"{{{','.join(map(str, sorted(s)))}}}: {v}" for s, v in self.sorted_terms()
        )
        return f"SubsetPolynomial(n={self.n}, {{{body}}})"


def phi_word(w):
    """t-substitution of a single word as {subset: 1} over positions 1.."""
    terms = {frozenset(): 1}
    pos = 0
    for letter in w:
        out = {}
        if letter == "c":
            pos += 1
            for s, v in terms.items():
                out[s | {pos}] = v
                out[s] = out.get(s, 0) + v
        else:
            for s, v in terms.items():
                out[s | {pos + 1}] = v
                out[s | {pos + 2}] = v
            pos += 2
        terms = out
    return terms


def phi_expand(p):
    """Image of a homogeneous cd-polynomial under the t-substitution."""
    if not p:
        raise ValueError("zero polynomial has no well-defined ambient size")
    if not p.is_homogeneous():
        raise ValueError("t-substitution needs a homogeneous polynomial")
    n = p.degree()
    total = {}
    for w, coeff in p.terms.items():
        for s, v in phi_word(w).items():
            total[s] = total.get(s, 0) + coeff * v
    return SubsetPolynomial(n, total)


def to_cd(h):
    """Invert the t-substitution, or raise NotACdPolynomial.

    Peels the first letter in the ab-form of Bayer and Klapper, where c = a + b
    and d = ab + ba and b at position i means t_i is in the subset.  Writing
    the answer as c*P1 + d*P2, the subsets without t_1 give A = P1 + b*P2 and
    those with it give B = P1 + a*P2, so A - B = (b - a)*P2: its b-part is P2,
    its a-part must be -P2, and then P1 = A - b*P2.  Both are peeled in turn.
    The cd-index is unique (Stanley 1994), so a nonzero a-part residual
    certifies that h is not a cd-polynomial (for flag data: that the poset is
    not Eulerian).  Only additions are used, never a division, so Fraction
    coefficients pass through and integer input gives integer output; the
    cost is O(2^n) for n = h.n.
    """
    terms = {}
    _peel(h.values, h.n, 0, "", terms)
    return CdPolynomial(terms)


def _peel(vals, n, depth, prefix, terms):
    # vals[m] belongs to the subset m << depth of the caller's 1..depth+n, and
    # every word found here is prefix followed by a word of degree n
    if n == 0:
        terms[prefix] = vals[0]
        return
    a, b = vals[0::2], vals[1::2]
    diff = [x - y for x, y in zip(a, b)]
    if n == 1:
        if diff[0]:
            raise NotACdPolynomial(f"residual {diff[0]} at subset mask 0b0")
        terms[prefix + "c"] = a[0]
        return
    psi2 = diff[1::2]
    # the a-part diff[2k] sits at the subset k << (depth + 2), which holds
    # neither of the two positions peeled here
    for k, (x, y) in enumerate(zip(diff[0::2], psi2)):
        if x + y:
            raise NotACdPolynomial(
                f"residual {x + y} at subset mask {k << (depth + 2):#b}"
            )
    a[1::2] = [x - y for x, y in zip(a[1::2], psi2)]
    _peel(a, n - 1, depth + 1, prefix + "c", terms)
    _peel(psi2, n - 2, depth + 2, prefix + "d", terms)
