"""Reference Laurent kernel for the differential tests.

The straightforward dict-of-exponent-tuples arithmetic: a polynomial is
a canonical tuple of ``(exponent vector, coefficient)`` pairs, nonzero
coefficients only, sorted by exponent vector in descending lex order,
the same shape as `LaurentPoly.terms`.  Exponents are unbounded Python
ints and division scans the whole remainder for its leading term, so
this is slow but has no packing to get wrong.
"""

from clusterchar.errors import LaurentDivisionError


def canonical(terms: dict) -> tuple:
    return tuple(sorted(((e, c) for e, c in terms.items() if c), reverse=True))


def add(p: tuple, q: tuple) -> tuple:
    acc = dict(p)
    for e, c in q:
        acc[e] = acc.get(e, 0) + c
    return canonical(acc)


def mul(p: tuple, q: tuple) -> tuple:
    acc = {}
    for e1, c1 in p:
        for e2, c2 in q:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return canonical(acc)


def divexact(p: tuple, q: tuple) -> tuple:
    """Exact quotient p/q by leading-term elimination, or raise.

    Quotient exponents are confined to the box [min(p)-max(q),
    max(p)-min(q)], which bounds the loop on non-divisible input.
    """
    if not q:
        raise LaurentDivisionError("division by the zero polynomial")
    if not p:
        return ()
    n = len(p[0][0])
    lo = [min(e[i] for e, _ in p) - max(e[i] for e, _ in q) for i in range(n)]
    hi = [max(e[i] for e, _ in p) - min(e[i] for e, _ in q) for i in range(n)]
    lead_q, cq = q[0]
    rem = dict(p)
    quot = {}
    while rem:
        lead_r = max(rem)
        cr = rem[lead_r]
        if cr % cq != 0:
            raise LaurentDivisionError("inexact division (coefficient obstruction)")
        e = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(x < l or x > h for x, l, h in zip(e, lo, hi)):
            raise LaurentDivisionError("inexact division (exponent obstruction)")
        c = cr // cq
        quot[e] = quot.get(e, 0) + c
        for eq, cq2 in q:
            key = tuple(a + b for a, b in zip(e, eq))
            v = rem.get(key, 0) - c * cq2
            if v:
                rem[key] = v
            elif key in rem:
                del rem[key]
    return canonical(quot)
