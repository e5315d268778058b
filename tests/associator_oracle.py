"""The associator check as one accumulator per (i, k): the reference for
algebra._first_nonassociative_at.

It walks every row i and every column k for each middle y, allocating and
scanning a dim-long accumulator whether or not a product reaches it.  The
library sums only the products that land; both must give the same first
witness, in (g, i, k) order, or None.
"""

from typing import Optional, Sequence

from skewex.algebra import IntegerTable, _integer_product, _nonzero
from skewex.linalg import Vec, _integer_row


def ref_first_nonassociative_at(integer_sc: IntegerTable, generators: Sequence[Vec]
                                ) -> Optional[tuple[int, int, int]]:
    """First (i, g, k) with (e_i y) e_k != e_i (y e_k) for y = generators[g],
    in (g, i, k) order, or None.

    Both sides scale by L^2 Ly, y = Y / Ly, and one accumulator per (i, k)
    sums their difference over the table: the sparse e_i y times e_k, minus
    e_i times the sparse y e_k.
    """
    table = integer_sc[1]
    n = len(table)
    for g, y in enumerate(generators):
        ys = _nonzero(_integer_row(y)[1])
        lefts = [_nonzero(_integer_product(table, [(i, 1)], ys)) for i in range(n)]
        rights = [_nonzero(_integer_product(table, ys, [(k, 1)])) for k in range(n)]
        for i in range(n):
            row, left = table[i], lefts[i]
            for k in range(n):
                acc = [0] * n
                for l, c in left:
                    for m, s in table[l][k]:
                        acc[m] += c * s
                for l, c in rights[k]:
                    for m, s in row[l]:
                        acc[m] -= c * s
                if any(acc):
                    return i, g, k
    return None
