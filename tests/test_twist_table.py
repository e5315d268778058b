"""The integer twist table against the Fraction one.

assemble reads X^i e_b, i <= deg p, from twist_table: sparse integer terms
over one scale L_xpow, built from the integer orbits of the twist's integer
form.  free_model_oracle keeps the Fraction tables, the twist's Fraction
matrix applied to each basis element.  Entry by entry, each integer over
L_xpow must be the Fraction, and L_xpow must be the lcm of the Fractions'
denominators.  The counts at the end make sure the inputs can tell: some
twists have a fractional integer form, so a missing L^(d-k) factor shows,
and on some the content division shrinks L^d.
"""

from math import lcm

from free_model_oracle import fraction_xpow, rational_xpow
from skewex._extension import twist_table
from test_relation_certificate import twist_cases
from test_relation_closure import fuzz_cases, m3_pair


def test_integer_twist_table_is_the_fraction_table_over_the_lcm(corpus, m3):
    counts = {"cases": 0, "fractional_twist": 0, "content_divided": 0}
    seen = set()
    for label, mode, algebra, twist, p in [*twist_cases(corpus), *fuzz_cases(), *m3_pair(m3)]:
        scale, table = xpow = twist_table(mode, twist.matrix, p.degree)
        oracle = fraction_xpow(mode, algebra, twist, p)
        assert all(x for row in table for terms in row for _, coeff in terms
                   for _, x in coeff), label
        assert rational_xpow(xpow, algebra.dim) == oracle, label
        assert scale == lcm(*(x.denominator for row in oracle for terms in row
                              for _, coeff in terms for x in coeff)), label
        counts["cases"] += 1
        twist_scale = twist.matrix.integer_form[0]
        if twist_scale > 1 and p.degree > 1:
            counts["fractional_twist"] += 1
        if scale < twist_scale ** p.degree:
            counts["content_divided"] += 1
        seen.add(mode)
    assert seen == {"derivation", "automorphism"}
    assert counts["cases"] >= 300, counts
    assert counts["fractional_twist"] >= 30 and counts["content_divided"] >= 10, counts
