"""Acceptance battery: one test per criterion, one printed verdict line each.

Criterion 1 checks the dimension law of the derivation extensions,
dim B + defect_dim = deg(p) * dim A, and the rule that the rank-deg(p) free
model survives exactly when the twist is zero: for D != 0 in characteristic
zero the coefficient deg(p) * D(a) of X^(deg p - 1) in p(X) a - a p(X) keeps
the relation submodule nonzero.  It pins the genuine quotient's dimension,
derived by hand, on every corpus pair.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from skewex.algebra import (
    cyclic_group_algebra,
    direct_product,
    matrix_algebra,
    poly_quotient,
    upper_triangular,
)
from skewex.errors import AnnihilatorFails, AssociativityFails
from skewex.idempotents import (
    NOT_MS,
    enumerate_idempotents,
    image_idempotent_audit,
    image_kernel_idempotent_report,
    image_trace_certificate,
    ms_check,
    rank_one_idempotent_grid,
    trace_rank_idempotent,
)
from skewex.laurent import laurent_quotient
from skewex.linalg import Mat, Poly, column_space, kernel
from skewex.maps import (
    AlgebraEndo,
    Derivation,
    LinearEndo,
    automorphism_order,
    derivation_space,
    exp_derivation,
    inner_automorphism,
    inner_derivation,
    kernel_chain,
    kernel_chain_preimage,
    invert_element,
)
from skewex.ore import (
    commutator_power,
    constant_term_identity,
    ore_quotient,
    simple_image_check,
)
from skewex.sampling import (
    ProductRecipe,
    random_element,
    random_invertible_element,
    random_trace_zero_invertible,
    recipe_endomorphisms,
    sample_automorphisms,
)

F = Fraction

SCALARS = Poly.of([0, 1])
DUAL = Poly.of([0, 0, 1])        # t^2
JET = Poly.of([0, 0, 0, 1])      # t^3
SPLIT = Poly.of([0, -1, 1])      # t^2 - t


def corpus():
    one = poly_quotient(SCALARS)
    return {
        "dual": poly_quotient(DUAL),
        "jet2": poly_quotient(JET),
        "split": poly_quotient(SPLIT),
        "qxq": direct_product(one, one),
        "m2": matrix_algebra(2),
        "m3": matrix_algebra(3),
        "c2": cyclic_group_algebra(2),
        "c3": cyclic_group_algebra(3),
        "ut2": upper_triangular(2),
    }


def verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[ACCEPTANCE] criterion {number:02d} {name}: {status}{suffix}")
    return ok


def euler_derivation():
    return Derivation.certify(poly_quotient(DUAL), Mat.from_rows([[0, 0], [0, 1]]))


def audit_has_no_findings(algebra, matrix, idems, size):
    """Image audit: enumerated membership, trace certificate, grid probes."""
    if idems is not None:
        found = image_idempotent_audit(algebra, LinearEndo(algebra, matrix), idems)
        if found:
            return False
    if not image_trace_certificate(algebra, matrix):
        return False
    if size is not None:
        image = column_space(matrix)
        if any(image.contains(e) for e in rank_one_idempotent_grid(size)):
            return False
    return True


# Dimension of the genuine quotient B = A[X; D] / (p(X)) per criterion-1 pair,
# derived by hand.  A deg(p) * dim(A) value means the free model survived.
CRITERION_01_DIMS = {
    # D(t) = t on Q[t]/t^2, p = X(X-1).  t^j X^i is homogeneous and
    # p(X) t^m = t^m p(X+m), so B = (+)_k t^k Q[X]/J_k, J_k = gcd_{j<=k} p(X+j):
    # J_0 = X(X-1), J_1 = X, dimension 2 + 1.
    "dual/euler": 3,
    # D(t) = t on Q[t]/t^3, p = X(X-1)(X-2): J_0 = p, J_1 = X(X-1), J_2 = X,
    # dimension 3 + 2 + 1.
    "jet2/basis0": 6,
    # D(t) = t^2, p = X^2: X^2 t - t X^2 = 2 t^2 X is the only relation beyond
    # the left ideal of X^2 (t^2 X times anything lands back in it), so the
    # free 6 loses t^2 X.
    "jet2/basis1": 5,
    # D = ad_v: Z = X - v is central, so B = M_2(Q[Z]/J) with J generated by
    # the entries of p(Z I + v).  v = E12, p = X^3: p(Z I + v) = Z^3 I + 3 Z^2 v,
    # J = (Z^2), dimension 4 * 2.
    "m2/adE12": 8,
    # v trace-zero invertible, v^2 = c I with c != 0, p = X^3 - 4cX:
    # p(Z I + v) = Z (Z^2 - c) I + 3 (Z^2 - c) v and v has a nonzero
    # off-diagonal entry or v = diag(a, -a) with a != 0, so J = (Z^2 - c),
    # dimension 4 * 2.
    "m2/ad_random0": 8,
    "m2/ad_random1": 8,
    "m2/ad_random2": 8,
    # D = 0 controls with p = X^2: p(X) is central and the free model stays,
    # dimension 2 * dim(A).
    "dual/zero": 4,
    "m2/zero": 8,
}


def test_criterion_01_derivation_extensions():
    """Inner-witness extensions for the derivation corpus, all postconditions.

    Besides the embedding, associativity, p(u) = 0 and [u, a] = D(a) checks,
    every pair must obey dim B + defect_dim = deg(p) * dim A, keep the free
    model exactly when D = 0, and reach the hand-derived dimension in
    CRITERION_01_DIMS.
    """
    started = time.monotonic()
    dual = poly_quotient(DUAL)
    jet2 = poly_quotient(JET)
    m2 = matrix_algebra(2)
    rng = random.Random(170)
    failures = []
    pairs = [("dual/euler", dual, euler_derivation(), None)]
    # the jet2 pins assume this basis order: t -> t, then t -> t^2
    jet2_basis = derivation_space(jet2)
    pinned_basis = [Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
                    Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])]
    if [d.matrix for d in jet2_basis] != pinned_basis:
        failures.append("jet2: derivation_space basis is not (t -> t, t -> t^2)")
    for i, d in enumerate(jet2_basis):
        pairs.append((f"jet2/basis{i}", jet2, d, None))
    pairs.append(("m2/adE12", m2, inner_derivation(m2, m2.basis_element(1)), None))
    added = 0
    while added < 3:
        u = random_trace_zero_invertible(m2, rng)
        d = inner_derivation(m2, u)
        if d.matrix.is_zero():
            continue
        pairs.append((f"m2/ad_random{added}", m2, d, None))
        added += 1
    x_squared = Poly.of([0, 0, 1])
    for label, algebra in (("dual/zero", dual), ("m2/zero", m2)):
        zero = Derivation.certify(algebra, Mat.zeros(algebra.dim, algebra.dim))
        pairs.append((label, algebra, zero, x_squared))

    for label, algebra, d, p in pairs:
        result = ore_quotient(algebra, d, p)  # p=None: the minimal polynomial
        ext = result.algebra
        if kernel(result.embed).dim != 0:
            failures.append(f"{label}: embedding not injective")
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                lhs = result.embed.apply(algebra.sc[i][j])
                rhs = ext.multiply(result.embed.column(i), result.embed.column(j))
                if lhs != rhs:
                    failures.append(f"{label}: embedding not multiplicative")
                    break
        # associativity on all basis triples of the constructed extension
        for i in range(ext.dim):
            for j in range(ext.dim):
                left = ext.sc[i][j]
                for k in range(ext.dim):
                    if ext.multiply(left, ext.basis_element(k)) != \
                            ext.multiply(ext.basis_element(i), ext.sc[j][k]):
                        failures.append(f"{label}: associativity fails")
                        break
        from skewex._extension import poly_of_element
        if any(poly_of_element(ext, result.p, result.u)):
            failures.append(f"{label}: p(u) != 0")
        for a in range(algebra.dim):
            img = result.embed.column(a)
            comm = tuple(x - y for x, y in zip(ext.multiply(result.u, img),
                                               ext.multiply(img, result.u)))
            if comm != result.embed.apply(d.matrix.apply(algebra.basis_element(a))):
                failures.append(f"{label}: commutator does not realize the twist")
                break
        free_dim = result.p.degree * algebra.dim
        if ext.dim + result.defect_dim != free_dim or ext.dim > free_dim:
            failures.append(
                f"{label}: dim {ext.dim} + defect {result.defect_dim}"
                f" != deg(p)*dim(A) = {free_dim}"
            )
        if d.matrix.is_zero():
            if not result.free_module or ext.dim != free_dim:
                failures.append(f"{label}: D = 0 but the free model of dim {free_dim} was lost")
        elif result.free_module or result.defect_dim <= 0:
            failures.append(f"{label}: D != 0 but the extension came out free")
        if ext.dim != CRITERION_01_DIMS[label]:
            failures.append(
                f"{label}: dim {ext.dim} != genuine quotient dim {CRITERION_01_DIMS[label]}"
            )
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    ok = verdict(1, "derivation extensions", not failures,
                 "; ".join(failures[:4]))
    assert ok, failures


def test_criterion_02_automorphism_extensions():
    started = time.monotonic()
    one = poly_quotient(SCALARS)
    qxq = direct_product(one, one)
    c3 = cyclic_group_algebra(3)
    q3 = direct_product(qxq, one)
    m2 = matrix_algebra(2)
    jet2 = poly_quotient(JET)
    ut2 = upper_triangular(2)
    cases = [
        ("qxq/swap", qxq, AlgebraEndo.certify(qxq, Mat.from_rows([[0, 1], [1, 0]]))),
        ("c3/group_inversion", c3,
         AlgebraEndo.certify(c3, Mat.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))),
        ("q3/coordinate_shift", q3,
         AlgebraEndo.certify(q3, Mat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))),
        ("m2/conj_diag12", m2, inner_automorphism(m2, m2.element([1, 0, 0, 2]))),
        ("m2/exp_nilpotent", m2, exp_derivation(inner_derivation(m2, m2.basis_element(1)))),
        ("jet2/exp_nilpotent", jet2, exp_derivation(Derivation.certify(
            jet2, Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])))),
        ("ut2/exp_nilpotent", ut2, exp_derivation(inner_derivation(ut2, ut2.basis_element(1)))),
    ]
    failures = []
    for label, algebra, phi in cases:
        result = laurent_quotient(algebra, phi)
        ext = result.algebra
        if kernel(result.embed).dim != 0:
            failures.append(f"{label}: embedding not injective")
        from skewex._extension import poly_of_element
        if any(poly_of_element(ext, result.p, result.u)):
            failures.append(f"{label}: p(u) != 0")
        if ext.multiply(result.u, result.u_inverse) != ext.unit or \
                ext.multiply(result.u_inverse, result.u) != ext.unit:
            failures.append(f"{label}: witness inverse identity fails")
        for a in range(algebra.dim):
            img = result.embed.column(a)
            conj = ext.multiply(ext.multiply(result.u, img), result.u_inverse)
            if conj != result.embed.apply(phi.matrix.apply(algebra.basis_element(a))):
                failures.append(f"{label}: conjugation does not realize the twist")
                break
    # the order-2 and order-3 twists stay on the full free module
    swap_result = laurent_quotient(qxq, cases[0][2])
    if swap_result.algebra.dim != 4 or not swap_result.free_module:
        failures.append("qxq/swap: expected the rank-2 free module of dimension 4")
    shift_result = laurent_quotient(q3, cases[2][2])
    if shift_result.algebra.dim != 9 or not shift_result.free_module:
        failures.append("q3/coordinate_shift: expected the rank-3 free module of dimension 9")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    ok = verdict(2, "automorphism extensions", not failures, "; ".join(failures[:4]))
    assert ok, failures


def test_criterion_03_negative_consistency():
    dual = poly_quotient(DUAL)
    euler = euler_derivation()
    outcomes = []
    try:
        ore_quotient(dual, euler, Poly.of([0, 1]))
        outcomes.append("no AnnihilatorFails")
    except AnnihilatorFails:
        pass
    try:
        ore_quotient(dual, euler, Poly.of([0, 1]), _skip_annihilator_check=True)
        outcomes.append("no AssociativityFails from the forced construction")
    except AssociativityFails:
        pass
    ok = verdict(3, "negative consistency", not outcomes, "; ".join(outcomes))
    assert ok, outcomes


def test_criterion_04_commutator_and_constant_term_identities():
    started = time.monotonic()
    rng = random.Random(44)
    m2 = matrix_algebra(2)
    jet2 = poly_quotient(JET)
    ut2 = upper_triangular(2)
    configurations = [
        (m2, inner_derivation(m2, m2.basis_element(1))),
        (jet2, Derivation.certify(jet2, Mat.from_rows(
            [[0, 0, 0], [0, 1, 0], [0, 0, 2]]))),
        (ut2, inner_derivation(ut2, ut2.basis_element(1))),
    ]
    instances = 0
    for algebra, d in configurations:
        for _ in range(100):
            n = rng.randint(0, 6)
            a = random_element(algebra, rng)
            direct, formula = commutator_power(n, a, d)
            assert direct.coeffs == formula.coeffs
            q = Poly.of([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
            if q.is_zero():
                q = Poly.one()
            b = random_element(algebra, rng)
            lhs, rhs = constant_term_identity(q, b, d)
            assert lhs == rhs
            instances += 1
    elapsed = time.monotonic() - started
    ok = verdict(4, "rewrite identities", instances == 300 and elapsed < 5.0,
                 f"{instances} instances in {elapsed:.2f}s")
    assert ok


def test_criterion_05_image_audits_over_corpus():
    rng = random.Random(55)
    failures = []
    for name, algebra in corpus().items():
        idems = enumerate_idempotents(algebra) if algebra.is_commutative() else None
        size = {4: 2, 9: 3}.get(algebra.dim) if name in ("m2", "m3") else None
        for i, d in enumerate(derivation_space(algebra)):
            if not audit_has_no_findings(algebra, d.matrix, idems, size):
                failures.append(f"{name}: derivation {i} image contains an idempotent")
        autos = sample_automorphisms(algebra, rng, 10)
        audited = 0
        while audited < 10:
            phi = autos[audited % len(autos)]
            delta = Mat.identity(algebra.dim) - phi.matrix
            if not audit_has_no_findings(algebra, delta, idems, size):
                failures.append(f"{name}: automorphism {audited} difference image "
                                "contains an idempotent")
            audited += 1
    ok = verdict(5, "image idempotent audits", not failures, "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_06_image_kernel_biconditional():
    rng = random.Random(66)
    one = poly_quotient(SCALARS)
    qxq = direct_product(one, one)
    idems = enumerate_idempotents(qxq)
    proj = AlgebraEndo.certify(qxq, Mat.from_rows([[1, 0], [1, 0]]))
    failures = []
    report = image_kernel_idempotent_report(qxq, proj, idems)
    if not (report.consistent and report.ideal_contained):
        failures.append("projection endomorphism on qxq")
    recipes = [
        ProductRecipe.build([poly_quotient(SPLIT), poly_quotient(SPLIT)]),
        ProductRecipe.build([poly_quotient(DUAL), poly_quotient(DUAL)]),
        ProductRecipe.build([one, one, poly_quotient(SPLIT)]),
        ProductRecipe.build([poly_quotient(DUAL), poly_quotient(SPLIT), one]),
    ]
    seen = 0
    for recipe in recipes:
        algebra = recipe.algebra
        algebra_idems = enumerate_idempotents(algebra)
        for phi in recipe_endomorphisms(recipe, rng, 5):
            report = image_kernel_idempotent_report(algebra, phi, algebra_idems)
            if not (report.consistent and report.ideal_contained):
                failures.append(f"recipe endo {seen}")
            delta = Mat.identity(algebra.dim) - phi.matrix
            outcome = ms_check(algebra, column_space(delta), algebra_idems)
            if outcome.status == NOT_MS:
                failures.append(f"recipe endo {seen}: difference image rejected")
            seen += 1
    ok = verdict(6, "image/kernel biconditional", not failures and seen >= 20,
                 f"{seen} endomorphisms; " + "; ".join(failures[:3]))
    assert ok and seen >= 20, (failures, seen)


def test_criterion_07_finite_order_automorphisms():
    rng = random.Random(77)
    failures = []
    audited = 0
    for name, algebra in corpus().items():
        idems = enumerate_idempotents(algebra) if algebra.is_commutative() else None
        size = {4: 2, 9: 3}.get(algebra.dim) if name in ("m2", "m3") else None
        for phi in sample_automorphisms(algebra, rng, 8):
            order = automorphism_order(phi, bound=12)
            if order is None:
                continue
            audited += 1
            delta = Mat.identity(algebra.dim) - phi.matrix
            if not audit_has_no_findings(algebra, delta, idems, size):
                failures.append(f"{name}: finite-order automorphism (order {order})")
    ok = verdict(7, "finite-order difference images", not failures and audited > 0,
                 f"{audited} automorphisms of order <= 12")
    assert ok, failures


def test_criterion_08_simple_image_spans():
    rng = random.Random(88)
    failures = []
    for name, algebra in (("m2", matrix_algebra(2)), ("m3", matrix_algebra(3))):
        derivations = []
        for idx in (1, algebra.dim - 2):
            derivations.append(inner_derivation(algebra, algebra.basis_element(idx)))
        while len(derivations) < 5:
            u = random_element(algebra, rng)
            d = inner_derivation(algebra, u)
            if not d.matrix.is_zero():
                derivations.append(d)
        for i, d in enumerate(derivations[:5]):
            report = simple_image_check(algebra, d)
            if not (report.applicable and report.left_full and report.right_full):
                failures.append(f"{name}: derivation {i}")
    ok = verdict(8, "simple-algebra image spans", not failures, "; ".join(failures[:3]))
    assert ok, failures


def test_criterion_09_trace_equals_rank():
    rng = random.Random(99)
    checked = 0
    failures = []
    for algebra in (poly_quotient(SPLIT), cyclic_group_algebra(2),
                    direct_product(poly_quotient(DUAL), poly_quotient(SPLIT))):
        for e in enumerate_idempotents(algebra).items:
            result = trace_rank_idempotent(algebra, e)
            if not result.equal or result.trace.denominator != 1:
                failures.append("enumerated idempotent")
            checked += 1
    for algebra, size in ((matrix_algebra(2), 2), (matrix_algebra(3), 3)):
        per_algebra = 0
        while per_algebra < 92:
            u = random_invertible_element(algebra, rng)
            diag = [F(rng.randint(0, 1)) for _ in range(size)]
            base = [F(0)] * algebra.dim
            for i in range(size):
                base[i * size + i] = diag[i]
            u_inv = invert_element(algebra, u)
            e = algebra.multiply(algebra.multiply(u, tuple(base)), u_inv)
            result = trace_rank_idempotent(algebra, e)
            if not result.equal:
                failures.append("conjugated projection")
            checked += 1
            per_algebra += 1
    ok = verdict(9, "trace equals rank", not failures and checked >= 200,
                 f"{checked} idempotents")
    assert ok and checked >= 200, (failures, checked)


def test_criterion_10_kernel_chain_preimages():
    rng = random.Random(110)
    one = poly_quotient(SCALARS)
    recipes = [
        ProductRecipe.build([one, one]),
        ProductRecipe.build([poly_quotient(SPLIT), poly_quotient(SPLIT)]),
        ProductRecipe.build([poly_quotient(DUAL), poly_quotient(DUAL)]),
        ProductRecipe.build([one, one, one]),
        ProductRecipe.build([poly_quotient(SPLIT), one, one]),
        ProductRecipe.build([poly_quotient(DUAL), poly_quotient(SPLIT)]),
    ]
    failures = []
    produced = 0
    for recipe in recipes:
        algebra = recipe.algebra
        for phi in recipe_endomorphisms(recipe, rng, 12, require_singular=True):
            chain, _ = kernel_chain(phi)
            if chain.dim == 0:
                continue
            produced += 1
            delta = Mat.identity(algebra.dim) - phi.matrix
            for a in chain.basis:
                b = kernel_chain_preimage(phi, a)
                if delta.apply(b) != a:
                    failures.append("preimage identity failed")
            from skewex.maps import induced_map
            induced = induced_map(phi)
            if not induced.induced.is_invertible():
                failures.append("induced map not bijective")
            if produced >= 50:
                break
        if produced >= 50:
            break
    ok = verdict(10, "kernel-chain preimages", not failures and produced >= 50,
                 f"{produced} singular endomorphisms")
    assert ok and produced >= 50, (failures, produced)


def test_criterion_11_enumeration_oracle():
    failures = []
    split = poly_quotient(SPLIT)
    got = {tuple(e) for e in enumerate_idempotents(split).items}
    want = {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(-1))}
    if got != want:
        failures.append("t^2 - t enumeration")
    c2 = cyclic_group_algebra(2)
    got = {tuple(e) for e in enumerate_idempotents(c2).items}
    want = {(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))}
    if got != want:
        failures.append("order-2 group algebra enumeration")
    mixed = direct_product(poly_quotient(DUAL), poly_quotient(SPLIT))
    idems = enumerate_idempotents(mixed)
    if len(idems.items) != 8 or not idems.complete:
        failures.append("product enumeration size")
    for e in idems.items:
        if mixed.multiply(e, e) != e:
            failures.append("brute-force idempotency recheck")
    if len({tuple(e) for e in idems.items}) != 8:
        failures.append("duplicate idempotents")
    ok = verdict(11, "idempotent enumeration oracle", not failures, "; ".join(failures))
    assert ok, failures


def test_criterion_12_explorer_determinism(tmp_path):
    out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    args = [sys.executable, "-m", "skewex.cli", "explore",
            "--seed", "7", "--trials", "50", "--max-dim", "4"]
    r1 = subprocess.run(args + ["--json", str(out1)], capture_output=True, text=True)
    r2 = subprocess.run(args + ["--json", str(out2)], capture_output=True, text=True)

    def strip(path):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            rec.pop("elapsed_ms", None)
        return records

    first, second = strip(out1), strip(out2)
    same = first == second
    no_failures = all(r["status"] != "fail" for r in first)
    codes_ok = r1.returncode in (0, 3) and r1.returncode == r2.returncode
    ok = verdict(12, "explorer determinism", same and no_failures and codes_ok,
                 f"{len(first)} records, exit {r1.returncode}")
    assert ok
