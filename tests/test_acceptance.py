"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS line (with its runtime) when the guarantee holds exactly.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from shiftcert.agler import (
    certified_epsilon,
    certify_sum,
    integral_moment,
    p_n_bruteforce,
    p_n_closed,
    tail_stopping_index,
)
from shiftcert.cli import main
from oracles import xi_a, xi_b, xi_c
from shiftcert.lubin import (
    MU,
    family_diagram,
    is_pair_subnormal,
    is_t1_subnormal,
    is_t2_subnormal,
    moment2d,
    threshold_pair,
    threshold_t1,
    threshold_t2,
)
from shiftcert.measures import (
    AtomicMeasure2D,
    marginal,
    moment1,
    reciprocal_norm,
    restrict_density,
)
from shiftcert.shift1d import WeightSequence1D, berger_fit
from shiftcert.shift2d import check_berger_2d, commutativity_check


def _report(number: int, text: str, started: float) -> None:
    print(f"[criterion {number}] PASS: {text} ({time.monotonic() - started:.2f}s)")


def test_criterion_1_moment_identity():
    started = time.monotonic()
    # running product of the squared a-weights along row 0 of the diagram;
    # the closed form drops the atom at 0, so it starts at l = 1
    row = family_diagram(F(1, 5))
    product = F(1)
    for ell in range(1, 65):
        product *= row.alpha_sq(ell - 1, 0)
        assert product == F(2, 11) * F(1, 4) ** ell + F(1, 22) * F(1, 2) ** ell + F(1, 44)
    assert time.monotonic() - started < 1.0
    _report(1, "a-weight products match the three-term closed form up to l = 64, exactly", started)


def test_criterion_2_golden_weights():
    started = time.monotonic()
    for x in (F(1, 5), F(2, 11), F(1, 7)):
        d = family_diagram(x)
        assert [d.alpha_sq(k, 0) for k in range(3)] == [F(1, 11), F(1, 2), F(11, 16)]
        deep = d.restricted(1, 1)
        assert [deep.alpha_sq(k, 0) for k in range(3)] == [F(3, 8), F(5, 12), F(9, 20)]
        assert d.alpha_sq(0, 1) == F(1, 8)
        assert d.alpha_sq(0, 2) == F(1, 16)
        assert d.beta_sq(1, 0) == F(11, 8) * x
        assert d.beta_sq(2, 0) == F(33, 32) * x
        # known deviation: the moments force 43/48 here, not 44/48
        assert d.beta_sq(0, 2) == F(43, 48)
        assert d.beta_sq(0, 2) != F(44, 48)
    _report(2, "figure weights (incl. 43/48 correction) hold symbolically at three parameters", started)


def test_criterion_3_measure_reconstruction():
    started = time.monotonic()
    # the signed measure mu reproduces the closed-form moments on 12x12 ...
    for x in (F(1, 7), F(2, 11), F(1, 5), F(1, 2), F(6, 5)):
        for k1 in range(12):
            for k2 in range(12):
                mu_moment = sum((c + d * x) * s**k1 * t**k2 for (s, t), c, d in MU)
                assert mu_moment == moment2d(k1, k2, x)
    # ... and, while its masses are nonnegative, is the pair's Berger measure
    for x in (F(1, 7), F(1, 6), F(2, 11)):
        atoms = [(point, c + d * x) for point, c, d in MU if c + d * x]
        assert check_berger_2d(family_diagram(x), AtomicMeasure2D(atoms), (12, 12)).ok
    _report(3, "mu matches moment2d on 12x12 and is the Berger measure for x <= 2/11", started)


def test_criterion_4_component_thresholds():
    started = time.monotonic()
    assert threshold_t1().ok and threshold_t1().witness["threshold"] is None
    assert is_t1_subnormal(F(10**6)).ok
    assert threshold_t2() == F(8, 33)
    assert is_t2_subnormal(F(8, 33)).ok
    assert not is_t2_subnormal(F(8, 33) + F(1, 10**6)).ok
    t2_elapsed = time.monotonic() - started
    assert t2_elapsed < 1.0
    pair_started = time.monotonic()
    assert threshold_pair() == F(2, 11)
    assert is_pair_subnormal(F(2, 11)).ok
    assert not is_pair_subnormal(F(2, 11) + F(1, 10**6)).ok
    assert time.monotonic() - pair_started < 1.0
    _report(4, "thresholds read off mu are exactly 8/33 and 2/11 and both verdicts flip at +1e-6", started)


def test_criterion_5_chu_vandermonde():
    started = time.monotonic()
    assert all(sum(math.comb(n, k) ** 2 for k in range(n + 1)) == math.comb(2 * n, n) for n in range(65))
    # C(2n,n) = (1/pi) int_0^pi (2 - 2 cos t)^n dt, the moments of the
    # arcsine-type density; the integrand is a cosine polynomial of degree
    # n, so the trapezoid rule with more panels than n is exact up to rounding
    panels = 64
    for n in range(16):
        values = [(2 - 2 * math.cos(math.pi * i / panels)) ** n for i in range(panels + 1)]
        quadrature = (sum(values) - (values[0] + values[-1]) / 2) / panels
        exact = math.comb(2 * n, n)
        assert abs(quadrature - exact) <= 1e-8 * exact
    assert time.monotonic() - started < 5.0
    _report(5, "sum of C(n,k)^2 equals C(2n,n) for n <= 64; quadrature agrees to 1e-8", started)


def test_criterion_6_oracle_equivalence():
    started = time.monotonic()
    for x in (F(1, 10), F(2, 11), F(1, 4)):
        for n in range(1, 11):
            for k in range(6):
                assert p_n_closed(x, k, n) == p_n_bruteforce(x, k, n)
    assert time.monotonic() - started < 10.0
    _report(6, "closed-form and brute-force alternating sums agree exactly on the full grid", started)


def test_criterion_7_certified_epsilon():
    started = time.monotonic()
    epsilon = certified_epsilon()
    assert isinstance(epsilon, F) and epsilon > 0
    cert = certify_sum(F(2, 11) + epsilon)
    assert cert.ok and cert.witness["violation"] is None
    tail = tail_stopping_index()
    assert 10 <= tail.n_star <= 1000
    assert cert.witness["n_tail"] == tail.n_star
    assert cert.witness["tail_witness"]
    for n in range(1, tail.n_star + 1):
        if n >= tail.n_sixteenth:
            assert integral_moment(F(1, 16), n) >= F(15, 16) ** n
        if n >= tail.n_eighth:
            assert integral_moment(F(1, 8), n) >= F(7, 8) ** n
    assert time.monotonic() - started < 60.0
    _report(
        7,
        f"certified epsilon = {epsilon} > 0 with a finite-plus-tail certificate, "
        f"tail closed from n = {tail.n_star}",
        started,
    )


def test_criterion_8_counterexample_headline(tmp_path, capsys):
    started = time.monotonic()
    x = F(1, 5)
    assert F(2, 11) < x <= F(2, 11) + certified_epsilon()
    out = tmp_path / "certify.json"
    main(["lubin", "certify", "--x", str(x), "--out", str(out)])
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["verdicts"]["t1_subnormal"] is True
    assert data["verdicts"]["t2_subnormal"] is True
    assert data["verdicts"]["sum_subnormal_certified"] is True
    assert data["verdicts"]["pair_subnormal"] is False
    assert data["counterexample"] is True
    _report(
        8,
        "at x = 1/5 the CLI certifies T1, T2, and the sum subnormal while the pair is not",
        started,
    )


def test_criterion_9_property_suites():
    started = time.monotonic()
    rng = random.Random(1105)

    # marginal identity on 100 random atomic planar measures, exactly
    for _ in range(100):
        atoms = {}
        for _ in range(rng.randint(1, 6)):
            point = (F(rng.randint(0, 8), 4), F(rng.randint(1, 8), 4))
            atoms[point] = atoms.get(point, F(0)) + F(rng.randint(1, 16), 16)
        mu = AtomicMeasure2D(atoms.items())
        direct = sum(m / t for (_, t), m in mu.atoms)  # t >= 1/4, so the sum is finite
        assert reciprocal_norm(marginal(mu, "t")) == direct

    # path independence below 50 random lattice points of the family diagram: every
    # unit square below the point commutes (a point on an axis has one path)
    diagram = family_diagram(F(1, 5))
    for _ in range(50):
        k1, k2 = rng.randint(0, 9), rng.randint(0, 9)
        assert min(k1, k2) == 0 or commutativity_check(diagram, (k1, k2)).ok

    # restricting the weight sequence == restricting the measure density
    for xi in (xi_a(), xi_b(F(1, 5)), xi_c()):
        w = WeightSequence1D.from_measure(xi)
        for i in range(1, 4):
            from_density = WeightSequence1D.from_measure(restrict_density(xi, i))
            assert [w.squared_weight(n + i) for n in range(8)] == [
                from_density.squared_weight(n) for n in range(8)
            ]

    # berger_fit round trip on the three family measures
    for xi in (xi_a(), xi_b(F(1, 5)), xi_c()):
        r = len(xi.atoms)
        moments = [moment1(xi, n) for n in range(2 * r + 1)]
        assert berger_fit(moments, r) == xi

    _report(9, "marginal identity x100, path independence x50, restriction and fit round trips", started)
