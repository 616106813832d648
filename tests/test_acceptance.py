"""Acceptance suite: one test per release criterion, each printing a verdict.

Every test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
in captured output on failure) and then asserts, so a red run still reports
the measured numbers for all criteria that executed.
"""

import math
import time

import numpy as np

import gyrokin as gk
from gyrokin.cli import main as cli_main
from helpers import ball_points, max_abs


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _triples(rng, size, dim, max_norm):
    return (
        ball_points(rng, size, dim, max_norm=max_norm),
        ball_points(rng, size, dim, max_norm=max_norm),
        ball_points(rng, size, dim, max_norm=max_norm),
    )


def test_criterion_01_gyrogroup_axioms(rng):
    """Axioms and cancellation laws on 10k triples per dimension at norms
    up to 0.999, componentwise error <= 1e-10, within the 10 s budget."""
    start = time.perf_counter()
    worst = 0.0
    size = 10_000
    for dim in (1, 2, 3):
        u, v, w = _triples(rng, size, dim, max_norm=0.999)
        zero = np.zeros(dim)
        add, gyr = gk.einstein_add, gk.gyrate

        residuals = [
            add(zero, u) - u,                                   # G1
            add(-u, u),                                         # G2
            add(u, add(v, w)) - add(add(u, v), gyr(u, v, w)),   # G3
            gyr(u, v, add(w, u)) - add(gyr(u, v, w), gyr(u, v, u)),  # G4
            gyr(add(u, v), v, w) - gyr(u, v, w),                # G5 left loop
            gyr(u, add(v, u), w) - gyr(u, v, w),                # right loop
            add(u, v) - gyr(u, v, add(v, u)),                   # gyrocommutativity
            add(add(u, v), w) - add(u, add(v, gyr(v, u, w))),   # right gyroassoc
            add(-u, -v) - (-add(u, v)),                         # automorphic inverse
            add(-u, add(u, v)) - v,                             # left cancellation
            gk.cosub(add(v, u), u) - v,                         # right cancellation
            gk.einstein_sub(gk.coadd(v, u), u) - v,             # dual right canc.
        ]
        worst = max(worst, max(max_abs(r) for r in residuals))
    elapsed = time.perf_counter() - start
    report(1, "gyrogroup axiom suite",
           worst <= 1e-10 and elapsed <= 10.0,
           f"worst {worst:.2e}, {elapsed:.1f}s, 30k triples")


def test_criterion_02_gyration_dual_route(rng):
    """Closed-form gyration equals the definitional triple-addition on 10k
    triples (<= 1e-10) and preserves norms and inner products (<= 1e-12)."""
    worst_eq = 0.0
    worst_ortho = 0.0
    for dim in (1, 2, 3):
        u, v, w = _triples(rng, 10_000 // 2, dim, max_norm=0.99)
        closed = gk.gyrate(u, v, w)
        worst_eq = max(worst_eq, max_abs(closed - gk.gyrate_definitional(u, v, w)))
        a, b = ball_points(rng, 5000, dim, 0.99), ball_points(rng, 5000, dim, 0.99)
        ga, gb = gk.gyrate(u, v, a), gk.gyrate(u, v, b)
        worst_ortho = max(
            worst_ortho,
            max_abs(np.linalg.norm(ga, axis=-1) - np.linalg.norm(a, axis=-1)),
            max_abs(np.sum(ga * gb, axis=-1) - np.sum(a * b, axis=-1)),
        )
    report(2, "gyration closed form vs definitional",
           worst_eq <= 1e-10 and worst_ortho <= 1e-12,
           f"equivalence {worst_eq:.2e}, orthogonality {worst_ortho:.2e}")


def test_criterion_03_gamma_identity(rng):
    """gamma(u (+) v) vs gamma_u gamma_v (1 + u.v), relative <= 1e-12."""
    worst = 0.0
    for dim in (1, 2, 3):
        u = ball_points(rng, 10_000, dim, max_norm=0.95)
        v = ball_points(rng, 10_000, dim, max_norm=0.95)
        lhs = gk.gamma(gk.einstein_add(u, v))
        rhs = gk.gamma(u) * gk.gamma(v) * (1.0 + np.sum(u * v, axis=-1))
        worst = max(worst, max_abs((lhs - rhs) / rhs))
    report(3, "gamma identity after addition", worst <= 1e-12,
           f"worst rel {worst:.2e}, 30k additions")


def test_criterion_04_exact_fixtures():
    """The hand-checkable values: orthogonal addition, doubling, halving,
    and the canonical right gyrotriangle, all to 1e-12."""
    u = np.array([0.6, 0.0, 0.0])
    v = np.array([0.0, 0.6, 0.0])
    errs = [
        max_abs(gk.einstein_add(u, v) - np.array([0.6, 0.48, 0.0])),
        abs(float(gk.gamma(gk.einstein_add(u, v))) - 1.5625),
        max_abs(gk.scalar_mul(2.0, [0.5, 0.0, 0.0]) - np.array([0.8, 0.0, 0.0])),
        max_abs(gk.scalar_mul(0.5, [0.8, 0.0, 0.0]) - np.array([0.5, 0.0, 0.0])),
    ]
    tri = gk.triangle_from_vertices(u, v, np.zeros(3))
    errs.append(abs(tri.gamma_a * tri.gamma_b - tri.gamma_c))
    errs.append(abs(tri.gamma_c - 1.5625))
    worst = max(errs)
    report(4, "exact fixtures", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_05_triangle_roundtrips(rng):
    """SSS->AAA->SSS within 1e-9 on 1000 triangles; geometric vs analytic
    angles within 1e-10; both Pythagorean identities within 1e-10."""
    worst_round = 0.0
    worst_angle = 0.0
    count = 0
    while count < 1000:
        a, b, c = ball_points(rng, 3, 3, max_norm=0.9)
        if gk.are_gyrocollinear(a, b, c, 1e-4):
            continue
        if min(np.linalg.norm(b - a), np.linalg.norm(c - a),
               np.linalg.norm(c - b)) < 0.05:
            continue
        count += 1
        tri = gk.triangle_from_vertices(a, b, c)
        angles = gk.sss_to_aaa(tri.gamma_a, tri.gamma_b, tri.gamma_c)
        worst_angle = max(worst_angle,
                          abs(angles[0] - tri.alpha),
                          abs(angles[1] - tri.beta),
                          abs(angles[2] - tri.gamma))
        back = gk.aaa_to_sss(*angles)
        worst_round = max(worst_round,
                          abs(back[0] - tri.gamma_a),
                          abs(back[1] - tri.gamma_b),
                          abs(back[2] - tri.gamma_c))
    worst_pyth = 0.0
    for _ in range(300):
        x, y = rng.uniform(0.05, 0.7, size=2)
        t = ball_points(rng, 1, 3, max_norm=0.5)[0]
        pts = [gk.einstein_add(t, p) for p in (np.array([x, 0.0, 0.0]),
                                               np.array([0.0, y, 0.0]), np.zeros(3))]
        tri = gk.triangle_from_vertices(*pts)
        rep = gk.right_triangle_relations(tri)
        worst_pyth = max(worst_pyth,
                         rep.residuals["pythagoras_first"],
                         rep.residuals["pythagoras_second"])
    ok = worst_round <= 1e-9 and worst_angle <= 1e-10 and worst_pyth <= 1e-10
    report(5, "triangle conversion roundtrips", ok,
           f"roundtrip {worst_round:.2e}, angles {worst_angle:.2e}, "
           f"pythagoras {worst_pyth:.2e}")


def test_criterion_06_gyroparallelogram(rng):
    """Diagonal gyromidpoints coincide (<= 1e-10, 1000 triples); coaddition
    commutes to 1e-12; a documented distributivity-failure witness exists."""
    worst_mid = 0.0
    count = 0
    while count < 1000:
        a, b, c = ball_points(rng, 3, 3, max_norm=0.9)
        if gk.are_gyrocollinear(a, b, c, 1e-5):
            continue
        count += 1
        d = gk.gyroparallelogram_fourth(a, b, c)
        m1 = gk.scalar_mul(0.5, gk.coadd(a, d))
        m2 = gk.scalar_mul(0.5, gk.coadd(b, c))
        worst_mid = max(worst_mid, max_abs(m1 - m2))
    u = ball_points(rng, 2000, 3, max_norm=0.99)
    v = ball_points(rng, 2000, 3, max_norm=0.99)
    worst_comm = max_abs(gk.coadd(u, v) - gk.coadd(v, u))
    r, uu, vv = 2.0, np.array([0.6, 0.0, 0.0]), np.array([0.0, 0.6, 0.0])
    witness = float(np.linalg.norm(
        gk.scalar_mul(r, gk.einstein_add(uu, vv))
        - gk.einstein_add(gk.scalar_mul(r, uu), gk.scalar_mul(r, vv))
    ))
    ok = worst_mid <= 1e-10 and worst_comm <= 1e-12 and witness > 1e-3
    report(6, "gyroparallelogram laws", ok,
           f"midpoints {worst_mid:.2e}, commutativity {worst_comm:.2e}, "
           f"witness {witness:.3f}")


def test_criterion_07_metric_tensor(rng):
    """Quadratic-form residual of the squared gyrodistance drops by 7x-9x
    when the displacement is halved, at 100 random points."""
    ratios = []
    checked = 0
    while checked < 100:
        x = ball_points(rng, 1, 3, max_norm=0.85, min_norm=0.15)[0]
        h = rng.normal(size=3)
        h /= np.linalg.norm(h)
        g = gk.metric_tensor(x)
        res = []
        for scale in (1e-2, 5e-3):
            step = scale * h
            d2 = float(gk.gyrodistance(x, x + step)) ** 2
            res.append(abs(d2 - float(step @ g @ step)))
        if res[0] < 1e-11:
            continue  # cubic coefficient vanished for this direction
        checked += 1
        ratios.append(res[0] / res[1])
    ok = all(7.0 <= r <= 9.0 for r in ratios)
    report(7, "metric tensor finite-difference order", ok,
           f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}] at 100 points")


def test_criterion_08_aberration_magnitudes():
    """Stellar aberration offsets at theta_s = 90 deg: the annual figure for
    29.79 km/s within 0.01 arcsec and the orbital figure within 0.005."""
    c = 299792458.0
    annual = (math.pi / 2.0
              - float(gk.stellar_aberration(math.pi / 2.0, 29.79e3 / c)))
    annual_arcsec = annual * gk.ARCSEC_PER_RAD
    orbital = (math.pi / 2.0
               - float(gk.stellar_aberration(math.pi / 2.0, 7537.8 / c)))
    orbital_arcsec = orbital * gk.ARCSEC_PER_RAD
    ok = (abs(annual_arcsec - 20.4958) <= 0.01
          and abs(orbital_arcsec - 5.1856) <= 0.005)
    report(8, "stellar aberration magnitudes", ok,
           f"annual {annual_arcsec:.4f}\", orbital {orbital_arcsec:.4f}\"")


def test_criterion_09_aberration_geometric_oracle(rng):
    """Formula vs velocity-space construction on 1000 random scenarios
    (<= 1e-10), plus second-order agreement with the classical formula."""
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(0.02, 0.95)
        p_s = rng.uniform(0.02, 0.95)
        theta_s = rng.uniform(0.05, math.pi - 0.05)
        scene = gk.aberration_scene(v, p_s, theta_s)
        worst = max(worst, abs(
            scene.theta_e - float(gk.relativistic_aberration(theta_s, v, p_s))
        ))
    theta_s = 1.15
    residuals = []
    for lam in (1e-1, 1e-2, 1e-3, 1e-4):
        rel = float(gk.relativistic_aberration(theta_s, 0.6 * lam, 0.8 * lam))
        cla = float(gk.classical_aberration(theta_s, 0.6 * lam, 0.8 * lam))
        residuals.append(abs(rel - cla))
    decays = [big / small for big, small in zip(residuals, residuals[1:])]
    ok = worst <= 1e-10 and all(10 ** 1.5 < d < 10 ** 2.5 for d in decays)
    report(9, "aberration geometric oracle", ok,
           f"worst {worst:.2e}, classical-limit decades "
           f"{['%.0f' % d for d in decays]}")


def test_criterion_10_mass_suite(rng):
    """Invariant mass: gyro formula vs Minkowski norm (<= 1e-12 rel, 1000
    systems), four-momentum residual, exact fixture, boost invariance, and
    exactly zero dark mass for rigid systems."""
    worst_rel = 0.0
    worst_res = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        vel = ball_points(rng, n, 3, max_norm=0.99)
        masses = rng.uniform(0.1, 5.0, size=n)
        system = gk.ParticleSystem(
            tuple(gk.Particle(m, w) for m, w in zip(masses, vel))
        )
        m0 = gk.decompose(system).m0
        energy = float(np.sum(masses * gk.gamma(vel)))
        momentum = np.sum((masses * gk.gamma(vel))[:, None] * vel, axis=0)
        mink = math.sqrt(energy ** 2 - float(momentum @ momentum))
        worst_rel = max(worst_rel, abs(m0 - mink) / mink)
        worst_res = max(worst_res, gk.decompose(system).four_momentum_residual)

    pair = gk.ParticleSystem((gk.Particle(1.0, [0.6, 0.0, 0.0]),
                              gk.Particle(1.0, [-0.6, 0.0, 0.0])))
    dec = gk.decompose(pair)
    fixture_err = max(abs(dec.m0 - 2.5), abs(dec.m_newton - 2.0),
                      abs(dec.m_dark - 1.5))

    worst_boost = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        vel = ball_points(rng, n, 3, max_norm=0.9)
        masses = rng.uniform(0.1, 5.0, size=n)
        system = gk.ParticleSystem(
            tuple(gk.Particle(m, w) for m, w in zip(masses, vel))
        )
        u = ball_points(rng, 1, 3, max_norm=0.9)[0]
        m0 = gk.decompose(system).m0
        worst_boost = max(
            worst_boost, abs(gk.decompose(gk.boost(system, u)).m0 - m0) / m0
        )

    v_rigid = np.array([0.44, -0.21, 0.3])
    rigid = gk.ParticleSystem(
        tuple(gk.Particle(m, v_rigid) for m in (1.0, 2.0, 0.5, 3.25))
    )
    rigid_dark = gk.decompose(rigid).m_dark

    ok = (worst_rel <= 1e-12 and worst_res <= 1e-12
          and fixture_err <= 1e-12 and worst_boost <= 1e-10
          and rigid_dark == 0.0)
    report(10, "mass decomposition suite", ok,
           f"minkowski {worst_rel:.2e}, residual {worst_res:.2e}, "
           f"fixture {fixture_err:.2e}, boost {worst_boost:.2e}, "
           f"rigid dark {rigid_dark}")


def test_criterion_11_newtonian_limits(rng):
    """Velocity scaling lambda in {1e-1..1e-4}: addition residual O(l^3),
    invariant-mass excess O(l^2), Pythagorean residual O(l^2)."""
    d1 = np.array([0.8, 0.1, -0.2])
    d2 = np.array([-0.3, 0.7, 0.4])
    lams = (1e-1, 1e-2, 1e-3, 1e-4)

    add_res = [
        float(np.linalg.norm(
            gk.einstein_add(lam * d1, lam * d2) - (lam * d1 + lam * d2)
        )) for lam in lams
    ]
    base = ball_points(rng, 4, 3, max_norm=0.9)
    masses = (1.0, 2.0, 0.5, 1.5)
    mass_res = []
    for lam in lams:
        system = gk.ParticleSystem(
            tuple(gk.Particle(m, lam * v) for m, v in zip(masses, base))
        )
        dec = gk.decompose(system)
        mass_res.append(dec.m0 - dec.m_newton)
    pyth_res = []
    for lam in lams:
        tri = gk.triangle_from_vertices(
            np.array([0.6 * lam, 0.0, 0.0]),
            np.array([0.0, 0.45 * lam, 0.0]),
            np.zeros(3),
        )
        pyth_res.append(
            abs((tri.side_a ** 2 + tri.side_b ** 2) / tri.side_c ** 2 - 1.0)
        )

    def decades_ok(res, order):
        lo, hi = 10 ** (order - 0.5), 10 ** (order + 0.5)
        return all(lo < big / small < hi for big, small in zip(res, res[1:]))

    ok = (decades_ok(add_res, 3) and decades_ok(mass_res, 2)
          and decades_ok(pyth_res, 2))
    report(11, "newtonian limits", ok,
           f"addition {add_res[0]:.1e}->{add_res[-1]:.1e}, "
           f"mass {mass_res[0]:.1e}->{mass_res[-1]:.1e}, "
           f"pythagoras {pyth_res[0]:.1e}->{pyth_res[-1]:.1e}")


def test_criterion_12_cli_golden(capsys, tmp_path):
    """Documented CLI invocations reproduce their expected bytes and codes."""
    failures = []

    def run_case(args, expect_code, expect_lines=(), expect_absent=()):
        code = cli_main(list(args))
        out = capsys.readouterr().out
        if code != expect_code:
            failures.append(f"{args}: exit {code} != {expect_code}")
        for line in expect_lines:
            if line not in out.splitlines():
                failures.append(f"{args}: missing line {line!r}")
        for line in expect_absent:
            if line in out.splitlines():
                failures.append(f"{args}: unexpected line {line!r}")

    run_case(["add", "--u", "0.6,0,0", "--v", "0,0.6,0"], 0,
             ["result: 0.6,0.48,0", "gamma: 1.5625",
              "norm: 0.768374908491942"])
    run_case(["add", "--u", "0,0,0", "--v", "0.3,0,0"], 0,
             ["result: 0.3,0,0"])
    run_case(["scale", "--r", "2", "--v", "0.5,0,0"], 0,
             ["result: 0.8,0,0"])
    run_case(["triangle", "--mode", "vertices", "--a", "0.6,0",
              "--b", "0,0.6", "--c", "0,0", "--out", "deg"], 0,
             ["gamma: 90", "alpha: 38.6598082540901",
              "beta: 38.6598082540901", "gamma_c: 1.5625",
              "right_triangle: yes"])
    run_case(["triangle", "--mode", "aaa", "--angles", "60,60,60",
              "--unit", "deg"], 2)
    run_case(["aberration", "--model", "stellar", "--v", "29.79e3",
              "--units", "si", "--theta-s", "90", "--unit", "deg",
              "--out", "arcsec"], 0,
             ["offset: 20.4962747535654"])
    run_case(["aberration", "--model", "stellar", "--v", "0c",
              "--theta-s", "1.1"], 0,
             ["theta_e: 1.1", "offset: 0"])
    run_case(["aberration", "--model", "stellar", "--v", "0.6c",
              "--theta-s", "90deg", "--out", "deg"], 0,
             ["theta_e: 53.130102354156"])
    pair = tmp_path / "pair.csv"
    pair.write_text("1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n")
    run_case(["mass", "--in", str(pair)], 0,
             ["m0: 2.5", "m_newton: 2", "m_dark: 1.5", "v0: 0,0,0"])
    single = tmp_path / "one.csv"
    single.write_text("2.0, 0.6, 0, 0\n")
    run_case(["mass", "--in", str(single)], 0,
             ["m0: 2", "m_dark: 0", "v0: 0.6,0,0"])
    rigid = tmp_path / "rigid.csv"
    rigid.write_text("1.0, 0.2, 0.1, 0\n2.0, 0.2, 0.1, 0\n0.5, 0.2, 0.1, 0\n")
    run_case(["mass", "--in", str(rigid)], 0,
             ["m_dark: 0", "m0: 3.5"])
    run_case(["add", "--u", "not-a-vector", "--v", "0,0,0"], 1)
    run_case(["add", "--u", "1.5,0,0", "--v", "0,0,0"], 2)

    ok = not failures
    report(12, "cli golden outputs", ok,
           "13 invocations" if ok else "; ".join(failures[:3]))
