"""Invariant mass, dark mass, and four-momentum bookkeeping."""

import copy
import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from gyrokin import (
    MAX_NORM,
    AdmissibilityError,
    DimensionError,
    Particle,
    ParticleFormatError,
    ParticleSystem,
    boost,
    collide_and_stick,
    decompose,
    einstein_add,
    gamma,
    gamma_rel_minus_1,
    parse_particles,
)
from gyrokin import mass
from gyrokin.ball import _assemble, _components, _gamma, norm_sq
from gyrokin.gyro import _add
from helpers import TEST_BLOCK, ball_points, in_blocks, max_abs, pairwise_dark_sq, same_bits

EPS = np.finfo(float).eps


def random_system(rng, n_max=10, dim=3, max_norm=0.99):
    n = int(rng.integers(1, n_max + 1))
    vel = ball_points(rng, n, dim, max_norm=max_norm)
    masses = rng.uniform(0.1, 5.0, size=n)
    return ParticleSystem(tuple(Particle(m, v) for m, v in zip(masses, vel)))


def _failing(*args, **kwargs):
    raise AssertionError("a range check ran again")


def minkowski_mass(system):
    """Independent oracle: plain-Python four-vector sum and Minkowski norm."""
    energy = 0.0
    momentum = np.zeros(system.dim)
    for p in system.particles:
        g = 1.0 / math.sqrt(1.0 - float(p.velocity @ p.velocity))
        energy += p.mass * g
        momentum = momentum + p.mass * g * p.velocity
    return math.sqrt(energy * energy - float(momentum @ momentum)), energy, momentum


class TestParticleTypes:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(AdmissibilityError):
            Particle(0.0, [0.1, 0.0, 0.0])
        with pytest.raises(AdmissibilityError):
            Particle(-1.0, [0.1, 0.0, 0.0])

    def test_rejects_inadmissible_velocity(self):
        with pytest.raises(AdmissibilityError):
            Particle(1.0, [1.0, 0.0, 0.0])

    def test_rejects_empty_system(self):
        with pytest.raises(DimensionError):
            ParticleSystem(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            ParticleSystem((Particle(1.0, [0.1, 0.0]), Particle(1.0, [0.1, 0.0, 0.0])))

    def test_relativistic_mass(self):
        p = Particle(2.0, [0.6, 0.0, 0.0])
        assert p.gamma == pytest.approx(1.25, rel=1e-15)
        assert p.relativistic_mass == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("mass", [1j, None, "abc", np.complex128(1)],
                             ids=["complex", "none", "text", "complex128"])
    def test_rejects_non_real_mass(self, mass):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(AdmissibilityError,
                               match="particle mass must be positive and finite"):
                Particle(mass, [0.1, 0.0, 0.0])

    @pytest.mark.parametrize("text, row", [
        ("-1,0.1,0,0\n2,0,0.2,0\n", 0),
        ("1,0.1,0,0\n# comment\n2,0,0.2,0\n0,0,0,0.1\n", 2),
        ("1,0.1,0,0\n2,0,0.2,0\nnan,0,0,0.1\n-1,1.5,0,0\n", 2),
        ('[{"mass": 1, "velocity": [0.1]}, {"mass": -2, "velocity": [0.2]}]', 1),
    ], ids=["first", "after-comment", "first-of-two", "json"])
    def test_bad_mass_named_by_its_row(self, text, row):
        # A particle file is one batch: its first bad mass is named by its row.
        with pytest.raises(AdmissibilityError) as info:
            parse_particles(text)
        assert (info.value.name, info.value.row) == ("particle mass", (row,))
        assert str(info.value) == f"particle mass row {row} must be positive and finite"

    def test_rejects_complex_velocity(self):
        with pytest.raises(AdmissibilityError, match="not real-valued"):
            Particle(1.0, [0.1j, 0.0, 0.0])

    def test_system_arrays_read_only(self):
        system = ParticleSystem((Particle(1.0, [0.1, 0.0]), Particle(2.0, [0.0, 0.2])))
        with pytest.raises(ValueError):
            system.masses[0] = 3.0
        with pytest.raises(ValueError):
            system.velocities[0, 0] = 0.5

    @pytest.mark.parametrize("copied", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_stay_read_only_with_their_bits(self, copied):
        p = Particle(1.5, [0.1, -0.0, 0.3])
        system = ParticleSystem((p, Particle(2.0, [-0.6, 0.2, 0.0])), frame="lab")
        boosted = boost(system, [0.3, 0.0, -0.1])
        pairs = [(p, copied(p), ["velocity"])]
        pairs += [(s, copied(s), ["masses", "velocities"]) for s in (system, boosted)]
        for original, copy_, arrays in pairs:
            assert type(copy_) is type(original) and copy_ is not original
            for name in arrays:
                assert same_bits(getattr(copy_, name), getattr(original, name))
                with pytest.raises(ValueError, match="read-only"):
                    getattr(copy_, name)[0] = 0.5
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(copy_, name, getattr(original, name))
        assert pairs[0][1].mass == 1.5
        assert [c.frame for _, c, _ in pairs[1:]] == ["lab", "lab"]

    def test_particles_rebuilt_from_arrays(self, rng):
        system = random_system(rng)
        again = ParticleSystem(system.particles)
        assert np.array_equal(again.masses, system.masses)
        assert np.array_equal(again.velocities, system.velocities)
        assert len(again) == len(system) and again.dim == system.dim


class TestGammaRel:
    def test_identical_velocities_exact_zero(self):
        v = np.array([0.3712345, -0.112, 0.52])
        assert float(gamma_rel_minus_1(v, v)) == 0.0

    def test_matches_gamma_identity(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        direct = gamma(u) * gamma(v) * (1.0 - np.sum(u * v, axis=-1)) - 1.0
        assert max_abs(gamma_rel_minus_1(u, v) - direct) < 1e-10

    def test_matches_composed_velocity(self, rng):
        # gamma of (-u) (+) v computed the long way
        for _ in range(200):
            u, v = ball_points(rng, 2, 3, max_norm=0.9)
            rel = einstein_add(-u, v)
            expected = float(gamma(rel)) - 1.0
            assert float(gamma_rel_minus_1(u, v)) == pytest.approx(
                expected, rel=1e-10, abs=1e-13
            )

    def test_back_to_back_fixture(self):
        # gamma_rel = 1.25^2 * (1 + 0.36) = 2.125
        u = np.array([0.6, 0.0, 0.0])
        assert float(gamma_rel_minus_1(u, -u)) == pytest.approx(1.125, rel=1e-14)


class TestCmVelocity:
    """decompose's v0, the relativistic-mass-weighted mean velocity."""

    def test_single_particle(self):
        v = np.array([0.2, -0.3, 0.1])
        sys1 = ParticleSystem((Particle(1.7, v),))
        assert np.array_equal(decompose(sys1).v0, v)

    def test_symmetric_pair_at_rest(self):
        v = np.array([0.6, 0.0, 0.0])
        sys2 = ParticleSystem((Particle(1.0, v), Particle(1.0, -v)))
        assert max_abs(decompose(sys2).v0) == 0.0

    def test_orthogonal_fixture(self):
        sys2 = ParticleSystem((
            Particle(1.0, [0.6, 0.0, 0.0]),
            Particle(1.0, [0.0, 0.6, 0.0]),
        ))
        np.testing.assert_allclose(decompose(sys2).v0, [0.3, 0.3, 0.0], atol=1e-15)

    def test_always_admissible(self, rng):
        for _ in range(100):
            sys_n = random_system(rng)
            assert np.linalg.norm(decompose(sys_n).v0) < 1.0


class TestInvariantMass:
    def test_rigid_system_exact(self):
        v = np.array([0.55, 0.1, -0.3])
        sys3 = ParticleSystem(tuple(Particle(m, v) for m in (1.0, 2.5, 0.25)))
        assert decompose(sys3).m0 == 3.75
        dec = decompose(sys3)
        assert dec.m_dark == 0.0
        assert dec.m0 == 3.75

    def test_back_to_back_fixture(self):
        sys2 = ParticleSystem((
            Particle(1.0, [0.6, 0.0, 0.0]),
            Particle(1.0, [-0.6, 0.0, 0.0]),
        ))
        assert decompose(sys2).m0 == pytest.approx(2.5, abs=1e-12)
        dec = decompose(sys2)
        assert dec.m_newton == pytest.approx(2.0, abs=1e-12)
        assert dec.m_dark == pytest.approx(1.5, abs=1e-12)
        assert max_abs(dec.v0) == 0.0
        # energy route: total relativistic mass 2.5 at rest
        assert dec.energy == pytest.approx(2.5, rel=1e-15)

    def test_rigid_system_exact_at_scale(self, rng):
        v = ball_points(rng, 1, 3, max_norm=0.99)[0]
        masses = rng.uniform(0.1, 5.0, size=1000)
        dec = decompose(ParticleSystem(tuple(Particle(m, v) for m in masses)))
        assert dec.m_dark == 0.0
        assert dec.m0 == dec.m_newton

    @pytest.mark.parametrize("n", [2, 10, 300, 2000])
    @pytest.mark.parametrize("top", [1e-6, 1e-3, 0.5, 0.9, 0.999])
    def test_dark_mass_matches_pair_sum(self, rng, n, top):
        # Both routes sum nonnegative terms built from the same gamma
        # factors.  Each pair or particle term takes about ten rounded
        # operations (<= 10 ulp); numpy's pairwise sums add about log2 of
        # the term count: log2 N twice over in the oracle (row sums, then
        # their sum), log2 N for W and for the sum over particles here.
        # The weighted mean enters the O(N) form only at second order, and
        # rounding 1/gamma costs about |v|/|v_j - v_k| ulp, O(1) for spread
        # velocities.  Hence (20 + 4 log2 N) ulp.
        vel = ball_points(rng, n, 3, max_norm=top)
        masses = rng.uniform(0.1, 5.0, size=n)
        dark_sq = decompose(ParticleSystem(tuple(
            Particle(m, v) for m, v in zip(masses, vel)))).m_dark ** 2
        want = pairwise_dark_sq(masses, vel)
        # m_dark is rounded by its sqrt and squared again: 2 ulp more.
        assert abs(dark_sq - want) <= (22 + 4 * math.log2(n)) * EPS * want

    def test_matches_minkowski_norm(self, rng):
        for _ in range(300):
            sys_n = random_system(rng)
            m0 = decompose(sys_n).m0
            mink, _, _ = minkowski_mass(sys_n)
            assert abs(m0 - mink) / mink < 1e-12

    def test_mass_not_additive_witness(self):
        sys2 = ParticleSystem((
            Particle(1.0, [0.6, 0.0, 0.0]),
            Particle(1.0, [0.0, 0.6, 0.0]),
        ))
        assert decompose(sys2).m0 > 2.0 + 1e-3

    def test_exceeds_newton_unless_rigid(self, rng):
        for _ in range(100):
            sys_n = random_system(rng, n_max=6, max_norm=0.9)
            dec = decompose(sys_n)
            assert dec.m0 >= dec.m_newton
            if len(sys_n) > 1:
                vel = sys_n.velocities
                spread = np.max(np.linalg.norm(vel - vel[0], axis=-1))
                if spread > 1e-6:
                    assert dec.m0 > dec.m_newton


class TestDecompose:
    def test_mass_split_identity(self, rng):
        for _ in range(200):
            dec = decompose(random_system(rng))
            assert dec.m0 == pytest.approx(
                math.hypot(dec.m_newton, dec.m_dark), rel=1e-14
            )

    def test_four_momentum_residual(self, rng):
        for _ in range(300):
            dec = decompose(random_system(rng))
            assert dec.four_momentum_residual < 1e-12

    def test_energy_additivity(self, rng):
        for _ in range(100):
            sys_n = random_system(rng)
            dec = decompose(sys_n)
            _, energy, _ = minkowski_mass(sys_n)
            assert dec.m0 * dec.gamma0 == pytest.approx(energy, rel=1e-12)

    def test_gammas_computed_once(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(mass, "_gamma", lambda *a: calls.append(a) or _gamma(*a))
        for _ in range(50):
            system = random_system(rng)
            calls.clear()
            dec = decompose(system)
            assert len(calls) == 2  # the particles' gammas and gamma(v0), once each
            w = system.masses * _gamma(norm_sq(system.velocities))
            energy, momentum = float(w.sum()), (w[:, None] * system.velocities).sum(axis=0)
            assert dec.energy == energy and same_bits(dec.momentum, momentum)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_gamma0_near_c_against_mpmath(self, rng, eps):
        # 100 particles with relative speeds <= 0.01, boosted by 1 - eps.
        # Rounding 1 - |v_k|^2 costs each particle's gamma about EPS/eps
        # relatively, and 1 - |v0|^2 costs gamma(v0) as much; the sum E
        # averages the particles' errors, and E/m0 does not round 1 - |v0|^2.
        # Over 40 seeded systems per eps, E/m0 erred by at most 0.015 EPS/eps
        # and gamma(v0) by 0.4 EPS/eps in the median.
        mpmath = pytest.importorskip("mpmath")
        for _ in range(5):
            vel = ball_points(rng, 100, 3, max_norm=0.005)
            u = (1.0 - eps) * ball_points(rng, 1, 3, max_norm=1.0, min_norm=1.0)[0]
            system = boost(ParticleSystem._from_arrays(rng.uniform(0.5, 2.0, 100), vel), u)
            with mpmath.workdps(60):
                energy, momentum = 0, [0, 0, 0]
                for m, v in zip(system.masses.tolist(), system.velocities.tolist()):
                    w = m / mpmath.sqrt(1 - mpmath.fsum(mpmath.mpf(x) ** 2 for x in v))
                    energy += w
                    momentum = [p + w * x for p, x in zip(momentum, v)]
                exact = energy / mpmath.sqrt(energy ** 2 - mpmath.fsum(p ** 2 for p in momentum))
                error = float(abs(decompose(system).gamma0 - exact) / exact)
            assert error <= 0.02 * EPS / eps

    def test_gamma0_of_a_system_at_rest(self, rng):
        # E/m0 of a system at rest can round below 1; gamma0 does not.
        for _ in range(200):
            v = ball_points(rng, 1, 3, max_norm=0.99)[0]
            m = rng.uniform(0.1, 5.0)
            dec = decompose(ParticleSystem((Particle(m, v), Particle(m, -v))))
            assert dec.gamma0 >= 1.0 and dec.gamma0 - 1.0 <= 4 * EPS
        rigid = decompose(ParticleSystem(tuple(Particle(m, [0.6, 0.0, 0.0])
                                               for m in (1.0, 2.0))))
        assert rigid.m_dark == 0.0 and rigid.gamma0 == pytest.approx(1.25, rel=4 * EPS)

    def test_four_momentum_fixture(self):
        sys2 = ParticleSystem((
            Particle(1.0, [0.6, 0.0, 0.0]),
            Particle(2.0, [0.0, 0.6, 0.0]),
        ))
        dec = decompose(sys2)
        energy, momentum = dec.energy, dec.momentum
        assert energy == pytest.approx(3.75, rel=1e-15)
        np.testing.assert_allclose(momentum, [0.75, 1.5, 0.0], atol=1e-15)


class TestCollideAndStick:
    def test_symmetric_collision(self):
        composite = collide_and_stick(
            Particle(1.0, [0.6, 0.0, 0.0]), Particle(1.0, [-0.6, 0.0, 0.0])
        )
        assert composite.mass == pytest.approx(2.5, abs=1e-12)
        assert max_abs(composite.velocity) == 0.0

    def test_rigid_merge(self):
        v = np.array([0.4, 0.1, 0.0])
        composite = collide_and_stick(Particle(1.0, v), Particle(2.0, v))
        assert composite.mass == 3.0
        assert max_abs(composite.velocity - v) < 1e-15

    def test_asymmetric_fixture(self):
        composite = collide_and_stick(
            Particle(1.0, [0.6, 0.0, 0.0]), Particle(2.0, [0.0, 0.6, 0.0])
        )
        assert composite.mass == pytest.approx(math.sqrt(11.25), rel=1e-14)
        np.testing.assert_allclose(composite.velocity, [0.2, 0.4, 0.0], atol=1e-15)
        assert composite.relativistic_mass == pytest.approx(3.75, rel=1e-13)

    def test_conserves_four_momentum(self, rng):
        for _ in range(100):
            v1, v2 = ball_points(rng, 2, 3, max_norm=0.95)
            m1, m2 = rng.uniform(0.1, 4.0, size=2)
            p1, p2 = Particle(m1, v1), Particle(m2, v2)
            composite = collide_and_stick(p1, p2)
            e_in = p1.relativistic_mass + p2.relativistic_mass
            p_in = (p1.relativistic_mass * p1.velocity
                    + p2.relativistic_mass * p2.velocity)
            assert composite.relativistic_mass == pytest.approx(e_in, rel=1e-12)
            assert max_abs(composite.relativistic_mass * composite.velocity - p_in) \
                < 1e-12 * e_in


    def test_two_particle_decomposition_reused(self, rng, monkeypatch):
        """m0 and v0 of one decompose: the bits of decompose(system).m0 and .v0."""
        calls = []
        monkeypatch.setattr(mass, "_gamma", lambda *a: calls.append(a) or _gamma(*a))
        for _ in range(50):
            v1, v2 = ball_points(rng, 2, 3, max_norm=0.99)
            p1, p2 = Particle(rng.uniform(0.1, 4.0), v1), Particle(rng.uniform(0.1, 4.0), v2)
            calls.clear()
            composite = collide_and_stick(p1, p2)
            assert len(calls) == 2  # the particles' gammas and gamma(v0), once each
            system = ParticleSystem((p1, p2))
            assert composite.mass == decompose(system).m0
            assert same_bits(composite.velocity, decompose(system).v0)


class TestBoostInvariance:
    def test_invariant_mass_frame_independent(self, rng):
        for _ in range(100):
            sys_n = random_system(rng, max_norm=0.9)
            u = ball_points(rng, 1, 3, max_norm=0.9)[0]
            m0 = decompose(sys_n).m0
            m0_boosted = decompose(boost(sys_n, u)).m0
            assert abs(m0_boosted - m0) / m0 < 1e-10

    def test_boost_matches_per_particle_add(self, rng):
        sys_n = random_system(rng, n_max=50, max_norm=0.95)
        u = ball_points(rng, 1, 3, max_norm=0.9)[0]
        loop = np.array([einstein_add(u, p.velocity) for p in sys_n.particles])
        boosted = boost(sys_n, u)
        assert np.array_equal(boosted.velocities, loop)
        assert np.array_equal(boosted.masses, sys_n.masses)

    def test_boost_bits_are_those_of_one_addition(self, rng, monkeypatch):
        sys_n = random_system(rng, n_max=50, max_norm=0.95)
        u = ball_points(rng, 1, 3, max_norm=0.9)[0]
        want = _assemble(_add(u.tolist(), _components(sys_n.velocities), [norm_sq(u)]))
        assert same_bits(boost(sys_n, u).velocities, want)
        assert same_bits(in_blocks(monkeypatch, boost, sys_n, u).velocities, want)

    def test_boost_names_the_composition_that_leaves_the_ball(self, monkeypatch):
        # Both particles and u are admissible; u (+) v_1 is not.
        fast = [0.99999999 * MAX_NORM, 0.0, 0.0]
        u = [0.999999, 0.0, 0.0]
        message = ("u (+) particle velocity row {} has norm 0.99999999999999512 outside "
                   "the admissible ball (limit 0.99999999999949996)")
        pair = ParticleSystem((Particle(1.0, [0.1, 0.0, 0.0]), Particle(1.0, fast)))
        with pytest.raises(AdmissibilityError) as err:
            boost(pair, u)
        assert str(err.value) == message.format(1) and err.value.row == (1,)
        # Blocked, the row is still an index over the whole system.
        vel = np.zeros((3 * TEST_BLOCK + 1, 3))
        vel[:, 0] = 0.1
        vel[2 * TEST_BLOCK + 1] = fast
        system = ParticleSystem._from_arrays(np.ones(len(vel)), vel)
        for run in (boost, lambda *a: in_blocks(monkeypatch, boost, *a)):
            with pytest.raises(AdmissibilityError) as err:
                run(system, u)
            assert str(err.value) == message.format(2 * TEST_BLOCK + 1)

    def test_boost_rejects_batch_of_u(self, rng):
        sys_n = random_system(rng)
        with pytest.raises(DimensionError):
            boost(sys_n, np.zeros((2, 3)))

    def test_dark_mass_frame_independent(self, rng):
        sys_n = random_system(rng, max_norm=0.9)
        u = ball_points(rng, 1, 3, max_norm=0.9)[0]
        d1, d2 = decompose(sys_n), decompose(boost(sys_n, u))
        assert d2.m_dark == pytest.approx(d1.m_dark, rel=1e-9, abs=1e-12)


class TestNewtonianLimit:
    def test_scaling_orders(self, rng):
        base = ball_points(rng, 4, 3, max_norm=0.9)
        masses = (1.0, 2.0, 0.5, 1.5)
        dark, excess = [], []
        for lam in (1e-1, 1e-2, 1e-3, 1e-4):
            sys_l = ParticleSystem(
                tuple(Particle(m, lam * v) for m, v in zip(masses, base))
            )
            dec = decompose(sys_l)
            dark.append(dec.m_dark)
            excess.append(dec.m0 - dec.m_newton)
        # m_dark = O(lambda), m0 - m_newton = O(lambda^2)
        for big, small in zip(dark, dark[1:]):
            assert 3.0 < big / small < 30.0
        for big, small in zip(excess, excess[1:]):
            assert 30.0 < big / small < 300.0


class TestParsing:
    CSV = "# two particles, back to back\n1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n"

    def test_csv_roundtrip(self):
        system = parse_particles(self.CSV)
        assert len(system) == 2
        assert decompose(system).m0 == pytest.approx(2.5, abs=1e-12)

    def test_json_roundtrip(self):
        text = (
            '[{"mass": 1, "velocity": [0.6, 0, 0]},'
            ' {"mass": 1, "velocity": [-0.6, 0, 0]}]'
        )
        system = parse_particles(text)
        assert decompose(system).m0 == pytest.approx(2.5, abs=1e-12)

    def test_c_value_scaling(self):
        text = "1.0, 179875474.8, 0, 0\n"  # 0.6 c in m/s
        system = parse_particles(text, c_value=299792458.0)
        assert float(system.particles[0].velocity[0]) == pytest.approx(0.6, rel=1e-12)

    def test_malformed_line_number(self):
        with pytest.raises(ParticleFormatError) as err:
            parse_particles("1.0, 0.1, 0, 0\nnot numbers here\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_dimension_mismatch_line(self):
        with pytest.raises(ParticleFormatError) as err:
            parse_particles("1.0, 0.1, 0.2\n1.0, 0.3\n")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParticleFormatError):
            parse_particles("# nothing\n")

    def test_bad_json(self):
        with pytest.raises(ParticleFormatError):
            parse_particles("[{]")
        with pytest.raises(ParticleFormatError):
            parse_particles('[{"mass": 1}]')

    @pytest.mark.parametrize("text, c_value, error, message", [
        ('[{"mass": 1, "velocity": 0.5}]', 1.0, DimensionError,
         "need one velocity vector per particle mass"),
        ("[]", 1.0, ParticleFormatError, "JSON input must be a nonempty array of particles"),
        ("1,0.1", 0.0, ParticleFormatError, "c_value must be positive and finite"),
    ], ids=["json-scalar-velocity", "json-empty", "zero-c"])
    def test_rejected_input_named(self, text, c_value, error, message):
        with pytest.raises(error) as err:
            parse_particles(text, c_value=c_value)
        assert type(err.value) is error and str(err.value) == message

    def test_json_object_is_one_particle(self):
        system = parse_particles('{"mass": 1, "velocity": [0.1, 0.2]}')
        assert system.masses.tolist() == [1.0]
        assert system.velocities.tolist() == [[0.1, 0.2]]

    def test_inadmissible_velocity_error(self):
        with pytest.raises(AdmissibilityError):
            parse_particles("1.0, 1.5, 0, 0\n")

    def test_json_mixed_dimensions(self):
        text = ('[{"mass": 1, "velocity": [0.6, 0]},'
                ' {"mass": 1, "velocity": [-0.6, 0, 0]}]')
        with pytest.raises(DimensionError):
            parse_particles(text)

    @pytest.mark.parametrize("text", [
        "1.0, 0.1, 0\n0.0, 0.2, 0\n",
        "1.0, 0.1, 0\n-2.0, 0.2, 0\n",
        "nan, 0.1, 0\n",
        "inf, 0.1, 0\n",
        "1.0, 0.1, 0\n1.0, 0.8, 0.8\n",
        "1.0, nan, 0\n",
        '[{"mass": 0, "velocity": [0.1, 0]}]',
        '[{"mass": "heavy", "velocity": [0.1, 0]}]',
        '[{"mass": 1, "velocity": [2.0, 0]}]',
        '[{"mass": 1, "velocity": ["fast", 0]}]',
    ], ids=["zero-mass", "negative-mass", "nan-mass", "inf-mass", "fast",
            "nan-velocity", "json-zero-mass", "json-text-mass", "json-fast",
            "json-text-velocity"])
    def test_bad_mass_or_velocity(self, text):
        with pytest.raises(AdmissibilityError):
            parse_particles(text)

    def test_csv_read_exactly(self, rng):
        masses = rng.uniform(0.5, 2.0, size=50)
        vel = ball_points(rng, 50, 3, max_norm=0.95)
        text = "\n".join(",".join(repr(float(x)) for x in (m, *v))
                         for m, v in zip(masses, vel))
        system = parse_particles(text)
        assert np.array_equal(system.masses, masses)
        assert np.array_equal(system.velocities, vel)

    def test_one_validation_per_array(self, monkeypatch, validation_calls):
        # boost checks u once and each block of compositions once; the
        # system's own masses and velocities are not checked again.
        text = "".join(f"1.0, 0.{k}, 0, 0\n" for k in range(1, 10)) * 20
        system = parse_particles(text)
        assert len(system) == 180
        assert validation_calls == ["particle velocity"]
        monkeypatch.setattr(mass, "_require", _failing)
        blocked = (lambda *a: in_blocks(monkeypatch, boost, *a), math.ceil(180 / TEST_BLOCK))
        for run, blocks in [(boost, 1), blocked]:
            validation_calls.clear()
            run(system, [0.1, 0.0, 0.0])
            assert validation_calls == ["u"] + ["u (+) particle velocity"] * blocks


# Text that numpy's C reader and the line loop might read differently: line
# separators, whitespace, comments, fields that only float() accepts, fields
# neither accepts, and tables of odd shape.
PARITY_CORPUS = {
    "crlf": "1,0.1,0\r\n2,0.2,0\r\n",
    "bare-cr": "1,0.1,0\r2,0.2,0\r",
    "vt-ff": "1,0.1,0\x0b2,0.2,0\x0c3,0.3,0",
    "tab-nbsp": "\t1 ,\xa00.1\t, 0\xa0\n2\t,\t0.2,0\n",
    "whitespace-line": "1,0.1,0\n   \n\t\n2,0.2,0\n",
    "blank-lines": "\n\n1,0.1\n\n\n2,0.2\n\n",
    "comments": "# head\n1,0.1 # tail\n#\n2,0.2#x\n   # indented\n",
    "comment-only": "# nothing\n# more\n",
    "empty": "",
    "blank-only": " \n\n\t",
    "underscore": "1_0,0.1\n2,0.2\n",
    "arabic-indic": "\u0661,0.\u0665\n2,0.2\n",
    "bom": "\ufeff1,0.1\n",
    "inf-mass": "inf,0.1\n",
    "nan-velocity": "1,nan\n",
    "infinity-velocity": "1,-Infinity\n",
    "hex": "0x1,0.1\n",
    "fortran-exponent": "1d0,0.1\n",
    "quoted": '"1",0.1\n',
    "semicolons": "1;0.1;0\n",
    "trailing-comma": "1,0.1,\n",
    "mass-only": "1\n2\n",
    "ragged": "1,0.1,0\n2,0.2\n",
    "one-row": "1,0.1,0.2,0.3\n",
    "n1": "1,0.1\n2,-0.2\n",
    "n5": "1,0.1,0,0,-0.0,0.2\n2,0,0,0,0,0\n0.5,1e-300,-5e-324,0,0,0.99\n",
}


def parsed(text):
    """The system parse_particles makes of text, or the error it raises."""
    try:
        return parse_particles(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestCsvReaderParity:
    """numpy's C reader and the line loop give the same system or error."""

    @staticmethod
    def line_loop(monkeypatch, text):
        with monkeypatch.context() as m:
            m.setattr(mass, "_read_table", lambda text: None)
            return parsed(text)

    def assert_parity(self, monkeypatch, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = parsed(text)
        assert caught == []
        want = self.line_loop(monkeypatch, text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, ParticleSystem)
            assert same_bits(got.masses, want.masses)
            assert same_bits(got.velocities, want.velocities)

    @pytest.mark.parametrize("name", PARITY_CORPUS)
    def test_corpus(self, monkeypatch, name):
        self.assert_parity(monkeypatch, PARITY_CORPUS[name])

    def test_every_digit_layout(self, monkeypatch, rng):
        masses = rng.uniform(0.5, 2.0, size=300)
        vel = ball_points(rng, 300, 3, max_norm=0.95)
        vel[:3] = [[-0.0, 0.0, 1e-310], [5e-324, -5e-324, 0.5], [-0.0, -0.0, -0.0]]
        layouts = ["%r", "%.17g", "%.3e", "%.20f", "%+.9G"]
        rows = np.column_stack([masses, vel]).tolist()
        text = "\n".join(",".join(layouts[(i + j) % 5] % x for j, x in enumerate(row))
                         for i, row in enumerate(rows))
        self.assert_parity(monkeypatch, text)
        assert mass._read_table(text) is not None

    def test_well_formed_text_skips_the_line_loop(self, monkeypatch, rng):
        masses = rng.uniform(0.5, 2.0, size=2000)
        vel = ball_points(rng, 2000, 3, max_norm=0.95)
        text = "".join(",".join(map(repr, (m, *v.tolist()))) + "\n"
                       for m, v in zip(masses.tolist(), vel))
        monkeypatch.setattr(mass, "_read_csv", None)
        system = parse_particles(text)
        assert same_bits(system.masses, masses)
        assert same_bits(system.velocities, vel)
        assert system.masses.flags.c_contiguous and system.velocities.flags.c_contiguous


class TestScaling:
    def test_decompose_memory_is_linear(self, rng):
        # An O(N^2) pair sum at N = 1e5 would need tens of GB; the O(N)
        # form holds a few (N, n) temporaries.
        n = 100_000
        vel = ball_points(rng, n, 3, max_norm=0.95)
        system = ParticleSystem._from_arrays(rng.uniform(0.5, 2.0, size=n), vel)
        tracemalloc.start()
        try:
            decompose(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * system.velocities.nbytes
