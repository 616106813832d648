"""The four workloads: seeded inputs, timed operations and their checks.

Each workload builds its inputs from the seed in ``prepare``, warms up in
``warm_up`` and then runs whole rounds, so every run attempts the same mix
of operations.  Only the program's calls are inside the timed regions; the
checks compare every output with the independent oracles in
:mod:`oracles` (or with a property the method must have) after the clock
has stopped.  Checks that have to call the program run with tracing paused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import mpmath
import numpy as np

import oracles as orc

EPS = orc.EPS

# A triangle's gyroangles, measured geometrically or by the law of cosines,
# agree to this many radians.  With vertex norms <= 0.8 every side gamma is
# <= 4.6, so cos(angle) carries <= 8 ulps of g_b g_c <= 21 from each route;
# dividing by sinh(phi_b) sinh(phi_c) >= 0.01 (sides >= 0.1) and by
# sin(angle) >= sin(0.2) gives ~1e-10 rad; 1e-9 leaves a factor of ten.
TOL_ANGLE = 1e-9

# triangle_from_angles(angles) recovers the sides to this much.  An angle
# error of TOL_ANGLE moves g_a = (cos a + cos b cos c)/(sin b sin c) by at
# most 3 TOL_ANGLE/(sin b sin c) <= 8e-8 (angles >= 0.2), and a side
# s = sqrt(g^2 - 1)/g by dg/(g^3 s) <= 10 dg (s >= 0.1).
TOL_ROUNDTRIP = 1e-6

# Floats printed by the CLI carry 15 significant digits.
TOL_PRINT = 1e-14

SI_C = 299792458.0
ARCSEC = 180.0 * 3600.0 / math.pi

# The near-boundary slice is drawn from this constant seed, not from the
# run's seed, so that the same compositions fail in every run.
EDGE_SEED = 20130227


def ball_points(rng, k, top, n=3):
    """k points of the n-ball: uniform directions, norms uniform in [0, top]."""
    d = rng.normal(size=(k, n))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * rng.uniform(0.0, top, size=(k, 1))


def good_triangle(rng, top):
    """Seeded vertices with every side >= 0.1 and every angle >= 0.2 rad."""
    while True:
        a, b, c = ball_points(rng, 3, top)
        sides = [float(orc.distance(b, c)), float(orc.distance(a, c)),
                 float(orc.distance(a, b))]
        if min(sides) >= 0.1 and min(orc.law_of_cosines(*sides)) >= 0.2:
            return a, b, c, sides


def timed(fn, *args, **kwargs):
    """Wall time of fn(*args, **kwargs), and its result."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def pair_sum(vels, block=256):
    """Reference work shaped like the dark-mass pair sum: sum over all pairs
    of gamma_j gamma_k (1 - v_j.v_k), a row block at a time."""
    g = orc.gamma(vels)
    total = 0.0
    for lo in range(0, len(vels), block):
        dots = (vels[lo:lo + block, None, :] * vels[None, :, :]).sum(-1)
        total += float((g[lo:lo + block, None] * g[None, :] * (1.0 - dots)).sum())
    return total


def per_particle(masses, vels, u):
    """Reference work shaped like Particle() and boost(): one small numpy
    call per particle."""
    for m, v in zip(masses, vels):
        float(m) * orc.gamma(v)
        orc.add(u, v)


def vec_text(v):
    return ",".join(repr(float(x)) for x in v)


def particles_csv(masses, velocities):
    rows = np.column_stack([masses, velocities]).tolist()
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


class Record:
    """What one run measured and what its checks found."""

    def __init__(self):
        self.op_s = []
        self.bulk_s = []
        self.ref_op_s = []
        self.ref_bulk_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.extra = defaultdict(list)

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)

    def close(self, what, got, want, tol):
        """Check |got - want| <= tol elementwise (NaN fails)."""
        diff = np.abs(np.asarray(got, dtype=float) - want)
        ok = bool(np.all(diff <= tol))
        if not ok:
            worst = float(np.nanmax(diff / np.broadcast_to(tol, diff.shape)))
            self.errors.append(f"{what}: error {worst:.3g} x tolerance")


class Workload:
    """Base of the workloads.

    Every timed operation of the program is followed by a timed reference
    operation, and every bulk operation has one before and one after: work
    of the same shape (Python calls, numpy passes, a subprocess) done by the
    oracles, which never touch gyrokin.  The shared machine's processor
    speed drifts by tens of percent within a minute; both timings drift
    together, so their ratio holds steady.
    """

    min_rounds = 3
    # Whose peak RSS peak_rss_mb reports.
    rss_of = resource.RUSAGE_SELF

    def __init__(self, gk, root):
        self.gk = gk
        self.root = root
        self.tracer = None

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def close(self):
        pass

    def figures(self, m, rec):
        """The workload's own figures, derived from the raw times ``m``;
        printed for reading, not part of the JSON result."""
        return {}


class Batch(Workload):
    """Vectorized calls over (k, 3) velocity batches at k = 1e3 and 1e6."""

    K_BULK = 1_000_000
    K_SMALL = 1_000
    SMALL_SETS = 8
    SMALL_PER_ROUND = 128
    CHUNK = 1 << 16
    TOP = 0.999

    def prepare(self, rng):
        self.bulk = self._inputs(rng, self.K_BULK)
        self.small = [self._inputs(rng, self.K_SMALL) for _ in range(self.SMALL_SETS)]
        self.small_checked = {}
        self.bulk_digest = None

    def _inputs(self, rng, k):
        return {
            "u": ball_points(rng, k, self.TOP),
            "v": ball_points(rng, k, self.TOP),
            "w": ball_points(rng, k, self.TOP),
            "r": rng.uniform(-2.0, 2.0, k),
            "theta": rng.uniform(0.01, math.pi - 0.01, k),
            "speed": rng.uniform(0.0, 0.99, k),
            "p": rng.uniform(0.01, 1.0, k),
        }

    def warm_up(self):
        self._pipeline(self.small[0])

    def _pipeline(self, x):
        gk = self.gk
        u, v, w = x["u"], x["v"], x["w"]
        s = gk.einstein_add(u, v)
        return {
            "add": s,
            "sub": gk.einstein_sub(u, v),
            "cosub": gk.cosub(s, v),
            "gamma": gk.gamma(s),
            "gyrate": gk.gyrate(u, v, w),
            "gyrate_def": gk.gyrate_definitional(u, v, w),
            "coadd": gk.coadd(u, v),
            "dist": gk.gyrodistance(u, v),
            "smul": gk.scalar_mul(x["r"], u),
            "mid": gk.gyromidpoint(u, v),
            "rel": gk.relativistic_aberration(x["theta"], x["speed"], x["p"]),
            "stellar": gk.stellar_aberration(x["theta"], x["speed"]),
        }

    @staticmethod
    def _reference(x):
        u, v = x["u"], x["v"]
        w, _ = orc.add(u, v)
        orc.add(u, -v)
        orc.gamma(w)
        orc.scalar_mul(x["r"], u)
        orc.distance(u, v)
        orc.midpoint(u, v)
        orc.aberration(x["theta"], x["speed"], x["p"])

    def run_round(self, rec):
        rec.ref_bulk_s.append(timed(self._reference, self.bulk)[0])
        elapsed, out = timed(self._pipeline, self.bulk)
        rec.bulk_s.append(elapsed)
        rec.attempted += 1
        # The outputs of later passes over the same inputs must repeat bit
        # for bit; only the first is checked against the oracles in full.
        digest = hashlib.blake2b()
        for key in sorted(out):
            digest.update(np.ascontiguousarray(out[key]).data)
        if self.bulk_digest is None:
            self._check(rec, self.bulk, out)
            self.bulk_digest = digest.digest()
        else:
            rec.check(digest.digest() == self.bulk_digest, "batch pass at k=1e6 not repeatable")
        del out
        rec.ref_bulk_s.append(timed(self._reference, self.bulk)[0])
        for i in range(self.SMALL_PER_ROUND):
            x = self.small[i % self.SMALL_SETS]
            elapsed, out = timed(self._pipeline, x)
            rec.op_s.append(elapsed)
            rec.ref_op_s.append(timed(self._reference, x)[0])
            rec.attempted += 1
            first = self.small_checked.setdefault(i % self.SMALL_SETS, out)
            if first is out:
                self._check(rec, x, out)
            else:
                rec.check(all(np.array_equal(out[key], first[key]) for key in out),
                          "batch pass at k=1e3 not repeatable")

    def _check(self, rec, x, out):
        k = len(x["u"])
        for lo in range(0, k, self.CHUNK):
            part = slice(lo, lo + self.CHUNK)
            u, v, w = x["u"][part], x["v"][part], x["w"][part]
            o = {key: val[part] for key, val in out.items()}
            want, g_sum = orc.add(u, v)
            t_add = orc.tol_add(u, v)
            rec.close("einstein_add", o["add"], want, t_add[:, None])
            rec.close("einstein_sub", o["sub"], orc.add(u, -v)[0], orc.tol_add(u, -v)[:, None])
            # gamma identity: gamma(u (+) v) = gamma_u gamma_v (1 + u.v)
            rec.close("gamma identity", o["gamma"], g_sum,
                      g_sum * orc.tol_gamma_rel(want, t_add))
            # right cancellation: (u (+) v) [-] v = u
            rec.close("cosub right cancellation", o["cosub"], u,
                      orc.tol_nested(g_sum, t_add)[:, None])
            t_rot = orc.tol_rotation(u, v)
            rec.close("gyrate", o["gyrate"], orc.gyrate(u, v, w), t_rot[:, None])
            rec.close("|gyr[u,v]w| = |w|", np.linalg.norm(o["gyrate"], axis=1),
                      np.linalg.norm(w, axis=1), t_rot)
            rec.close("gyrate_definitional", o["gyrate_def"], o["gyrate"], t_rot[:, None])
            rec.close("coadd", o["coadd"], orc.coadd(u, v), orc.tol_coadd(u, v)[:, None])
            rec.close("gyrodistance", o["dist"], orc.distance(u, v), orc.tol_add(-u, v))
            r = x["r"][part]
            rec.close("scalar_mul", o["smul"], orc.scalar_mul(r, u),
                      orc.tol_scalar_mul(r, u)[:, None])
            rec.close("gyromidpoint", o["mid"], orc.midpoint(u, v),
                      orc.tol_midpoint(u, v)[:, None])
            theta, speed, p = x["theta"][part], x["speed"][part], x["p"][part]
            rec.close("relativistic_aberration", o["rel"], orc.aberration(theta, speed, p),
                      orc.tol_aberration(theta, speed, p))
            rec.close("stellar_aberration", o["stellar"], orc.aberration(theta, speed, 1.0),
                      orc.tol_aberration(theta, speed, 1.0))
        with self.paused():
            swapped = self.gk.coadd(x["v"], x["u"])
        rec.check(np.array_equal(out["coadd"], swapped), "coadd not symmetric bit for bit")

    def figures(self, m, rec):
        return {"batch_ns_per_elem.k1e6": (m["bulk_s"] / self.K_BULK * 1e9, "ns/element"),
                "batch_ns_per_elem.k1e3": (m["op_p50_us"] / self.K_SMALL * 1e3, "ns/element")}


class Scalar(Workload):
    """Single-vector tasks, plus a fixed slice of near-boundary compositions."""

    TASKS = 256
    TASKS_PER_ROUND = 64
    EDGE = 256
    TOP_VERTEX = 0.8
    TOP = 0.9

    def prepare(self, rng):
        self.tasks = [self._task(rng) for _ in range(self.TASKS)]
        self.expected = {}
        self.next_task = 0
        self.edge = self._edge_pairs(np.random.default_rng(EDGE_SEED))
        self.edge_exact = None

    def _task(self, rng):
        a, b, c, _ = good_triangle(rng, self.TOP_VERTEX)
        u, v = ball_points(rng, 2, self.TOP)
        scene = (rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9),
                 rng.uniform(0.1, math.pi - 0.1))
        return a, b, c, u, v, scene

    def _edge_pairs(self, rng):
        """Pairs with 1 - |v| log-uniform in [1 - MAX_NORM, 1e-4].

        Each vector is nudged down until its squared norm is within the
        documented admissible bound 1 - BALL_MARGIN, so every input is
        valid and a failure can only come from the composition.
        """
        limit = 1.0 - self.gk.BALL_MARGIN
        low, high = math.log(1.0 - self.gk.MAX_NORM), math.log(1e-4)
        pairs = []
        for _ in range(self.EDGE):
            pair = []
            for _ in range(2):
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                x = (1.0 - math.exp(rng.uniform(low, high))) * d
                while float(np.dot(x, x)) > limit:
                    x = x * (1.0 - 2.0 ** -52)
                pair.append(x)
            pairs.append(tuple(pair))
        return pairs

    def warm_up(self):
        self._run_task(self.tasks[0])
        self._run_edge()

    def _run_task(self, task):
        gk = self.gk
        a, b, c, u, v, scene = task
        tri = gk.triangle_from_vertices(a, b, c)
        by_sides = gk.triangle_from_sides(tri.side_a, tri.side_b, tri.side_c)
        by_angles = gk.triangle_from_angles(tri.alpha, tri.beta, tri.gamma)
        gyr = gk.Gyration(u, v)
        matrix = gyr.matrix()
        angle = gyr.rotation_angle()
        seen = gk.aberration_scene(*scene)
        uv = gk.einstein_add(u, v)
        vu = gk.einstein_add(v, u)
        back = gk.gyrate(u, v, vu)
        mid = gk.gyromidpoint(u, v)
        return tri, by_sides, by_angles, matrix, angle, seen, uv, vu, back, mid

    def _reference(self, task):
        a, b, c, u, v, (speed, p_s, theta_s) = task
        orc.law_of_cosines(float(orc.distance(b, c)), float(orc.distance(a, c)),
                           float(orc.distance(a, b)))
        orc.thomas_rotation(u, v)
        orc.aberration(theta_s, speed, p_s)
        orc.add(u, v)
        orc.add(v, u)
        orc.midpoint(u, v)

    def _reference_edge(self):
        for u, v in self.edge:
            orc.add(u, v)

    def _run_edge(self):
        gk = self.gk
        results = []
        for u, v in self.edge:
            try:
                results.append(float(gk.gamma(gk.einstein_add(u, v))))
            except gk.GyrokinError:
                results.append(None)
        return results

    def _expect(self, i):
        if i not in self.expected:
            a, b, c, u, v, (speed, p_s, theta_s) = self.tasks[i]
            sides = [float(orc.distance(b, c)), float(orc.distance(a, c)),
                     float(orc.distance(a, b))]
            side_tol = [float(orc.tol_add(-b, c)), float(orc.tol_add(-a, c)),
                        float(orc.tol_add(-a, b))]
            rot = orc.thomas_rotation(u, v)
            sun = np.array([speed, 0.0])
            w_s = p_s * np.array([math.cos(theta_s), math.sin(theta_s)])
            particle, _ = orc.add(sun, w_s)
            self.expected[i] = {
                "sides": sides, "side_tol": side_tol,
                "angles": orc.law_of_cosines(*sides),
                "rotation": rot, "rotation_angle": orc.rotation_angle(rot),
                "rot_tol": float(orc.tol_rotation(u, v)),
                "theta_e": float(orc.aberration(theta_s, speed, p_s)),
                "theta_tol": float(orc.tol_aberration(theta_s, speed, p_s)),
                "p_e": float(np.linalg.norm(particle)),
                "p_e_tol": float(orc.tol_add(sun, w_s)),
                "uv": orc.add(u, v)[0], "uv_tol": float(orc.tol_add(u, v)),
                "vu_tol": float(orc.tol_add(v, u)),
                "mid": orc.midpoint(u, v), "mid_tol": float(orc.tol_midpoint(u, v)),
            }
        return self.expected[i]

    def run_round(self, rec):
        for _ in range(self.TASKS_PER_ROUND):
            i = self.next_task
            self.next_task = (i + 1) % self.TASKS
            elapsed, out = timed(self._run_task, self.tasks[i])
            rec.op_s.append(elapsed)
            rec.ref_op_s.append(timed(self._reference, self.tasks[i])[0])
            rec.attempted += 1
            self._check_task(rec, i, out)
        rec.ref_bulk_s.append(timed(self._reference_edge)[0])
        elapsed, gammas = timed(self._run_edge)
        rec.bulk_s.append(elapsed)
        rec.ref_bulk_s.append(timed(self._reference_edge)[0])
        rec.attempted += len(gammas)
        rec.failed += sum(g is None for g in gammas)
        self._check_edge(rec, gammas)

    def _check_task(self, rec, i, out):
        tri, by_sides, by_angles, matrix, angle, seen, uv, vu, back, mid = out
        e = self._expect(i)
        got_sides = [tri.side_a, tri.side_b, tri.side_c]
        rec.close("triangle_from_vertices sides", got_sides, e["sides"], e["side_tol"])
        rec.close("triangle_from_vertices angles", [tri.alpha, tri.beta, tri.gamma],
                  e["angles"], TOL_ANGLE)
        rec.close("triangle_from_sides angles",
                  [by_sides.alpha, by_sides.beta, by_sides.gamma], e["angles"], TOL_ANGLE)
        rec.close("triangle_from_angles sides",
                  [by_angles.side_a, by_angles.side_b, by_angles.side_c], got_sides,
                  TOL_ROUNDTRIP)
        rec.close("Gyration.matrix", matrix, e["rotation"], e["rot_tol"])
        rec.close("Gyration.rotation_angle", angle, e["rotation_angle"], 8 * e["rot_tol"])
        rec.close("aberration_scene theta_e", seen.theta_e, e["theta_e"], e["theta_tol"])
        rec.close("aberration_scene p_e", seen.p_e, e["p_e"], e["p_e_tol"])
        rec.close("einstein_add", uv, e["uv"], e["uv_tol"])
        # gyrocommutative law u (+) v = gyr[u,v](v (+) u), and |gyr w| = |w|
        rec.close("gyrocommutative law", back, uv,
                  e["uv_tol"] + e["vu_tol"] + e["rot_tol"])
        rec.close("|gyr[u,v]w| = |w|", np.linalg.norm(back), np.linalg.norm(vu), e["rot_tol"])
        rec.close("gyromidpoint", mid, e["mid"], e["mid_tol"])

    def _check_edge(self, rec, gammas):
        if self.edge_exact is None:
            exact = []
            with mpmath.workdps(50):
                for u, v in self.edge:
                    mu = [mpmath.mpf(float(x)) for x in u]
                    mv = [mpmath.mpf(float(x)) for x in v]
                    gu = 1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in mu))
                    gv = 1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in mv))
                    exact.append(float(gu * gv * (1 + mpmath.fsum(a * b for a, b in zip(mu, mv)))))
            self.edge_exact = exact
        for got, want in zip(gammas, self.edge_exact):
            if got is not None:
                # gamma of a sum computed with |w|^2 rounded to a few ulps:
                # relative error ~ ulps x gamma^2 (see orc.tol_gamma_rel).
                rec.close("near-boundary gamma", got, want, 64 * EPS * want ** 3)

    def figures(self, m, rec):
        return {"scalar_task_p50_us": (m["op_p50_us"], "us"),
                "scalar_task_tail_us": (m["op_tail_us"], "us"),
                "scalar_edge_slice_s": (m["bulk_s"], "s")}


class Particles(Workload):
    """Many small particle systems from Particle objects, one large from CSV per round."""

    SMALL = 256
    SMALL_PER_ROUND = 128
    LARGE = 3
    N_LARGE = 2000
    TOP = 0.95
    TOP_BOOST = 0.5

    def prepare(self, rng):
        self.small = []
        for _ in range(self.SMALL):
            n = int(rng.integers(2, 21))
            self.small.append((rng.uniform(0.5, 2.0, n).tolist(),
                               ball_points(rng, n, self.TOP),
                               ball_points(rng, 1, self.TOP_BOOST)[0]))
        self.large = []
        for _ in range(self.LARGE):
            masses = rng.uniform(0.5, 2.0, self.N_LARGE)
            vels = ball_points(rng, self.N_LARGE, self.TOP)
            self.large.append((particles_csv(masses, vels), masses, vels,
                               ball_points(rng, 1, self.TOP_BOOST)[0]))
        self.expected = {}
        self.next_small = 0
        self.next_large = 0

    def warm_up(self):
        self._run_small(self.small[0])

    def _run_small(self, spec):
        gk = self.gk
        masses, vels, u = spec
        parts = tuple(gk.Particle(m, v) for m, v in zip(masses, vels))
        system = gk.ParticleSystem(parts)
        dec = gk.decompose(system)
        stuck = gk.collide_and_stick(parts[0], parts[1])
        boosted = gk.boost(system, u)
        return dec, stuck, boosted, gk.decompose(boosted)

    def _run_large(self, spec):
        gk = self.gk
        text, _, _, u = spec
        system = gk.parse_particles(text)
        dec = gk.decompose(system)
        boosted = gk.boost(system, u)
        return system, dec, boosted, gk.decompose(boosted)

    @staticmethod
    def _reference_small(spec):
        masses, vels, u = spec
        per_particle(masses, vels, u)
        w = np.asarray(masses) * orc.gamma(vels)
        w.sum(), (w[:, None] * vels).sum(axis=0)
        pair_sum(vels)
        pair_sum(orc.add(u, vels)[0])

    @staticmethod
    def _reference_large(spec):
        text, _, _, u = spec
        rows = np.array([[float(f) for f in line.split(",")] for line in text.splitlines()])
        masses, vels = rows[:, 0], rows[:, 1:]
        per_particle(masses, vels, u)
        pair_sum(vels)
        pair_sum(orc.add(u, vels)[0])

    def run_round(self, rec):
        if rec.attempted == 0:
            self._check_fixtures(rec)
        i = self.next_large
        self.next_large = (i + 1) % self.LARGE
        rec.ref_bulk_s.append(timed(self._reference_large, self.large[i])[0])
        elapsed, (system, dec, boosted, dec_b) = timed(self._run_large, self.large[i])
        rec.bulk_s.append(elapsed)
        rec.ref_bulk_s.append(timed(self._reference_large, self.large[i])[0])
        rec.attempted += 1
        _, masses, vels, u = self.large[i]
        with self.paused():
            rec.check(np.array_equal(system.masses, masses)
                      and np.array_equal(system.velocities, vels),
                      "parse_particles did not read the CSV exactly")
            boosted_vels = boosted.velocities
        self._check_system(rec, ("large", i), masses, vels, u, dec, boosted_vels, dec_b)
        del system, dec, boosted, dec_b
        for _ in range(self.SMALL_PER_ROUND):
            j = self.next_small
            self.next_small = (j + 1) % self.SMALL
            elapsed, (dec, stuck, boosted, dec_b) = timed(self._run_small, self.small[j])
            rec.op_s.append(elapsed)
            rec.ref_op_s.append(timed(self._reference_small, self.small[j])[0])
            rec.attempted += 1
            masses, vels, u = self.small[j]
            with self.paused():
                boosted_vels = boosted.velocities
            e = self._check_system(rec, ("small", j), masses, vels, u, dec, boosted_vels, dec_b)
            rec.close("collide_and_stick mass", stuck.mass, e["pair_m0"],
                      e["pair_m0"] * orc.tol_mass_rel(e["g_max"], 2))
            rec.close("collide_and_stick velocity", stuck.velocity, e["pair_v0"],
                      64 * EPS * e["g_max"] ** 2)

    def _expect(self, key, masses, vels, u):
        if key not in self.expected:
            m0, m_newton, _ = orc.invariant_mass(masses, vels)
            want_b, _ = orc.add(u, vels)
            g_max = float(np.max(orc.gamma(vels)))
            g_max_b = float(np.max(orc.gamma(want_b)))
            tol_b = orc.tol_add(np.broadcast_to(u, vels.shape), vels)
            e = {"m0": m0, "m_newton": m_newton, "g_max": g_max,
                 "boosted": want_b, "boosted_tol": tol_b[:, None],
                 # m0 of the boosted system: its own rounding at the boosted
                 # gammas, plus the boosted velocities' errors, which move
                 # m0 relatively by at most g^3 times their size.
                 "m0_b_rel": orc.tol_mass_rel(g_max_b, len(vels))
                 + g_max_b ** 3 * float(np.max(tol_b))}
            if key[0] == "small":
                e["pair_m0"], _, e["pair_v0"] = orc.invariant_mass(masses[:2], vels[:2])
            self.expected[key] = e
        return self.expected[key]

    def _check_system(self, rec, key, masses, vels, u, dec, boosted_vels, dec_b):
        e = self._expect(key, masses, vels, u)
        n = len(vels)
        rec.close("decompose m0 vs Minkowski norm", dec.m0, e["m0"],
                  e["m0"] * orc.tol_mass_rel(e["g_max"], n))
        rec.close("decompose m_newton", dec.m_newton, e["m_newton"], e["m_newton"] * n * EPS)
        rec.close("m0^2 = m_newton^2 + m_dark^2", dec.m0 ** 2,
                  dec.m_newton ** 2 + dec.m_dark ** 2, 8 * EPS * dec.m0 ** 2)
        rec.close("boost velocities", boosted_vels, e["boosted"], e["boosted_tol"])
        rec.close("m0 unchanged under boost", dec_b.m0, e["m0"], e["m0"] * e["m0_b_rel"])
        return e

    def _check_fixtures(self, rec):
        gk = self.gk
        with self.paused():
            pair = gk.decompose(gk.ParticleSystem((gk.Particle(1.0, [0.6, 0.0, 0.0]),
                                                   gk.Particle(1.0, [-0.6, 0.0, 0.0]))))
            _, vels, _ = self.small[0]
            rigid = gk.decompose(gk.ParticleSystem(tuple(
                gk.Particle(m, vels[0]) for m in (1.0, 2.0, 3.0))))
        rec.close("fixture +-0.6 pair m0", pair.m0, 2.5, 8 * EPS * 2.5)
        rec.close("fixture +-0.6 pair m_dark", pair.m_dark, 1.5, 16 * EPS * 1.5)
        rec.check(rigid.m_dark == 0.0, f"fixture rigid system m_dark = {rigid.m_dark!r}, not 0.0")

    def figures(self, m, rec):
        return {"particles_large_s": (m["bulk_s"], "s/system"),
                "particles_small_per_s": (1e6 / m["op_p50_us"], "systems/s")}


CLI_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
             "t1 = time.perf_counter(); import gyrokin.cli; "
             "t2 = time.perf_counter(); print(t1 - t0, t2 - t0)")
CLI_ENTRY = "import sys; from gyrokin.cli import entry; sys.argv[0] = 'gyrokin'; entry()"

# References for the CLI: a fresh interpreter importing numpy (for the small
# commands), and one that writes a table of the sweep's size and sums the
# pairs of the particle file (for the sweep plus the mass call).
CLI_REFERENCE_SMALL = "import numpy"
CLI_REFERENCE_BULK = """
import sys
import numpy as np
for t in np.linspace(0.0, 3.0, int(sys.argv[2])).tolist():
    sys.stdout.write(",".join(format(x, ".15g") for x in (t, t / 2, t / 4, t * 2)) + "\\n")
with open(sys.argv[1], encoding="utf-8") as fh:
    v = np.array([[float(f) for f in line.split(",")] for line in fh])[:, 1:]
g = 1.0 / np.sqrt(1.0 - (v * v).sum(-1))
total = 0.0
for lo in range(0, len(v), 256):
    dots = (v[lo:lo + 256, None, :] * v[None, :, :]).sum(-1)
    total += float((g[lo:lo + 256, None] * g[None, :] * (1.0 - dots)).sum())
print(total)
"""


def parse_cli_output(text, fmt):
    """Result and check rows of one CLI call, values as strings or lists."""
    if fmt == "json":
        doc = json.loads(text)
        return {**doc["result"], **{f"check_{k}": v for k, v in doc["checks"].items()}}
    rows = {}
    block = None
    for line in text.splitlines():
        if fmt == "table":
            if line.endswith(":"):
                block = rows[line[:-1]] = []
            elif ": " in line:
                key, value = line.split(": ", 1)
                rows[key] = value
                block = None
            else:
                block.append(line)
        else:
            key, value = line.split(",", 1)
            rows[key] = value.split(";") if ";" in value else value
    return rows


def numbers(value):
    """A printed scalar, vector or matrix as floats."""
    if isinstance(value, list):
        return np.array([numbers(v) for v in value])
    if isinstance(value, (int, float)):
        return np.float64(value)
    return np.array([float(x) for x in value.replace(",", " ").split()])


class Cli(Workload):
    """A fixed session of gyrokin CLI calls, one subprocess at a time."""

    SWEEP_ROWS = 50_000
    MASS_N = 1500
    TOP = 0.6
    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, gk, root):
        super().__init__(gk, root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("GYROKIN_C", None)
        self.workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(__file__))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self, rng):
        u, v, w = ball_points(rng, 3, self.TOP)
        a, b, c, _ = good_triangle(rng, self.TOP)
        _, _, _, sides = good_triangle(rng, self.TOP)
        r = float(rng.uniform(-3.0, 3.0))
        star = (float(rng.uniform(1e4, 6e4)), float(rng.uniform(10.0, 170.0)))
        fwd = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.95)),
               float(rng.uniform(0.2, 2.9)))
        inv = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.95)),
               float(rng.uniform(0.2, 2.9)))
        sweep_v = float(rng.uniform(0.1, 0.9))
        masses = rng.uniform(0.5, 2.0, self.MASS_N)
        vels = ball_points(rng, self.MASS_N, 0.95)
        path = os.path.join(self.workdir, "particles.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(particles_csv(masses, vels))
        V = vec_text
        self.inputs = dict(u=u, v=v, w=w, a=a, b=b, c=c, sides=sides, r=r, star=star,
                           fwd=fwd, inv=inv, sweep_v=sweep_v, masses=masses, vels=vels)
        self.small = [
            ("add", "table", ["add", "--u", V(u), "--v", V(v)]),
            ("sub", "json", ["sub", "--u", V(u), "--v", V(v)]),
            ("coadd", "csv", ["coadd", "--u", V(u), "--v", V(v)]),
            ("gyr", "table", ["gyr", "--u", V(u), "--v", V(v), "--w", V(w)]),
            ("gyr", "csv", ["gyr", "--u", V(v), "--v", V(u), "--w", V(w)]),
            ("scale", "json", ["scale", "--r", repr(r), "--v", V(v)]),
            ("distance", "csv", ["distance", "--a", V(a), "--b", V(b)]),
            ("midpoint", "table", ["midpoint", "--a", V(a), "--b", V(b)]),
            ("parallelogram", "json", ["parallelogram", "--a", V(a), "--b", V(b), "--c", V(c)]),
            ("triangle_vertices", "csv", ["triangle", "--mode", "vertices", "--a", V(a),
                                          "--b", V(b), "--c", V(c), "--out", "deg"]),
            ("triangle_sss", "json", ["triangle", "--mode", "sss", "--sides", V(sides)]),
            ("stellar", "table", ["aberration", "--model", "stellar", "--v", repr(star[0]),
                                  "--units", "si", "--theta-s", repr(star[1]),
                                  "--unit", "deg", "--out", "arcsec"]),
            ("relativistic", "json", ["aberration", "--model", "relativistic",
                                      "--v", f"{fwd[0]!r}c", "--p-s", f"{fwd[1]!r}c",
                                      "--theta-s", repr(fwd[2])]),
            ("relativistic_inv", "csv", ["aberration", "--model", "relativistic",
                                         "--v", f"{inv[0]!r}c", "--p-e", f"{inv[1]!r}c",
                                         "--theta-e", repr(inv[2])]),
        ]
        self.sweep = ("sweep", "csv", ["aberration", "--model", "stellar", "--v",
                                       f"{sweep_v!r}c", "--sweep", str(self.SWEEP_ROWS)])
        self.mass = ("mass", "json", ["mass", "--in", path])
        self.reference_bulk = ["-c", CLI_REFERENCE_BULK, path, str(self.SWEEP_ROWS)]
        for cmd in self.small + [self.sweep, self.mass]:
            if cmd[1] != "table":
                cmd[2].extend(["--format", cmd[1]])
        self.expected = None

    def warm_up(self):
        self._call(self.small[0][2])

    def _call(self, argv):
        return self._run(["-c", CLI_ENTRY, *argv])

    def _run(self, args):
        return timed(subprocess.run, [sys.executable, *args], env=self.env,
                     capture_output=True, check=False)

    def _reference(self, args):
        elapsed, proc = self._run(args)
        if proc.returncode != 0:
            raise RuntimeError(f"reference process failed: {proc.stderr.decode()}")
        return elapsed

    def run_round(self, rec):
        stdout_bytes = 0
        heavy = {}
        for cmd in self.small + [self.sweep, self.mass]:
            if cmd is self.sweep:
                rec.ref_bulk_s.append(self._reference(self.reference_bulk))
            elapsed, proc = self._call(cmd[2])
            rec.attempted += 1
            stdout_bytes += len(proc.stdout)
            if cmd in (self.sweep, self.mass):
                heavy[cmd[0]] = elapsed
            else:
                rec.op_s.append(elapsed)
                rec.ref_op_s.append(self._reference(["-c", CLI_REFERENCE_SMALL]))
            if proc.returncode != 0:
                rec.failed += 1
                rec.errors.append(f"gyrokin {cmd[0]} exited {proc.returncode}: "
                                  f"{proc.stderr.decode(errors='replace').strip()}")
                continue
            self._check(rec, cmd, proc.stdout.decode())
        rec.bulk_s.append(heavy.get("sweep", 0.0) + heavy.get("mass", 0.0))
        rec.ref_bulk_s.append(self._reference(self.reference_bulk))
        for name, elapsed in heavy.items():
            rec.extra[f"{name}_s"].append(elapsed)
        rec.extra["stdout_bytes"].append(stdout_bytes)
        if self.tracer:
            self._traced_extras(rec)

    def _traced_extras(self, rec):
        """Fresh-interpreter import probe, then the session in-process."""
        proc = subprocess.run([sys.executable, "-c", CLI_PROBE], env=self.env,
                              capture_output=True, check=True)
        numpy_s, import_s = map(float, proc.stdout.split())
        rec.extra["numpy_import_s"].append(numpy_s)
        rec.extra["import_s"].append(import_s)
        import gyrokin.cli as gcli
        main_s = 0.0
        for cmd in self.small + [self.sweep, self.mass]:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = gcli.main(list(cmd[2]))
            main_s += time.perf_counter() - start
            rec.check(code == 0, f"in-process gyrokin {cmd[0]} returned {code}")
            if code == 0:
                self._check(rec, cmd, buf.getvalue())
        rec.extra["main_s"].append(main_s)

    def _expect(self):
        if self.expected is None:
            x = self.inputs
            u, v, w, a, b, c = (x[k] for k in "uvwabc")
            add_uv, g_uv = orc.add(u, v)
            mid = orc.midpoint(a, b)
            co = orc.coadd(b, c)
            tri = [float(orc.distance(b, c)), float(orc.distance(a, c)),
                   float(orc.distance(a, b))]
            m0, m_newton, v0 = orc.invariant_mass(x["masses"], x["vels"])
            theta = math.pi * np.arange(1, self.SWEEP_ROWS + 1) / (self.SWEEP_ROWS + 1)
            self.expected = {
                "add": add_uv, "gamma": float(g_uv), "sub": orc.add(u, -v)[0],
                "coadd": orc.coadd(u, v), "gyr": orc.gyrate(u, v, w),
                "gyr_matrix": orc.thomas_rotation(u, v),
                "gyr_swapped": orc.gyrate(v, u, w),
                "gyr_swapped_matrix": orc.thomas_rotation(v, u),
                "scale": orc.scalar_mul(x["r"], v), "distance": float(orc.distance(a, b)),
                "midpoint": mid,
                # d = (b [+] c) (-) a
                "parallelogram": orc.add(co, -a)[0],
                "sides": tri, "angles": orc.law_of_cosines(*tri),
                "sss_angles": orc.law_of_cosines(*x["sides"]),
                "m0": m0, "m_newton": m_newton, "v0": np.array(v0),
                "g_max": float(np.max(orc.gamma(x["vels"]))),
                "sweep_theta": theta,
                "sweep_rel": orc.aberration(theta, x["sweep_v"], 1.0),
                "sweep_cl": orc.aberration(theta, x["sweep_v"], 1.0, classical=True),
                "sweep_tol": orc.tol_aberration(theta, x["sweep_v"], 1.0),
            }
        return self.expected

    def _check(self, rec, cmd, text):
        name, fmt, _ = cmd
        try:
            if name == "sweep":
                self._check_sweep(rec, text)
                return
            self._check_rows(rec, name, cmd[2], parse_cli_output(text, fmt))
        except (KeyError, ValueError, TypeError, AttributeError, IndexError) as exc:
            rec.errors.append(f"gyrokin {name}: unreadable output ({exc!r})")

    def _check_rows(self, rec, name, argv, rows):
        e = self._expect()
        x = self.inputs
        # Every velocity input is within 0.6 of the origin (gamma <= 1.25),
        # so each oracle bound below is ~1e-13; printing adds TOL_PRINT.
        vec_tol = 1e-12

        def close(what, key, want, tol):
            got = numbers(rows[key])
            rec.close(f"gyrokin {name} {what}", got, want,
                      tol + TOL_PRINT * np.abs(np.asarray(want, dtype=float)))

        if name == "add":
            close("result", "result", e["add"], vec_tol)
            close("gamma", "gamma", e["gamma"], vec_tol * e["gamma"])
        elif name == "sub":
            close("result", "result", e["sub"], vec_tol)
        elif name == "coadd":
            close("result", "result", e["coadd"], vec_tol)
        elif name == "gyr":
            swapped = argv[2] == vec_text(x["v"])
            key = "gyr_swapped" if swapped else "gyr"
            close("result", "result", e[key], vec_tol)
            close("matrix", "matrix", e[key + "_matrix"], vec_tol)
            close("rotation_angle", "rotation_angle",
                  orc.rotation_angle(e[key + "_matrix"]), 8 * vec_tol)
        elif name == "scale":
            close("result", "result", e["scale"], vec_tol)
        elif name == "distance":
            close("result", "result", e["distance"], vec_tol)
        elif name == "midpoint":
            close("result", "result", e["midpoint"], vec_tol)
        elif name == "parallelogram":
            close("result", "result", e["parallelogram"], vec_tol)
        elif name == "triangle_vertices":
            for key, want in zip(("side_a", "side_b", "side_c"), e["sides"]):
                close(key, key, want, vec_tol)
            for key, want in zip(("alpha", "beta", "gamma"), e["angles"]):
                close(key + " (deg)", key, math.degrees(want), math.degrees(TOL_ANGLE))
        elif name == "triangle_sss":
            for key, want in zip(("alpha", "beta", "gamma"), e["sss_angles"]):
                close(key, key, want, TOL_ANGLE)
        elif name == "stellar":
            speed = x["star"][0] / SI_C
            theta_s = x["star"][1] * (math.pi / 180.0)
            theta_e = float(orc.aberration(theta_s, speed, 1.0))
            tol = float(orc.tol_aberration(theta_s, speed, 1.0))
            close("theta_e (arcsec)", "theta_e", theta_e * ARCSEC, tol * ARCSEC)
            close("offset_arcsec", "offset_arcsec", (theta_s - theta_e) * ARCSEC,
                  (tol + EPS * theta_s) * ARCSEC)
        elif name == "relativistic":
            speed, p_s, theta_s = x["fwd"]
            close("theta_e", "theta_e", float(orc.aberration(theta_s, speed, p_s)),
                  float(orc.tol_aberration(theta_s, speed, p_s)))
        elif name == "relativistic_inv":
            speed, p_e, theta_e = x["inv"]
            close("theta_s", "theta_s", float(orc.aberration_inv(theta_e, speed, p_e)),
                  float(orc.tol_aberration(theta_e, speed, p_e)))
        elif name == "mass":
            n = self.MASS_N
            rec.check(int(rows["n_particles"]) == n, "gyrokin mass: wrong n_particles")
            close("m0 vs Minkowski norm", "m0", e["m0"],
                  e["m0"] * orc.tol_mass_rel(e["g_max"], n))
            close("m_newton", "m_newton", e["m_newton"], e["m_newton"] * n * EPS)
            close("v0", "v0", e["v0"], 64 * EPS * e["g_max"] ** 2)
            m0, mn, md = (float(numbers(rows[k])) for k in ("m0", "m_newton", "m_dark"))
            rec.close("gyrokin mass m0^2 = m_newton^2 + m_dark^2", m0 ** 2, mn ** 2 + md ** 2,
                      8 * TOL_PRINT * m0 ** 2)

    def _check_sweep(self, rec, text):
        e = self._expect()
        header, body = text.split("\n", 1)
        rec.check(header == "theta_s,theta_e_classical,theta_e_relativistic,offset_arcsec",
                  f"gyrokin sweep header {header!r}")
        table = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
        table = table.reshape(-1, 4)
        rec.check(len(table) == self.SWEEP_ROWS, "gyrokin sweep row count")
        theta, classical, relativistic, offset = table.T
        rel_print = TOL_PRINT * np.abs(table.T)
        rec.close("gyrokin sweep theta_s", theta, e["sweep_theta"], 4 * EPS + rel_print[0])
        rec.close("gyrokin sweep classical", classical, e["sweep_cl"],
                  e["sweep_tol"] + rel_print[1])
        rec.close("gyrokin sweep relativistic", relativistic, e["sweep_rel"],
                  e["sweep_tol"] + rel_print[2])
        rec.close("gyrokin sweep offset_arcsec", offset,
                  (e["sweep_theta"] - e["sweep_rel"]) * ARCSEC,
                  (e["sweep_tol"] + 4 * EPS) * ARCSEC + rel_print[3])

    def figures(self, m, rec):
        return {"cli_p50_ms": (m["op_p50_us"] / 1e3, "ms"),
                "cli_sweep_s": (float(np.median(rec.extra["sweep_s"])), "s"),
                "cli_mass_s": (float(np.median(rec.extra["mass_s"])), "s")}


WORKLOADS = {"batch": Batch, "scalar": Scalar, "particles": Particles, "cli": Cli}
