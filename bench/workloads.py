"""The benchmark's four workloads.

Each workload turns its seed into inputs one round at a time
(:meth:`round`), runs one operation on the package (:meth:`run`, the only
timed call) and checks the operation's output against independent
computations and required properties (:meth:`check`, untimed).  Run-level
checks that need more than one operation live in :meth:`finish`.

Every call into liesym goes through a module attribute (``catalog.
verify_entry``, ``odesys.linear_change``, ...), so the tracer's wrappers see
it.  Inputs depend only on the seed and the round number, never on timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from liesym import catalog, cli, expr, jordan, liealg, odesys, symmetry

import oracles

#: The one catalog row that is known not to verify (sign of G); see the
#: package README.
QUARANTINED = frozenset({"T2.3"})

ADMIT_TOL = 1e-8      # catalog verify and covariance: admitted at this ratio
REJECT_RATIO = 1e-6   # a deliberately wrong field must exceed this ratio


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, scale: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(scale))


def _rhs_callables(system):
    """Scalar (y, z) -> value callables for F and G of an autonomous system."""
    F, G = system.resolved()

    def at(e):
        return lambda y, z: expr.evaluate(e, {"x": 1.0, "y": y, "z": z})

    return at(F), at(G)


def _coefficients(g):
    """The 8 algebra coefficients of an affine field, or None."""
    if not isinstance(g, symmetry.LinearGenerator):
        return None
    try:
        return g.to_coefficients()
    except ValueError:      # x-dependent zeta: not in the algebra
        return None


def _generators(entry, params):
    return [("kernel", symmetry.basis_generator(1))] + list(
        entry.labeled_generators(params))


# ---------------------------------------------------------------------------
# catalog_verify
# ---------------------------------------------------------------------------

class CatalogVerify:
    """``verify_entry`` on every catalog row at its defaults and at seeded
    ``draw_params`` draws; one operation is one row at one parameter set."""

    name = "catalog_verify"
    DRAWS = 3
    BUMPED_ROWS = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for eid in catalog.entry_ids():
            for k in range(1 + self.DRAWS):
                draw = None if k == 0 else int(rng.integers(2**31))
                ops.append((eid, draw, int(rng.integers(2**31))))
        return ops

    def run(self, op):
        eid, draw, sample_seed = op
        params = None if draw is None else catalog.draw_params(eid, rng=draw)
        return catalog.verify_entry(eid, params, seed=sample_seed)

    def check(self, op, report) -> None:
        eid = op[0]
        quarantined = eid in QUARANTINED
        _require(report.entry_id == eid, f"report is for {report.entry_id}")
        _require(report.quarantined == quarantined,
                 f"quarantine flag {report.quarantined}")
        entry = catalog.get_entry(eid)
        gens = _generators(entry, report.params)
        _require([c.label for c in report.checks] == [lb for lb, _ in gens],
                 "generator labels differ from the entry's")
        if quarantined:
            _require(not report.passed, "quarantined row reported as passed")
            _require(report.checks[0].ok, "quarantined row rejects the kernel")
        else:
            _require(report.passed, f"row failed, worst ratio {report.worst():.3e}")
            _require(all(c.ok and c.max_ratio <= ADMIT_TOL for c in report.checks),
                     f"a check is above {ADMIT_TOL}")
        F, G = _rhs_callables(entry.build(report.params))
        for chk, (label, g) in zip(report.checks, gens):
            c = _coefficients(g)
            if c is None:
                continue
            w = chk.witness
            _require(sorted(w) == ["x", "y", "yp", "z", "zp"], f"witness {w}")
            r1, r2, scale = oracles.affine_residual(F, G, c, w["y"], w["z"])
            _require(_close((r1, r2)[chk.component - 1], chk.value, scale, 1e-6),
                     f"{label}: reported residual {chk.value:.6g} but the "
                     f"determining equation gives {(r1, r2)[chk.component - 1]:.6g}")
            if quarantined and label != "kernel":
                f, gv = F(w["y"], w["z"]), G(w["y"], w["z"])
                _require(_close(r1, -2.0 * gv, scale, 1e-6)
                         and _close(r2, 2.0 * f, scale, 1e-6),
                         f"{label}: signature r1 = -2G, r2 = +2F does not hold")
            else:
                _require(_close(r1, 0.0, scale, 1e-6) and _close(r2, 0.0, scale, 1e-6),
                         f"{label}: determining residual ({r1:.3g}, {r2:.3g}) "
                         "is not zero")

    def finish(self) -> list[str]:
        """A field with one coefficient bumped must be rejected, on a seeded
        subset of rows at their defaults.  Only X1 is admitted by itself on
        any row, so bumping c2..c8 leaves the admitted span."""
        rng = np.random.default_rng([self.seed, 1 << 20])
        rows = [e for e in catalog.entry_ids() if e not in QUARANTINED]
        problems = []
        for eid in rng.choice(rows, self.BUMPED_ROWS, replace=False):
            try:
                self._check_bumped(str(eid), rng)
            except CheckFailed as exc:
                problems.append(f"{eid} bumped: {exc}")
        return problems

    @staticmethod
    def _check_bumped(eid: str, rng) -> None:
        entry = catalog.get_entry(eid)
        params = entry.resolve()
        system = entry.build(params)
        c = next(c for _, g in entry.labeled_generators(params)
                 if (c := _coefficients(g)) is not None)
        c = list(c)
        i = int(rng.integers(1, 8))
        c[i] += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))
        bumped = symmetry.LinearGenerator.from_coefficients(c)
        pts = entry.sample_points(params, n=200, seed=int(rng.integers(2**31)))
        reps = [expr.zero_report_at(r, pts)
                for r in symmetry.residual_expressions(system, bumped)]
        comp = 0 if reps[0].max_ratio >= reps[1].max_ratio else 1
        worst = reps[comp]
        _require(worst.max_ratio > REJECT_RATIO,
                 f"c{i + 1} bumped is admitted at ratio {worst.max_ratio:.3e}")
        F, G = _rhs_callables(system)
        w = worst.witness
        r = oracles.affine_residual(F, G, c, w["y"], w["z"])
        _require(_close(r[comp], worst.value, r[2], 1e-6)
                 and not _close(r[comp], 0.0, r[2], 1e-6),
                 f"c{i + 1} bumped: determining equation gives {r[comp]:.6g}, "
                 f"reported {worst.value:.6g}")


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def conjugate_field(g, P):
    """Push a point field through (y, z) -> P (y, z): the new components are
    P eta(P^-1 (y, z)); xi is untouched."""
    if isinstance(g, symmetry.LinearGenerator):
        return symmetry.transform_generator(g, P)
    Q = np.linalg.inv(P.to_array())
    y, z = expr.sym("y"), expr.sym("z")
    back = {"y": Q[0, 0] * y + Q[0, 1] * z, "z": Q[1, 0] * y + Q[1, 1] * z}
    e1 = expr.substitute(g.eta1, back)
    e2 = expr.substitute(g.eta2, back)
    return symmetry.Generator(g.xi, P.a11 * e1 + P.a12 * e2, P.a21 * e1 + P.a22 * e2)


class Covariance:
    """Each verifiable row at its defaults, sent through a seeded linear
    change P of (y, z): system, generators and sample points all move by P.
    One operation is one (row, P) pair."""

    name = "covariance"
    POINTS = 120
    SPOT = 3      # points at which linear_change is checked by hand

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rows = [e for e in catalog.entry_ids() if e not in QUARANTINED]

    @staticmethod
    def draw_P(rng) -> odesys.Mat2:
        """I plus a perturbation: every entry nonzero (so the transformed
        trees have the same shape on every seed), |det| >= 0.5."""
        while True:
            m = np.eye(2) + rng.choice([-1.0, 1.0], (2, 2)) * rng.uniform(0.05, 0.25, (2, 2))
            if abs(np.linalg.det(m)) >= 0.5:
                return odesys.Mat2.from_array(m)

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return [(eid, self.draw_P(rng), int(rng.integers(2**31))) for eid in self.rows]

    def run(self, op):
        eid, P, sample_seed = op
        entry = catalog.get_entry(eid)
        params = entry.resolve()
        system = odesys.linear_change(entry.build(params), P)
        pts = entry.sample_points(params, n=self.POINTS, seed=sample_seed)
        a = P.to_array()
        moved = {"x": pts["x"],
                 "y": a[0, 0] * pts["y"] + a[0, 1] * pts["z"],
                 "z": a[1, 0] * pts["y"] + a[1, 1] * pts["z"],
                 "yp": a[0, 0] * pts["yp"] + a[0, 1] * pts["zp"],
                 "zp": a[1, 0] * pts["yp"] + a[1, 1] * pts["zp"]}
        ratios = []
        for _, g in _generators(entry, params):
            res = symmetry.residual_expressions(system, conjugate_field(g, P))
            ratios.append(max(expr.zero_report_at(e, moved).max_ratio for e in res))
        spot = [(float(pts["y"][i]), float(pts["z"][i])) for i in range(self.SPOT)]
        return system, ratios, spot

    def check(self, op, out) -> None:
        eid, P, _ = op
        system, ratios, spot = out
        entry = catalog.get_entry(eid)
        params = entry.resolve()
        _require(len(ratios) == len(_generators(entry, params)), "generator count")
        for k, ratio in enumerate(ratios):
            _require(ratio < ADMIT_TOL,
                     f"conjugated generator {k} has ratio {ratio:.3e}")
        F0, G0 = _rhs_callables(entry.build(params))
        F1, G1 = _rhs_callables(system)
        a = P.to_array()
        for y, z in spot:
            f, g = F0(y, z), G0(y, z)
            yn, zn = a[0, 0] * y + a[0, 1] * z, a[1, 0] * y + a[1, 1] * z
            want = a @ np.array([f, g])
            got = (F1(yn, zn), G1(yn, zn))
            _require(all(_close(gv, wv, max(abs(f), abs(g)), 1e-9)
                         for gv, wv in zip(got, want)),
                     f"linear_change: F, G at P(y, z) are {got}, expected {want}")

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class Check:
    """``liesym check`` on generated files, in process.  Each system is a
    pair of homogeneous degree-d sums of k Laurent monomials, checked against
    its scaling field (admitted) and a mis-scaled one (rejected); one
    operation is one call."""

    name = "check"
    # Terms per system, two operations each.  Sizes repeat so that the median
    # falls in the middle of the k = 32 group (40-60% of the operations) and
    # the 90th percentile in the middle of the k = 181 group (85-95%), not on
    # a boundary between sizes, where it would jump with noise.
    TERMS = (2, 3, 4, 6, 8, 11, 16, 23, 32, 32, 32, 32, 45, 64, 90, 128, 128,
             181, 181, 256)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @staticmethod
    def _sum(rng, k: int, d: float):
        # The exponents a cycle through -3..3 in a seeded order, so every
        # system with k terms has the same tree shape and only the numbers
        # change with the seed; drawn exponents made equal-k checks differ by
        # a fifth in time.
        exps = rng.permutation([i % 7 - 3 for i in range(k)])
        coefs = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
        return [(float(c), int(a), d - int(a)) for c, a in zip(coefs, exps)]

    @staticmethod
    def _text(terms) -> str:
        return " + ".join(f"{c!r} * y ^ ({a}) * z ^ ({b!r})" for c, a, b in terms)

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for j, k in enumerate(self.TERMS):
            d = float(rng.uniform(-3.0, 0.5))
            Fterms, Gterms = self._sum(rng, k, d), self._sum(rng, k, d)
            sys_path = self._write(f"r{r}-{j}-system.json",
                                   {"F": self._text(Fterms), "G": self._text(Gterms)})
            alpha = (1.0 - d) / 2.0     # the scaling field is (alpha x, y, z)
            wrong = alpha * (1.0 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.6)))
            for tag, a in (("scaling", alpha), ("misscaled", wrong)):
                # (a x, y, z) written as (x, y / a, z / a), the same field up to
                # a factor: with xi' = 1 the residual carries F itself as a
                # top-level sum, which zero_report_at compiles term by term
                beta = 1.0 / a
                gen_path = self._write(
                    f"r{r}-{j}-{tag}.json",
                    {"xi": "x", "eta1": f"{beta!r} * y", "eta2": f"{beta!r} * z"})
                ops.append({"system": sys_path, "generator": gen_path,
                            "seed": int(rng.integers(2**31)), "F": Fterms,
                            "G": Gterms, "defect": 1.0 - alpha * beta,
                            "admitted": tag == "scaling"})
        return ops

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["check", op["system"], op["generator"], "--json",
                             "--seed", str(op["seed"])])
        return code, buf.getvalue()

    def check(self, op, out) -> None:
        code, text = out
        want_code, want_verdict = (0, "admitted") if op["admitted"] else (2, "rejected")
        _require(code == want_code, f"exit code {code}, expected {want_code}")
        report = json.loads(text)
        _require(report["verdict"] == want_verdict, f"verdict {report['verdict']}")
        w = report["witness"]
        _require(sorted(w) == ["x", "y", "yp", "z", "zp"]
                 and all(math.isfinite(v) for v in w.values()), f"witness {w}")
        if op["admitted"]:
            _require(report["max_ratio"] <= 1e-9, f"ratio {report['max_ratio']:.3e}")
            return
        # Euler's identity y F_y + z F_z = d F makes the defect of the field
        # (x, beta y, beta z) equal to -2 (1 - alpha beta) (F, G).
        rhs = op["F"] if report["component"] == 1 else op["G"]
        want = -2.0 * op["defect"] * oracles.laurent_sum(rhs, w["y"], w["z"])
        scale = oracles.laurent_sum([(abs(c), a, b) for c, a, b in rhs], w["y"], w["z"])
        _require(_close(report["value"], want, 2.0 * abs(op["defect"]) * scale, 1e-8),
                 f"defect {report['value']:.6g} at the witness, dimensional "
                 f"analysis gives {want:.6g}")
        _require(report["max_ratio"] > REJECT_RATIO, f"ratio {report['max_ratio']:.3e}")

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def _block(kind: str, rng) -> np.ndarray:
    """A 2x2 block of a given real Jordan shape, well away from the others."""
    def pm(lo, hi):
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))

    if kind == "J3":
        # m I + N with N = [[pq, -p^2], [q^2, -pq]], so N^2 = 0 exactly
        p, q, m = pm(0.5, 1.5), pm(0.5, 1.5), pm(0.3, 1.5)
        return np.array([[m + p * q, -p * p], [q * q, m - p * q]])
    S = np.eye(2) + rng.uniform(-0.4, 0.4, (2, 2))
    if kind == "J1":
        l1 = pm(0.3, 1.5)
        core = np.diag([l1, l1 + pm(0.4, 1.2)])
    else:
        m, b = pm(0.1, 1.5), rng.uniform(0.4, 1.5)
        core = np.array([[m, b], [-b, m]])
    return S @ core @ np.linalg.inv(S)


class Normalize:
    """Seeded coefficient vectors through the L4, L6 and L8 normalizers, the
    word replay and the canonical vector, plus the Jordan classifier on the
    X5..X8 block; one operation is one vector."""

    name = "normalize"
    ROUND = 100
    KINDS = ("J1", "J2", "J3")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for j in range(self.ROUND):
            kind = self.KINDS[j % len(self.KINDS)]
            b = _block(kind, rng)
            head = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.3, 1.5, 4)
            c = [float(v) for v in head] + [float(b[0, 0]), float(b[1, 1]),
                                            float(b[0, 1]), float(b[1, 0])]
            # the first round of every run also gets the series-exponential
            # replay, which costs about ten operations
            ops.append((tuple(c), kind, r == 0))
        return ops

    @staticmethod
    def inputs(c):
        """(normalizer, vector) pairs: L4 sees X5..X8, L6 X3..X8, L8 all."""
        return ((liealg.normalize_L4, (0.0,) * 4 + c[4:]),
                (liealg.normalize_L6, (0.0,) * 2 + c[2:]),
                (liealg.normalize_L8, c))

    def run(self, op):
        c = op[0]
        out = []
        for fn, v in self.inputs(c):
            e = liealg.AlgebraElement.from_coeffs(v)
            rep = fn(e)
            out.append((rep, liealg.apply_word(rep.word, e), liealg.canonical_vector(rep)))
        return out, jordan.classify2x2(odesys.Mat2(c[4], c[6], c[7], c[5]))

    def check(self, op, out) -> None:
        c, kind, full = op
        reps, jr = out
        for (rep, replay, canon), (_, v) in zip(reps, self.inputs(c)):
            _require(liealg.rep_violations(rep) == [],
                     f"{rep.algebra}: {liealg.rep_violations(rep)}")
            want = rep.scale * np.array(canon.c)
            tol = 1e-9 * (1.0 + np.max(np.abs(want)))
            _require(np.max(np.abs(np.array(replay.c) - want)) <= tol,
                     f"{rep.algebra}: apply_word does not give scale * canonical")
            if full:
                got = oracles.replay_word(rep.word, v)
                _require(np.max(np.abs(got - want)) <= 1e3 * tol,
                         f"{rep.algebra}: adjoint-series replay does not give "
                         "scale * canonical")
        A = np.array([[c[4], c[6]], [c[7], c[5]]])
        shape, l1, l2 = oracles.eig2(*A.ravel())
        _require(jr.kind == kind, f"Jordan kind {jr.kind}, built as {kind}")
        _require(reps[0][0].family == {"J1": 1, "J2": 2, "J3": 3}[kind],
                 f"L4 family {reps[0][0].family} for a {kind} block")
        tol = 1e-7 * (1.0 + np.max(np.abs(A)))
        if kind == "J1":
            _require(shape == "real" and _close(jr.params["a11"], l1, 0, tol)
                     and _close(jr.params["a22"], l2, 0, tol),
                     f"J1 eigenvalues {dict(jr.params)} vs ({l1}, {l2})")
        elif kind == "J2":
            _require(shape == "complex" and _close(jr.scale, l2, 0, tol)
                     and _close(jr.params["a11"], l1 / l2, 0, tol),
                     f"J2 parameters {dict(jr.params)}, scale {jr.scale}")
        else:
            _require(_close(jr.params["a11"], l1, 0, tol),
                     f"J3 eigenvalue {jr.params['a11']} vs {l1}")
        P = jr.P.to_array()
        err = np.max(np.abs(P @ A @ np.linalg.inv(P) - jr.scale * jr.J.to_array()))
        _require(err <= 1e-9 * (1.0 + np.max(np.abs(A))), f"P A P^-1 - scale J = {err:.3e}")

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (CatalogVerify, Covariance, Check, Normalize)}
