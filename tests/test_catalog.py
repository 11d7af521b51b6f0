"""Tests for the executable catalog: every entry must verify at its defaults
and at random admissible draws, constraints must reject bad parameters, and
the side structures (x-profile families, the reduced general solution) must
satisfy their defining identities."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

import liesym.expr as ex
from oracles import unshared_verify_entry
from hypothesis import given, settings
from hypothesis import strategies as st

from liesym import catalog
from liesym.catalog import (
    ENTRIES,
    draw_params,
    entry_ids,
    general_solution_system,
    get_entry,
    instantiate,
    list_entries,
    verify_entry,
    xi_family,
)
from liesym.expr import (
    compile_evaluator,
    differentiate,
    evaluate,
    fold_constants,
    free_symbols,
    parse,
    sym,
    substitute,
    zero_report_at,
)
from liesym.liealg import AlgebraElement, normalize_L8
from liesym.odesys import Mat2, linear_change
from liesym.symmetry import (
    Generator,
    LinearGenerator,
    basis_generator,
    determining_matrix,
    determining_residual,
    residual_expressions,
    transform_generator,
)

ALL_IDS = entry_ids()

EXPECTED_IDS = [
    "T1.J1", "T1.J2", "T1.J3",
    "T2.1", "T2.2", "T2.3", "T2.4", "T2.5", "T2.6", "T2.7", "T2.8",
    "T2.9", "T2.10",
    "T3.S1a", "T3.S1b", "T3.S1c", "T3.S1d", "T3.S1e1", "T3.S1e2", "T3.S1e3",
    "T3.S1f", "T3.S1g", "T3.S2", "T3.S3a", "T3.S3b", "T3.S4a", "T3.S4b",
    "T3.S4c", "T3.S5a", "T3.S5b", "T3.S5c", "T3.S6", "T3.S7a", "T3.S7b",
]


def pushforward_generator(g, P: Mat2):
    """Conjugate a point-symmetry field by the linear change (y, z) -> P (y, z)."""
    if isinstance(g, LinearGenerator):
        return transform_generator(g, P)
    Q = P.inv()
    oy, oz = Q.apply_vec(sym("y"), sym("z"))
    e1 = substitute(g.eta1, {"y": oy, "z": oz})
    e2 = substitute(g.eta2, {"y": oy, "z": oz})
    n1, n2 = P.apply_vec(e1, e2)
    return Generator(g.xi, fold_constants(n1), fold_constants(n2))


def transformed_worst(entry_id, P: Mat2, params=None, n=150, seed=0) -> float:
    """Worst residual ratio of an entry's generators after conjugating the
    whole picture (system, generators, sample points) by P."""
    e = get_entry(entry_id)
    p = e.resolve(params)
    new_sys = linear_change(e.build(p), P)
    pts = e.sample_points(p, n=n, seed=seed)
    arr = P.to_array()
    new_pts = {
        "x": pts["x"],
        "y": arr[0, 0] * pts["y"] + arr[0, 1] * pts["z"],
        "z": arr[1, 0] * pts["y"] + arr[1, 1] * pts["z"],
        "yp": arr[0, 0] * pts["yp"] + arr[0, 1] * pts["zp"],
        "zp": arr[1, 0] * pts["yp"] + arr[1, 1] * pts["zp"],
    }
    worst = 0.0
    for _, g in [("kernel", basis_generator(1))] + e.labeled_generators(p):
        tg = pushforward_generator(g, P)
        for r in residual_expressions(new_sys, tg):
            worst = max(worst, zero_report_at(r, new_pts).max_ratio)
    return worst


def random_unimodularish(rng) -> Mat2:
    """A random well-conditioned 2x2 change of dependent variables."""
    while True:
        m = np.eye(2) + rng.uniform(-0.2, 0.2, (2, 2))
        if abs(np.linalg.det(m)) > 0.5:
            return Mat2.from_array(m)


class TestRegistry:
    def test_inventory(self):
        assert ALL_IDS == EXPECTED_IDS
        assert len(set(ALL_IDS)) == 34

    def test_schema_shape(self):
        rows = list_entries()
        assert [r["id"] for r in rows] == ALL_IDS
        for r in rows:
            assert r["description"]
            assert isinstance(r["quarantined"], bool)
            for s in r["params"]:
                assert set(s) == {"name", "default", "constraint", "derived"}

    def test_only_t2_3_quarantined(self):
        assert [e.id for e in ENTRIES.values() if e.quarantined] == ["T2.3"]
        assert "sign" in get_entry("T2.3").notes

    def test_derived_params_flagged(self):
        derived = {e.id: [s.name for s in e.params if s.derived]
                   for e in ENTRIES.values()}
        assert derived["T3.S2"] == ["gamma"]
        assert derived["T3.S7a"] == ["f0"]
        assert derived["T3.S7b"] == ["kappa"]
        assert derived["T3.S1e3"] == ["kappa"]

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown catalog entry"):
            get_entry("T9.zz")

    def test_defaults_admissible(self):
        for e in ENTRIES.values():
            e.resolve()  # must not raise

    def test_unknown_and_derived_params_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_entry("T1.J1").resolve({"beta": 1.0})
        with pytest.raises(ValueError, match="derived"):
            get_entry("T3.S7b").resolve({"kappa": 0.2})

    def test_instantiate_returns_expanded_generators(self):
        system, gens = instantiate("T3.S2")
        assert system.is_autonomous
        assert gens and all(type(g) is Generator for g in gens)


def _names(text: str) -> set:
    return set(free_symbols(parse(text)))


def _flat_draws(specs):
    """Each draw spec, the specs inside a ``retry`` included."""
    for spec in specs:
        yield spec
        if spec[1] == "retry":
            yield from _flat_draws(spec[3])


class TestTable:
    """Each row is data; its formulas, generators, checks and draws must fit
    its own parameter schema."""

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_row_is_consistent(self, entry_id):
        e = get_entry(entry_id)
        free = set(e.defaults())
        declared = free | set(e.derived)
        assert {s.name for s in e.params if s.derived} <= set(e.derived)
        known = set(free)
        for name, text in e.derived.items():  # each from the names before it
            assert _names(text) <= known, (name, text)
            known.add(name)
        used = set().union(*map(_names, e.derived.values()))
        for text in (e.F, e.G):
            assert _names(text) <= {"y", "z"} | declared, text
            used |= _names(text)
        for label, coefficients in e.generators:
            formulas = coefficients.split(",")
            assert len(formulas) == 8, label
            for text in formulas:
                assert _names(text) <= declared, (label, text)
                used |= _names(text)
        if e.profiles is not None:
            used.add("kappa")
            for kappa, pairs in e.profiles.items():
                assert all(_names(xi) <= {"x"} for _, xi in pairs), kappa
        for bounds in e.box.values():
            assert all(_names(b) <= declared for b in bounds if isinstance(b, str))
        assert free <= used, f"unused parameters {free - used}"
        for kind, *args in e.checks:
            names = set(args) if kind == "nonzero" else _names(args[0]) if args else set()
            assert names <= free, (kind, args)
        drawn, read = set(), set()
        for name, kind, *args in _flat_draws(e.draws):
            if kind == "retry":
                read |= _names(name)
                continue
            drawn.add(name)
            if kind == "=":
                read |= _names(args[0])
        assert drawn - free <= read, f"drawn but unused {drawn - free - read}"
        for seed in range(10):
            assert set(draw_params(entry_id, seed)) == free


class TestVerifyDefaults:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_entry_at_defaults(self, entry_id):
        rep = verify_entry(entry_id)
        assert rep.entry_id == entry_id
        assert rep.checks[0].label == "kernel"
        if rep.quarantined:
            assert not rep.passed
            assert any(not c.ok for c in rep.checks)
        else:
            assert rep.passed, [
                (c.label, c.max_ratio) for c in rep.checks if not c.ok]
            assert rep.worst() < 1e-10

    def test_failure_report_names_generator(self):
        rep = verify_entry("T2.3")
        bad = [c for c in rep.checks if not c.ok]
        assert bad and bad[0].label == "extension"
        assert bad[0].max_ratio > 1e-3
        assert set(bad[0].witness) == {"x", "y", "z", "yp", "zp"}


class TestSharedValueTable:
    """``verify_entry`` runs all of its zero tests on one value table; its
    reports must be those of one unshared zero test per residual."""

    CASES = [(eid, None) for eid in ALL_IDS] + [
        (eid, s) for eid in ALL_IDS for s in range(4)]

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_reports_match_unshared_tests(self, order):
        cases = self.CASES if order == "forward" else self.CASES[::-1]
        for eid, s in cases:
            p = None if s is None else draw_params(eid, s)
            assert repr(verify_entry(eid, p)) == repr(unshared_verify_entry(eid, p)), (eid, s)

    def test_each_distinct_node_is_evaluated_once(self, monkeypatch):
        e = get_entry("T1.J1")
        v = e._values(e.resolve())
        system = e._system(v)
        distinct = set()
        for _, gen in [("kernel", basis_generator(1))] + e._labeled(v):
            stack = [fold_constants(r) for r in residual_expressions(system, gen)]
            while stack:
                n = stack.pop()
                if n.args and n not in distinct:
                    distinct.add(n)
                    stack.extend(n.args)
        calls = []
        for key, fn in list(ex._TAPE_FNS.items()):
            def counted(*operands, fn=fn):
                if np.geterr()["over"] == "raise":  # not a flag's recomputation
                    calls.append(fn)
                return fn(*operands)
            monkeypatch.setitem(ex._TAPE_FNS, key, counted)
        shared = verify_entry("T1.J1")
        assert len(calls) == len(distinct) > 0
        calls.clear()
        assert repr(unshared_verify_entry("T1.J1")) == repr(shared)
        assert len(calls) > len(distinct)  # the unshared tests repeat nodes


class TestDraws:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_random_draws_verify(self, entry_id):
        if get_entry(entry_id).quarantined:
            pytest.skip("quarantined entry cannot pass")
        for k in range(2):
            p = draw_params(entry_id, rng=101 + 17 * k)
            rep = verify_entry(entry_id, p, seed=k + 1)
            assert rep.passed, (p, rep.worst())

    def test_draws_are_reproducible(self):
        for entry_id in ("T1.J1", "T2.4", "T3.S1e2"):
            assert draw_params(entry_id, rng=9) == draw_params(entry_id, rng=9)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_draws_always_admissible(self, seed):
        for entry_id in ("T1.J2", "T2.1", "T3.S1d", "T3.S1e2", "T3.S6"):
            draw_params(entry_id, rng=seed)  # resolve() inside must not raise


class TestResolveOnce:
    """``resolve`` runs every check on every call; the Laurent screen is
    memoized on its bound profile pair, so a pair is screened once.  The
    screens (``reducibility_hint`` calls) are counted from a cleared memo."""

    @pytest.fixture
    def screens(self, monkeypatch):
        catalog._screen.cache_clear()
        calls = []
        real = catalog.reducibility_hint

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(catalog, "reducibility_hint", counted)
        yield calls
        catalog._screen.cache_clear()  # drop the pairs the counted screen filled

    def test_draw_then_verify_screens_once(self, screens):
        p = draw_params("T2.1", 3)
        assert len(screens) == 1
        rep = verify_entry("T2.1", p)
        assert len(screens) == 1 and rep.passed and rep.params == p

    def test_resolve_build_and_generators_screen_once(self, screens):
        e = get_entry("T2.1")
        p = e.resolve()
        e.build(p)
        e.labeled_generators(p)
        instantiate("T2.1", p)
        assert len(screens) == 1

    def test_same_result_as_a_full_check(self, screens):
        e = get_entry("T2.1")
        p = draw_params("T2.1", 8)
        again = e.resolve(p)
        plain = e.resolve(dict(p))
        assert len(screens) == 1
        assert list(again.items()) == list(plain.items()) == list(p.items())
        assert e.build(again).resolved() == e.build(plain).resolved()

    def test_mutated_set_is_checked_again(self, screens):
        e = get_entry("T2.1")
        p = e.resolve()
        p["fp1"] = 0.5
        e.build(p)
        assert len(screens) == 2
        q = e.resolve()
        q.update({nm: 0.0 for nm in ("fm2", "fm1", "fp2", "gm2", "gm1", "gp2")})
        q.update({"fp1": 1.0, "gp1": 2.0})  # g = 2 f
        with pytest.raises(ValueError, match="profile pair is degenerate"):
            e.build(q)
        with pytest.raises(ValueError, match="profile pair is degenerate"):
            verify_entry("T2.1", q)
        assert len(screens) == 3  # the degenerate verdict is memoized too

    def test_equal_bound_pairs_screen_once(self, screens):
        # rows with other formulas bind the same profiles in u
        get_entry("T2.1").resolve()
        get_entry("T2.4").resolve()
        assert len(screens) == 1
        # a zero coefficient binds to one node whatever its sign
        e = get_entry("T2.1")
        e.resolve({"fm2": 0.0})
        e.resolve({"fm2": -0.0})
        assert len(screens) == 2

    def test_another_entry_checks_again(self, screens):
        p = get_entry("T2.1").resolve({"alpha": -0.5})
        with pytest.raises(ValueError, match="unknown parameter 'alpha'"):
            get_entry("T2.2").resolve(p)
        with pytest.raises(ValueError, match="alpha must be positive"):
            get_entry("T2.4").resolve(p)  # the same keys as T2.1
        assert len(screens) == 1

    def test_resolve_returns_a_new_set_each_time(self, screens):
        e = get_entry("T2.1")
        p = e.resolve()
        q, r = e.resolve(p), e.resolve(p)
        assert p is not q and q is not r and p == q == r
        q["gamma"] = 2.0
        assert p["gamma"] == r["gamma"] == 1.0
        e.resolve(r)
        assert len(screens) == 1

    def test_resolved_sets_behave_as_plain_dicts(self):
        p = draw_params("T2.1", 4)
        assert type(p) is dict and type(get_entry("T2.1").resolve(p)) is dict
        plain = dict(p)
        assert json.dumps(p) == json.dumps(plain) and repr(p) == repr(plain)
        for other in (copy.deepcopy(p), pickle.loads(pickle.dumps(p)), copy.copy(p)):
            assert other == plain and list(other.items()) == list(plain.items())
        rep = verify_entry("T2.1", p)
        assert type(rep.params) is dict
        d = dataclasses.asdict(rep)
        assert d["params"] == plain
        plain_rep = dataclasses.replace(rep, params=plain)
        assert json.dumps(d) == json.dumps(dataclasses.asdict(plain_rep))

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_memo_never_shows_in_reports(self, entry_id):
        """A report is the same from a cleared memo and from one warmed by
        every other row: a wrong key or a cached failure would show here."""
        sets = [None] + [draw_params(entry_id, s) for s in range(2)]

        def reports():
            return [repr(verify_entry(entry_id, p)) for p in sets]

        catalog._screen.cache_clear()
        cold = reports()
        for other in ALL_IDS:
            if other != entry_id:
                verify_entry(other)
                verify_entry(other, draw_params(other, 0))
        assert reports() == cold


class TestDeterminingMap:
    """``determining_matrix`` at a row's sample points, times the determining
    data u of each listed generator, is zero: T1 profiles are (xi, 0, 0) and
    a LinearGenerator is (k1 + k2 x, A - k2 I, zeta)."""

    @staticmethod
    def _data(gen, xi_text, x):
        """The (n, 11) columns of u along ``x``."""
        n = len(x)
        if isinstance(gen, LinearGenerator):
            zeta = gen.to_coefficients()[2:4]
            k2, A = gen.k2, gen.A
            return np.column_stack([gen.k1 + k2 * x] + [
                np.full(n, v) for v in (k2, 0.0, A.a11 - k2, A.a12, A.a21,
                                        A.a22 - k2, *zeta, 0.0, 0.0)])
        xi = [parse(xi_text)]
        for _ in range(3):
            xi.append(fold_constants(differentiate(xi[-1], "x")))
        cols = [compile_evaluator(xi[k], ("x",))(x) for k in (0, 1, 3)]
        return np.column_stack(cols + [np.zeros(n)] * 8)

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_listed_generators_solve_the_map(self, entry_id):
        # Each coefficient of M is itself a sum (3F + y F_y + z F_z, ...), so
        # the largest term counts |F|, |G| and y, z times the partials too.
        entry = get_entry(entry_id)
        p = entry.resolve()
        system = entry.build(p)
        pts = entry.sample_points(p)
        x, y, z = pts["x"], pts["y"], pts["z"]
        M = determining_matrix(system, pts)
        f, (g,) = compile_evaluator(system.F, ("x", "y", "z"), (system.G,))(x, y, z)
        partials = np.abs(M[:, :, 7:9]).max(axis=(0, 2))  # F_y, F_z, G_y, G_z
        inner = np.maximum.reduce([np.abs(f), np.abs(g), (np.abs(y) + np.abs(z)) * partials])
        profiles = dict((entry.profiles or {}).get(p.get("kappa"), ()))
        labeled = entry.labeled_generators(p)
        assert labeled
        for label, gen in labeled:
            U = self._data(gen, profiles.get(label), x)
            terms = M * U
            r = terms.sum(axis=-1)
            if entry.quarantined:  # the signature of T2.3's sign error in G
                r -= 2.0 * np.array([g, -f])
            scale = np.maximum(np.abs(terms).max(axis=-1), inner * np.abs(U).max(axis=-1))
            assert np.all(np.abs(r) <= 1e-12 * scale), (label, np.max(np.abs(r) / scale))


class TestT1:
    def test_j3_default_shape(self):
        system, _ = instantiate("T1.J3", {"kappa": 0.0})
        rng = np.random.default_rng(3)
        for _ in range(20):
            y, z = rng.uniform(0.3, 2.5, 2)
            b = {"y": float(y), "z": float(z)}
            assert evaluate(system.F, b) == pytest.approx(
                math.exp(y / z) * z ** -4.0 * (y + z), rel=1e-12)
            assert evaluate(system.G, b) == pytest.approx(
                z ** -3.0 * math.exp(y / z), rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0])
    @pytest.mark.parametrize("entry_id", ["T1.J1", "T1.J2", "T1.J3"])
    def test_all_profile_branches(self, entry_id, kappa):
        p = draw_params(entry_id, rng=77)
        p["kappa"] = kappa
        rep = verify_entry(entry_id, p, n=120, seed=2)
        assert rep.passed, [(c.label, c.max_ratio) for c in rep.checks]

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0])
    def test_determining_data_cross_check(self, kappa):
        """The same families solve the velocity-free determining form with
        the matching (xi, A) data."""
        profiles = {
            0.0: (("x", "x^2/2")),
            -1.0: (("cos(2*x)/2", "sin(2*x)/2")),
            1.0: (("exp(2*x)/2", "exp(-2*x)/2")),
        }[kappa]
        actions = {
            "T1.J1": Mat2.diag(3.0, 1.0),
            "T1.J2": Mat2(2.0, -1.0, 1.0, 2.0),
            "T1.J3": Mat2(1.0, 4.0, 0.0, 1.0),
        }
        rng = np.random.default_rng(11)
        for entry_id, action in actions.items():
            system, _ = instantiate(entry_id, {"kappa": kappa})
            for _ in range(5):
                pt = tuple(rng.uniform(0.3, 2.5, 3))
                for xi in profiles:
                    r1, r2 = determining_residual(system, xi, Mat2.zero(),
                                                  ("0", "0"), pt)
                    assert abs(r1) < 1e-9 and abs(r2) < 1e-9, (entry_id, xi)
                r1, r2 = determining_residual(system, "0", action,
                                              ("0", "0"), pt)
                assert abs(r1) < 1e-9 and abs(r2) < 1e-9, entry_id

    def test_wrong_action_rejected(self):
        """Injecting the rotation action into the diagonal-action family
        must fail visibly."""
        system, _ = instantiate("T1.J1")
        rogue = LinearGenerator.from_coefficients(
            (0.0, 0.0, 0.0, 0.0, 2.0, 2.0, -1.0, 1.0))
        worst = 0.0
        pts = get_entry("T1.J1").sample_points(get_entry("T1.J1").resolve(), n=80)
        for r in residual_expressions(system, rogue):
            worst = max(worst, zero_report_at(r, pts).max_ratio)
        assert worst > 1e-3


class TestT2:
    def test_row2_known_instance(self):
        """gamma = 1 with f = u, g = u^2 collapses to F = exp(-z),
        G = exp(-2 z)."""
        zeros = {nm: 0.0 for nm in ("fm2", "fm1", "fp2", "gm2", "gm1", "gp1")}
        system, gens = instantiate(
            "T2.2", {"gamma": 1.0, "fp1": 1.0, "gp2": 1.0, **zeros})
        rng = np.random.default_rng(4)
        for _ in range(20):
            y, z = rng.uniform(0.3, 2.5, 2)
            b = {"y": float(y), "z": float(z)}
            assert evaluate(system.F, b) == pytest.approx(math.exp(-z), rel=1e-12)
            assert evaluate(system.G, b) == pytest.approx(math.exp(-2 * z), rel=1e-12)
        rep = verify_entry("T2.2", {"gamma": 1.0, "fp1": 1.0, "gp2": 1.0, **zeros})
        assert rep.passed
        (g,) = gens
        assert evaluate(g.xi, {"x": 0.7}) == pytest.approx(0.7)

    @pytest.mark.parametrize("entry_id", [f"T2.{k}" for k in range(1, 11)])
    def test_extension_normalizes_to_declared_family(self, entry_id):
        e = get_entry(entry_id)
        for p in [e.defaults()] + [draw_params(entry_id, s) for s in range(6)]:
            ((_, g),) = e.labeled_generators(p)
            res = normalize_L8(AlgebraElement.from_coeffs(g.to_coefficients()))
            assert res.family == e.l8_family, (entry_id, res.family)

    def test_degenerate_profiles_rejected(self):
        zeros = {nm: 0.0 for nm in
                 ("fm2", "fm1", "fp1", "fp2", "gm2", "gm1", "gp1", "gp2")}
        with pytest.raises(ValueError, match="degenerate"):
            verify_entry("T2.7", zeros)
        prop = dict(zeros)
        prop.update({"fp1": 1.0, "gp1": 2.0})  # g = 2 f
        with pytest.raises(ValueError, match="degenerate"):
            verify_entry("T2.7", prop)

    def test_pushforward_points_stay_on_principal_branch(self):
        """Rows parameterized by (u, v) must sample points whose angular
        coordinate is recovered exactly by atan2."""
        for entry_id, shift in (("T2.4", 1), ("T2.5", -1), ("T2.6", 0)):
            e = get_entry(entry_id)
            p = e.resolve()
            pts = e.sample_points(p, n=100, seed=5)
            a = p["alpha"]
            d = a * a + 1.0
            c1, c2 = (a / d, 1.0 / d) if shift else (0.0, 0.0)
            u = np.arctan2(pts["z"] + shift * c2, pts["y"] - shift * c1)
            assert np.max(np.abs(u)) <= 1.2 + 1e-12

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 0}, "need at least one sample point, got n=0"),
        ({"n": -1}, "need at least one sample point, got n=-1"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ], ids=["n=0", "n=-1", "seed=-1"])
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_bad_sample_count_or_seed(self, entry_id, kwargs, message):
        """Every row, the pushforward rows included, rejects them with the
        sampling domain's own text, not numpy's."""
        with pytest.raises(ValueError) as info:
            verify_entry(entry_id, **kwargs)
        assert str(info.value) == message

    def test_quarantined_row_reports_but_cannot_pass(self):
        rep = verify_entry("T2.3")
        assert rep.quarantined and not rep.passed
        rep2 = verify_entry("T2.3", draw_params("T2.3", rng=8))
        assert rep2.quarantined and not rep2.passed


class TestT3:
    def test_s5a_subfamily_is_pinned(self):
        assert verify_entry("T3.S5a").passed
        with pytest.raises(ValueError, match="gamma = 1/2"):
            verify_entry("T3.S5a", {"gamma": 0.7})
        # at the pinned gamma the other parameters are genuinely free
        for seed in (1, 2):
            p = draw_params("T3.S5a", rng=seed)
            assert p["gamma"] == 0.5
            assert verify_entry("T3.S5a", p).passed

    def test_s1e_branch_constraints(self):
        with pytest.raises(ValueError, match="4\\*kappa - lam\\^2"):
            verify_entry("T3.S1e1", {"lam": 3.0, "kappa": 1.0})
        with pytest.raises(ValueError, match="lam\\^2 - 4\\*kappa"):
            verify_entry("T3.S1e2", {"lam": 1.0, "kappa": 1.25})
        with pytest.raises(ValueError, match="positive"):
            verify_entry("T3.S1e2", {"lam": 3.0, "kappa": -1.0})
        with pytest.raises(ValueError, match="derived"):
            verify_entry("T3.S1e3", {"kappa": 2.0})

    def test_domain_restrictions_hold(self):
        """Entries with square roots or Laurent arguments keep their bases
        positive on the sampled points."""
        for entry_id, expr_of in (("T3.S1c", lambda pts: pts["y"] - pts["z"] ** 2),
                                  ("T3.S5c", lambda pts: 0.5 + pts["z"] ** 2
                                   - 2 * pts["y"])):
            e = get_entry(entry_id)
            pts = e.sample_points(e.resolve(), n=200, seed=3)
            assert np.min(expr_of(pts)) > 0.0

    def test_covariance_under_linear_change(self):
        rng = np.random.default_rng(21)
        for entry_id in ("T3.S1a", "T3.S2", "T3.S3b", "T2.7", "T1.J2"):
            P = random_unimodularish(rng)
            worst = transformed_worst(entry_id, P, seed=4)
            assert worst < 1e-8, (entry_id, worst)


class TestXiFamily:
    @pytest.mark.parametrize("a", [0.0, -4.0, 4.0, -2.25, 7.0])
    def test_profile_equation(self, a):
        xs = np.linspace(-2.0, 2.0, 41)
        members = xi_family(a)
        assert len(members) == 3
        for e in members:
            d1 = differentiate(e, "x")
            d3 = differentiate(differentiate(d1, "x"), "x")
            r = fold_constants(d3 - a * d1)
            assert max(abs(evaluate(r, {"x": float(x)})) for x in xs) < 1e-10

    def test_members_match_t1_profiles(self):
        """The a = -4 / a = +4 basis members are exactly the d/dx coefficients
        of the kappa = -1 / kappa = +1 profile generators."""
        xs = np.linspace(0.1, 2.0, 17)

        def col(e):
            return np.array([evaluate(e, {"x": float(x)}) for x in xs])

        entry = get_entry("T1.J3")
        for kappa, a in ((-1.0, -4.0), (1.0, 4.0)):
            p = entry.resolve({"kappa": kappa})
            fam = [col(m) for m in xi_family(a)[1:]]
            for lbl, g in entry.labeled_generators(p):
                if lbl == "shear-action":
                    continue
                assert any(np.max(np.abs(col(g.xi) - f)) < 1e-12 for f in fam), lbl
        # kappa = 0: the d/dx coefficients 2x and x^2 span the same space as
        # the polynomial members x and x^2
        gens = dict(entry.labeled_generators(entry.resolve({"kappa": 0.0})))
        assert np.allclose(col(gens["dilation"].xi), 2.0 * xs)
        assert np.allclose(col(gens["projective"].xi), xs ** 2)


class TestGeneralSolution:
    def test_reduced_form_identity(self):
        rng = np.random.default_rng(12)
        y, z = sym("y"), sym("z")
        for _ in range(8):
            a, b, c = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
            system = general_solution_system(a, b, c, "u^2 - 1/u", "3*u + 1/u^2")
            pts = {"y": rng.uniform(0.3, 2.5, 120), "z": rng.uniform(0.3, 2.5, 120)}
            for rhs, lin, low in ((system.F, y, b), (system.G, z, c)):
                e = fold_constants(
                    3.0 * rhs + y * differentiate(rhs, "y")
                    + z * differentiate(rhs, "z") - a * lin - low)
                assert zero_report_at(e, pts).ok

    def test_degenerate_profiles_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            general_solution_system(1.0, 0.0, 0.0, "1", "1")
        with pytest.raises(ValueError, match="constant multiple"):
            general_solution_system(1.0, 0.0, 0.0, "u", "2*u")
        with pytest.raises(ValueError, match="symbol 'u'"):
            general_solution_system(1.0, 0.0, 0.0, "v+1", "u")

    def test_independent_pair_accepted(self):
        system = general_solution_system(0.5, -1.0, 2.0, "u^2", "u")
        assert system.is_autonomous
