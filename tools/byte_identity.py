"""Write a fixed set of liesym outputs to a directory, one file per output,
so that two checkouts can be compared byte for byte with one ``diff -r``.

    python3 tools/byte_identity.py OUT [--src SRC]

``--src`` names the ``src`` directory of the package under test (default:
the one next to this script), so one copy of the script serves both sides:

    python3 tools/byte_identity.py /tmp/new
    python3 tools/byte_identity.py /tmp/old --src /path/to/other/checkout/src
    diff -r /tmp/old /tmp/new && echo identical

The inputs are fixed by seeds; the ``check`` and ``covariance`` inputs come
from the benchmark's generators in ``bench/workloads.py`` next to this
script.  709 files:

- ``catalog/``: ``liesym catalog verify --all --json`` at seeds 0 and 1, and
  ``liesym catalog list`` with and without ``--json``;
- ``rows/``: for all 34 rows at the defaults and at ``draw_params(id, s)``
  for s = 0..3, the printed F and G and ``generator_to_json`` of every
  listed generator;
- ``verify_entry/``: ``verify_entry`` on all 34 rows at ``draw_params(id, s)``
  for s = 0..3, as the report's repr;
- ``derivatives/``: the repr (signed zeros visible) of ``differentiate`` by
  x, y, z, yp and zp and of the second derivative by y, for every row's F
  and G at the defaults and for hand-written trees whose zero derivatives
  carry a sign;
- ``check/``: ``liesym check --json`` on the 40 inputs of round 0 of the
  ``check`` workload at seeds 1 and 2, with the temporary directory masked;
- ``systems/``: ``liesym check --json`` on four system files whose
  ``params`` enter F and G (one with an unused param, one with numeric
  right-hand sides) against the five generator files of ``commutator/``,
  and the errors for system files that lack G, name a param ``yp`` or give
  a non-number param;
- ``covariance/``: the 33 rows of round 0 of the ``covariance`` workload at
  seed 1, with the printed transformed system and the generators' ratios;
- ``normalize/``: ``liesym normalize --json`` on two seeded conjugates of a
  representative of every optimal-system row (L4, L6, L8, with kernel_c1 = 1
  where a class carries it) and on twelve seeded vectors per algebra;
- ``jordan/``: ``liesym jordan --json`` on five matrices, one per shape;
- ``commutator/``: ``liesym commutator --json`` on all 64 pairs of basis
  indices and all 25 pairs of five generator files (xi/eta and
  ``coefficients`` shapes);
- ``resolve/``: ``liesym catalog verify --id ... --set ...`` at one
  violating value per validator kind (``one-of``, ``away``, ``min``,
  ``max``, ``pinned``, ``nonzero`` and both Laurent degeneracies), at an
  unknown name, a derived name and a non-finite value, and at one valid
  override;
- ``errors/``: ten ``EvalError`` texts, two of them raised by a zero test
  after earlier tests of the same call filled its value table: a later
  generator's in ``verify_entry`` and the Wronskian's in
  ``reducibility_hint``; and five zero tests in turn on one value table,
  each report or error text a file: a passing test, one that raises
  (``1 / (y - z)`` where y = z), the passing test again, one refused for an
  unbound symbol, and the passing test once more;
- ``sample.txt`` and ``reducibility/``: ``sample`` on a two-variable box and
  ten ``reducibility_hint`` calls on parameter-free profile pairs, eight of
  which reach the Wronskian test.

Needs only the standard library and numpy; writes nothing outside ``OUT``
but the benchmark's input files, which go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _error_text(thunk) -> str:
    try:
        out = thunk()
    except Exception as exc:  # the text of whatever it raises is the output
        return f"{type(exc).__name__}: {exc}\n"
    return f"{out!r}\n"


#: One representative per row of the optimal-system table (c1..c8), with
#: kernel_c1 = 1 on the L8 families that can carry it.
_L6_REPS = [(0, 0, 0, 0, 1, -0.5, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, -1, 1), (0, 0, 1, 0, 0.5, 0.5, -1, 1),
            (0, 0, 0, 1, 0, 0, 1, 0), (0, 0, 0, 0, 1, 1, 1, 0),
            (0, 0, 1, 0, 0, 0, 0, 0), (0,) * 8]
_ROW_REPS = (
    [("L4", c) for c in [(0, 0, 0, 0, 1, 0.5, 0, 0), (0, 0, 0, 0, 0.5, 0.5, -1, 1),
                         (0, 0, 0, 0, 1, 1, 1, 0), (0, 0, 0, 0, 0, 0, 1, 0), (0,) * 8]]
    + [("L6", c) for c in _L6_REPS]
    + [("L8", c) for c in [(1,) + (0,) * 7, (0,) * 8, (0, 1) + (0,) * 6]]
    + [("L8", (0, 0.5) + c[2:]) for c in _L6_REPS[:7]]
    + [("L8", (1, 0) + c[2:]) for c in _L6_REPS[:7]])

_GENERATOR_FILES = [
    {"xi": "1"},
    {"xi": "x", "eta1": "y"},
    {"xi": "sin(x)", "eta1": "x * y", "eta2": "z ^ 2"},
    {"coefficients": [0, 1, 0, 0, 1, 0.5, 0, 0]},
    {"coefficients": [1, 0, 2, 0, 0, 0, 1, -1]},
]

#: Trees whose derivative by some variable is a signed zero from a spine of
#: sums and negations, or holds one inside.
_SIGNED_ZERO_SPINES = (
    "y - 1", "1 - z", "y - z", "-(-(z))", "x * -(z)", "atan2(z, -(z))",
    "-(1 - z) - y * -(2 - zp)", "y - (2 - -(z - yp))", "(z - 1) * y - -(y - 1)",
    "atan2(y - 1, x - (z - 1)) + -(-(yp - zp))",
)

#: ``catalog verify`` overrides, each breaking one check of ``resolve``
#: (the last is admissible): (output name, row, ``--set`` values).
_ZERO_F = ("fm2=0", "fm1=0", "fp1=0", "fp2=0")
_G_TWICE_F = ("fm2=0", "fm1=0", "fp2=0", "gm2=0", "gm1=0", "gp2=0", "fp1=1", "gp1=2")
_RESOLVE_RUNS = (
    ("one-of", "T1.J1", ("kappa=0.5",)),
    ("away", "T1.J1", ("gamma=1",)),
    ("min", "T2.4", ("alpha=-1",)),
    ("max", "T2.1", ("alpha=2",)),
    ("pinned", "T3.S5a", ("gamma=0.7",)),
    ("nonzero", "T1.J1", ("f1=0",)),
    ("laurent-flat", "T2.1", _ZERO_F),
    ("laurent-proportional", "T2.7", _G_TWICE_F),
    ("unknown", "T1.J1", ("beta=1",)),
    ("derived", "T3.S2", ("gamma=0.1",)),
    ("non-finite", "T2.1", ("fm2=1e309",)),
    ("valid", "T2.1", ("fm2=0.1", "alpha=-0.5")),
)

#: System files whose params enter F and G.
_SYSTEM_FILES = {
    "power": {"F": "a * z ^ (-2)", "G": "b * z ^ (-3)", "params": {"a": 2.5, "b": -0.75}},
    "unused": {"F": "exp(k * y)", "G": "exp(z) + c", "params": {"k": 1.5, "c": 2, "u": 3}},
    "numeric": {"F": 0, "G": -1.5, "params": {"a": 2}},
    "forced": {"F": "w * y + sin(x)", "G": "-w * z / y", "params": {"w": 0.5}},
}
#: System files that ``check`` rejects with exit 1.
_BAD_SYSTEM_FILES = {
    "no-G": {"F": "a * y", "params": {"a": 1}},
    "yp-param": {"F": "y", "G": "z", "params": {"yp": 1}},
    "string-param": {"F": "a * y", "G": "z", "params": {"a": "2"}},
}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _system_runs(work: Path, generators: list[str]):
    """(output name, argv) of ``check`` on every system file of
    ``_SYSTEM_FILES`` against every generator file, then on the malformed
    system files."""
    for name, obj in _SYSTEM_FILES.items():
        system = _write_json(work / f"system-{name}.json", obj)
        for k, gen in enumerate(generators):
            yield (f"systems/{name}-g{k}.txt",
                   ["check", system, gen, "--json", "--seed", "5"])
    for name, obj in _BAD_SYSTEM_FILES.items():
        system = _write_json(work / f"system-{name}.json", obj)
        yield f"systems/{name}.txt", ["check", system, generators[0], "--json"]


def _algebra_runs(liealg, generators: list[str]):
    """(output name, argv) of the ``normalize``, ``jordan`` and ``commutator``
    runs: each table row conjugated by two seeded words, twelve seeded
    vectors per algebra, five matrices and all pairs of basis indices and of
    generator files."""
    def text(c) -> str:
        return ",".join(repr(float(v)) for v in c)

    for i, (alg, c) in enumerate(_ROW_REPS):
        # integer shears keep integer entries exact, so the equal-eigenvalue
        # classes stay what they are
        shears = {"L4": (7, 8), "L6": (3, 4, 7, 8), "L8": (1, 3, 4, 7, 8)}[alg]
        for s in range(2):
            rng = np.random.default_rng([i, s])
            e = liealg.AlgebraElement.from_coeffs(c)
            for _ in range(3):
                e = liealg.automorphism(int(rng.choice(shears)), float(rng.integers(-2, 3)), e)
                e = liealg.involution(int(rng.choice((1, 2, 4))), e)
            e = float(rng.choice([2.0, -0.5, 3.0])) * e
            yield (f"normalize/row{i:02d}-{s}.txt",
                   ["normalize", "--algebra", alg, "--json", "--", text(e.c)])
    rng = np.random.default_rng(7)
    for alg, zeros in (("L4", 4), ("L6", 2), ("L8", 0)):
        for j in range(12):
            c = rng.integers(-2, 3, 8) * (rng.random(8) < 0.5) * rng.uniform(0.5, 2.0, 8)
            c[:zeros] = 0.0
            yield (f"normalize/{alg}-{j:02d}.txt",
                   ["normalize", "--algebra", alg, "--json", "--", text(c)])
    for name, m in [("J1", "1,2,3,4"), ("J2", "0,-1,1,0"), ("J3", "1,1,0,1"),
                    ("scalar", "2,0,0,2"), ("zero", "0,0,0,0")]:
        yield f"jordan/{name}.txt", ["jordan", "--matrix", m, "--json"]
    for i in range(1, 9):
        for j in range(1, 9):
            yield f"commutator/X{i}-X{j}.txt", ["commutator", str(i), str(j), "--json"]
    for a, pa in enumerate(generators):
        for b, pb in enumerate(generators):
            yield f"commutator/g{a}-g{b}.txt", ["commutator", pa, pb, "--json"]


def write_outputs(out: Path, work: Path) -> int:
    """Write every output under ``out``; returns the number of files."""
    # imported here: main() puts the package under test on sys.path first
    import workloads
    from liesym import catalog, cli, liealg, odesys, symmetry
    from liesym.expr import (SamplingDomain, ValueTable, compile_evaluator,
                             differentiate, evaluate, parse, sample, to_string,
                             zero_report_at)

    files = 0

    def emit(rel: str, text: str) -> None:
        nonlocal files
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text(text)
        files += 1

    for seed in (0, 1):
        code, stdout, stderr = _cli(cli, ["catalog", "verify", "--all", "--json",
                                          "--seed", str(seed)])
        emit(f"catalog/verify-all-seed{seed}.txt", f"exit {code}\n{stdout}{stderr}")
    for flags in ((), ("--json",)):
        code, stdout, stderr = _cli(cli, ["catalog", "list", *flags])
        emit(f"catalog/list{''.join(flags)}.txt", f"exit {code}\n{stdout}{stderr}")

    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        for tag, params in [("defaults", None)] + [
                (f"draw{s}", catalog.draw_params(eid, s)) for s in range(4)]:
            system = entry.build(params)
            lines = [f"F = {to_string(system.F)}", f"G = {to_string(system.G)}"]
            lines += [f"{label}: {json.dumps(symmetry.generator_to_json(g))}"
                      for label, g in entry.labeled_generators(params)]
            emit(f"rows/{eid}-{tag}.txt", "\n".join(lines) + "\n")

    for eid in catalog.entry_ids():
        for s in range(4):
            report = catalog.verify_entry(eid, catalog.draw_params(eid, s))
            emit(f"verify_entry/{eid}-draw{s}.txt", repr(report) + "\n")

    def derivatives(e) -> list[str]:
        lines = [f"d/d{v}: {differentiate(e, v)!r}" for v in ("x", "y", "z", "yp", "zp")]
        return lines + [f"d2/dy2: {differentiate(differentiate(e, 'y'), 'y')!r}"]

    for eid in catalog.entry_ids():
        system = catalog.get_entry(eid).build(None)
        lines = [f"F {line}" for line in derivatives(system.F)]
        lines += [f"G {line}" for line in derivatives(system.G)]
        emit(f"derivatives/{eid}.txt", "\n".join(lines) + "\n")
    emit("derivatives/spines.txt", "".join(
        f"{text} {line}\n" for text in _SIGNED_ZERO_SPINES
        for line in derivatives(parse(text))))

    for seed in (1, 2):
        wdir = work / f"check-{seed}"
        wdir.mkdir()
        for j, op in enumerate(workloads.Check(seed, wdir).round(0)):
            code, stdout, stderr = _cli(cli, ["check", op["system"], op["generator"],
                                              "--json", "--seed", str(op["seed"])])
            text = f"exit {code}\n{stdout}{stderr}".replace(str(wdir), "<work>")
            emit(f"check/seed{seed}-{j:02d}.txt", text)

    cov = workloads.Covariance(1, work)
    for op in cov.round(0):
        system, ratios, _ = cov.run(op)
        emit(f"covariance/{op[0]}.txt",
             f"F = {to_string(system.F)}\nG = {to_string(system.G)}\n"
             f"ratios = {ratios!r}\n")

    generators = [_write_json(work / f"generator-{k}.json", obj)
                  for k, obj in enumerate(_GENERATOR_FILES)]
    runs = [*_algebra_runs(liealg, generators), *_system_runs(work, generators)]
    runs += [(f"resolve/{name}.txt",
              ["catalog", "verify", "--id", eid, *(a for v in values for a in ("--set", v))])
             for name, eid, values in _RESOLVE_RUNS]
    for rel, argv in runs:
        code, stdout, stderr = _cli(cli, argv)
        emit(rel, f"exit {code}\n{stdout}{stderr}".replace(str(work), "<work>"))

    dom = SamplingDomain(intervals={"y": (0.2, 3.0)}, n=20, seed=0)
    xdom = SamplingDomain(intervals={"x": (0.2, 3.0)}, n=50, seed=1)
    errors = {
        "compile-shared-subtree": lambda: compile_evaluator(
            parse("ln(y - z) * ln(y - z) + 1 / (y - z)"), ("y", "z"))(
                np.array([0.5, 1.0, 2.0]), np.array([0.2, 1.0, 1.0])),
        "compile-quotient": lambda: compile_evaluator(
            parse("1 / (y - z)"), ("y", "z"))(np.array([1.0, 2.0]), np.array([1.0, 1.0])),
        "compile-unbound": lambda: compile_evaluator(parse("q + y"), ("y",)),
        "evaluate-unbound": lambda: evaluate(parse("y + z"), {"y": 1.0}),
        "evaluate-division": lambda: evaluate(parse("2 + 1 / y"), {"y": 0.0}),
        "evaluate-power": lambda: evaluate(parse("y ^ 0.5"), {"y": -2.0}),
        "evaluate-call": lambda: evaluate(parse("sin(y) + ln(y)"), {"y": -1.0}),
        "zero-report-unbound": lambda: zero_report_at(parse("gamma * y"), sample(dom)),
        # the kernel and the first two fields pass; the third field's
        # residual overflows
        "verify-entry-later-generator": lambda: catalog.verify_entry(
            "T1.J1", {"gamma": 1e306}),
        # f' and g' are finite; the Wronskian's product overflows
        "reducibility-wronskian-overflow": lambda: odesys.reducibility_hint(
            parse("1e200 * x"), parse("1e200 * x ^ 2"), xdom),
    }
    for name, thunk in errors.items():
        emit(f"errors/{name}.txt", _error_text(thunk))

    # a raising test and a refused one must leave the table as the passing
    # test left it, so the passing test reports the same each time
    table = ValueTable()
    tpts = sample(SamplingDomain(intervals={"y": (0.2, 3.0), "z": (0.2, 3.0)}, n=20, seed=5))
    tpts["z"][7] = tpts["y"][7]
    passing = parse("ln(y + z) * (y - z) + 1e-12 * exp(y) - (y - z) * ln(y + z)")
    table_tests = [("pass", passing), ("raise", parse("ln(y + z) * (y - z) + 1 / (y - z)")),
                   ("pass-again", passing), ("unbound", parse("gamma * ln(y + z)")),
                   ("pass-once-more", passing)]
    for k, (name, e) in enumerate(table_tests):
        emit(f"errors/table-{k}-{name}.txt",
             _error_text(lambda: zero_report_at(e, tpts, shared=table)))

    box = SamplingDomain(intervals={"y": (-1.0, 1.0), "z": (-1.0, 1.0)}, n=50, seed=3)
    pts = sample(box)
    emit("sample.txt", "".join(f"{k} = {[float(v) for v in pts[k]]!r}\n" for k in pts))

    laurent_f = "0.4 * x ^ -2 - 0.6 / x + 0.8 * x + 0.3 * x ^ 2"
    hints = {
        "constant": ("3", "x"),
        "proportional": ("x ^ 2", "3 * x ^ 2"),
        "none": ("sin(x)", "cos(x)"),
        "exp": ("exp(2 * x)", "x * exp(x)"),
        "g-constant": ("x ^ 2", "5"),
        "powers": ("x ^ -1", "x ^ 2"),
        "laurent": (laurent_f, "-0.5 * x ^ -2 + 0.7 / x - 0.4 * x + 0.6 * x ^ 2"),
        "laurent-twice": (laurent_f, f"2 * ({laurent_f})"),
        "laurent-negated": (laurent_f, f"-({laurent_f})"),
        "shared-factor": ("sin(x) + x ^ 2", "(sin(x) + x ^ 2) * exp(x)"),
    }
    for name, (f, g) in hints.items():
        emit(f"reducibility/{name}.txt",
             repr(odesys.reducibility_hint(parse(f), parse(g), xdom)) + "\n")
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory to write (must not exist)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="src directory of the liesym checkout under test")
    args = ap.parse_args(argv)
    if not (args.src / "liesym").is_dir():
        ap.error(f"no liesym package under {args.src}")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    args.out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as work:
        n = write_outputs(args.out, Path(work))
    print(f"wrote {n} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
