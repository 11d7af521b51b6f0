"""Command-line front end.

Subcommands wrap the library layers one-to-one: ``check`` runs the symmetry
test on a system/generator pair read from JSON files (parsed by
:func:`~liesym.symmetry.system_from_json` and
:func:`~liesym.symmetry.generator_from_json`), ``normalize`` reduces a
coefficient vector to its optimal-system representative, ``jordan`` classifies
a real 2x2 matrix, ``commutator`` brackets two basis fields (by index) or two
generator files, and ``catalog`` lists or verifies the built-in entries.

Each subcommand returns its report as ``(payload, lines, exit_code)`` and
:func:`main` prints it once: the ``lines`` as human text by default, the
``payload`` as stable JSON with ``--json``.  Identical inputs and seed give
byte-identical reports; ``--timings`` is the one addition ``main`` makes to
every report (a ``timings`` key, or a ``(took ... s)`` line), and it is
opt-in precisely so the default stays reproducible.  Exit codes:
0 success/admitted/PASS, 2 rejected/FAIL, 3 quarantined catalog rows in the
selection, 1 usage or input errors (expressions that fail to evaluate on the
sample included).  ``LIESYM_SEED`` overrides the default
sampling seed when ``--seed`` is not given; either must be a non-negative
integer.

:func:`main` may be called any number of times in one process (tests,
notebooks, benchmarks): the argument parser is built once, at import, and
every call reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time

from .catalog import entry_ids, list_entries, verify_entry
from .expr import EvalError, SamplingDomain, to_string
from .jordan import classify2x2
from .liealg import (
    AlgebraElement,
    bracket,
    canonical_vector,
    kind_to_L4_rep,
    normalize_L4,
    normalize_L6,
    normalize_L8,
    rep_violations,
)
from .odesys import Mat2
from .symmetry import (
    admits, commutator_vf, default_domain, generator_from_json, system_from_json,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a vector may start with a negative number: read '-' and a digit or
        # '.digit' as a value, not an option, as argparse does from Python 3.13
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # the documented exit-code contract reserves 2 for "rejected"/"FAIL",
    # so usage errors must leave with 1 instead of argparse's default
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock time (breaks byte-identical output)")
    return p


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="liesym",
                  description="Lie point symmetry toolkit for second-order "
                              "ODE pairs y'' = F(y, z), z'' = G(y, z)")
    sub = top.add_subparsers(dest="cmd", required=True)
    common = [_common()]

    p = sub.add_parser("check", parents=common,
                       help="test whether a system admits a generator")
    p.add_argument("system", help="JSON file with F, G and optional params")
    p.add_argument("generator",
                   help="JSON generator file: {\"coefficients\": [c1..c8]}, "
                        "{\"linear\": {...}}, or xi/eta1/eta2 (missing ones are 0)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--domain", default=None, metavar="SPEC",
                   help="sampling box, e.g. 'x=0.2:3,y=0.2:3,z=0.2:3,"
                        "yp=-1:1,zp=-1:1'")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("normalize", parents=common,
                       help="optimal-system representative of a coefficient vector")
    p.add_argument("vector", help="comma-separated c1,...,c8")
    p.add_argument("--algebra", choices=("L4", "L6", "L8"), default="L8")
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("jordan", parents=common,
                       help="real Jordan shape of a 2x2 matrix")
    p.add_argument("--matrix", required=True, metavar="A11,A12,A21,A22")
    p.set_defaults(run=_cmd_jordan)

    p = sub.add_parser("commutator", parents=common,
                       help="bracket of two basis fields (indices 1..8) or "
                            "two generator files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(run=_cmd_commutator)

    p = sub.add_parser("catalog",
                       help="list or verify the built-in classification entries")
    catsub = p.add_subparsers(dest="catalog_cmd", required=True)
    c = catsub.add_parser("list", parents=common,
                          help="show all entry ids and parameters")
    c.set_defaults(run=_cmd_catalog_list)
    c = catsub.add_parser("verify", parents=common,
                          help="re-verify entries numerically")
    c.add_argument("--id", dest="entry_id", default=None)
    c.add_argument("--all", action="store_true")
    c.add_argument("--set", dest="assignments", action="append", default=[],
                   metavar="NAME=VALUE", help="parameter override (repeatable)")
    c.add_argument("--tol", type=float, default=1e-8)
    c.add_argument("--samples", type=int, default=200)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(run=_cmd_catalog_verify)
    return top


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _load(path: str, from_json):
    """Read the JSON object in ``path`` and parse it with ``from_json``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return from_json(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_domain(spec: str, samples: int, seed: int) -> SamplingDomain:
    intervals = {}
    for chunk in spec.split(","):
        bad = ValueError(f"bad domain chunk {chunk!r}; expected name=lo:hi")
        try:
            name, rng = chunk.split("=")
            lo, hi = rng.split(":")
            bounds = (float(lo), float(hi))
        except ValueError as exc:
            raise bad from exc
        name = name.strip()
        if not name:
            raise bad
        if name in intervals:
            raise ValueError(f"--domain names {name!r} more than once")
        intervals[name] = bounds
    return SamplingDomain(intervals=intervals, n=samples, seed=seed)


def _parse_vector(text: str, arity: int, what: str) -> list[float]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != arity:
        raise ValueError(f"{what} needs {arity} comma-separated numbers, "
                         f"got {len(parts)}")
    try:
        return [float(s) for s in parts]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _parse_assignments(pairs: list[str]) -> dict[str, float]:
    out = {}
    for item in pairs:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ValueError(f"bad --set {item!r}; expected NAME=VALUE")
        try:
            number = float(value)
        except ValueError as exc:
            raise ValueError(f"--set {item!r}: {exc}") from exc
        if name in out:
            raise ValueError(f"--set names {name!r} more than once")
        out[name] = number
    return out


def _seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("LIESYM_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "LIESYM_SEED"
        except ValueError as exc:
            raise ValueError(f"LIESYM_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def _combo(c, tol: float = 1e-12) -> str:
    """Render an 8-vector as a combination of the basis fields X1..X8."""
    terms = []
    for i, v in enumerate(c, start=1):
        if abs(v) <= tol:
            continue
        if v == 1.0:
            terms.append(f"X{i}")
        elif v == -1.0:
            terms.append(f"-X{i}")
        else:
            terms.append(f"{v:g} X{i}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _word_text(word) -> str:
    if not word:
        return "(identity)"
    bits = []
    for move in word:
        if move[0] == "A":
            bits.append(f"A{move[1]}({move[2]:g})")
        else:
            bits.append(f"E{move[1]}")
    return " ".join(bits)


def _witness_text(w: dict) -> str:
    return ", ".join(f"{k}={v:.6g}" for k, v in sorted(w.items()))


def _params_text(params: dict) -> str:
    if not params:
        return "none"
    return ", ".join(f"{k}={v:g}" for k, v in sorted(params.items()))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> tuple[dict, list[str], int]:
    seed = _seed(args)
    system = _load(args.system, system_from_json)
    gen = _load(args.generator, generator_from_json)
    if args.domain:
        dom = _parse_domain(args.domain, args.samples, seed)
    else:
        dom = default_domain(n=args.samples, seed=seed)
    verdict = admits(system, gen, dom, tol=args.tol)
    payload = {
        "command": "check",
        "system": args.system,
        "generator": args.generator,
        "tol": args.tol,
        "samples": args.samples,
        "seed": seed,
        "verdict": "admitted" if verdict.admitted else "rejected",
        "max_ratio": verdict.max_ratio,
        "component": verdict.component,
        "witness": verdict.witness,
        "value": verdict.value,
    }
    if verdict.admitted:
        lines = [f"admitted: worst residual ratio {verdict.max_ratio:.3e} "
                 f"(component {verdict.component}) at tol {args.tol:g}"]
    else:
        lines = [
            f"rejected: residual ratio {verdict.max_ratio:.3e} on component "
            f"{verdict.component} (tol {args.tol:g})",
            f"  witness: {_witness_text(verdict.witness)}",
            f"  residual value there: {verdict.value:.6g}",
        ]
    return payload, lines, 0 if verdict.admitted else 2


def _cmd_normalize(args) -> tuple[dict, list[str], int]:
    c = _parse_vector(args.vector, 8, "coefficient vector")
    fn = {"L4": normalize_L4, "L6": normalize_L6, "L8": normalize_L8}[args.algebra]
    rep = fn(AlgebraElement.from_coeffs(c))
    canon = canonical_vector(rep)
    payload = {
        "command": "normalize",
        "algebra": rep.algebra,
        "input": c,
        "family": rep.family,
        "params": dict(rep.params),
        "scale": rep.scale,
        "kernel_c1": rep.kernel_c1,
        "word": [list(m) for m in rep.word],
        "canonical": list(canon.c),
        "violations": rep_violations(rep),
    }
    lines = [
        f"{rep.algebra} family {rep.family} (scale {rep.scale:g})",
        f"  params: {_params_text(dict(rep.params))}",
        f"  canonical: {_combo(canon.c)}",
        f"  word: {_word_text(rep.word)}",
    ]
    if payload["violations"]:
        lines.append(f"  violations: {payload['violations']}")
    return payload, lines, 0


def _cmd_jordan(args) -> tuple[dict, list[str], int]:
    vals = _parse_vector(args.matrix, 4, "--matrix")
    result = classify2x2(Mat2(*vals))
    l4 = kind_to_L4_rep(result)
    payload = {
        "command": "jordan",
        "matrix": [vals[:2], vals[2:]],
        "kind": result.kind,
        "params": dict(result.params),
        "scale": result.scale,
        "P": result.P.to_array().tolist(),
        "J": result.J.to_array().tolist(),
        "reconstruction_error": result.reconstruction_error(Mat2(*vals)),
        "l4_family": l4.family,
        "l4_params": dict(l4.params),
    }
    lines = [
        f"kind {result.kind} (scale {result.scale:g}); "
        f"params: {_params_text(dict(result.params))}",
        f"  J rows: {payload['J']}",
        f"  P rows: {payload['P']}",
        f"  reconstruction error: {payload['reconstruction_error']:.3e}",
        f"  scaling-subalgebra family: {l4.family} "
        f"({_params_text(dict(l4.params))})",
    ]
    return payload, lines, 0


def _cmd_commutator(args) -> tuple[dict, list[str], int]:
    try:
        i, j = int(args.left), int(args.right)
    except ValueError:
        for text in (args.left, args.right):
            try:
                int(text)
            except ValueError:
                continue
            raise ValueError(
                f"mixed index/file pair {args.left!r}, {args.right!r}: give two "
                "basis indices (1..8) or two generator files") from None
        g1 = _load(args.left, generator_from_json)
        g2 = _load(args.right, generator_from_json)
        out = commutator_vf(g1, g2)
        xi, e1, e2 = (to_string(e) for e in (out.xi, out.eta1, out.eta2))
        payload = {
            "command": "commutator",
            "left": args.left,
            "right": args.right,
            "xi": xi,
            "eta1": e1,
            "eta2": e2,
        }
        return payload, [f"xi   = {xi}", f"eta1 = {e1}", f"eta2 = {e2}"], 0
    else:
        if not (1 <= i <= 8 and 1 <= j <= 8):
            raise ValueError("basis indices must lie in 1..8")
        out = bracket(AlgebraElement.basis(i), AlgebraElement.basis(j))
        payload = {
            "command": "commutator",
            "left": i,
            "right": j,
            "coefficients": list(out.c),
            "pretty": _combo(out.c),
        }
        lines = [f"[X{i}, X{j}] = {payload['pretty']}"]
        return payload, lines, 0


def _cmd_catalog_list(args) -> tuple[dict, list[str], int]:
    entries = list_entries()
    payload = {"command": "catalog-list", "entries": entries}
    lines = []
    for e in entries:
        flag = " [quarantined]" if e["quarantined"] else ""
        names = ", ".join(s["name"] + ("*" if s["derived"] else "")
                          for s in e["params"])
        lines.append(f"{e['id']}{flag}: {e['description']}")
        lines.append(f"    params: {names or 'none'}")
    lines.append("(* derived parameter; set the free ones only)")
    return payload, lines, 0


def _entry_payload(report) -> dict:
    return {
        "id": report.entry_id,
        "params": dict(report.params),
        "quarantined": report.quarantined,
        "passed": report.passed,
        "worst": report.worst(),
        "checks": [dataclasses.asdict(c) for c in report.checks],
    }


def _entry_lines(report) -> list[str]:
    if report.passed:
        return [f"{report.entry_id} PASS (worst ratio {report.worst():.3e})"]
    bad = [c for c in report.checks if not c.ok]
    tag = "QUARANTINED (expected failure)" if report.quarantined else "FAIL"
    lines = [f"{report.entry_id} {tag}"]
    for c in bad:
        lines.append(f"  {c.label}: ratio {c.max_ratio:.3e} on component "
                     f"{c.component}")
        lines.append(f"    witness: {_witness_text(c.witness)}")
        lines.append(f"    residual value there: {c.value:.6g}")
    return lines


def _cmd_catalog_verify(args) -> tuple[dict, list[str], int]:
    seed = _seed(args)
    overrides = _parse_assignments(args.assignments)
    if args.all == (args.entry_id is not None):
        raise ValueError("choose exactly one of --id ID or --all")
    if args.all and overrides:
        raise ValueError("--set only makes sense with a single --id")
    ids = entry_ids() if args.all else [args.entry_id]
    reports = [verify_entry(entry_id, overrides or None,
                            tol=args.tol, n=args.samples, seed=seed)
               for entry_id in ids]
    failed = [r for r in reports if not r.passed and not r.quarantined]
    quarantined = [r for r in reports if r.quarantined]
    payload = {
        "command": "catalog-verify",
        "tol": args.tol,
        "samples": args.samples,
        "seed": seed,
        "entries": [_entry_payload(r) for r in reports],
        "summary": {
            "pass": sum(r.passed for r in reports),
            "fail": len(failed),
            "quarantined": len(quarantined),
        },
    }
    lines = []
    for r in reports:
        lines.extend(_entry_lines(r))
    lines.append(f"{payload['summary']['pass']} pass, "
                 f"{payload['summary']['fail']} fail, "
                 f"{payload['summary']['quarantined']} quarantined")
    return payload, lines, 2 if failed else 3 if quarantined else 0


#: Built once at import and shared by every :func:`main` call in the process;
#: each parse fills a fresh namespace, so no call sees another's options.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        payload, lines, code = args.run(args)
    except (ValueError, EvalError) as exc:
        print(f"liesym: error: {exc}", file=sys.stderr)
        return 1
    if args.timings:
        payload["timings"] = {"seconds": time.perf_counter() - started}
        lines.append(f"(took {payload['timings']['seconds']:.3f} s)")
    print(json.dumps(payload, sort_keys=True) if args.json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
