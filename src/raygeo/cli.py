"""Command-line front end: batch verification and computation.

Exit codes: 0 success, 1 law failure or search exhausted, 2 usage or
malformed input, 3 domain precondition violation (reported as
structured error JSON on stdout).  Commands refuse by raising where
they detect the fault; :func:`main` alone maps exceptions to exit
codes: ``RayGeoError`` to 3, and ``OSError``, ``ValueError`` and
``KeyError`` to 2 with one ``error: ...`` line on stderr.  The seed
defaults to the RAYGEO_SEED environment variable, then 42; a --seed
flag overrides both.  Seeds must lie in [0, 2^64).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import RayGeoError
from .lawcheck import MAX_DIM, MIN_DIM, GeneratorSpec, all_passed, run_all
from .rays import Ray, Subspace, project_ray, ray_from, ZERO
from .geometry import coplanar, p_prop, p_sim, theta
from .superposition import p_of_superposition_closed_form, superpose
from .probability import search_nonsquared_counterexample
from . import serialize


def _default_seed() -> int:
    env = os.environ.get("RAYGEO_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"RAYGEO_SEED must be an integer, got {env!r}") from None


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = (int(end) for end in text.split("..", 1))
        if lo <= hi and (lo < MIN_DIM or hi > MAX_DIM):  # before the range is built
            raise ValueError(f"dims must lie within [{MIN_DIM}, {MAX_DIM}]")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_ray(path: str) -> Ray:
    return serialize.ray_from_json(_load_json(path))


def _load_ray_or_subspace(path: str):
    data = _load_json(path)
    if isinstance(data, dict) and "rep" in data:
        return serialize.ray_from_json(data)
    if isinstance(data, dict) and "basis" in data:
        return serialize.subspace_from_json(data)
    raise ValueError(f"{path}: neither a ray (rep) nor a subspace (basis)")


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, path: str | None) -> None:
    _write(json.dumps(data, indent=2, allow_nan=False) + "\n", path)


def _domain_error(exc: RayGeoError) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    pair = getattr(exc, "pair", None)
    if pair is not None:
        payload["error"]["pair"] = list(pair)
    _emit(payload, None)
    return 3


def _report_table(reports) -> str:
    width = max(len(r.law_id) for r in reports) + 2
    lines = [
        f"{'law':<{width}}{'pass':<6}{'trials':>8}{'skip':>6}{'worst residual':>16}  tolerance"
    ]
    for r in reports:
        flag = "ok" if r.passed else "FAIL"
        control = "*" if r.negative_control else " "
        lines.append(
            f"{r.law_id:<{width}}{flag:<6}{r.trials_run:>8}{r.trials_skipped:>6}"
            f"{r.worst_residual:>16.3e}  {r.tolerance:.0e}{control}"
        )
    lines.append("(* = negative control: passes when the target identity fails as predicted)")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    gen = GeneratorSpec(
        dims=_parse_dims(args.dims),
        trials_per_dim=args.trials,
        seed=args.seed,
    )
    reports = run_all(gen, pattern=args.laws)
    if not reports:
        raise ValueError(f"no law matches {args.laws!r}")
    text = _report_table(reports) if args.format == "table" else serialize.dumps_reports(reports)
    _write(text, args.output)
    return 0 if all_passed(reports) else 1


def cmd_compute(args) -> int:
    if args.quantity in ("theta", "coplanar"):
        if args.c is None:
            raise ValueError(f"compute {args.quantity} needs --a, --b and --c")
        x, y, z = _load_ray(args.a), _load_ray(args.b), _load_ray(args.c)
        value = theta(x, y, z) if args.quantity == "theta" else bool(coplanar(x, y, z))
    elif args.quantity == "p":
        x = _load_ray(args.a)
        other = _load_ray_or_subspace(args.b)
        value = p_sim(x, other) if isinstance(other, Ray) else p_prop(x, other)
    else:
        x = _load_ray(args.a)
        sub = _load_ray_or_subspace(args.b)
        if isinstance(sub, Ray):
            sub = Subspace.from_ray(sub)
        image = project_ray(sub, x)
        value = None if image is ZERO else serialize.ray_to_json(image)
    _emit({"value": value}, args.output)
    return 0


def cmd_superpose(args) -> int:
    data = _load_json(args.spec)
    spec = serialize.superposition_spec_from_json(data)
    result = superpose(spec)
    # bare ray JSON by default, so the output feeds other commands directly
    if not args.report_p:
        _emit(serialize.ray_to_json(result), args.output)
        return 0
    x = _load_ray(args.report_p)
    payload = {
        "ray": serialize.ray_to_json(result),
        "p_report": {
            "closed_form": p_of_superposition_closed_form(spec, x),
            "direct": p_sim(result, x),
        },
    }
    _emit(payload, args.output)
    return 0


def cmd_search(args) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    witness = search_nonsquared_counterexample(seed=args.seed, budget=args.budget)
    if witness is None:
        _emit({"result": "NotFound", "budget": args.budget, "seed": args.seed}, args.output)
        return 1
    if witness.squared_margin < -1e-12:
        # cannot happen: the squared inequality is a theorem, re-checked on every witness
        _emit({"result": "InvalidWitness"}, args.output)
        return 1
    _emit(serialize.witness_to_json(witness), args.output)
    return 0


DEFAULT_TWO_SLIT = {
    "y": {"dim": 2, "rep": [[1.0, 0.0], [0.35, 0.0]]},
    "z": {"dim": 2, "rep": [[0.35, 0.0], [1.0, 0.0]]},
    "r": 0.5,
    "detectors": [
        {"dim": 2, "rep": [[math.cos(k * math.pi / 16.0), 0.0], [math.sin(k * math.pi / 16.0), 0.0]]}
        for k in range(9)
    ],
}


def cmd_demo_two_slit(args) -> int:
    config = _load_json(args.config) if args.config else DEFAULT_TWO_SLIT
    spec = serialize.superposition_spec_from_json(config)
    y, z, r = spec.y, spec.z, spec.r
    detectors = config.get("detectors")
    if not isinstance(detectors, list):
        raise ValueError("the configuration needs a list of detector rays")
    detectors = [serialize.ray_from_json(d) for d in detectors]
    state = superpose(spec)
    rows = []
    for i, x in enumerate(detectors):
        quantum = p_sim(state, x)
        classical = r * p_sim(y, x) + (1.0 - r) * p_sim(z, x)
        rows.append(
            {
                "detector": i,
                "quantum": quantum,
                "classical_mixture": classical,
                "interference": quantum - classical,
            }
        )
    if args.format == "json":
        _emit({"r": r, "rows": rows}, args.output)
        return 0
    lines = [f"{'detector':>8}  {'quantum':>12}  {'classical':>12}  {'interference':>13}"]
    for row in rows:
        lines.append(
            f"{row['detector']:>8}  {row['quantum']:>12.6f}  "
            f"{row['classical_mixture']:>12.6f}  {row['interference']:>13.6f}"
        )
    _write("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raygeo",
        description="Verify and compute the projective geometry of complex Hilbert spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the law suite and emit reports")
    p_verify.add_argument("--dims", default="2..8", help="e.g. 2..8 or 2,3,5")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--laws", default=None, help="glob filter on law ids")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_compute = sub.add_parser("compute", help="evaluate p / theta / project / coplanar")
    p_compute.add_argument("quantity", choices=("p", "theta", "project", "coplanar"))
    p_compute.add_argument("--a", required=True)
    p_compute.add_argument("--b", required=True)
    p_compute.add_argument("--c", default=None)
    p_compute.add_argument("--output", default=None)
    p_compute.set_defaults(func=cmd_compute)

    p_sup = sub.add_parser("superpose", help="build the superposition named by a spec file")
    p_sup.add_argument("--spec", required=True, help="JSON file {y, z, r}")
    p_sup.add_argument("--report-p", dest="report_p", default=None, help="ray JSON to report p against")
    p_sup.add_argument("--output", default=None)
    p_sup.set_defaults(func=cmd_superpose)

    p_search = sub.add_parser("search", help="search real 3-space for the non-squared violation")
    p_search.add_argument("--budget", type=int, default=100_000)
    p_search.add_argument("--seed", type=int, default=None)
    p_search.add_argument("--output", default=None)
    p_search.set_defaults(func=cmd_search)

    p_demo = sub.add_parser("demo-two-slit", help="interference table for a two-slit configuration")
    p_demo.add_argument("--config", default=None, help="JSON {y, z, r, detectors}")
    p_demo.add_argument("--format", choices=("table", "json"), default="table")
    p_demo.add_argument("--output", default=None)
    p_demo.set_defaults(func=cmd_demo_two_slit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except RayGeoError as exc:
        return _domain_error(exc)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
