"""Command-line front end.

Verbs: validate, gauges, collapse, metrics, classify, sweep, catalog.
Reports are machine-readable JSON (schema "gaugesim/1"); sweeps can also be
CSV.  Exit codes: 0 success, 2 validation failure or a file that cannot be
read or written, 3 infeasible, 64 usage.
`GAUGESIM_THREADS` (a positive integer, default: the CPUs this process may
run on) sets the threads that draw collapse runs, each holding one block of
about 1 MB in flight; the counts depend only on the seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import catalog, collapse, metrics, solver
from .errors import GaugeSimError, Infeasible, ValidationError
from .ignition import bell_support
from .model import _read_json, is_locally_consistent, load_system
from .scalars import format_value

SCHEMA = "gaugesim/1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    """A command line or environment setting the CLI cannot use."""


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes '-1,final' for an option
        if argv[i][:1] == "-" and argv[i][1:2] in tuple("0123456789") \
                and _read_as(argv[0], argv[i - 1]) in ("--plan", "--settings", "--values"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except OSError as exc:
        error = "file-not-found" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        # a report that --out cannot take goes to stdout
        unwritable = exc.filename is not None and exc.filename == getattr(args, "out", None)
        _emit({"schema": SCHEMA, "error": error, "detail": str(exc)}, args,
              stdout=unwritable)
        return EXIT_INVALID


def _run(args):
    """The verb's exit code; its usage, infeasibility and validation errors
    become error reports, and a file error propagates to `main`."""
    try:
        return args.handler(args)
    except UsageError as exc:
        _emit({"schema": SCHEMA, "error": "usage", "detail": str(exc)}, args)
        return EXIT_USAGE
    except Infeasible as exc:
        _emit({"schema": SCHEMA, "error": "infeasible", "detail": str(exc),
               "gammas": list(exc.gammas)}, args)
        return EXIT_INFEASIBLE
    except GaugeSimError as exc:
        _emit({"schema": SCHEMA, "error": type(exc).__name__, "detail": str(exc)}, args)
        return EXIT_INVALID


def _read_as(verb, arg):
    """The long option of `verb` that argparse reads `arg` as: `arg` itself, or the one
    option it abbreviates; None for no such verb or option, or an ambiguous prefix."""
    verbs = next(action.choices for action in _parser()._actions if action.dest == "verb")
    names = [name for action in getattr(verbs.get(verb), "_actions", ())
             for name in action.option_strings if arg[:2] == "--" and name.startswith(arg)]
    return arg if arg in names else names[0] if len(names) == 1 else None


@functools.cache
def _parser():
    """The one argument parser of this process, built on the first call.

    Parsing leaves it unchanged: every value lands in a fresh namespace, and
    `--param` appends to a copy of its default list.
    """
    parser = argparse.ArgumentParser(
        prog="gaugesim",
        description="contextual probability systems: validation, gauges, collapse, metrics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, system=True):
        if system:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--system", help="path to a system JSON file")
            group.add_argument("--catalog", help="catalog system name")
            p.add_argument("--param", action="append", default=[],
                           metavar="NAME=VALUE", help="catalog parameter override")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("validate", help="structural and consistency checks")
    add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("gauges", help="solve gauge distributions")
    add_common(p)
    p.add_argument("--support", default="full",
                   help="full | double-plateau | path to a JSON list of states")
    p.add_argument("--steps", default="auto",
                   help="1 forces one-step; auto searches for the minimum")
    p.set_defaults(handler=_cmd_gauges)

    p = sub.add_parser("collapse", help="simulate collapses")
    add_common(p)
    p.add_argument("--settings", required=True, help="comma-separated setting per region")
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan", help="collapse plan, e.g. '2,final'")
    p.add_argument("--force-gauge", type=int, dest="force_gauge",
                   help="fixed gauge configuration index")
    p.set_defaults(handler=_cmd_collapse)

    p = sub.add_parser("metrics", help="entropy and inequality report")
    add_common(p)
    p.add_argument("--settings", help="comma-separated setting per region")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("classify", help="separable / quantum-compatible / super-quantum")
    add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sweep", help="sweep a catalog parameter")
    add_common(p)
    p.add_argument("--parameter", default="eps")
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--locate-tsirelson", action="store_true",
                   help="bisect the parameter where conditioned CHSH crosses 2*sqrt(2)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("catalog", help="list, show or emit catalog systems")
    p.add_argument("action", choices=("list", "show", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _load(args):
    if getattr(args, "system", None):
        return load_system(args.system)
    params = _parse_params(args.param)
    return catalog.build(args.catalog, **params)


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"parameter override must be NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        params[name.strip()] = value.strip()
    return params


def _report(args, fields):
    """Emit the verb's report: the schema, the verb, then `fields` in order."""
    _emit({"schema": SCHEMA, "verb": args.verb, **fields}, args)


def _emit(payload, args, stdout=False):
    out_path = None if stdout else getattr(args, "out", None)
    if getattr(args, "format", "json") == "csv" and "rows" in payload:
        text = _rows_to_csv(payload["rows"])
    else:
        text = json.dumps(payload, indent=2, default=_jsonable) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_value(value)
    raise TypeError(f"cannot serialize {value!r}")


def _rows_to_csv(rows):
    buffer = io.StringIO()
    if rows:
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: format_value(v) if isinstance(v, Fraction) else v
                             for k, v in row.items()})
    return buffer.getvalue()


def _settings_vector(system, text):
    parts = [p.strip() for p in str(text).split(",")]
    return system.setting_indices([int(p) if p.isascii() and p.isdigit() else p for p in parts])


def _cmd_validate(args):
    system = _load(args)
    report = is_locally_consistent(system)
    _report(args, {
        "n": system.n,
        "k": system.num_settings,
        "scalar": system.backend,
        "locally_consistent": bool(report),
        "max_deviation": report.max_deviation,
    })
    return EXIT_OK if report else EXIT_INVALID


def _cmd_gauges(args):
    if args.steps == "auto" and args.support != "full":
        raise UsageError(
            "--support applies to --steps 1; --steps auto searches the full index space"
        )
    system = _load(args)
    support = _resolve_support(args.support, system)
    if args.steps == "auto":
        _report(args, collapse.find_min_steps(system).as_dict())
        return EXIT_OK
    try:
        steps = int(args.steps)
    except ValueError:
        raise ValidationError("--steps accepts 1 or auto") from None
    if steps != 1:
        raise ValidationError("--steps accepts 1 or auto")
    gauges = solver.solve_all_gauges(system, support)
    _report(args, {"steps": 1, "gauges": [d.to_dict() for d in gauges]})
    return EXIT_OK


def _resolve_support(policy, system):
    if policy == "full":
        return None
    if policy == "double-plateau":
        if system.n != 2:
            raise ValidationError("double-plateau supports are defined for 2 regions")
        return bell_support(system.num_settings)
    with open(policy, "r", encoding="utf-8") as fh:
        states = _read_json(json.load, fh, f"--support file {policy!r}")
    # `type(j) is int` turns away bools, which Python counts as ints
    if not isinstance(states, list) or not all(type(j) is int for j in states):
        raise ValidationError(f"--support file {policy!r} must hold a JSON list of integers")
    return states


def _threads():
    """Collapse worker threads from GAUGESIM_THREADS; unset gives None,
    which `collapse.simulate` takes as every usable CPU."""
    raw = os.environ.get("GAUGESIM_THREADS")
    if raw is None:
        return None
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"GAUGESIM_THREADS must be a positive integer, got {raw!r}")
    return threads


def _cmd_collapse(args):
    threads = _threads()
    if args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    system = _load(args)
    u = _settings_vector(system, args.settings)
    plan = collapse.CollapsePlan.parse(args.plan) if args.plan else None
    gauges = None if plan is not None and plan.leaders else solver.solve_all_gauges(system)
    # one compiled plan gives both the counts and the trace sample; with
    # runs < 1 `simulate` raises before anything is compiled
    tree = (collapse.CompiledPlan(system, plan, u, args.force_gauge, gauges=gauges)
            if args.runs >= 1 else None)
    table = collapse.simulate(
        system, u, args.runs, args.seed,
        plan=plan, force_gamma=args.force_gauge, streams=threads, compiled=tree,
    )
    _x, trace = tree.run(collapse.make_rng(args.seed))
    _report(args, {
        "settings": list(u),
        "runs": args.runs,
        "seed": args.seed,
        **table.as_dict(),
        "tv_distance": table.tv_distance(system, u),
        "trace_sample": trace,
    })
    return EXIT_OK


def _cmd_metrics(args):
    system = _load(args)
    shown = _settings_vector(system, args.settings) if args.settings else None
    payload = {
        "n": system.n,
        "k": system.num_settings,
        "s1": {},
        "s_n": {},
        "total_entanglement": {},
        "atoms": {},
    }
    full = (1 << system.n) - 1
    diagrams = metrics._diagrams(system)  # at every setting vector, for the scheme
    for diagram in (d for d in diagrams if shown in (None, d.settings)):
        key = ",".join(str(s) for s in diagram.settings)
        payload["s1"][key] = diagram.joint_entropies[full]
        payload["s_n"][key] = diagram.atom(full)
        payload["total_entanglement"][key] = diagram.total_entanglement
        payload["atoms"][key] = {str(mask): value for mask, value in diagram.atoms.items()}
    if system.n == 2:
        payload["s2_matrix"] = metrics.s2_matrix(system)
        if system.num_settings >= 2:
            best = metrics.chsh_max(system)
            payload["chsh_max"] = {"value": best.value, "settings": list(best.settings)}
    scheme = metrics.entanglement_scheme(system, diagrams)
    payload["scheme"] = scheme.as_dict()
    payload["classification"] = metrics.classify(system).as_dict()
    _report(args, payload)
    return EXIT_OK


def _cmd_classify(args):
    _report(args, metrics.classify(_load(args)).as_dict())
    return EXIT_OK


def _sweep_point(name, parameter, value):
    system = catalog.build(name, **{parameter: str(value)})
    steps = collapse.find_min_steps(system).steps
    best = _max_conditioned_chsh(system)
    first_u = next(iter(system.setting_vectors()))
    return {
        "value": float(Fraction(str(value))),
        "min_steps": steps,
        "max_conditioned_chsh": best,
        "total_entanglement": metrics.total_entanglement(system, first_u),
    }


def _max_conditioned_chsh(system):
    """Largest CHSH value over all reachable 2-region subsystems."""
    return abs(metrics._chsh_witness(system)[1])


def _cmd_sweep(args):
    if not getattr(args, "catalog", None):
        raise ValidationError("sweep requires --catalog")
    entry = catalog.get(args.catalog)
    if args.parameter not in entry.params:
        raise ValidationError(f"{args.catalog} has no parameter {args.parameter!r}")
    rows = [_sweep_point(args.catalog, args.parameter, raw.strip())
            for raw in args.values.split(",")] if args.values else []
    payload = {"parameter": args.parameter, "rows": rows}
    if args.locate_tsirelson:
        lo, hi = _tsirelson_bracket(rows) if rows else (0.0, 0.125)
        payload["tsirelson_crossing"] = _bisect_tsirelson(args.catalog, args.parameter, lo, hi)
    _report(args, payload)
    return EXIT_OK


def _tsirelson_bracket(rows):
    """The first two adjacent rows whose conditioned CHSH straddles 2*sqrt(2)."""
    target = metrics.TSIRELSON_BOUND
    for a, b in zip(rows, rows[1:]):
        if (a["max_conditioned_chsh"] - target) * (b["max_conditioned_chsh"] - target) <= 0:
            return tuple(sorted((a["value"], b["value"])))
    raise ValidationError("no sign change between adjacent sweep rows")


def _bisect_tsirelson(name, parameter, lo, hi, tol=1e-4):
    """Bisect the parameter value in [lo, hi] where conditioned CHSH meets 2*sqrt(2).

    Without sweep rows the bracket is [0, 1/8], which ends at the separable
    midpoint of the smoothed family; past it the conditioned CHSH rises
    again by symmetry.
    """
    target = metrics.TSIRELSON_BOUND
    exact = catalog.get(name).params[parameter][1] is Fraction

    def excess(value):
        q = Fraction(value).limit_denominator(10**9)
        system = catalog.build(name, **{parameter: q if exact else str(q)})
        return _max_conditioned_chsh(system) - target

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo * f_hi > 0:
        raise ValidationError("no sign change on the sweep interval")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if excess(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cmd_catalog(args):
    if args.action == "list":
        _report(args, {
            "systems": [
                {"name": name, "summary": catalog.get(name).summary,
                 "parameters": sorted(catalog.get(name).params)}
                for name in catalog.names()
            ],
        })
        return EXIT_OK
    if not args.name:
        raise ValidationError(f"catalog {args.action} needs a system name")
    entry = catalog.get(args.name)
    if args.action == "show":
        _report(args, {
            "name": entry.name,
            "summary": entry.summary,
            "parameters": {
                pname: default for pname, (default, _parser) in entry.params.items()
            },
            "has_reference_gauges": entry.reference_gauges is not None,
        })
        return EXIT_OK
    system = entry.make(**_parse_params(args.param))
    _emit(system.to_dict(), args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
