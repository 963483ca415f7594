"""Command-line entry point.

Subcommands: validate, gen-contacts, simulate, compare, sweep-v. All output
is deterministic given identical inputs and seeds. Exit codes: 0 success,
1 validation error, 2 runtime failure. Errors, and the warning for a failed
`compare` cell, go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

from skygs import engine
from skygs.accounting import RunMetrics
from skygs.model import (POLICIES, ScenarioError, load_scenario, policy_name, with_overrides,
                         write_csv)
from skygs.orbit import ContactPlanError, build_contact_table, write_contact_plan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SUMMARY_FIELDS = [f.name for f in fields(RunMetrics)]


def _parse_list(text: str, flag: str, kind=float) -> list:
    try:
        values = [kind(x) for x in text.split(",") if x.strip() != ""]
    except ScenarioError:  # a value that kind refuses with its own message
        raise
    except ValueError:
        values = []
    if not values:  # a bad or an empty list
        noun = {int: "integers", float: "numbers"}.get(kind, "names")
        raise ScenarioError(f"{flag}: expected a comma-separated list of {noun}")
    twice = [value for i, value in enumerate(values) if value in values[:i]]
    if twice:
        raise ScenarioError(f"{flag}: {twice[0]} given twice")
    return values


def cmd_validate(args: argparse.Namespace) -> int:
    load_scenario(args.scenario)
    print("OK")
    return EXIT_OK


def cmd_gen_contacts(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    table = build_contact_table(scenario)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_contact_plan(table, str(out))
    print(f"wrote {len(table.sat)} contacts to {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = with_overrides(load_scenario(args.scenario), policy=args.policy, seed=args.seed,
                              v=args.v, xi=args.xi, contact_plan_path=args.contacts)
    record, metrics = engine.run(scenario, dump_weights=args.dump_weights)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / f"records_{record.policy}_seed{record.seed}.csv"
    summary_path = out / f"summary_{record.policy}_seed{record.seed}.json"
    engine.write_records_csv(str(records_path), record)
    engine.write_summary_json(str(summary_path), record, metrics)
    print(f"wrote {records_path} and {summary_path}")
    return EXIT_OK


def _grid_row(scenario, policy: str, table) -> list:
    """One cell of the compare grid; `table()` returns the seed's contact table."""
    try:
        _record, metrics = engine.run(scenario, policy=policy, table=table())
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the grid
        print(f"warning: run {policy}/seed {scenario.seed} failed: {exc}", file=sys.stderr)
        return [policy, scenario.seed, "failed"] + [""] * len(SUMMARY_FIELDS)
    return [policy, scenario.seed, "ok"] + [getattr(metrics, k) for k in SUMMARY_FIELDS]


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = with_overrides(load_scenario(args.scenario), v=args.v, xi=args.xi)
    # names only: an sg provider without a data center fails its own grid rows
    policies = _parse_list(args.policies, "--policies", lambda x: policy_name(x.strip()))
    seeds = [scenario.seed] if args.seeds is None else _parse_list(args.seeds, "--seeds", int)
    seeded = {seed: with_overrides(scenario, seed=seed) for seed in seeds}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the contact table depends on the world and the seed only: one build per
    # seed serves every policy (a failed build is retried by the next cell)
    cells = {}
    for seed, scenario in seeded.items():
        table = functools.cache(functools.partial(build_contact_table, scenario))
        for policy in policies:
            cells[policy, seed] = _grid_row(scenario, policy, table)
    rows = [cells[policy, seed] for policy in policies for seed in seeds]
    write_csv(str(out), ["policy", "seed", "status"] + SUMMARY_FIELDS, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_sweep_v(args: argparse.Namespace) -> int:
    scenario = with_overrides(load_scenario(args.scenario), seed=args.seed, xi=args.xi)
    v_list = _parse_list(args.v_list, "--v-list")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    table = build_contact_table(scenario)
    columns = ["total_cost", "avg_latency_min_per_mb", "violation_rate", "mean_q"]
    rows = []
    for v in v_list:
        _record, metrics = engine.run(with_overrides(scenario, v=v), policy="skygs", table=table)
        rows.append([v] + [getattr(metrics, f) for f in columns])
    write_csv(str(out), ["v"] + columns, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skygs",
                                     description="Federated ground-station downlink scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-contacts", help="write a contact-plan CSV from the propagator")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_contacts)

    p = sub.add_parser("simulate", help="run one simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--policy", help=f"one of {', '.join(POLICIES)}")
    p.add_argument("--seed", type=int, help="default: the file's seed")
    p.add_argument("--v", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--contacts", help="contact-plan CSV to use instead of the propagator")
    p.add_argument("--dump-weights", help="directory for each slot's matched weights (debug)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run a policies x seeds grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--policies", default=",".join(POLICIES))
    p.add_argument("--seeds", help="comma-separated seeds (default: the file's seed)")
    p.add_argument("--v", type=float)
    p.add_argument("--xi", type=float)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-v", help="sweep the trade-off weight V")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--v-list", required=True)
    p.add_argument("--seed", type=int, help="default: the file's seed")
    p.add_argument("--xi", type=float)
    p.set_defaults(func=cmd_sweep_v)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ContactPlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except engine.InfeasibleAssignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
