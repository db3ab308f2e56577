"""Command-line front end.

Every subcommand prints a single JSON report document on standard output;
`curve` can additionally write the curve as CSV.  A report's payload is the
operation's result dataclass as `dataclasses.asdict` gives it, so its keys
follow the field order.  Exit status: 0 on success,
1 when `reproduce` finds a failing check, 2 on malformed input or bad flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .documents import dumps_report, load_table, report_document, table_to_document
from .enumeration import (
    LsMeasure,
    RandomizationSpace,
    latin_square_count,
    ls_sampler_settings,
    rcb_space_size,
)
from .errors import RandovaError, SpaceTooLarge
from .expected_ms import expected_ms, ls_difference_decomposition
from .inference import (
    DEFAULT_GRID_POINTS,
    DEFAULT_MC_ERROR_SD,
    DEFAULT_MC_REPLICATIONS,
    monte_carlo_with_errors,
    survival_curve,
    type1_error,
)
from .potential_outcomes import DesignKind, PotentialOutcomeTable
from .reproduce import (
    checks_to_payload,
    format_report,
    load_bundled_tables,
    run_reproduction,
)


def _table_inputs(
    path: str,
    table: PotentialOutcomeTable,
    space: RandomizationSpace = RandomizationSpace.exact(),
) -> dict:
    """The table's document without its outcomes, and for a sampled space
    the draws, the seed and, for LS, the sampler's burn-in and measure."""
    doc = table_to_document(table)
    doc.pop("outcomes")
    doc["table"] = path
    if space.sample_size is not None:
        doc["space"] = {"draws": space.sample_size, "seed": space.seed}
        if table.design is DesignKind.LS:
            burn_in, measure = ls_sampler_settings(
                table.num_treatments, space.burn_in, space.ls_measure
            )
            doc["space"].update(burn_in=burn_in, measure=measure.value)
    return doc


def _space_from_args(args: argparse.Namespace) -> RandomizationSpace:
    """The space the flags ask for; --seed (default 0) seeds it only with
    --sample.  The library rejects sampler flags without --sample."""
    seed = None
    if args.sample is not None:
        seed = args.seed if args.seed is not None else 0
    return RandomizationSpace(
        sample_size=args.sample, seed=seed, burn_in=args.burn_in, ls_measure=args.ls_measure
    )


def _add_space_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="sample N assignments uniformly instead of exact enumeration",
    )
    parser.add_argument(
        "--burn-in",
        type=int,
        default=None,
        help="Latin-square sampler moves per draw before its chain is checked"
        " for a proper square (default 2*T^3)",
    )
    parser.add_argument(
        "--ls-measure",
        choices=[m.value for m in LsMeasure],
        default=None,
        help="Latin-square sampling measure (default: all squares)",
    )


def _cmd_expected_ms(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    payload = asdict(expected_ms(table))
    if table.design is DesignKind.LS:
        payload["ls_difference_decomposition"] = asdict(ls_difference_decomposition(table))
    doc = report_document("expected_ms", _table_inputs(args.table, table), payload)
    print(dumps_report(doc))
    return 0


def _cmd_type1(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    space = _space_from_args(args)
    payload = asdict(type1_error(table, alpha=args.alpha, space=space))
    doc = report_document(
        "type1_error", _table_inputs(args.table, table, space), payload, seed=args.seed
    )
    print(dumps_report(doc))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    space = _space_from_args(args)
    curve = survival_curve(table, space=space, grid_points=args.grid)
    payload = asdict(curve)
    if args.csv is not None:
        path = Path(args.csv)
        rows = ["k,p_randomization,p_reference"]
        for k, pr, pf in zip(
            curve.cutoffs.tolist(),
            curve.p_randomization.tolist(),
            curve.p_reference.tolist(),
        ):
            rows.append(f"{k!r},{pr!r},{pf!r}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        payload["csv"] = str(path)
    doc = report_document(
        "survival_curve", _table_inputs(args.table, table, space), payload, seed=args.seed
    )
    print(dumps_report(doc))
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    space = _space_from_args(args)
    report = monte_carlo_with_errors(
        table,
        sigma_eps=args.sigma_eps,
        replications=args.reps,
        alpha=args.alpha,
        seed=args.seed if args.seed is not None else 0,
        space=space,
        keep_replications=args.keep_reps,
    )
    doc = report_document("monte_carlo", _table_inputs(args.table, table, space), asdict(report))
    print(dumps_report(doc))
    return 0


def _cmd_enumerate_count(args: argparse.Namespace) -> int:
    design = DesignKind(args.design)
    if design is DesignKind.RCB:
        if args.blocks is None or args.treatments is None:
            raise RandovaError("rcb counts need --blocks and --treatments")
        count = rcb_space_size(args.blocks, args.treatments)
        payload = {
            "design": design.value,
            "blocks": args.blocks,
            "treatments": args.treatments,
            "count": count,
        }
    else:
        order = args.order if args.order is not None else args.treatments
        if order is None:
            raise RandovaError("ls counts need --order")
        count = latin_square_count(order)
        if count is None:
            raise RandovaError(
                f"no exact Latin-square count available for order {order}"
            )
        payload = {"design": design.value, "order": order, "count": count}
    doc = report_document("enumerate_count", {}, payload)
    print(dumps_report(doc))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    tables = load_bundled_tables(args.tables_dir)
    checks = run_reproduction(tables)
    if args.json:
        doc = report_document(
            "reproduce",
            {"tables_dir": args.tables_dir or "bundled"},
            checks_to_payload(checks),
        )
        print(dumps_report(doc))
    else:
        print(format_report(checks))
    return 0 if all(check.passed for check in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randova",
        description=(
            "Exact randomization inference for randomized complete block "
            "and Latin square designs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ems = sub.add_parser(
        "expected-ms", help="closed-form expected mean sums of squares"
    )
    p_ems.add_argument("table", help="path to a table JSON document")
    p_ems.set_defaults(func=_cmd_expected_ms)

    p_type1 = sub.add_parser(
        "type1", help="exact Type I error of the standard ANOVA F-test"
    )
    p_type1.add_argument("table")
    p_type1.add_argument("--alpha", type=float, default=0.05)
    p_type1.add_argument("--seed", type=int, default=None)
    _add_space_flags(p_type1)
    p_type1.set_defaults(func=_cmd_type1)

    p_curve = sub.add_parser(
        "curve", help="survival curve of F under randomization vs the F reference"
    )
    p_curve.add_argument("table")
    p_curve.add_argument(
        "--grid",
        type=int,
        default=DEFAULT_GRID_POINTS,
        help=f"number of grid points (default {DEFAULT_GRID_POINTS})",
    )
    p_curve.add_argument("--csv", default=None, help="also write the curve as CSV")
    p_curve.add_argument("--seed", type=int, default=None)
    _add_space_flags(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_mc = sub.add_parser(
        "mc", help="Monte Carlo rejection probability with technical errors"
    )
    p_mc.add_argument("table")
    p_mc.add_argument("--sigma-eps", type=float, default=DEFAULT_MC_ERROR_SD)
    p_mc.add_argument("--reps", type=int, default=DEFAULT_MC_REPLICATIONS)
    p_mc.add_argument("--alpha", type=float, default=0.05)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument(
        "--keep-reps",
        action="store_true",
        help="retain per-replication rejection probabilities in the report",
    )
    _add_space_flags(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    p_count = sub.add_parser(
        "enumerate-count", help="cardinality of a randomization space"
    )
    p_count.add_argument("--design", choices=["rcb", "ls"], required=True)
    p_count.add_argument("--blocks", type=int, default=None)
    p_count.add_argument("--treatments", type=int, default=None)
    p_count.add_argument("--order", type=int, default=None)
    p_count.set_defaults(func=_cmd_enumerate_count)

    p_rep = sub.add_parser(
        "reproduce", help="verify the bundled reference tables end to end"
    )
    p_rep.add_argument("--json", action="store_true", help="machine-readable results")
    p_rep.add_argument(
        "--tables-dir",
        default=None,
        help="load table1..table4 from this directory instead of the bundled data",
    )
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: pass --sample N (and --seed) to sample the space uniformly",
            file=sys.stderr,
        )
        return 2
    except RandovaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
