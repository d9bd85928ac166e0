"""Command-line front end.

Subcommands: ``spectrum`` (eigenvalues of one realization), ``pseudospectrum``
(smallest-singular-value field plus contour lines), ``run`` (experiment config
file), ``list`` (scenario registry).  Exit codes: 0 success, 1 configuration
error (size caps, sizes that run out of memory and output paths that cannot
be written included), 2 numerical failure or a worker process that died.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, matrixgen, measures, pseudospec
from .errors import ConfigError, ToepspecError, WorkerDiedError
from .matrixgen import NoiseSpec, PerturbationSpec
from .svgplot import write_scatter
from .symbol import curve_samples, parse_symbol


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    """--n: a matrix size, positive like a config's n."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _numbers(text: str) -> list[float]:
    """--levels: comma-separated numbers; their range is pseudospec_map's levels rule."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="toepspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of one noisy realization")
    sp.add_argument("--symbol", required=True, help='coefficients, e.g. "-1:1;1:1"')
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--pert", default="none", help="poly:<g> | exp:<r> | superexp:<c> | macro:<s> | none")
    sp.add_argument("--noise", default="complex_gaussian", choices=matrixgen.NOISE_KINDS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="eigenvalues CSV path")
    sp.add_argument("--plot", help="scatter SVG path")

    ps = sub.add_parser("pseudospectrum", help="s_min field over a grid, with contours")
    ps.add_argument("--symbol", required=True)
    ps.add_argument("--n", type=_positive_int, required=True)
    ps.add_argument("--matrix", default="toeplitz", choices=matrixgen.MATRIX_KINDS)
    ps.add_argument("--pert")
    ps.add_argument("--noise", choices=matrixgen.NOISE_KINDS)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--re-min", type=float, default=-2.0)
    ps.add_argument("--re-max", type=float, default=2.0)
    ps.add_argument("--im-min", type=float, default=-2.0)
    ps.add_argument("--im-max", type=float, default=2.0)
    ps.add_argument("--nx", type=int, default=101)
    ps.add_argument("--ny", type=int, default=101)
    ps.add_argument("--levels", type=_numbers, default="0.01,0.1", help="comma-separated positive levels")
    ps.add_argument("--out", help="field CSV path")
    ps.add_argument("--plot", help="contour SVG path")

    rn = sub.add_parser("run", help="run an experiment config file")
    rn.add_argument("config", help="JSON config path")
    rn.add_argument("--out-dir", default="results", help="report and artifact directory")

    sub.add_parser("list", help="list experiment scenarios")
    return parser


def _cmd_spectrum(args) -> int:
    sym = parse_symbol(args.symbol)
    pert = PerturbationSpec.parse(args.pert)
    noise = NoiseSpec(args.noise)
    eigs = experiments.trial_eigenvalues(sym, args.n, pert, noise, args.seed)
    if args.out:
        meta = {
            "symbol": args.symbol,
            "n": args.n,
            "pert": pert.to_dict(),
            "noise": noise.kind,
            "seed": args.seed,
        }
        measures.write_sample_csv(eigs, meta, args.out)
        print(f"wrote {args.out}")
    if args.plot:
        write_scatter(args.plot, eigs, curve_samples(sym, 720), f"spectrum n={args.n} pert={args.pert}")
        print(f"wrote {args.plot}")
    if not args.out and not args.plot:
        for lam in eigs:
            print(f"{float(lam.real)!r},{float(lam.imag)!r}")
    return 0


def _cmd_pseudospectrum(args) -> int:
    given = [f"--{k}" for k in ("pert", "noise", "seed") if getattr(args, k) is not None]
    if given and args.matrix != "perturbed":
        raise ConfigError(f"{' '.join(given)}: only --matrix perturbed draws noise, not --matrix {args.matrix}")
    sym = parse_symbol(args.symbol)
    pert = PerturbationSpec.parse(args.pert or "none")
    # the grid flags and --levels are pseudospec_map's params, under its rules
    grid_keys = ("re_min", "re_max", "im_min", "im_max", "nx", "ny")
    params = experiments.check_params(
        "pseudospec_map", {"grid": {k: getattr(args, k) for k in grid_keys}, "levels": args.levels}
    )
    noise = NoiseSpec(args.noise or "complex_gaussian")
    m = matrixgen.build_matrix(args.matrix, sym, args.n, pert, noise, args.seed or 0)
    grid = pseudospec.GridSpec(**params["grid"])
    field = pseudospec.smin_field(m, grid)
    levels = sorted(params["levels"])
    if args.out:
        pseudospec.write_field_csv(grid, field, args.out)
        print(f"wrote {args.out}")
    if args.plot:
        pseudospec.write_contour_svg(grid, field, levels, args.plot, "pseudospectral level lines")
        print(f"wrote {args.plot}")
    if not args.out and not args.plot:
        print(f"s_min range: [{float(field.min())!r}, {float(field.max())!r}]")
    return 0


def _cmd_run(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    config = experiments.ExperimentConfig.from_dict(raw)
    report = experiments.run(config, out_dir=args.out_dir)
    print(json.dumps(report.passed, sort_keys=True))
    print(f"wrote {Path(args.out_dir) / 'report.json'}")
    return 0


def _cmd_list() -> int:
    for name in experiments.scenario_names():
        print(name)
    return 0


def _join_dash_values(argv: list[str]) -> list[str]:
    """Fold `--symbol -1:1` into `--symbol=-1:1` so argparse does not read
    the leading-dash coefficient string as an option."""
    out, rest = [], iter(argv)
    for tok in rest:
        value = next(rest, None) if tok == "--symbol" else None
        out.append(tok if value is None else f"--symbol={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(list(argv)))
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "pseudospectrum":
            return _cmd_pseudospectrum(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_list()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run `toepspec --help` for usage", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written; a config that cannot be read is a ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToepspecError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
