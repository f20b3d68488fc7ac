"""Command-line front end.

Subcommands operate on JSON documents (see `fileio`):

    analyze    verdict report for any document
    stress     equilibrium stress space, or the inductive proper stress
    lambda     axis invariant (scalar) or interior-edge Jacobian (matrix)
    dent       push a tetrahedron through an edge of a convex surface
    suspend    generate a suspension instance
    signs      dihedral-rate sign analysis of an infinitesimal flex
    probe-pd   spectrum scan of the Jacobian over random instances

Exit codes: 0 on success, 1 for usage or input errors, 2 when an
internal cross-check fails (an InvariantError).
"""

import argparse
import dataclasses
import functools
import logging
import os
import sys

import numpy as np

from . import fileio
from .cauchy import (
    CauchyError,
    count_sign_changes,
    dent,
    sign_subgraph,
    sign_vector_from_flex,
    vertex_sign_change_check,
)
from .frameworks import (
    FrameworkError,
    bar_flex_space,
    equilibrium_residual,
    equilibrium_stress_space,
    nontrivial_flex,
)
from .generators import GenerationError, SUSPENSION_PROFILES, suspension_profile
from .geometry import DEFAULT_TOL, GeometryError, InvariantError, Tolerances
from .hessian import (
    Decomposition,
    DecompositionError,
    ProbeTrial,
    lambda_matrix,
    pd_probe,
    rigidity_from_lambda,
)
from .suspensions import (
    SuspensionError,
    inductive_proper_stress,
    lambda_scalar,
    tensegrity_labeling,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2


def _emit(args, payload, tables=(), notes=()):
    """The one output path of every subcommand, and the only reader of the
    format flags.  --json prints `payload` as one JSON document, --csv the
    (header, rows) `tables` alone, a blank line apart, and text the same
    tables aligned, then the `notes` lines."""
    if args.json:
        fileio.write_json(sys.stdout, payload)
        return EXIT_OK
    for k, (header, rows) in enumerate(tables):
        if k:
            print()
        if args.csv:
            fileio.write_csv(sys.stdout, header, rows)
            continue
        text = [[f"{x:.9g}" if isinstance(x, float) else str(x) for x in row]
                for row in [header, *rows]]
        widths = [max(len(r[c]) for r in text) for c in range(len(header))]
        for row in text:
            print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if not args.csv:
        for note in notes:
            print(note)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    loaded = args.loaded
    report = fileio.analysis_report(loaded, args.tol)
    timing = "  ".join(f"{k}={v * 1e3:.1f}ms" for k, v in report["timings"].items())
    return _emit(args, report, notes=[
        f"instance  {report['instance_hash']}",
        f"vertices  {len(loaded.vertices)}",
        f"edges     {loaded.framework.n_edges}",
        *(f"  {key:<32} {value}" for key, value in report["verdicts"].items()),
        f"timings   {timing}",
    ])


def cmd_stress(args):
    tol, loaded = args.tol, args.loaded
    if args.inductive:
        if loaded.suspension is None:
            raise fileio.FileFormatError(
                "--inductive needs a suspension document (poles + equator)")
        stress = inductive_proper_stress(loaded.suspension, tol)
        fw = tensegrity_labeling(loaded.suspension, include_ns=True, tol=tol)
        residual = equilibrium_residual(fw, stress)
        # rows name the document's vertices, not the suspension's
        layout = loaded.layout
        header = ("i", "j", "kind", "omega")
        rows = [(*sorted((layout[i], layout[j])), kind.value, stress[(i, j)])
                for i, j, kind in fw.edges]
        return _emit(args, {
            "kind": "inductive_proper_stress",
            "residual": residual,
            "edges": [dict(zip(header, r)) for r in rows],
        }, [(header, rows)], [f"# residual {residual:.3e}"])
    basis = equilibrium_stress_space(loaded.framework, tol)
    payload = {
        "kind": "stress_space",
        "dimension": len(basis),
        "basis": [s.omega and {f"{i},{j}": w for (i, j), w in s.omega.items()}
                  for s in basis],
    }
    if not basis:
        return _emit(args, payload, notes=["stress space is trivial (dimension 0)"])
    header = ("i", "j") + tuple(f"omega{k}" for k in range(len(basis)))
    rows = [(i, j) + tuple(s[(i, j)] for s in basis)
            for i, j in loaded.framework.edge_pairs]
    return _emit(args, payload, [(header, rows)], [f"# dimension {len(basis)}"])


def _matrix_tables(matrix):
    """The lambda matrix as one table, or none when it is 0 x 0.  A generator:
    `_emit` never iterates it for --json, which prints the matrix itself."""
    if matrix.size:
        yield fileio.matrix_table(matrix)


def cmd_lambda(args):
    tol, loaded = args.tol, args.loaded
    if loaded.decomposition is not None:
        lam = lambda_matrix(loaded.decomposition, tol=tol)
        rigid = rigidity_from_lambda(loaded.decomposition, tol)
        return _emit(args, {
            "kind": "lambda_matrix",
            "r": lam.r,
            "eigenvalues": [float(x) for x in lam.eigenvalues],
            "positive_definite": lam.is_positive_definite,
            "rigid": rigid,
            "matrix": lam.matrix.tolist(),
        }, _matrix_tables(lam.matrix), [
            f"interior edges      {lam.r}",
            f"eigenvalues         {[float(f'{x:.9g}') for x in lam.eigenvalues]}",
            f"positive definite   {lam.is_positive_definite}",
            f"rigid               {rigid}",
        ])
    if loaded.suspension is None:
        raise fileio.FileFormatError("lambda needs a suspension (poles + equator) or a "
                                     "decomposition (tetrahedra) document")
    breakdown = lambda_scalar(loaded.suspension, tol)
    header, rows = fileio.lambda_breakdown_table(breakdown)
    return _emit(args, {
        "kind": "lambda_scalar",
        "total": breakdown.total,
        "total_projected": breakdown.total_projected,
        "axis_scale": breakdown.scale,
        "terms": [dict(zip(header, r)) for r in rows],
    }, [(header, rows)],
        [f"# total {breakdown.total!r}  projected {breakdown.total_projected!r}"])


def _surface(loaded, command):
    if loaded.surface is None:
        raise fileio.FileFormatError(f"{command} needs a document with faces")
    return loaded.surface


def cmd_dent(args):
    surface = _surface(args.loaded, "dent")
    new_edges = []
    for edge in args.edge:
        result = dent(surface, edge, args.tol)
        surface = result.surface
        new_edges.append(result.new_edge)
    fileio.save(args.out, surface, metadata={
        "dented_edges": [list(e) for e in args.edge],
        "new_edges": [list(e) for e in new_edges],
        "source": os.path.basename(str(args.file)),
    })
    return _emit(args, None, notes=[
        *(f"dented {tuple(edge)} -> new edge {new}" for edge, new in zip(args.edge, new_edges)),
        f"wrote {args.out}",
    ])


def cmd_suspend(args):
    rng = np.random.default_rng(args.seed)
    s = suspension_profile(args.profile, rng, args.n, args.tol)
    doc = fileio.save(args.out, s, metadata={
        "profile": args.profile, "seed": args.seed, "n": args.n,
    })
    return _emit(args, None, notes=[f"wrote {args.out}  ({args.profile}, n={args.n}, "
                                    f"hash {fileio.instance_hash(doc)[:12]})"])


def cmd_signs(args):
    tol, loaded = args.tol, args.loaded
    surface = _surface(loaded, "signs")
    if args.flex_index is not None:
        space = bar_flex_space(loaded.framework, tol)
        if not 0 <= args.flex_index < space.dimension:
            raise ValueError(f"--flex-index must be in [0, {space.dimension})")
        motion = space.basis[args.flex_index]
    else:
        motion = nontrivial_flex(loaded.framework, tol)
        if motion is None:
            note = "framework is infinitesimally rigid; no nontrivial flex"
            return _emit(args, {"note": note}, notes=[note])
    signs = sign_vector_from_flex(surface, motion, tol)
    checks = vertex_sign_change_check(surface, signs, tol)
    payload = {
        "edge_signs": {f"{i},{j}": signs[(i, j)] for i, j in surface.edges},
        "vertices": [dataclasses.asdict(c) for c in checks],
    }
    notes = [f"# vertex {c.vertex}: {c.detail}" for c in checks if not c.ok]
    if not signs.nonzero_edges:
        payload["note"] = "all dihedral rates vanish"
    else:
        try:
            stats = count_sign_changes(sign_subgraph(surface, signs))
            payload["totals"] = {
                "sign_changes": stats.s,
                "vertex_bound": stats.vertex_bound,
                "face_bound": stats.face_bound,
                "bounds_contradict": stats.bounds_contradict,
            }
            notes.append(
                f"# sign changes {stats.s}  vertex bound {stats.vertex_bound}  "
                f"face bound {stats.face_bound}"
                + ("  (bounds contradict: not a flex of any convex position)"
                   if stats.bounds_contradict else ""))
        except CauchyError as exc:
            payload["note"] = f"sign pattern is not a flex pattern: {exc}"
    if "note" in payload:
        notes.append(f"# {payload['note']}")
    return _emit(args, payload, [
        (("i", "j", "sign"), [(i, j, signs[(i, j)]) for i, j in surface.edges]),
        (("vertex", "convex", "nonzero", "changes", "ok"),
         [(c.vertex, c.convex, c.nonzero, c.changes, c.ok) for c in checks]),
    ], notes)


def cmd_probe_pd(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    os.makedirs(args.out, exist_ok=True)
    report = pd_probe(trials=args.trials, seed=args.seed,
                      include_controls=args.include_controls, tol=args.tol)
    payload = report.to_dict()
    payload["seed"] = args.seed
    payload["tolerances"] = dataclasses.asdict(args.tol)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as fh:
        fileio.write_json(fh, payload)
    with open(os.path.join(args.out, "trials.csv"), "w", newline="") as fh:
        fileio.write_csv(fh, ProbeTrial.csv_header(), [t.csv_row() for t in report.trials])
    for k, ce in enumerate(report.counterexamples):
        fileio.save(
            os.path.join(args.out, f"counterexample_{k}.json"),
            Decomposition(ce["vertices"], ce["tetrahedra"], tol=args.tol),
            metadata={"trial": ce["trial"]},
        )
    s = payload["summary"]
    notes = [f"trials {s['trials']}  generation failures {s['generation_failures']}  "
             f"weakly convex {s['weakly_convex_trials']}"]
    if "min_eigenvalue" in s:
        e = s["min_eigenvalue"]
        notes.append(f"min eigenvalue  min {e['min']:.6g}  median {e['median']:.6g}  "
                     f"max {e['max']:.6g}")
    notes += [f"non-PD weakly convex instances: {s['non_pd_weakly_convex']}",
              f"wrote {report_path}"]
    return _emit(args, payload, notes=notes)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _edge(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected i,j — got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"edge endpoints must be integers: {text!r}")


@functools.cache
def build_parser():
    """The CLI's parser, built once per process.  Each subcommand declares
    the flags its handler reads, and names that handler, which main looks
    up at each call, so a cmd_* replaced after import still runs."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_tol,
                        help="relative singular-value cutoff")
    common.add_argument("--geom-tol", type=float, default=DEFAULT_TOL.geom_tol,
                        help="geometric coincidence/flatness cutoff")
    common.add_argument("--verbose", action="store_true",
                        help="log debug detail to stderr")

    def subcommand(name, handler, summary, seed=False, formats=()):
        p = sub.add_parser(name, parents=[common], help=summary)
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed of the random draws (default 0)")
        fmt = p.add_mutually_exclusive_group() if len(formats) > 1 else p
        if "json" in formats:
            fmt.add_argument("--json", action="store_true",
                             help="machine-readable JSON on stdout")
        if "csv" in formats:
            fmt.add_argument("--csv", action="store_true",
                             help="CSV tables on stdout (repr floats)")
        p.set_defaults(handler=handler, json=False, csv=False)
        return p

    parser = argparse.ArgumentParser(
        prog="rigidity3d",
        description="rigidity analysis of triangulated polyhedra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = subcommand("analyze", "cmd_analyze", "verdict report for a document",
                   formats=("json",))
    p.add_argument("file")

    p = subcommand("stress", "cmd_stress", "equilibrium stresses of the edge framework",
                   formats=("json", "csv"))
    p.add_argument("file")
    p.add_argument("--inductive", action="store_true",
                   help="peel-and-solve proper stress (suspensions only)")

    p = subcommand("lambda", "cmd_lambda", "axis invariant or interior-edge Jacobian",
                   formats=("json", "csv"))
    p.add_argument("file")

    p = subcommand("dent", "cmd_dent",
                   "replace the two faces at an edge by the other diagonal, pushed inward")
    p.add_argument("file")
    p.add_argument("--edge", type=_edge, action="append", required=True,
                   metavar="I,J", help="edge to dent (repeatable, in order)")
    p.add_argument("--out", required=True, help="output document path")

    p = subcommand("suspend", "cmd_suspend", "generate a suspension document", seed=True)
    p.add_argument("--n", type=int, required=True, help="equator size")
    p.add_argument("--profile", choices=SUSPENSION_PROFILES, default="convex")
    p.add_argument("--out", required=True, help="output document path")

    p = subcommand("signs", "cmd_signs", "dihedral-rate signs of an infinitesimal flex",
                   formats=("json", "csv"))
    p.add_argument("file")
    p.add_argument("--flex-index", type=int, default=None,
                   help="flex-basis index (default: a nontrivial flex)")

    p = subcommand("probe-pd", "cmd_probe_pd",
                   "eigenvalue scan of the Jacobian over random weakly convex instances",
                   seed=True)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--include-controls", action="store_true",
                   help="also probe non-weakly-convex controls")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        # every command's inputs, read once: the tolerances, then the document
        args.tol = Tolerances(rank_tol=args.rank_tol, geom_tol=args.geom_tol)
        if "file" in args:
            args.loaded = fileio.load(args.file, args.tol)
        return globals()[args.handler](args)
    except (fileio.FileFormatError, OSError, ValueError, GeometryError, FrameworkError,
            SuspensionError, DecompositionError, CauchyError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
