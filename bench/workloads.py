"""The four benchmark workloads.

Each workload generates its inputs from the workload seed, runs one op
untraced through the public API or the CLI entry point, replays the same
op with the tracer installed (for the traced run), and checks outputs
against the stored reference (`reference.json`) or an independent oracle.
A replay is the op itself, except where the library swallows failures:
there the loop of `pd_probe` or `dent_rigidity_harness` is replayed as
the public calls it makes, so each failure can be counted by its type.

Results handed between the methods are plain JSON-like values, so an
untraced op and its replay can be compared field by field.
"""

import contextlib
import csv
import io
import json
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

import rigidity3d
from rigidity3d import cauchy, cli, fileio, frameworks, generators, geometry, hessian, suspensions


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _close(a, b, rtol):
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def _retry(build, seed, slot, attempts=50):
    """Input generation: draw sub-seeds until the generator succeeds."""
    for attempt in range(attempts):
        try:
            return build(np.random.default_rng((seed, slot, attempt)))
        except rigidity3d.GenerationError:
            continue
    raise RuntimeError(f"input generation failed for seed {seed}, slot {slot}")


class Workload:
    name = ""
    op_s = 1.0  # seconds per op of the seed tree on a 2-core x86 box
    # sizes of the generated documents that ops cycle through, if any
    pool_sizes = smoke_sizes = None
    # trials per op of the workloads whose ops generate their own instances
    trials = smoke_trials = None

    def __init__(self, workdir, reference, smoke):
        self.workdir = Path(workdir)
        self.reference = reference[self.name]
        self.smoke = smoke

    def op_count(self, seconds):
        """Ops in one timed run.  Fixed by --seconds alone, so every run of
        a workload has the same mix and sample count."""
        if self.pool_sizes is not None:
            rounds = max(1, round(seconds / (self.op_s * len(self.pool_sizes))))
            return 1 if self.smoke else len(self.pool_sizes) * rounds
        return 2 if self.smoke else max(1, round(seconds / self.op_s))

    def sizes(self):
        return self.smoke_sizes if self.smoke else self.pool_sizes

    def trial_count(self):
        return self.smoke_trials if self.smoke else self.trials

    def make_ops(self, seed, n_ops):
        raise NotImplementedError

    def run(self, op, scratch):
        raise NotImplementedError

    def replay(self, tracer, op, scratch):
        """The op under an op span, with the tracer installed.  Returns (raw
        output, Counter of failures by reason)."""
        with tracer.span("cli", self.name):
            return self.run(op, scratch), Counter()

    def collect(self, op, raw, scratch):
        return raw

    def check(self, op, result):
        """Problems with one op's output; an empty list means correct."""
        return []

    def failed(self, result):
        return result["code"] != 0

    def same(self, op, untraced, replayed):
        """Problems where the traced replay's outputs differ from the op's.
        Both run the same arithmetic, so they must agree exactly."""
        return [] if untraced == replayed else [f"{op}: replay output differs from the op"]

    def pinned(self):
        """Problems found on the reference cases stored in reference.json."""
        return []


# ---------------------------------------------------------------------------
# analyze_hull
# ---------------------------------------------------------------------------


class AnalyzeHull(Workload):
    name = "analyze_hull"
    op_s = 1.93
    # 14 distinct documents.  At --seconds 45 each is analyzed twice: 8 n = 50,
    # 16 n = 100 and 4 n = 200 ops.  The median and the tail (the 64th
    # percentile, 10 samples beyond it) then lie inside the n = 100 samples,
    # not at their edge, so a few fast or slow seconds of the machine do not
    # decide them.  The n = 200 ops take about 40% of the timed loop, so they
    # move ops_per_s.  The first ten ops, which the traced run replays, cover
    # every size.
    pool_sizes = (50, 100, 200, 100, 50, 100, 100) * 2
    smoke_sizes = (8, 10, 12)

    def make_ops(self, seed, n_ops):
        pool = []
        for slot, n in enumerate(self.sizes()):
            surface = _retry(
                lambda rng: generators.random_convex_hull_surface(rng, n), seed, slot
            )
            path = self.workdir / f"hull-{slot}-n{n}.json"
            fileio.save(path, surface, metadata={"seed": seed, "slot": slot, "n": n})
            pool.append(str(path))
        return [pool[i % len(pool)] for i in range(n_ops)]

    def run(self, op, scratch):
        return _cli(["analyze", op, "--json"])

    def collect(self, op, raw, scratch):
        if raw["code"] != 0:
            return {"code": raw["code"]}
        return {"code": 0, "verdicts": json.loads(raw["stdout"])["verdicts"]}

    def check(self, op, result):
        if result["code"] != 0:
            return [f"{op}: exit code {result['code']}"]
        return [
            f"{op}: {key} = {result['verdicts'].get(key)!r}, expected {want!r}"
            for key, want in self.reference["verdicts"].items()
            if result["verdicts"].get(key) != want
        ]


# ---------------------------------------------------------------------------
# inductive_stress
# ---------------------------------------------------------------------------


class StressDoc:
    """A reflex star suspension document and its null-space oracle stress."""

    def __init__(self, path, framework, oracle):
        self.path = path
        self.framework = framework
        self.oracle = oracle  # unit vector in framework edge order, axis entry > 0

    def __repr__(self):
        return self.path


def _unit_positive_axis(fw, vector):
    vector = np.asarray(vector, dtype=float)
    axis = fw.edge_pairs.index(suspensions.NS_EDGE)
    vector = vector / np.linalg.norm(vector)
    return -vector if vector[axis] < 0 else vector


class InductiveStress(Workload):
    name = "inductive_stress"
    op_s = 0.38
    # six documents for each n in 4..11: the cost of one n varies a lot between
    # instances, so one run's median needs many distinct ones
    pool_sizes = tuple(range(4, 12)) * 6
    smoke_sizes = (4, 5)

    def make_ops(self, seed, n_ops):
        pool = []
        for slot, n in enumerate(self.sizes()):
            s = _retry(
                lambda rng: generators.star_suspension(rng, n, require_reflex=True),
                seed,
                100 + slot,
            )
            path = self.workdir / f"star-{slot}-n{n}.json"
            fileio.save(path, s, metadata={"seed": seed, "slot": slot, "n": n})
            loaded = fileio.load(path)
            fw = suspensions.tensegrity_labeling(loaded.suspension, include_ns=True)
            basis = frameworks.equilibrium_stress_space(fw)
            oracle = _unit_positive_axis(fw, basis[0].as_vector(fw)) if len(basis) == 1 else None
            pool.append(StressDoc(str(path), fw, oracle))
        return [pool[i % len(pool)] for i in range(n_ops)]

    def run(self, op, scratch):
        return _cli(["stress", op.path, "--inductive", "--json"])

    def collect(self, op, raw, scratch):
        if raw["code"] != 0:
            return {"code": raw["code"]}
        payload = json.loads(raw["stdout"])
        return {"code": 0, "residual": payload["residual"], "edges": payload["edges"]}

    def check(self, op, result):
        if result["code"] != 0:
            return [f"{op}: exit code {result['code']}"]
        ref = self.reference
        fw = op.framework
        if op.oracle is None:
            return [f"{op}: the tensegrity's stress space is not one-dimensional"]
        if [(e["i"], e["j"]) for e in result["edges"]] != list(fw.edge_pairs):
            return [f"{op}: stress rows do not follow the tensegrity's edges"]
        omega = np.array([e["omega"] for e in result["edges"]], dtype=float)
        stress = frameworks.Stress(dict(zip(fw.edge_pairs, omega)))
        problems = []
        if not frameworks.is_proper(fw, stress):
            problems.append(f"{op}: inductive stress is not proper")
        unit = _unit_positive_axis(fw, omega)
        residual = frameworks.equilibrium_residual(fw, frameworks.Stress.from_vector(fw, unit))
        if residual > ref["residual_tol"]:
            problems.append(f"{op}: unit stress residual {residual:.3e} > {ref['residual_tol']}")
        gap = float(np.abs(unit - op.oracle).max())
        if gap > ref["oracle_tol"]:
            problems.append(f"{op}: differs from the null-space stress by {gap:.3e}")
        return problems


# ---------------------------------------------------------------------------
# probe_pd
# ---------------------------------------------------------------------------

PROBE_KINDS = ("dented_hull_star", "suspension_axis")


def _probe_trials_match(got, want, rtol):
    """Problems between two lists of probe trial records."""
    if len(got) != len(want):
        return [f"{len(got)} trials, expected {len(want)}"]
    problems = []
    for a, b in zip(got, want):
        discrete = {k: v for k, v in a.items() if k != "min_eigenvalue"}
        if discrete != {k: v for k, v in b.items() if k != "min_eigenvalue"}:
            problems.append(f"trial {a['seed']}: {discrete} differs from {b}")
        elif not _close(a["min_eigenvalue"], b["min_eigenvalue"], rtol):
            problems.append(
                f"trial {a['seed']}: min eigenvalue {a['min_eigenvalue']!r} "
                f"differs from {b['min_eigenvalue']!r}"
            )
    return problems


class ProbePd(Workload):
    name = "probe_pd"
    op_s = 0.55
    trials = 6  # even, so both instance kinds get equal parts
    smoke_trials = 2

    def make_ops(self, seed, n_ops):
        return [seed * 10**6 + i for i in range(n_ops)]

    def run(self, op, scratch):
        return _cli(
            ["probe-pd", "--trials", str(self.trial_count()), "--seed", str(op), "--out", str(scratch)]
        )

    def replay(self, tracer, op, scratch):
        """The CLI op, with pd_probe swapped for its replay, which counts the
        trial failures that pd_probe swallows."""
        reasons = Counter()

        def probe(trials, seed, include_controls, tol):
            with tracer.span("hessian", "pd_probe"):
                return _replay_pd_probe(trials, seed, include_controls, tol, reasons)

        with mock.patch.object(cli, "pd_probe", probe):
            raw, _ = super().replay(tracer, op, scratch)
        return raw, reasons

    def collect(self, op, raw, scratch):
        if raw["code"] != 0:
            return {"code": raw["code"]}
        with open(scratch / "report.json") as fh:
            report = json.load(fh)
        with open(scratch / "trials.csv", newline="") as fh:
            csv_rows = list(csv.reader(fh))
        n_files = len(list(scratch.glob("counterexample_*.json")))
        return {"code": 0, "report": report, "csv": csv_rows, "counterexample_files": n_files}

    def failed(self, result):
        return result["code"] != 0 or result["report"]["summary"]["generation_failures"] > 0

    def check(self, op, result):
        if result["code"] != 0:
            return [f"{op}: exit code {result['code']}"]
        report = result["report"]
        summary = report["summary"]
        trials = report["trials"]
        problems = []
        if report["seed"] != op:
            problems.append(f"probe {op}: report seed {report['seed']}")
        if summary["trials"] + summary["generation_failures"] != self.trial_count():
            problems.append(f"probe {op}: trials and failures do not add up to {self.trial_count()}")
        for t in trials:
            if t["seed"][0] != op or t["kind"] != PROBE_KINDS[t["seed"][1] % 2]:
                problems.append(f"probe {op}: trial {t['seed']} has kind {t['kind']}")
        header, *rows = result["csv"]
        expected = [
            [t["kind"], str(t["seed"][0]), str(t["seed"][1]), str(t["r"]), repr(t["min_eigenvalue"]),
             str(t["diagonal_positive"]), str(t["weakly_convex"]), str(t["rigid"])]
            for t in trials
        ]
        if header[0] != "kind" or rows != expected:
            problems.append(f"probe {op}: trials.csv does not match report.json")
        if result["counterexample_files"] != summary["non_pd_weakly_convex"]:
            problems.append(f"probe {op}: counterexample files do not match the summary")
        return problems

    def pinned(self):
        problems = []
        ref = self.reference
        for case in ref["cases"]:
            scratch = self.workdir / f"pinned-probe-{case['seed']}"
            raw = _cli(["probe-pd", "--trials", str(case["trials"]), "--seed", str(case["seed"]),
                        "--out", str(scratch)])
            result = self.collect(case["seed"], raw, scratch)
            if result["code"] != 0:
                problems.append(f"pinned probe {case['seed']}: exit code {result['code']}")
                continue
            problems += [
                f"pinned probe {case['seed']}: {p}"
                for p in _probe_trials_match(
                    result["report"]["trials"], case["trial_records"], ref["min_eigenvalue_rtol"]
                )
            ]
        return problems


def _replay_pd_probe(trials, seed, include_controls, tol, reasons):
    """pd_probe's trial loop as public calls; failures are counted by type."""
    records = []
    counterexamples = []
    kinds = PROBE_KINDS + (("control_nonconvex",) if include_controls else ())
    for k in range(trials):
        kind = kinds[k % len(kinds)]
        trial_seed = (int(seed), k)
        rng = np.random.default_rng(trial_seed)
        try:
            decomposition = generators.probe_decomposition(kind, rng, tol=tol)
            lam = hessian.lambda_matrix(decomposition, tol=tol)
            rigid = hessian.rigidity_from_lambda(decomposition, tol=tol)
            weakly = geometry.classify_convexity(decomposition.surface, tol).is_weakly_convex
        except Exception as exc:  # pd_probe swallows these; count each by its type
            reasons[type(exc).__name__] += 1
            continue
        trial = hessian.ProbeTrial(
            kind=kind,
            seed=trial_seed,
            r=lam.r,
            min_eigenvalue=lam.min_eigenvalue if lam.r else float("inf"),
            diagonal_positive=lam.diagonal_positive,
            weakly_convex=weakly,
            rigid=rigid,
        )
        records.append(trial)
        if weakly and lam.r and not lam.is_positive_definite:
            counterexamples.append(
                {
                    "trial": trial.to_dict(),
                    "vertices": decomposition.vertices.tolist(),
                    "tetrahedra": [list(t) for t in decomposition.tetrahedra],
                    "interior_edges": [list(e) for e in decomposition.interior_edges],
                    "matrix": lam.matrix.tolist(),
                    "eigenvalues": lam.eigenvalues.tolist(),
                }
            )
    return hessian.ProbeReport(tuple(records), sum(reasons.values()), tuple(counterexamples))


# ---------------------------------------------------------------------------
# dent_harness
# ---------------------------------------------------------------------------


def dent_rows(trials):
    def edge(e):
        return None if e is None else [int(v) for v in e]

    return [
        [int(t.seed[1]), int(t.n_vertices), edge(t.single_edge), bool(t.single_rigid),
         edge(t.double_edge), None if t.double_rigid is None else bool(t.double_rigid)]
        for t in trials
    ]


class DentHarness(Workload):
    name = "dent_harness"
    op_s = 0.23
    trials = 16
    smoke_trials = 2

    def make_ops(self, seed, n_ops):
        return [seed * 10**6 + i for i in range(n_ops)]

    def run(self, op, scratch):
        return cauchy.dent_rigidity_harness(seed=op, trials=self.trial_count())

    def replay(self, tracer, op, scratch):
        with tracer.span("cauchy", "dent_rigidity_harness"):
            return _replay_dent_harness(op, self.trial_count())

    def collect(self, op, raw, scratch):
        return {
            "trials": dent_rows(raw.trials),
            "skipped": raw.skipped,
            "failures": dent_rows(raw.failures),
        }

    def failed(self, result):
        return result["skipped"] > 0

    def check(self, op, result):
        problems = [f"dent {op}: dented hull reported flexible: {row}" for row in result["failures"]]
        if len(result["trials"]) + result["skipped"] != self.trial_count():
            problems.append(f"dent {op}: trials and skips do not add up to {self.trial_count()}")
        return problems

    def pinned(self):
        problems = []
        for case in self.reference["cases"]:
            got = self.collect(case["seed"], cauchy.dent_rigidity_harness(
                seed=case["seed"], trials=case["trials"]), None)
            if got["trials"] != case["trial_rows"] or got["skipped"] != case["skipped"]:
                problems.append(f"pinned dent {case['seed']}: trials differ from the reference")
        return problems


def _cofacial(surface, e1, e2):
    both = set(e1) | set(e2)
    return any(both <= set(map(int, f)) for f in surface.faces)


def _replay_dent_harness(seed, trials, n_range=(8, 20)):
    """dent_rigidity_harness's loop as public calls; skips are counted by reason."""
    tol = rigidity3d.DEFAULT_TOL
    reasons = Counter()
    trial_list = []
    failures = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        try:
            surface = generators.random_convex_hull_surface(rng, n, tol=tol)
        except Exception as exc:  # the harness skips these; count each by its type
            reasons[type(exc).__name__] += 1
            continue
        edges = list(surface.edges)
        dent1 = dent2 = None
        for k in rng.permutation(len(edges)):
            try:
                attempt1 = cauchy.dent(surface, edges[k], tol)
            except cauchy.CauchyError:
                continue
            if dent1 is None:
                dent1 = attempt1
            e1 = attempt1.removed_edge
            cands = [
                e for e in edges
                if len(set(e) & set(e1)) == 1 and not _cofacial(surface, e, e1)
            ]
            for c in rng.permutation(len(cands)):
                try:
                    dent2 = cauchy.dent(attempt1.surface, cands[c], tol)
                except cauchy.CauchyError:
                    continue
                dent1 = attempt1
                break
            if dent2 is not None:
                break
        if dent1 is None:
            reasons["no_dentable_edge"] += 1
            continue
        e1 = dent1.removed_edge
        single_rigid = frameworks.is_infinitesimally_rigid(
            frameworks.Framework.from_surface(dent1.surface, tol=tol), tol
        )
        double_edge = double_rigid = None
        if dent2 is not None:
            double_edge = dent2.removed_edge
            double_rigid = frameworks.is_infinitesimally_rigid(
                frameworks.Framework.from_surface(dent2.surface, tol=tol), tol
            )
        trial = cauchy.DentTrial((seed, t), n, e1, single_rigid, double_edge, double_rigid)
        trial_list.append(trial)
        if not single_rigid or double_rigid is False:
            failures.append(trial)
    return cauchy.DentHarnessReport(tuple(trial_list), sum(reasons.values()), tuple(failures)), reasons


WORKLOADS = {w.name: w for w in (AnalyzeHull, InductiveStress, ProbePd, DentHarness)}
