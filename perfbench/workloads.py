"""The benchmark's four seeded workloads.

Each workload builds an op sequence from its seed alone; the timed loop
cycles through that sequence with one caller (closed loop).  A workload
also says, for one op, what its exact answer is (digested and compared
with the stored reference) and how to check the answer against its
contract without trusting the code under test.  The benchmark calls
matsemi only through module attributes (``ms.rank``,
``harness.verify_group_theorem``), so the tracer's wrappers see every
call.

Corpora are stratified: every block of the sequence holds the same mix
of instance kinds and sizes, drawn from the seeded stream.  The costs of
the kinds differ by two to three orders of magnitude, so an unstratified
draw would make a run's throughput depend more on the seed than on the
code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as textio
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

import matsemi as ms
from matsemi import cli, harness, io as msio
from matsemi import cones as mcones

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


class AnswerError(Exception):
    """An op's answer breaks its contract or the stored reference."""


class Falsified(AnswerError):
    """A theorem pipeline reported a counterexample."""


@dataclass
class Corpus:
    ops: list
    warm: list
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    default_seed = 0
    heldout_seed = 0
    trace_ops = 0  # ops in the traced slice

    def build(self, seed: int) -> Corpus:
        raise NotImplementedError

    def run(self, corpus: Corpus, item) -> Any:
        raise NotImplementedError

    def answer(self, item, raw) -> str:
        """The exact answer of one op as canonical text (never floats)."""
        raise NotImplementedError

    def check(self, corpus: Corpus, item, raw) -> None:
        """Raise AnswerError unless the answer meets its contract."""

    def failed(self, raw) -> bool:
        return False

    def describe_failure(self, raw) -> str:
        return repr(raw)

    def reset(self) -> None:
        """Undo state an earlier pass left in the process."""

    def session(self, corpus: Corpus):
        return contextlib.nullcontext()

    def pass_stats(self) -> dict:
        return {}

    def layer_metrics(self, corpus: Corpus, raws: list,
                      latencies: list) -> dict:
        return {}


def _sign_conjugate(rows: list[list[int]], signs: Sequence[int]) -> ms.Matrix:
    n = len(rows)
    return ms.Matrix.from_rows([[signs[i] * signs[j] * rows[i][j]
                                 for j in range(n)] for i in range(n)])


def _random_signs(rng: random.Random, n: int) -> list[int]:
    return [1] + [rng.choice((1, -1)) for _ in range(n - 1)]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- pipelines --------------------------------------------------------------

CAPS = ms.Caps(max_elements=300, max_word_length=8)
SIZES = (2, 3, 4)
# One round holds, for each n, four group and four semigroup instances;
# three rounds make a block with the planters' own kind frequencies.
GROUP_ROUND = ("permutation", "permutation", "balanced", "free")
SEMI_ROUNDS = (("spanning", "idempotent", "multi_block", "reducible"),
               ("spanning", "idempotent", "spanning", "idempotent"),
               ("spanning", "idempotent", "multi_block", "reducible"))
PIPELINE_BLOCKS = 2


# The planted instances are always criterion 8's stream.  The costs of
# instances of one kind still differ by a factor of three, and a run
# covers little more than one pass, so a corpus drawn per seed would
# make throughput depend on the seed.  The seed instead relabels every
# instance by a random signed permutation, which changes the matrices,
# witnesses and closure members but no closure size, word or hypothesis
# outcome, and it orders each round.
PLANT_SEED = 640008


def _relabel(gens: list, rng: random.Random) -> list:
    """P S g S P^T for a random permutation P and sign diagonal S."""
    n = gens[0].rows
    perm = list(range(n))
    rng.shuffle(perm)
    s = _random_signs(rng, n)
    return [ms.Matrix(n, n, [g.entry(perm[i], perm[j])
                             if s[i] == s[j] else -g.entry(perm[i], perm[j])
                             for i in range(n) for j in range(n)])
            for g in gens]


class Pipelines(Workload):
    """Both theorem pipelines on planted instances, one verify call an op.

    Instances come from the criterion-8 planters, drawn in the
    criterion-8 way (``n = rng.randint(2, 4)``) and kept while their
    stratum (side, n, kind, and generator count for free groups) still
    has room; see PLANT_SEED for what the seed changes.
    """

    name = "pipelines"
    default_seed = 640008
    heldout_seed = 740008
    trace_ops = 72

    def __init__(self):
        self._closures: list = []

    def build(self, seed: int) -> Corpus:
        demand: Counter = Counter()
        layout = []
        for _ in range(PIPELINE_BLOCKS):
            for rnd, semi in enumerate(SEMI_ROUNDS):
                slots = []
                for n in SIZES:
                    for kind in GROUP_ROUND:
                        count = rnd + 1 if kind == "free" else 0
                        slots.append(("group", n, kind, count))
                    for kind in semi:
                        slots.append(("semigroup", n, kind, 0))
                demand.update(slots)
                layout.append(slots)
        pools: dict = {}
        plant_rng = random.Random(PLANT_SEED)
        t0 = time.perf_counter()
        for side, plant in (("group", harness.plant_group_instance),
                            ("semigroup", harness.plant_semigroup_instance)):
            want = sum(v for k, v in demand.items() if k[0] == side)
            while want:
                n = plant_rng.randint(2, 4)
                gens, kind = plant(plant_rng, n)
                count = len(gens) if side == "group" and kind == "free" else 0
                key = (side, n, kind, count)
                if demand[key] > 0:
                    demand[key] -= 1
                    want -= 1
                    pools.setdefault(key, []).append(gens)
        plant_s = time.perf_counter() - t0
        rng = random.Random(seed)
        ops = []
        for slots in layout:
            slots = list(slots)
            rng.shuffle(slots)
            ops.extend((key[0], _relabel(pools[key].pop(), rng))
                       for key in slots)
        warm = [op for op in ops[:24] if op[1][0].rows == 2]
        return Corpus(ops, warm, {"plant_s": plant_s})

    @contextlib.contextmanager
    def _capturing(self):
        # The report does not carry the closure, so keep each closure's
        # words from the call the pipeline itself makes.
        inner = harness.generate_closure

        def capture(*args, **kwargs):
            cl = inner(*args, **kwargs)
            self._closures.append(cl)
            return cl

        harness.generate_closure = capture
        try:
            yield
        finally:
            harness.generate_closure = inner

    def session(self, corpus):
        return self._capturing()

    def run(self, corpus, item):
        side, gens = item
        self._closures.clear()
        if side == "group":
            rep = harness.verify_group_theorem(gens, CAPS)
        else:
            rep = harness.verify_semigroup_theorem(gens, CAPS)
        cl = self._closures[0]
        return rep, tuple(e.word for e in cl.elements), cl.truncated

    def answer(self, item, raw):
        rep, words, truncated = raw
        return _dumps({"report": rep.to_json(), "words": words,
                       "truncated": truncated})

    def check(self, corpus, item, raw):
        side, gens = item
        rep, words, _ = raw
        if rep.falsified:
            raise Falsified(f"{rep.theorem} theorem falsified: {rep.notes}")
        if len(words) == 0 or any(w[0] >= len(gens) for w in words):
            raise AnswerError("closure words do not index the generators")
        if rep.witness is not None:
            for g in gens:
                cls = ms.classify_entries(ms.conjugate(rep.witness, g))
                if not cls.is_nonnegative or (side == "group"
                                              and not cls.is_monomial):
                    raise AnswerError("witness fails on a generator")

    def layer_metrics(self, corpus, raws, latencies):
        done = [r for r in raws if isinstance(r, tuple)]
        applicable = sum(1 for rep, _, _ in done if rep.applicable)
        return {"harness.plant_s": corpus.extra["plant_s"],
                "harness.applicable_ratio": applicable / max(1, len(raws))}


# -- cones ------------------------------------------------------------------

CONE_BUILDS = 400          # pointed cones, one build op each
READS_PER_BUILD = 3        # read ops between two builds
READ_BATCH = 16            # queries in one read op
CHECKED_PER_BATCH = 4      # queries per read op checked by Caratheodory
CONE_UNIVERSE = 2048       # distinct cones the reads draw from
CONE_HOT = 128             # the hot subset: fits the 512-entry dual cache
HOT_SHARE = 0.8


def _random_rays(rng: random.Random, n: int) -> list[list[int]]:
    rays = [[rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rng.randint(1, 5))]
    return [r for r in rays if any(r)]


def _eliminate(cols: list, v: Optional[tuple] = None):
    """Exact elimination on the columns (and v, as a last column).

    Returns (rank of cols, coefficients c with sum c_k cols[k] == v when
    the cols are independent and v is in their span, else None).
    """
    n, k = len(cols[0]), len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(k)]
            + ([Fraction(v[i])] if v is not None else []) for i in range(n)]
    r = 0
    for c in range(k):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if v is None or r < k or any(rows[i][k] != 0 for i in range(r, n)):
        return r, None
    return r, [rows[i][k] for i in range(k)]


def in_cone(rays: list, v: tuple) -> bool:
    """Membership by Caratheodory: v is a nonnegative combination of a
    maximal linearly independent subset of the rays (a smaller support
    extends to one with zero coefficients).  Independent of matsemi."""
    if not any(v):
        return True
    rank = _eliminate(rays)[0]
    for sub in itertools.combinations(rays, rank):
        c = _eliminate(list(sub), v)[1]
        if c is not None and all(x >= 0 for x in c):
            return True
    return False


def _dual_cache():
    cache = getattr(mcones, "_dual_ray_vectors", None)
    return cache if hasattr(cache, "cache_info") else None


class Cones(Workload):
    """Cone builds mixed with skewed batches of membership and
    invariance reads.

    Build cones are the criterion-6 stream (random pointed cones in
    dimension 2 to 4).  A read op is a batch of sixteen queries; each
    query hits a hot subset of 128 cones 80 % of the time and otherwise
    any of 2048, so the reads cover four times more cones than the dual
    cache holds.
    """

    name = "cones"
    default_seed = 640006
    heldout_seed = 740006
    trace_ops = 800

    def build(self, seed):
        rng = random.Random(seed)
        builds = []
        while len(builds) < CONE_BUILDS:
            n = rng.randint(2, 4)
            rays = _random_rays(rng, n)
            if not rays:
                continue
            k = ms.Cone.of(n, rays)
            if ms.properness(k).is_pointed:
                builds.append(k)
        universe = []
        while len(universe) < CONE_UNIVERSE:
            n = rng.randint(2, 4)
            rays = _random_rays(rng, n)
            if rays:
                universe.append(ms.Cone.of(n, rays))

        def query():
            hot = rng.random() < HOT_SHARE
            k = universe[rng.randrange(CONE_HOT if hot else CONE_UNIVERSE)]
            if rng.random() < 2 / 3:
                return "contains", k, tuple(rng.randint(-3, 3)
                                            for _ in range(k.dim))
            return "invariant", k, ms.Matrix.from_rows(
                [[rng.choice((0, 0, 1, 2, -1)) for _ in range(k.dim)]
                 for _ in range(k.dim)])

        ops = []
        for k in builds:
            ops.append(("build", k))
            for _ in range(READS_PER_BUILD):
                ops.append(("read", tuple(query()
                                          for _ in range(READ_BATCH))))
        return Corpus(ops, ops[:2 * (READS_PER_BUILD + 1)])

    def reset(self):
        cache = _dual_cache()
        if cache is not None:
            cache.cache_clear()

    def pass_stats(self):
        cache = _dual_cache()
        if cache is None:
            return {"hits": 0, "misses": 0}
        info = cache.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def run(self, corpus, item):
        if item[0] == "build":
            k = item[1]
            rep = ms.properness(k)
            d = ms.dual(k)
            dd = ms.dual(d)
            return rep, d, dd, ms.extreme_rays(k)
        return tuple(ms.contains(k, x) if kind == "contains"
                     else ms.is_invariant(x, k) for kind, k, x in item[1])

    def answer(self, item, raw):
        if item[0] != "build":
            return "".join("1" if x else "0" for x in raw)
        rep, d, dd, ext = raw
        return _dumps({"properness": msio.properness_to_json(rep),
                       "dual": msio.cone_to_json(d)["rays"],
                       "dual_dual": msio.cone_to_json(dd)["rays"],
                       "extreme": [[str(x) for x in r.v] for r in ext]})

    def check(self, corpus, item, raw):
        if item[0] == "build":
            k = item[1]
            rep, d, dd, ext = raw
            if not rep.is_pointed:
                raise AnswerError("a generated cone was not reported pointed")
            if sorted(r.v for r in ms.extreme_rays(dd)) != sorted(
                    r.v for r in ext):
                raise AnswerError("dual(dual(K)) has other extreme rays")
            if any(sum(a * b for a, b in zip(c.v, g.v)) < 0
                   for c in d.rays for g in k.rays):
                raise AnswerError("a dual ray is negative on a generator")
            return
        # The independent test costs ten times the query; the rest of
        # the batch is covered by the reference digests and repeats.
        for (kind, k, x), got in zip(item[1][:CHECKED_PER_BATCH], raw):
            rays = [r.v for r in k.rays]
            if kind == "contains":
                want = in_cone(rays, x)
            else:
                want = all(in_cone(rays, tuple(
                    sum(x.entry(i, j).re * r[j] for j in range(k.dim))
                    for i in range(k.dim))) for r in rays)
            if got != want:
                raise AnswerError(f"{kind} query answered {got}, "
                                  "Caratheodory says otherwise")


# -- matrices ---------------------------------------------------------------

MATRIX_BLOCKS = 40
# Seven quick matrices, then one defective block: the nilpotent case
# where shifted power iteration crawls (about 63k iterations per side).
MATRIX_BLOCK = ("sc", "sc", "sc", "sc", "reducible", "reducible", "mixed")


def _strongly_connected(rng, n):
    rows = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = max(1, rows[i][(i + 1) % n])
    return rows


def _reducible(rng, n):
    """Block triangular [[A, B], [0, C]] under a random relabelling.

    A is positive with entries 3..5 and C has at most two unit entries
    per row, so rho(A) >= 3 > 2 >= rho(C): one dominant block, and power
    iteration converges geometrically.
    """
    k = rng.randint(1, n - 1)
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            rows[i][j] = rng.randint(3, 5)
        for j in range(k, n):
            rows[i][j] = rng.randint(0, 2)
    for i in range(k, n):
        for j in rng.sample(range(k, n), min(2, n - k)):
            rows[i][j] = rng.randint(0, 1)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _mixed(rng, n):
    """Mixed signs with one 2-cycle of opposite signs: no witness exists,
    because conjugation keeps the sign of a_ij * a_ji."""
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    rows[i][j], rows[j][i] = rng.randint(1, 2), -rng.randint(1, 2)
    return rows


def _defective(rng, n):
    rows = [[0] * n for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    rows[i][j] = rng.randint(1, 5)
    return rows


@dataclass
class MatrixAnswer:
    rank: int
    classification: Any
    decomposition: Any
    witness: Any
    primitive: Optional[bool] = None
    spectral: Any = None
    perron_error: Optional[str] = None


class Matrices(Workload):
    """What ``matsemi analyze`` runs, plus Perron data when a witness
    exists: rank, entry classes, decomposability and witness; then
    primitivity and the Perron root of the conjugated nonnegative
    matrix."""

    name = "matrices"
    default_seed = 640007
    heldout_seed = 740007
    trace_ops = 64
    TOL = 1e-9

    def build(self, seed):
        rng = random.Random(seed)
        makers = {"sc": (_strongly_connected, 2), "reducible": (_reducible, 3),
                  "mixed": (_mixed, 2), "defective": (_defective, 2)}
        ops = []
        for _ in range(MATRIX_BLOCKS):
            kinds = list(MATRIX_BLOCK)
            rng.shuffle(kinds)
            for kind in kinds + ["defective"]:
                make, lo = makers[kind]
                n = rng.randint(lo, 6)
                rows = make(rng, n)
                if kind != "mixed":
                    rows = _sign_conjugate(rows, _random_signs(rng, n))
                else:
                    rows = ms.Matrix.from_rows(rows)
                ops.append((kind, rows))
        warm = [op for op in ops if op[0] != "defective"][:8]
        return Corpus(ops, warm)

    def run(self, corpus, item):
        m = item[1]
        out = MatrixAnswer(rank=ms.rank(m),
                           classification=ms.classify_entries(m),
                           decomposition=ms.classify_decomposability(m),
                           witness=ms.diag_sim_nonneg(m))
        if out.witness is not None:
            p = ms.conjugate(out.witness, m)
            out.primitive = ms.is_primitive(p)
            try:
                out.spectral = ms.perron(p, tol=self.TOL)
            except ms.NonConvergenceError as e:
                out.perron_error = str(e)
        return out

    def failed(self, raw):
        return isinstance(raw, MatrixAnswer) and raw.perron_error is not None

    def describe_failure(self, raw):
        return f"NonConvergenceError: {raw.perron_error}"

    def answer(self, item, raw):
        return _dumps({
            "rank": raw.rank,
            "classification": dataclasses.asdict(raw.classification),
            "decomposition": msio.decomposition_to_json(raw.decomposition),
            "witness": (msio.witness_to_json(raw.witness)
                        if raw.witness is not None else "infeasible"),
            "primitive": raw.primitive})

    def check(self, corpus, item, raw):
        kind, m = item
        n = m.rows
        a = np.array([[float(m.entry(i, j).re) for j in range(n)]
                      for i in range(n)])
        if raw.rank != int(np.linalg.matrix_rank(a)):
            raise AnswerError("exact rank disagrees with the float rank")
        if (raw.witness is None) != (kind == "mixed"):
            raise AnswerError(f"witness existence is wrong for a {kind} "
                              "matrix")
        sccs = raw.decomposition.scc_count
        if kind != "mixed" and (kind == "sc") != (sccs == 1):
            raise AnswerError(f"{kind} matrix reported with {sccs} SCCs")
        if raw.witness is None:
            return
        p = ms.conjugate(raw.witness, m)
        if not ms.classify_entries(p).is_nonnegative:
            raise AnswerError("witness does not make the matrix nonnegative")
        pa = np.array([[float(p.entry(i, j).re) for j in range(n)]
                       for i in range(n)])
        reach = np.eye(n, dtype=np.int64)
        for _ in range((n - 1) ** 2 + 1):
            reach = ((reach @ (pa > 0).astype(np.int64)) > 0).astype(np.int64)
        if raw.primitive != bool(reach.all()):
            raise AnswerError("primitivity disagrees with matrix powers")
        res = raw.spectral
        if res is None:
            return
        v = np.array(res.right_vector)
        residual = float(np.abs(pa @ v - res.rho * v).max())
        sums = pa.sum(axis=1)
        if residual > self.TOL * (1 + 1e-6):
            raise AnswerError(f"Perron residual {residual:.3e} above tol")
        if not (sums.min() - 1e-9 <= res.rho <= sums.max() + 1e-9):
            raise AnswerError("Perron root outside the row-sum bounds")


# -- cli --------------------------------------------------------------------

CLI_ANALYZE = 16


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


class Cli(Workload):
    """Cold ``matsemi`` processes, one at a time, one launch an op:
    sixteen ``analyze`` runs, two ``verify`` runs and two ``cone dual``
    runs per twenty launches."""

    name = "cli"
    default_seed = 640007
    heldout_seed = 740017
    trace_ops = 20

    def __init__(self):
        self.env = _cli_env()

    def build(self, seed):
        rng = random.Random(seed)
        work = WORK / f"cli-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        ops = []
        makers = (_strongly_connected, _reducible, _mixed, _strongly_connected)
        for i in range(CLI_ANALYZE):
            n = rng.randint(3, 6)
            rows = makers[i % len(makers)](rng, n)
            m = _sign_conjugate(rows, _random_signs(rng, n))
            path = work / f"m{i}.json"
            path.write_text(msio.dump_json(msio.matrix_to_json(m)))
            ops.append(["analyze", str(path)])
        for kind, plant in (("group", harness.plant_group_instance),
                            ("semigroup", harness.plant_semigroup_instance)):
            gens, _ = plant(rng, 3)
            path = work / f"{kind}.json"
            path.write_text(msio.dump_json(
                {"matrices": [msio.matrix_to_json(g) for g in gens]}))
            ops.append(["verify", kind, str(path), "--max-elements", "300",
                        "--max-word-length", "8"])
        for i in range(2):
            while True:
                n = rng.randint(3, 4)
                rays = _random_rays(rng, n)
                if rays:
                    break
            path = work / f"k{i}.json"
            path.write_text(msio.dump_json(msio.cone_to_json(
                ms.Cone.of(n, rays))))
            ops.append(["cone", "dual", str(path)])
        rng.shuffle(ops)
        ops = [tuple(op) for op in ops]
        return Corpus(ops, ops[:1])

    def launch(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def run(self, corpus, item):
        p = self.launch([sys.executable, "-m", "matsemi.cli", *item])
        return p.returncode, p.stdout

    def failed(self, raw):
        return raw[0] != 0

    def describe_failure(self, raw):
        return f"exit code {raw[0]}"

    def answer(self, item, raw):
        try:
            return _dumps(json.loads(raw[1]))
        except ValueError:
            raise AnswerError(f"{item[0]} printed no JSON document") from None

    def check(self, corpus, item, raw):
        out = textio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(item))
        if item[0] == "verify" and json.loads(raw[1])["falsified"]:
            raise Falsified("verify reported a falsified theorem")
        if code != raw[0] or out.getvalue() != raw[1]:
            raise AnswerError("cold CLI output differs from the library's")

    def _median_launch(self, argv, reps=5) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            p = self.launch(argv)
            times.append(time.perf_counter() - t0)
            if p.returncode != 0:
                raise AnswerError(f"{argv} exited {p.returncode}")
        return float(np.median(times))

    def layer_metrics(self, corpus, raws, latencies):
        bare = self._median_launch([sys.executable, "-c", "pass"])
        imp = self._median_launch([sys.executable, "-c", "import matsemi.cli"])
        return {"cli.interpreter_s": bare, "cli.import_s": imp - bare,
                "cli.work_s": float(np.median(latencies)) - imp}


WORKLOADS = {w.name: w for w in (Pipelines, Cones, Matrices, Cli)}
