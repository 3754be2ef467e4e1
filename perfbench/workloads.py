"""The benchmark's workloads: inputs, set-up, operations, output digests
and quality scores.

Every workload learns the same models the experiment harness learns (a
Bayes net, mined AFDs and naive Bayes over a 15% training sample) and then
runs four families of operations against them:

* ``rewrite``: one call of one of the five rewriting strategies, with a
  fresh ``AutonomousSource`` per call, as ``run_rewriting_experiment`` does;
* ``exact`` / ``gibbs``: ``impute_table`` over one batch of incomplete rows;
* ``afd``: ``afd_impute_tuple`` over every row of one batch.

``afd_rewrite_single`` raises ``ValueError`` on a conjunction (a known
defect).  Those operations are kept out of the timed mix, so that no timed
operation fails, and are run once, untimed, as ``probes`` whose outcome the
run's record keeps.

The workloads differ in data, null scheme and how their run time is shared
between the families.  Each workload's data comes from the fixed DATA_SEED,
and a run's seed only orders the operations: across data seeds the mined
AFDs flip between near-equal rules, which moves pooled rewriting recall on
rewrite-car50k between 0.25 and 0.40, far beyond any bound a timing change
could be judged by.  With fixed data, ``reference.json`` holds the expected
output digest of every operation.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

from nullbayes import (
    AutonomousSource,
    BeamConfig,
    GibbsParams,
    NoRuleError,
    NotApplicableError,
    Row,
    SelectionQuery,
    StructureSearchConfig,
    Table,
    afd_all_attributes,
    afd_highest_confidence,
    afd_impute_tuple,
    afd_rewrite_single,
    align_table,
    bn_all_mb,
    bn_beam,
    enumerate_joint,
    fit_naive_bayes,
    fit_parameters,
    impute_table,
    inject_nulls,
    learn_structure,
    load_csv,
    mine_afds,
    sample_rows,
    save_csv,
    split_table,
)
from nullbayes.synth import car_demo_net, random_net

DATA_SEED = 0
TRAIN_FRACTION = 0.15
TOP_K = 10
REDUCED_BUDGET = 5  # below TOP_K: the base query plus four rewrites, then a refusal
METHODS = ("bn-all-mb", "bn-beam", "afd", "afd-all-attributes", "afd-highest-confidence")
ENGINES = ("exact", "gibbs", "afd")
GIBBS = GibbsParams(samples=250, burn_in=100, seed=DATA_SEED)
# joints up to this size are enumerated to check exact imputations
ORACLE_MAX_STATES = 1_000_000
ORACLE_ROWS = 200


@dataclass(frozen=True)
class Spec:
    """One workload.

    ``batches`` maps an engine to (rows per operation, operations per pass);
    a row count of None means every incomplete row in one operation.
    Operations are kept short and passes small, so that every operation
    runs many times in a run and its best time is steady.  Exact batches
    stay large where keys repeat, because the memo lives for one call.
    ``weights`` is each family's share of the run's operation time.
    """

    name: str
    net: Callable
    rows: int
    tiny_rows: int
    setups: int
    null_attrs: tuple[str, ...]
    csv_source: bool
    queries: tuple[tuple[str, int | None], ...]
    batches: dict
    weights: dict


WORKLOADS = {
    spec.name: spec
    for spec in (
        # The source is what `nullbayes rewrite --source` reads: a CSV
        # in which Body, Model and Price are each null in half of the rows.
        Spec(
            name="rewrite-car50k",
            net=car_demo_net,
            rows=50_000,
            tiny_rows=2_000,
            setups=1,
            null_attrs=("Body", "Model", "Price"),
            csv_source=True,
            queries=(
                ("Body=sedan", None),
                ("Body=coupe", REDUCED_BUDGET),
                ("Model=civic", None),
                ("Price=15000", None),
                ("Body=suv & Price=30000", REDUCED_BUDGET),
            ),
            batches={"exact": (2000, 1), "gibbs": (2, 5), "afd": (250, 8)},
            weights={"rewrite": 0.7, "exact": 0.1, "gibbs": 0.12, "afd": 0.08},
        ),
        # Harness imputation semantics at one level: the targets are null
        # in every test row, every other attribute in 30% of them.
        Spec(
            name="impute-car5k",
            net=car_demo_net,
            rows=5_000,
            tiny_rows=1_000,
            setups=5,
            null_attrs=("Body", "Price"),
            csv_source=False,
            # Body and Price are null in every source row, so queries are on
            # attributes whose rewrites can use the other columns
            queries=(
                ("Make=audi", None),
                ("Mileage=20000", None),
                ("Make=bmw", REDUCED_BUDGET),
                ("Make=acura & Mileage=20000", None),
            ),
            batches={"exact": (None, 1), "gibbs": (4, 10), "afd": (250, 17)},
            weights={"rewrite": 0.25, "exact": 0.25, "gibbs": 0.25, "afd": 0.25},
        ),
        Spec(
            name="impute-wide20k",
            net=lambda: random_net(20),
            rows=20_000,
            tiny_rows=1_000,
            setups=1,
            null_attrs=("A", "B"),
            csv_source=False,
            queries=(
                ("C=v0", None),
                ("H=v1", None),
                ("O=v1", REDUCED_BUDGET),
                ("C=v0 & E=v1", None),
            ),
            batches={"exact": (20, 10), "gibbs": (1, 10), "afd": (20, 10)},
            weights={"rewrite": 0.7, "exact": 0.1, "gibbs": 0.1, "afd": 0.1},
        ),
    )
}

HARNESS_LEVEL = 30  # percent of rows with each non-target attribute nulled
HARNESS_LEVEL_INDEX = 3  # its position in the harness's default level list


@dataclass(frozen=True)
class Op:
    family: str
    key: str  # stable name of the operation in reference.json
    method: str | None = None
    query: SelectionQuery | None = None
    budget: int | None = None
    batch: int = 0


@dataclass
class Env:
    """Everything the operations need, built by ``set_up``."""

    spec: Spec
    train: Table
    source: Table  # what the rewriting source serves
    truth: dict  # source row id -> complete row
    net: object
    afds: list
    nb: object
    batches: dict  # engine -> list of Tables
    ops: dict  # family -> list of Op, one pass
    probes: list  # operations known to fail, run once untimed


def _plain(name: str, fn, *args):
    return fn(*args)


def set_up(spec: Spec, tiny: bool, call=_plain, work_dir: str = ".") -> Env:
    """Generate the workload's data and learn every model from it.

    ``call(name, fn, *args)`` runs each library call, so a tracer can time it.
    """
    true_net = spec.net()
    n = spec.tiny_rows if tiny else spec.rows
    data = call("bayesnet.sample_rows", sample_rows, true_net, n, (DATA_SEED, 0))
    train, test = call("harness.split_table", split_table, data, TRAIN_FRACTION, (DATA_SEED, 1))
    if spec.csv_source:
        # each attribute nulled independently, so a row hiding Body may still show Model
        visible = test
        for ai, attr in enumerate(spec.null_attrs):
            visible = call(
                "tabular.inject_nulls", inject_nulls, visible, [attr], 0.5, (DATA_SEED, 2, ai)
            )
        path = os.path.join(work_dir, f"source-{os.getpid()}.csv")
        call("tabular.save_csv", save_csv, visible, path)
        try:
            source = call("tabular.load_csv", load_csv, path)
        finally:
            os.remove(path)
        # load_csv numbers rows 1..N in file order
        truth = {i: Row(i, r.cells) for i, r in enumerate(test.rows, start=1)}
    else:
        source = call("tabular.inject_nulls", inject_nulls, test, spec.null_attrs, 1.0, (DATA_SEED, 3))
        evidence = [a for a in data.schema.attributes if a not in spec.null_attrs]
        for ai, attr in enumerate(evidence):
            source = call(
                "tabular.inject_nulls", inject_nulls, source, [attr], HARNESS_LEVEL / 100.0,
                (DATA_SEED, 4, HARNESS_LEVEL_INDEX, ai),
            )
        truth = {r.id: r for r in test.rows}
    structure = call(
        "bayesnet.learn_structure", learn_structure, train, StructureSearchConfig(seed=DATA_SEED)
    )
    net = call("bayesnet.fit_parameters", fit_parameters, structure, train, 1.0)
    afds = call("afd.mine_afds", mine_afds, train, 2, 0.0)
    nb = call("afd.fit_naive_bayes", fit_naive_bayes, train)

    # imputation runs on the source in the model's schema, as `nullbayes impute` does
    aligned = source if source.schema == net.schema else align_table(source, net.schema)
    incomplete = [r for r in aligned.rows if None in r.cells]
    batches = {}
    for engine in ENGINES:
        size, count = spec.batches[engine]
        size = size or len(incomplete)
        count = min(count, math.ceil(len(incomplete) / size))
        batches[engine] = [
            Table(net.schema, incomplete[b * size : (b + 1) * size]) for b in range(count)
        ]
    rewrites = [
        Op("rewrite", f"rewrite/{text}/{budget}/{method}", method, SelectionQuery.parse(text), budget)
        for text, budget in spec.queries
        for method in METHODS
    ]
    ops = {"rewrite": [op for op in rewrites if not known_to_fail(op)]}
    for engine in ENGINES:
        ops[engine] = [Op(engine, f"{engine}/{b}", batch=b) for b in range(len(batches[engine]))]
    probes = [op for op in rewrites if known_to_fail(op)]
    return Env(spec, train, source, truth, net, afds, nb, batches, ops, probes)


def known_to_fail(op: Op) -> bool:
    """``afd`` on a conjunction: ``afd_rewrite_single`` raises ValueError."""
    return op.method == "afd" and len(op.query.attributes) > 1


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    status: str  # "ok", "declined" or "failed"
    value: object = None  # RewritingResult, Table, or list of (Row, unpredictable)
    error: str = ""


def run_rewrite(env: Env, op: Op):
    source = AutonomousSource(env.source, op.budget)
    ratio = len(env.source) / len(env.train)
    q, m = op.query, op.method
    if m == "bn-all-mb":
        return bn_all_mb(env.net, env.train, source, q, TOP_K, 0.0, ratio)
    if m == "bn-beam":
        return bn_beam(env.net, env.train, source, q, BeamConfig(5, 2, 0.0, TOP_K), ratio)
    fn = {
        "afd": afd_rewrite_single,
        "afd-all-attributes": afd_all_attributes,
        "afd-highest-confidence": afd_highest_confidence,
    }[m]
    return fn(env.afds, env.nb, env.train, source, q, TOP_K, 0.0, ratio)


def run_engine(env: Env, op: Op):
    batch = env.batches[op.family][op.batch]
    if op.family == "exact":
        return impute_table(env.net, batch, engine="exact")[0]
    if op.family == "gibbs":
        return impute_table(env.net, batch, engine="gibbs", gibbs=GIBBS)[0]
    return [afd_impute_tuple(env.afds, env.nb, row) for row in batch.rows]


def execute(env: Env, op: Op, layer) -> Outcome:
    """Run one operation inside ``layer(name)``, a context manager (a span
    when tracing).  Declines and failures are outcomes, not exceptions."""
    name = f"rewriting.{op.method}" if op.family == "rewrite" else (
        "afd.afd_impute_tuple" if op.family == "afd" else "imputation.impute_table"
    )
    try:
        with layer(name):
            value = run_rewrite(env, op) if op.family == "rewrite" else run_engine(env, op)
    except (NoRuleError, NotApplicableError) as exc:
        return Outcome("declined", error=type(exc).__name__)
    except Exception as exc:  # any other exception is a failed operation
        return Outcome("failed", error=type(exc).__name__)
    return Outcome("ok", value)


# ---------------------------------------------------------------------------
# output checks


def _cells(row: Row) -> str:
    return "\x1f".join("\x00" if c is None else c for c in row.cells)


def digest(op: Op, outcome: Outcome) -> str:
    """A short hash of everything the operation returned."""
    if outcome.status != "ok":
        return f"{outcome.status}:{outcome.error}"
    parts: list[str] = []
    if op.family == "rewrite":
        result = outcome.value
        for rq in result.issued:
            s = rq.score
            parts.append(
                f"q {rq.text()} {s.precision:.12g} {s.selectivity:.12g} "
                f"{s.recall:.12g} {s.f_measure:.12g}"
            )
        parts.append("a " + " ".join(str(a.row.id) for a in result.answers))
        parts.append(f"t {result.truncated}")
    elif op.family == "afd":
        for row, unpredictable in outcome.value:
            parts.append(f"{row.id}\x1e{_cells(row)}\x1e{','.join(unpredictable)}")
    else:
        for row in outcome.value.rows:
            parts.append(f"{row.id}\x1e{_cells(row)}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def matches_reference(actual: str, expected: str | None) -> bool:
    """Equal digests pass.  So does an error that became a decline: the
    strategy now reports itself not applicable instead of raising."""
    if expected is None:
        return False
    return actual == expected or (
        expected.startswith("failed:") and actual.startswith("declined:")
    )


def rewrite_violations(env: Env, outcome: Outcome) -> int:
    """Answers that fail their issuing query or repeat a base row."""
    result = outcome.value
    schema = env.source.schema
    base_ids = {r.id for r in result.base}
    issued = {rq.query for rq in result.issued}
    return sum(
        1
        for a in result.answers
        if a.row.id in base_ids or a.query not in issued or not a.query.matches(schema, a.row)
    )


def joint_probs(env: Env):
    """The learned net's full joint, or None when it is too large to enumerate."""
    schema = env.net.schema
    states = math.prod(len(schema.domain(a)) for a in schema.attributes)
    return enumerate_joint(env.net).probs if states <= ORACLE_MAX_STATES else None


def oracle_mismatches(env: Env, probs, batch: Table, filled: Table) -> tuple[int, int]:
    """Check exact imputations against the argmax of the enumerated joint.

    Returns (rows checked, rows whose fill is not a maximum of the joint
    restricted to the row's evidence, up to float rounding), over an evenly
    spaced subsample of the batch.
    """
    schema = env.net.schema
    out = {r.id: r for r in filled.rows}
    step = max(1, len(batch) // ORACLE_ROWS)
    checked = bad = 0
    for row in batch.rows[::step][:ORACLE_ROWS]:
        index = []
        chosen = []
        for i, (attr, cell) in enumerate(zip(schema.attributes, row.cells)):
            dom = schema.domain(attr)
            if cell is None:
                index.append(slice(None))
                chosen.append(dom.index(out[row.id].cells[i]))
            else:
                index.append(dom.index(cell))
        sliced = probs[tuple(index)]
        checked += 1
        bad += bool(sliced[tuple(chosen)] < sliced.max() * (1 - 1e-9))
    return checked, bad


def summarize(env: Env, op: Op, outcome: Outcome, probs) -> dict:
    """The figures a finished operation contributes, so its output can be dropped."""
    s = {"status": outcome.status}
    if outcome.status != "ok":
        return s
    if op.family == "rewrite":
        result = outcome.value
        uncertain, relevant = rewrite_quality(env, op, result)
        s.update(
            answers=len(result.answers), issued=len(result.issued),
            truncated=result.truncated, uncertain=uncertain, relevant=relevant,
        )
        return s
    s["cells"], s["hits"] = cell_hits(env, op, outcome)
    if op.family == "afd":
        s["unpredictable"] = sum(len(u) for _, u in outcome.value)
    if op.family == "exact" and probs is not None:
        batch = env.batches["exact"][op.batch]
        s["oracle_checked"], s["oracle_bad"] = oracle_mismatches(env, probs, batch, outcome.value)
    return s


# ---------------------------------------------------------------------------
# quality, scored as the harness scores it


def relevant_total(env: Env, query: SelectionQuery) -> int:
    """Source rows that hide a constrained value and truly satisfy the query."""
    schema = env.source.schema
    idx = [schema.index(a) for a in query.attributes]
    return sum(
        1
        for row in env.source.rows
        if any(row.cells[j] is None for j in idx) and query.matches(schema, env.truth[row.id])
    )


def rewrite_quality(env: Env, op: Op, result) -> tuple[int, int]:
    """(uncertain answers, relevant ones among them) of one rewriting call."""
    schema = env.source.schema
    idx = [schema.index(a) for a in op.query.attributes]
    uncertain = relevant = 0
    for answer in result.answers:
        if all(answer.row.cells[j] is not None for j in idx):
            continue
        uncertain += 1
        relevant += op.query.matches(schema, env.truth[answer.row.id])
    return uncertain, relevant


def imputed_rows(op: Op, outcome: Outcome) -> list[Row]:
    if op.family == "afd":
        return [row for row, _ in outcome.value]
    return list(outcome.value.rows)


def cell_hits(env: Env, op: Op, outcome: Outcome) -> tuple[int, int]:
    """(scored cells, correctly filled ones) over the workload's nulled attributes."""
    schema = env.net.schema
    cols = [schema.index(a) for a in env.spec.null_attrs]
    before = {r.id: r for r in env.batches[op.family][op.batch].rows}
    cells = hits = 0
    for row in imputed_rows(op, outcome):
        truth = env.truth[row.id]
        for j in cols:
            if before[row.id].cells[j] is None and truth.cells[j] is not None:
                cells += 1
                hits += row.cells[j] == truth.cells[j]
    return cells, hits
