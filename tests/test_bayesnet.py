"""Network representation, structure search, fitting, graph queries, model files."""

import ast
import io
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nullbayes
from nullbayes import (
    BayesNet,
    ModelFormatError,
    Row,
    Schema,
    StructureSearchConfig,
    Table,
    d_separated,
    fit_parameters,
    learn_structure,
    load_model,
    markov_blanket,
    sample_rows,
    save_model,
    uniform_cpts,
)

from conftest import demo_net


def _ab_schema():
    return Schema(("A", "B"), {"A": ("a0", "a1"), "B": ("b0", "b1")})


def _chain_net(p_b_given_a=0.9, p_c_given_b=0.85):
    """A -> B -> C with adjustable link strength."""
    schema = Schema(
        ("A", "B", "C"), {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0", "c1")}
    )
    return BayesNet(
        schema,
        {"B": ("A",), "C": ("B",)},
        {
            "A": np.array([0.6, 0.4]),
            "B": np.array([[p_b_given_a, 1 - p_b_given_a], [0.15, 0.85]]),
            "C": np.array([[p_c_given_b, 1 - p_c_given_b], [0.1, 0.9]]),
        },
    )


def _collider_net():
    """A -> C <- B, noisy-or flavored so the orientation is identifiable."""
    schema = Schema(
        ("A", "B", "C"), {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0", "c1")}
    )
    cpt = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            p1 = 0.9 if (i or j) else 0.08
            cpt[i, j] = [1 - p1, p1]
    return BayesNet(
        schema,
        {"C": ("A", "B")},
        {"A": np.array([0.7, 0.3]), "B": np.array([0.35, 0.65]), "C": cpt},
    )


class TestBayesNetValidation:
    def test_cycle_rejected(self):
        s = _ab_schema()
        cpts = {"A": np.array([[0.5, 0.5], [0.5, 0.5]]), "B": np.array([[0.5, 0.5], [0.5, 0.5]])}
        with pytest.raises(ValueError, match="cycle"):
            BayesNet(s, {"A": ("B",), "B": ("A",)}, cpts)

    def test_self_parent_rejected(self):
        s = _ab_schema()
        with pytest.raises(ValueError):
            BayesNet(s, {"A": ("A",)}, uniform_cpts(s, {}))

    def test_shape_mismatch_rejected(self):
        s = _ab_schema()
        with pytest.raises(ValueError, match="shape"):
            BayesNet(s, {"B": ("A",)}, {"A": np.array([0.5, 0.5]), "B": np.array([0.5, 0.5])})

    def test_negative_probability_rejected(self):
        s = _ab_schema()
        with pytest.raises(ValueError, match="negative"):
            BayesNet(s, {}, {"A": np.array([1.5, -0.5]), "B": np.array([0.5, 0.5])})

    def test_unnormalized_row_rejected(self):
        s = _ab_schema()
        with pytest.raises(ValueError, match="sum"):
            BayesNet(s, {}, {"A": np.array([0.6, 0.6]), "B": np.array([0.5, 0.5])})

    def test_missing_cpt_rejected(self):
        s = _ab_schema()
        with pytest.raises(ValueError, match="CPT"):
            BayesNet(s, {}, {"A": np.array([0.5, 0.5])})

    def test_unknown_parent_rejected(self):
        s = _ab_schema()
        with pytest.raises(KeyError):
            BayesNet(s, {"B": ("Q",)}, uniform_cpts(s, {}))

    def test_cpts_read_only_and_copied(self):
        s = _ab_schema()
        mine = np.array([0.5, 0.5])
        net = BayesNet(s, {}, {"A": mine, "B": np.array([0.5, 0.5])})
        mine[0] = 99.0  # caller's array stays caller's
        assert net.cpts["A"][0] == 0.5
        with pytest.raises(ValueError):
            net.cpts["A"][0] = 0.1
        # nor can a CPT be swapped or dropped under what inference derived from it
        with pytest.raises(TypeError):
            net.cpts["A"] = np.array([0.1, 0.9])
        with pytest.raises(TypeError):
            del net.cpts["B"]
        assert net.cpts["A"][0] == 0.5 and "B" in net.cpts

    def test_zero_rows_allowed_when_normalized(self):
        s = _ab_schema()
        net = BayesNet(s, {}, {"A": np.array([1.0, 0.0]), "B": np.array([0.5, 0.5])})
        assert net.cpts["A"][1] == 0.0


class TestGraphShape:
    def test_children_and_topological_order(self):
        net = _chain_net()
        assert net.children("A") == ("B",)
        assert net.children("C") == ()
        order = net.topological_order()
        assert order.index("A") < order.index("B") < order.index("C")

    def test_uniform_cpts_shapes(self):
        s = Schema(("X", "Y"), {"X": ("1", "2", "3"), "Y": ("a", "b")})
        cpts = uniform_cpts(s, {"Y": ("X",)})
        assert cpts["X"].shape == (3,)
        assert cpts["Y"].shape == (3, 2)
        np.testing.assert_allclose(cpts["Y"].sum(axis=-1), 1.0)

    def test_markov_blanket_demo(self, fitted_demo_net):
        net = fitted_demo_net
        assert markov_blanket(net, "Body") == {"Model", "Year"}
        assert markov_blanket(net, "Make") == {"Model"}
        assert markov_blanket(net, "Mileage") == {"Year"}
        # parents + children + co-parents
        assert markov_blanket(net, "Model") == {"Make", "Body", "Year"}
        assert markov_blanket(net, "Year") == {"Body", "Mileage", "Model"}

    def test_markov_blanket_unknown_attr(self, fitted_demo_net):
        with pytest.raises(KeyError):
            markov_blanket(fitted_demo_net, "Color")


class TestDSeparation:
    def test_chain(self):
        net = _chain_net()
        assert not d_separated(net, "A", "C")
        assert d_separated(net, "A", "C", given=("B",))

    def test_fork(self):
        s = Schema(("A", "B", "C"), {k: ("0", "1") for k in "ABC"})
        net = BayesNet(
            s,
            {"A": ("B",), "C": ("B",)},
            {
                "B": np.array([0.5, 0.5]),
                "A": np.array([[0.9, 0.1], [0.2, 0.8]]),
                "C": np.array([[0.7, 0.3], [0.4, 0.6]]),
            },
        )
        assert not d_separated(net, "A", "C")
        assert d_separated(net, "A", "C", given=("B",))

    def test_collider_and_descendant(self):
        s = Schema(("A", "B", "C", "D"), {k: ("0", "1") for k in "ABCD"})
        cpt2 = np.array([[[0.9, 0.1], [0.3, 0.7]], [[0.4, 0.6], [0.2, 0.8]]])
        net = BayesNet(
            s,
            {"C": ("A", "B"), "D": ("C",)},
            {
                "A": np.array([0.5, 0.5]),
                "B": np.array([0.5, 0.5]),
                "C": cpt2,
                "D": np.array([[0.8, 0.2], [0.1, 0.9]]),
            },
        )
        assert d_separated(net, "A", "B")
        assert not d_separated(net, "A", "B", given=("C",))
        assert not d_separated(net, "A", "B", given=("D",))  # descendant opens it

    def test_blocked_collider_in_demo_net(self, fitted_demo_net):
        assert d_separated(fitted_demo_net, "Make", "Mileage")
        assert not d_separated(fitted_demo_net, "Make", "Mileage", given=("Body",))
        assert d_separated(fitted_demo_net, "Make", "Mileage", given=("Model",))

    def test_bad_arguments(self, fitted_demo_net):
        with pytest.raises(ValueError):
            d_separated(fitted_demo_net, "Make", "Make")
        with pytest.raises(ValueError):
            d_separated(fitted_demo_net, "Make", "Body", given=("Make",))
        with pytest.raises(KeyError):
            d_separated(fitted_demo_net, "Make", "Color")


class TestFitParameters:
    def test_add_one_counts_by_hand(self):
        s = _ab_schema()
        table = Table(
            s,
            [
                Row(1, ("a0", "b0")),
                Row(2, ("a0", "b0")),
                Row(3, ("a0", "b1")),
                Row(4, ("a1", None)),
                Row(5, (None, "b1")),
            ],
        )
        structure = BayesNet(s, {"B": ("A",)}, uniform_cpts(s, {"B": ("A",)}))
        net = fit_parameters(structure, table)
        np.testing.assert_allclose(net.cpts["A"], [4 / 6, 2 / 6])
        np.testing.assert_allclose(net.cpts["B"][0], [3 / 5, 2 / 5])
        np.testing.assert_allclose(net.cpts["B"][1], [0.5, 0.5])  # unseen combo

    def test_rows_skipped_per_family_not_globally(self):
        # the A count uses row 4 even though B is null there
        s = _ab_schema()
        table = Table(s, [Row(1, ("a0", "b0")), Row(2, ("a1", None))])
        structure = BayesNet(s, {"B": ("A",)}, uniform_cpts(s, {"B": ("A",)}))
        net = fit_parameters(structure, table)
        np.testing.assert_allclose(net.cpts["A"], [2 / 4, 2 / 4])

    def test_zero_pseudo_count(self):
        s = _ab_schema()
        table = Table(s, [Row(1, ("a0", "b0"))])
        structure = BayesNet(s, {"B": ("A",)}, uniform_cpts(s, {"B": ("A",)}))
        net = fit_parameters(structure, table, pseudo_count=0.0)
        np.testing.assert_allclose(net.cpts["B"][0], [1.0, 0.0])
        np.testing.assert_allclose(net.cpts["B"][1], [0.5, 0.5])  # no data, uniform

    def test_negative_pseudo_count_rejected(self, demo_table):
        structure = demo_net()
        with pytest.raises(ValueError):
            fit_parameters(structure, demo_table, pseudo_count=-1.0)

    def test_schema_mismatch_rejected(self, demo_table):
        other = _chain_net()
        with pytest.raises(ValueError):
            fit_parameters(other, demo_table)

    def test_strictly_positive_with_default_smoothing(self, fitted_demo_net):
        for arr in fitted_demo_net.cpts.values():
            assert np.all(arr > 0)


class TestLearnStructure:
    def test_recovers_chain_skeleton(self):
        data = sample_rows(_chain_net(), 3000, seed=5)
        for score in ("bic", "bdeu"):
            got = learn_structure(data, StructureSearchConfig(seed=0, score=score))
            skeleton = {
                frozenset((child, p))
                for child, ps in got.parents.items()
                for p in ps
            }
            assert skeleton == {frozenset(("A", "B")), frozenset(("B", "C"))}

    def test_recovers_v_structure(self):
        data = sample_rows(_collider_net(), 2500, seed=0)
        got = learn_structure(data, StructureSearchConfig(seed=0))
        assert got.parents == {"A": (), "B": (), "C": ("A", "B")}

    def test_deterministic_across_calls(self):
        data = sample_rows(_collider_net(), 800, seed=3)
        cfg = StructureSearchConfig(seed=4, restarts=4)
        assert learn_structure(data, cfg).parents == learn_structure(data, cfg).parents

    def test_max_in_degree_respected(self):
        from nullbayes.synth import car_demo_net

        data = sample_rows(car_demo_net(), 1500, seed=2)
        got = learn_structure(data, StructureSearchConfig(seed=0, max_in_degree=1))
        assert max(len(ps) for ps in got.parents.values()) <= 1

    def test_returns_uniform_placeholder_cpts(self):
        data = sample_rows(_chain_net(), 500, seed=1)
        got = learn_structure(data, StructureSearchConfig(seed=0))
        for attr in got.schema.attributes:
            np.testing.assert_allclose(
                got.cpts[attr], 1.0 / len(got.schema.domain(attr))
            )

    def test_null_rows_dropped_with_warning(self):
        data = sample_rows(_chain_net(), 400, seed=6)
        rows = list(data.rows)
        rows[0] = Row(rows[0].id, (None,) + rows[0].cells[1:])
        with pytest.warns(UserWarning, match="dropped 1"):
            learn_structure(Table(data.schema, rows), StructureSearchConfig(seed=0))

    def test_mostly_null_data_rejected(self):
        data = sample_rows(_chain_net(), 40, seed=6)
        rows = [
            Row(r.id, (None,) + r.cells[1:]) if i < 25 else r
            for i, r in enumerate(data.rows)
        ]
        with pytest.raises(ValueError, match="half"):
            learn_structure(Table(data.schema, rows), StructureSearchConfig(seed=0))

    def test_too_few_rows_rejected(self):
        data = sample_rows(_chain_net(), 1, seed=0)
        with pytest.raises(ValueError):
            learn_structure(data, StructureSearchConfig(seed=0))

    def test_time_limit_still_returns_a_net(self):
        data = sample_rows(_chain_net(), 2000, seed=5)
        got = learn_structure(data, StructureSearchConfig(seed=0, time_limit=1e-9))
        assert isinstance(got, BayesNet)

    @pytest.mark.parametrize("score", ["bic", "bdeu"])
    def test_each_family_is_counted_once_across_restarts(self, monkeypatch, score):
        from nullbayes import bayesnet
        from nullbayes.synth import car_demo_net

        counted = []  # each family's code rows and domain sizes, per count
        value_counts = bayesnet._value_counts

        def counting(codes, sizes, *args, **kwargs):
            counted.append((codes.tobytes(), tuple(sizes)))
            return value_counts(codes, sizes, *args, **kwargs)

        monkeypatch.setattr(bayesnet, "_value_counts", counting)
        data = sample_rows(car_demo_net(), 300, seed=1)
        learn_structure(data, StructureSearchConfig(seed=0, restarts=4, score=score))
        assert counted and len(set(counted)) == len(counted)


class TestModelFile:
    def test_round_trip_equality(self, fitted_demo_net):
        text = save_model(fitted_demo_net)
        again = load_model(text)
        assert again.parents == fitted_demo_net.parents
        assert again.schema == fitted_demo_net.schema
        for attr in fitted_demo_net.schema.attributes:
            np.testing.assert_allclose(
                again.cpts[attr], fitted_demo_net.cpts[attr], rtol=0, atol=1e-10
            )

    def test_save_load_save_is_byte_stable(self, fitted_demo_net):
        text = save_model(fitted_demo_net)
        assert save_model(load_model(text)) == text

    def test_weird_labels_survive(self):
        s = Schema(("A",), {"A": ("plain", "has\ttab", "has\nnewline", "back\\slash")})
        net = BayesNet(s, {}, {"A": np.array([0.1, 0.2, 0.3, 0.4])})
        again = load_model(save_model(net))
        assert again.schema == s
        np.testing.assert_allclose(again.cpts["A"], net.cpts["A"], atol=1e-10)

    def test_version_check(self, fitted_demo_net):
        text = save_model(fitted_demo_net)
        bad = text.replace("\t1\n", "\t99\n", 1)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(bad)

    def test_truncated_file(self, fitted_demo_net):
        text = save_model(fitted_demo_net)
        with pytest.raises(ModelFormatError):
            load_model(text[: len(text) // 2])

    def test_garbage(self):
        with pytest.raises(ModelFormatError):
            load_model("not a model\n")


# A (a0, a1) -> B (b0, b1), as save_model lays it out (lines 1-9)
_AB_MODEL = (
    "nullbayes-model\t1\n"
    "attribute\tA\ta0\ta1\n"
    "attribute\tB\tb0\tb1\n"
    "parents\tA\n"
    "parents\tB\tA\n"
    "cpt\tA\t0.52\t0.48\n"
    "cpt\tB\ta0\t0.9\t0.1\n"
    "cpt\tB\ta1\t0.2\t0.8\n"
    "end\n"
)


def _edited(old: str, new: str) -> str:
    assert old in _AB_MODEL
    return _AB_MODEL.replace(old, new, 1)


# one malformed text per refusal message of load_model
_MALFORMED = [
    ("", "empty model text"),
    (_edited("nullbayes-model\t1\n", "nullbayes-model\n"), "not a model file"),
    (_edited("\t1\n", "\t2\n"), "unsupported model format version '2'"),
    (_AB_MODEL + "attribute\tC\tc0\n", "line 10: content after end marker"),
    (_edited("attribute\tB\tb0\tb1\n", "attribute\tB\n"), "line 3: attribute needs a domain"),
    (_edited("parents\tA\n", "parents\n"), "line 4: malformed parents line"),
    (_edited("cpt\tA\t0.52\t0.48\n", "cpt\tA\n"), "line 6: malformed cpt line"),
    (_edited("parents\tA\n", "cpt\tA\t0.52\t0.48\nparents\tA\n"),
     "line 4: cpt before parents for 'A'"),
    (_edited("0.52", "lots"), "line 6: bad probability"),
    (_edited("end\n", "fin\n"), "line 9: unknown record 'fin'"),
    (_edited("end\n", ""), "missing end marker"),
    ("nullbayes-model\t1\nend\n", "model defines no attributes"),
    (_edited("attribute\tB\tb0\tb1\n", "attribute\tB\tb0\tb1\nattribute\tB\tb0\n"),
     "duplicate attribute names in schema"),
    (_edited("parents\tB\tA\n", "parents\tB\tA\nparents\tZ\n"),
     "line 6: parents for undeclared attribute 'Z'"),
    (_edited("parents\tB\tA\n", "parents\tB\tA\nparents\tB\tA\n"),
     "line 6: repeated parents record for 'B'"),
    (_edited("parents\tA\n", "").replace("cpt\tA\t0.52\t0.48\n", ""), "no parents record for 'A'"),
    (_edited("parents\tB\tA\n", "parents\tB\tZ\n"), "unknown parent 'Z' of 'B'"),
    (_edited("cpt\tA\t0.52\t0.48\n", "cpt\tA\t0.52\t0.48\ncpt\tA\t0.1\t0.9\n"),
     "line 7: repeated cpt row for 'A'"),
    (_edited("cpt\tB\ta1\t0.2\t0.8\n", ""), "'B': expected 2 cpt rows, found 1"),
    # read in file order, these would give the CPT rows to the wrong labels
    (_edited("attribute\tA\ta0\ta1", "attribute\tA\ta1\ta0"),
     "'A': parents and labels must be listed in sorted order"),
    (_edited("attribute\tB\tb0\tb1\n", "attribute\tB\tb0\tb1\nattribute\tC\tc0\n").replace(
        "parents\tB\tA\n", "parents\tB\tC\tA\nparents\tC\n"
    ), "'B': parents and labels must be listed in sorted order"),
    (_edited("0.52\t0.48", "0.52\t0.48\t0"), "'A': cpt row has 3 entries"),
    (_edited("0.52\t0.48", "0.52\t0.38"), "'A': cpt row does not sum to 1"),
    (_edited("cpt\tB\ta1", "cpt\tB\tzz"), "'B': unknown parent value in cpt row"),
    (_edited("parents\tA\n", "parents\tA\tB\n").replace(
        "cpt\tA\t0.52\t0.48\n", "cpt\tA\tb0\t0.5\t0.5\ncpt\tA\tb1\t0.5\t0.5\n"
    ), "parent graph has a cycle"),
]


@pytest.mark.parametrize("text, message", _MALFORMED, ids=[m for _, m in _MALFORMED])
def test_load_model_refusals(text, message):
    with pytest.raises(ModelFormatError) as info:
        load_model(text)
    assert str(info.value) == message


def test_load_model_reads_the_well_formed_text():
    net = load_model(_AB_MODEL)
    assert net.parents == {"A": (), "B": ("A",)}
    assert np.array_equal(net.cpts["A"], [0.52, 0.48])


def test_load_model_renormalises_a_row_within_the_load_tolerance():
    row = [0.5200005, 0.48]  # sums to 1 + 5e-7: within 1e-6, beyond the save precision
    net = load_model(_edited("0.52\t0.48", "0.5200005\t0.48"))
    assert np.array_equal(net.cpts["A"], np.array(row) / np.array(row).sum())
    assert abs(net.cpts["A"].sum() - 1.0) <= 1e-12


@given(data=st.data())
def test_edited_model_text_loads_or_raises_model_format_error(data):
    # whole-line edits of a saved model: drop, repeat, swap, or a field
    # taken from another line; anything but a BayesNet must be refused
    lines = save_model(demo_net()).split("\n")
    fields = sorted({f for line in lines for f in line.split("\t")})
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        edit = data.draw(st.sampled_from(["drop", "repeat", "swap", "field"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = lines[i].split("\t")
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(st.sampled_from(fields))
            lines[i] = "\t".join(parts)
        if not lines:
            break
    try:
        load_model("\n".join(lines))
    except ModelFormatError:
        pass


# names and labels with every character a model line or file could misread:
# separators, line breaks, escapes, padding, query syntax; "" is drawn too
_WORD = st.text(st.sampled_from("ab\t\n\r\x0b\x85\u2028\\&=,-> "), max_size=4)


@given(data=st.data())
def test_model_round_trip_or_refusal(data):
    names = data.draw(st.lists(_WORD, min_size=1, max_size=3, unique=True))
    domains = {n: data.draw(st.lists(_WORD, min_size=1, max_size=3, unique=True)) for n in names}
    schema = Schema(names, domains)
    parents = {n: () for n in names}  # sorted, as BayesNet keeps them
    for i, name in enumerate(names[1:], start=1):
        parents[name] = tuple(sorted(data.draw(st.lists(st.sampled_from(names[:i]), unique=True))))
    cpts = {}
    for name in names:
        shape = tuple(len(domains[p]) for p in parents[name]) + (len(domains[name]),)
        size = int(np.prod(shape))
        weights = np.array(
            data.draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        ).reshape(shape)
        cpts[name] = weights / weights.sum(axis=-1, keepdims=True)
    net = BayesNet(schema, parents, cpts)
    try:
        text = save_model(net)
    except ValueError as exc:
        assert any(repr(w) in str(exc) for n in names for w in (n, *domains[n])), str(exc)
        return
    # as a string, and through a text file's newline translation (the CLI's way)
    file_text = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8").read()
    for again in (load_model(text), load_model(file_text)):
        assert again.schema == schema
        assert again.parents == net.parents
        for name in names:
            np.testing.assert_allclose(again.cpts[name], net.cpts[name], rtol=0, atol=1e-10)


class TestSampleRows:
    def test_complete_and_deterministic(self):
        net = _chain_net()
        a = sample_rows(net, 50, seed=9)
        b = sample_rows(net, 50, seed=9)
        assert a == b
        assert all(all(c is not None for c in r.cells) for r in a.rows)
        assert [r.id for r in a.rows] == list(range(1, 51))

    def test_root_frequency_tracks_cpt(self):
        net = _chain_net()
        t = sample_rows(net, 4000, seed=12)
        share = sum(1 for r in t.rows if r.cells[0] == "a1") / 4000
        assert abs(share - 0.4) < 0.03

    def test_seed_matters(self):
        net = _chain_net()
        assert sample_rows(net, 50, seed=1) != sample_rows(net, 50, seed=2)


def _callers(name: str) -> set[tuple[str, str]]:
    """The (module, top-level definition) pairs of the package that call ``name``."""
    callers = set()
    for path in pathlib.Path(nullbayes.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add((path.name, getattr(top, "name", "<module>")))
    return callers


def test_only_the_planner_calls_the_cpt_alignment():
    """``bayesnet._plan`` lays out every CPT, for exact inference, exact
    imputation, Gibbs and ``enumerate_joint`` alike: every other function
    takes its plans, never ``_alignment`` itself.  Only ``_product`` lays
    out anything else, the results of earlier steps, and inference keeps
    no plan in a module-level cache: a plan holds one net's CPTs."""
    assert _callers("_alignment") == {("bayesnet.py", "_plan")}
    assert _callers("_laid_out") == {("bayesnet.py", "_plan"), ("inference.py", "_product")}
    path = pathlib.Path(nullbayes.__file__).parent / "inference.py"
    decorators = [
        ast.unparse(decorator)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
    ]
    assert not [d for d in decorators if "cache" in d]
