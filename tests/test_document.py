"""Canonical JSON emission, strict parsing, CSV export, run configuration."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellpoles.chart import build_chart, critical_depth
from wellpoles.config import RunConfig, load_config_file, merge_config
from wellpoles.document import (
    _fmt_float,
    _fmt_records,
    axis_poles_csv,
    canonical_dumps,
    chart_document,
    parse_chart_document,
    trajectories_csv,
)
from wellpoles.errors import DocumentError
from wellpoles.rootfinder import scan_axis
from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec
from wellpoles.svgplot import chart_svg
from wellpoles import trajectory
from wellpoles.trajectory import ClosureKind


@lru_cache(maxsize=None)
def _chart(channel_name: str, U: float):
    spec = PotentialSpec(m=1.0, a=1.5, U=U)
    return build_chart(spec, Channel.parse(channel_name))


class TestCanonicalEmission:
    def test_float_full_precision_round_trip(self):
        text = canonical_dumps({"x": math.pi})
        assert json.loads(text)["x"] == math.pi

    def test_integral_floats_keep_the_point(self):
        assert canonical_dumps(2.0) == "2.0\n"
        assert canonical_dumps(-7.0) == "-7.0\n"
        assert canonical_dumps(0.0) == "0.0\n"

    def test_int_stays_int(self):
        assert canonical_dumps(3) == "3\n"

    def test_nonfinite_rejected(self):
        with pytest.raises(DocumentError):
            canonical_dumps(float("nan"))
        with pytest.raises(DocumentError):
            canonical_dumps({"x": float("inf")})

    def test_complex_becomes_pair(self):
        assert canonical_dumps(1.5 - 2.0j) == "[1.5,-2.0]\n"

    def test_keys_sorted(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_non_string_key_rejected(self):
        with pytest.raises(DocumentError):
            canonical_dumps({1: "x"})

    def test_unknown_type_rejected(self):
        with pytest.raises(DocumentError):
            canonical_dumps({"x": {1, 2}})

    def test_none_and_bools(self):
        assert canonical_dumps([None, True, False]) == "[null,true,false]\n"

    def test_single_trailing_newline(self):
        text = canonical_dumps({"a": [1.0, 2.5]})
        assert text.endswith("}\n") and not text.endswith("\n\n")

    def test_string_escaping_is_ascii(self):
        text = canonical_dumps({"s": "π"})
        assert "\\u03c0" in text
        assert json.loads(text)["s"] == "π"

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_strings_match_the_stdlib_encoder(self, s):
        # keys and values go through the C string encoder directly
        ref = json.dumps(s, ensure_ascii=True)
        assert canonical_dumps({s: s}) == "{" + ref + ":" + ref + "}\n"


# integral floats below it keep their ".0"; at and above it "%.17g" writes
# an exponent, so every float reads back as a float
_BIG = 1e17

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
        _BIG, -_BIG, math.nextafter(_BIG, 0.0), math.nextafter(-_BIG, 0.0),
        math.nextafter(_BIG, math.inf), math.nextafter(-_BIG, -math.inf),
    ]),
    # integral values on both sides of 1e16 and 1e17
    st.integers(-10**18, 10**18).map(float),
    # huge and tiny exponents, subnormals included
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1023)),
)
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _per_value(xs) -> str:
    """The per-value writing of a float or complex list, as a reference."""
    items = [
        f"[{_fmt_float(x.real)},{_fmt_float(x.imag)}]" if isinstance(x, complex)
        else _fmt_float(x)
        for x in xs
    ]
    return "[" + ",".join(items) + "]\n"


def _raised(write, obj) -> str:
    with pytest.raises(DocumentError) as info:
        write(obj)
    return str(info.value)


def _records_per_value(records) -> str:
    """A list of dicts, each written by the per-value dict writer, as a
    reference for the record rows."""
    return "[" + ",".join(canonical_dumps(rec)[:-1] for rec in records) + "]\n"


# a record field of each type the record rows take
_FIELDS = {
    int: st.integers(-10**20, 10**20),
    float: _FLOATS,
    complex: st.builds(complex, _FLOATS, _FLOATS),
    str: st.text(max_size=8),
}
# keys without "%", which the record rows leave to the per-value writer
_KEYS = st.text(st.characters(blacklist_characters="%"), max_size=6)


@st.composite
def _records(draw):
    """Dicts with one key set, each field of one type in every dict."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from(list(_FIELDS))) for _ in keys]
    rows = draw(st.integers(1, 12))
    return [{key: draw(_FIELDS[kind]) for key, kind in zip(keys, kinds)}
            for _ in range(rows)]


class _Int(int):
    pass


class TestBulkLists:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FLOATS, max_size=40))
    def test_float_list_matches_per_value(self, xs):
        assert canonical_dumps(xs) == _per_value(xs)
        assert canonical_dumps(tuple(xs)) == _per_value(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(complex, _FLOATS, _FLOATS), max_size=40))
    def test_complex_list_matches_per_value(self, zs):
        assert canonical_dumps(zs) == _per_value(zs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_FLOATS, max_size=20),
           st.lists(_NONFINITE, min_size=1, max_size=3), st.data())
    def test_nonfinite_in_a_float_list_raises(self, xs, bads, data):
        for bad in bads:
            xs.insert(data.draw(st.integers(0, len(xs))), bad)
        assert _raised(canonical_dumps, {"x": xs}) == _raised(_per_value, xs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(complex, _FLOATS, _FLOATS), max_size=20),
           st.lists(st.tuples(_FLOATS, _NONFINITE, st.booleans()),
                    min_size=1, max_size=3),
           st.data())
    def test_nonfinite_in_a_complex_list_raises(self, zs, bads, data):
        for x, bad, real_bad in bads:
            z = complex(bad, x) if real_bad else complex(x, bad)
            zs.insert(data.draw(st.integers(0, len(zs))), z)
        assert _raised(canonical_dumps, zs) == _raised(_per_value, zs)

    @pytest.mark.parametrize("obj,text", [
        ([1, 2.0, True], "[1,2.0,true]"),
        ([True, False], "[true,false]"),
        ([2.0, 1.5 - 2.0j], "[2.0,[1.5,-2.0]]"),
        ([np.float64(-0.0), 1e16, 0.5], "[0.0,10000000000000000.0,0.5]"),
        ([-0.0, 1e16, 0.5], "[0.0,10000000000000000.0,0.5]"),
        ([[1.0, -0.0], None, "x"], '[[1.0,0.0],null,"x"]'),
        ([], "[]"),
        ([np.float64(1e17), 1e17], "[1e+17,1e+17]"),
        ([{"a": True, "b": None}, {"a": np.float64(-0.0), "b": 1}],
         '[{"a":true,"b":null},{"a":0.0,"b":1}]'),
        ([{"%.17g": -0.0, "b": "%d"}], '[{"%.17g":0.0,"b":"%d"}]'),
    ])
    def test_mixed_and_edge_lists(self, obj, text):
        assert canonical_dumps(obj) == text + "\n"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(10**16, 10**17).map(float), st.booleans())
    def test_large_integral_floats_read_back_as_floats(self, x, negative):
        x = -x if negative else x
        # the bulk row writer, the per-value writer and a complex pair
        for obj in ([x], [x, None], [complex(x, x)]):
            back = json.loads(canonical_dumps(obj))[0]
            for v in back if isinstance(back, list) else [back]:
                assert type(v) is float and v == x

    # a list of flat dicts with one key set is written in one pass, with
    # the bytes and errors of the per-value writer
    @settings(max_examples=300, deadline=None)
    @given(_records())
    def test_record_list_matches_per_value(self, records):
        assert _fmt_records(records) is not None
        assert canonical_dumps(records) == _records_per_value(records)
        assert canonical_dumps({"x": records}) == (
            '{"x":' + _records_per_value(records)[:-1] + "}\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(_records(), st.lists(st.tuples(st.integers(0), st.integers(0), _NONFINITE,
                                          st.booleans()), min_size=1, max_size=3))
    def test_first_nonfinite_raises_as_per_value(self, records, bads):
        keys = sorted(records[0])
        numeric = [key for key in keys if type(records[0][key]) in (float, complex)]
        if not numeric:
            numeric = [keys[0]]
            for rec in records:
                rec[keys[0]] = 0.5
        for row, col, bad, real_bad in bads:
            rec = records[row % len(records)]
            key = numeric[col % len(numeric)]
            if type(rec[key]) is complex:
                z = rec[key]
                rec[key] = complex(bad, z.imag) if real_bad else complex(z.real, bad)
            else:
                rec[key] = bad
        assert _raised(canonical_dumps, records) == _raised(_records_per_value, records)

    @pytest.mark.parametrize("records", [
        [{"a": True}, {"a": False}],
        [{"a": None, "b": 1.0}, {"a": None, "b": 2.0}],
        [{"a": np.float64(-0.0)}, {"a": np.float64(1.5)}],
        [{"a": np.float64(2.0)}, {"a": 2.5}],
        [{"a": _Int(3), "b": 1.0}],
        [{"a": 1}, {"a": 1.0}],
        [{"a": 1.0}, {"b": 1.0}],
        [{"a": 1.0}, {"a": 2.0, "b": 1.0}],
        [{"a": 1.0, "b": 2.0}, {"a": 1.0}],
        [{"a": [1.0, -0.0]}, {"a": [2.0]}],
        [{"a": {"b": 1.0}}],
        [{"a": 1.0}, 2.0],
        [{"%.17g": 1.0, "b": "%d"}, {"%.17g": -0.0, "b": "%s"}],
        [{}, {}],
        [],
    ])
    def test_other_lists_keep_the_per_value_bytes(self, records):
        assert canonical_dumps(records) == "[" + ",".join(
            canonical_dumps(item)[:-1] for item in records
        ) + "]\n"

    @pytest.mark.parametrize("records", [
        [{1: 1.0}, {1: 2.0}],
        [{"a": 1.0}, {1: 2.0}],
        [{(1, 2): "x"}],
    ])
    def test_non_string_key_rejected(self, records):
        with pytest.raises(DocumentError, match="non-string key"):
            canonical_dumps(records)


class TestChartDocument:
    def test_round_trip_parses(self):
        doc = chart_document(_chart("plus", 1.0))
        parsed = parse_chart_document(canonical_dumps(doc))
        assert parsed["kind"] == "pole_chart"
        assert parsed["channel"] == "plus"
        assert parsed["potential"] == {"m": 1.0, "a": 1.5, "U": 1.0}

    def test_bytes_identical_across_builds(self):
        spec = PotentialSpec(m=1.0, a=1.5, U=1.0)
        first = canonical_dumps(chart_document(build_chart(spec, Channel.MINUS)))
        second = canonical_dumps(chart_document(build_chart(spec, Channel.MINUS)))
        assert first == second

    def test_momenta_are_pairs(self):
        parsed = parse_chart_document(
            canonical_dumps(chart_document(_chart("plus", 1.0)))
        )
        for traj in parsed["trajectories"]:
            assert all(len(k) == 2 for k in traj["ks"])
            assert len(traj["alphas"]) == len(traj["ks"])

    def test_config_lands_in_provenance(self):
        cfg = RunConfig(U=1.0, channel="plus")
        doc = chart_document(_chart("plus", 1.0), cfg)
        assert doc["provenance"]["config"]["U"] == 1.0
        parse_chart_document(canonical_dumps(doc))

    def test_completeness_block_present(self):
        doc = chart_document(_chart("plus", 1.0))
        cert = doc["completeness"]
        assert cert["complete"] is True
        assert cert["window_count"] == cert["trajectory_count"]

    def test_schema_2_keys(self):
        # schema 2 has no near contacts, and one stop reason per curve: an
        # open curve's closure reason, null for a loop
        chart = _chart("plus", 0.09)
        doc = parse_chart_document(canonical_dumps(chart_document(chart)))
        assert doc["schema_version"] == "2"
        assert "near_contacts" not in doc
        exits = [traj["exit"] for traj in doc["trajectories"]]
        # the chart holds a loop and an open curve that left the k window
        assert exits == [None, "k_window"]
        assert exits == [t.closure.reason and t.closure.reason.value
                         for t in chart.trajectories]
        assert not any({"exit_forward", "exit_backward"} & set(traj)
                       for traj in doc["trajectories"])


# SHA-256 of the canonical chart documents at m = 1, a = 1.5, recorded on
# x86-64 Linux with CPython 3.11 and numpy 2.4; a refactor of the chart
# assembly must leave every byte of them unchanged. A platform whose libm
# rounds differently may move the last float digits and so the digests.
_GOLDEN = {
    ("plus", 0.09): "49579bf1c61ce12f035070b770d7e5ad14915956abe71ab966eda7eecb80c862",
    ("plus", 2.0): "0f541cbb9f1e61548ee5ef65b7a4896ff66d63464cec333e9a80345c615717fa",
    ("minus", 5.0): "a4407f8764de59f348331bf320845c3bf0ae8f9e1bd903ac226dcaad75b49f81",
}
# at the pair collision depths the axis scan returns a coalesced seed, so
# these charts go through the branch split
_GOLDEN_CRITICAL = {
    ("plus", True): "fb80c8a14e4f380309718ba4461c5a2ea469d0432133c4cc9b76c1b20ad71b92",
    ("plus", False): "76533a21b5223a1fd7bc2fe17bb59817d7baada35e717b6c02477fae3f1caee1",
    ("minus", True): "67836211b0ec4073e9abfa331b1011870cb173403851791ef5f6d4f6d83d73c3",
}
# SHA-256 of chart_svg for the same six charts; a critical chart is keyed
# by the side of the collision it sits at
_GOLDEN_SVG = {
    ("plus", 0.09): "47526dd1db8d78424d7b1c29a77e487e2f84006ba10d629168c7bf0df35c6b96",
    ("plus", 2.0): "98cdb71723e23e09447c1c21e881b31e8cfe91d8a84ab8c9e7a9269f2cdba0b2",
    ("minus", 5.0): "c79a70fb9a058c0fa904a62c8675d125f3a958ff5ee4ff8c7d32e65818f76631",
    ("plus", "attractive"): "1a17a818d9dfa6e60ecaa71a635f139f5c9a9bf4a0f60ba8e38b33c124fb3c90",
    ("plus", "repulsive"): "6191c38bc98b0c64b96fc440c0c764103635002b4fa54b90b4eb0196dea66285",
    ("minus", "attractive"): "bd51ab3469accdc2cf1eb42f78ba3dbacf26864cdc669b02c34ebbf1d3d295b9",
}


def _digest(chart) -> str:
    return hashlib.sha256(canonical_dumps(chart_document(chart)).encode()).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("channel,U", sorted(_GOLDEN))
    def test_chart_bytes_locked(self, channel, U):
        assert _digest(_chart(channel, U)) == _GOLDEN[(channel, U)]

    @pytest.mark.parametrize("channel,attractive", sorted(_GOLDEN_CRITICAL))
    def test_critical_chart_bytes_locked(self, channel, attractive):
        U = critical_depth(Channel.parse(channel), attractive, 1.0, 1.5).U
        chart = _chart(channel, U)
        assert any(p.multiplicity == 2 for p in chart.seeds)
        assert _digest(chart) == _GOLDEN_CRITICAL[(channel, attractive)]

    @pytest.mark.parametrize("channel,depth", sorted(_GOLDEN_SVG, key=repr))
    def test_svg_bytes_locked(self, channel, depth):
        U = depth
        if isinstance(depth, str):
            U = critical_depth(
                Channel.parse(channel), depth == "attractive", 1.0, 1.5
            ).U
        digest = hashlib.sha256(chart_svg(_chart(channel, U)).encode()).hexdigest()
        assert digest == _GOLDEN_SVG[(channel, depth)]

    @pytest.mark.parametrize("channel,attractive", sorted(_GOLDEN_CRITICAL))
    def test_critical_chart_does_not_depend_on_the_alpha_cap(self, monkeypatch, channel, attractive):
        # every curve through the coalesced pair closes at its half-turn or
        # leaves the k window, so a longer phase guard traces nothing more
        ch = Channel.parse(channel)
        spec = PotentialSpec(m=1.0, a=1.5, U=critical_depth(ch, attractive, 1.0, 1.5).U)

        def outputs():
            chart = build_chart(spec, ch)
            return canonical_dumps(chart_document(chart)), chart_svg(chart)

        as_guarded = outputs()
        guard = trajectory._alpha_guard
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 2.0 * guard(c))
        assert outputs() == as_guarded

    def test_closed_curves_end_on_whole_turn_anchors(self):
        # a closed loop is its march to the half-turn anchor and that half's
        # mirror image, so its last sample is the seed's image one or two
        # turns on; a loop from a coalesced pair starts and ends a split
        # step off the pair, with every anchor between
        depths = [(channel, U) for channel, U in _GOLDEN] + [
            (channel, critical_depth(Channel.parse(channel), attractive, 1.0, 1.5).U)
            for channel, attractive in _GOLDEN_CRITICAL
        ]
        kinds = Counter()
        for channel, U in depths:
            for traj in _chart(channel, U).trajectories:
                if not traj.closure.is_closed:
                    continue
                kinds[traj.closure.kind] += 1
                turns = 4 if traj.closure.kind is ClosureKind.CLOSED_2PI else 8
                n_seed = round(traj.seed_alpha / (math.pi / 2))
                n_end, k_end = traj.anchors[-1]
                # marched forward from the seed and mirrored on: ascending
                # phases, and no exit on either side
                assert np.all(np.diff(traj.alphas) > 0)
                assert traj.closure.reason is None
                if traj.seed.multiplicity == 2:
                    assert [n for n, _ in traj.anchors] == list(range(n_seed + 1, n_seed + turns))
                    continue
                assert n_end == n_seed + turns
                assert traj.alphas[-1] == n_end * (math.pi / 2)
                assert abs(k_end - traj.seed.k) < 1e-6
        assert kinds[ClosureKind.CLOSED_2PI] and kinds[ClosureKind.CLOSED_4PI]


class TestStrictParsing:
    def _doc_text(self, mutate=None):
        doc = chart_document(_chart("plus", 1.0))
        raw = json.loads(canonical_dumps(doc))
        if mutate:
            mutate(raw)
        return json.dumps(raw)

    def test_unknown_top_field_rejected(self):
        text = self._doc_text(lambda d: d.__setitem__("extra", 1))
        with pytest.raises(DocumentError, match="unknown fields: extra"):
            parse_chart_document(text)

    def test_missing_top_field_rejected(self):
        text = self._doc_text(lambda d: d.pop("topology"))
        with pytest.raises(DocumentError, match="missing fields: topology"):
            parse_chart_document(text)

    def test_unknown_trajectory_field_rejected(self):
        text = self._doc_text(
            lambda d: d["trajectories"][0].__setitem__("color", "red")
        )
        with pytest.raises(DocumentError, match="unknown fields: color"):
            parse_chart_document(text)

    def test_missing_trajectory_field_rejected(self):
        text = self._doc_text(lambda d: d["trajectories"][0].pop("anchors"))
        with pytest.raises(DocumentError, match="missing fields: anchors"):
            parse_chart_document(text)

    def test_wrong_schema_version_rejected(self):
        text = self._doc_text(lambda d: d.__setitem__("schema_version", "99"))
        with pytest.raises(DocumentError, match="schema version"):
            parse_chart_document(text)

    def test_schema_1_document_rejected(self):
        text = self._doc_text(lambda d: d.__setitem__("schema_version", "1"))
        with pytest.raises(DocumentError, match="unsupported schema version '1'"):
            parse_chart_document(text)

    def test_near_contacts_rejected(self):
        text = self._doc_text(lambda d: d.__setitem__("near_contacts", []))
        with pytest.raises(DocumentError, match="unknown fields: near_contacts"):
            parse_chart_document(text)

    def test_wrong_kind_rejected(self):
        text = self._doc_text(lambda d: d.__setitem__("kind", "axis_poles"))
        with pytest.raises(DocumentError, match="not a pole chart"):
            parse_chart_document(text)

    def test_bad_potential_keys_rejected(self):
        text = self._doc_text(lambda d: d["potential"].pop("a"))
        with pytest.raises(DocumentError, match="potential"):
            parse_chart_document(text)

    def test_bad_channel_rejected(self):
        text = self._doc_text(lambda d: d.__setitem__("channel", "odd"))
        with pytest.raises(DocumentError, match="channel"):
            parse_chart_document(text)

    def test_sample_length_mismatch_rejected(self):
        text = self._doc_text(lambda d: d["trajectories"][0]["alphas"].pop())
        with pytest.raises(DocumentError, match="sample arrays"):
            parse_chart_document(text)

    def test_scalar_momentum_rejected(self):
        def mutate(d):
            d["trajectories"][0]["ks"][0] = 1.0
        with pytest.raises(DocumentError, match="pairs"):
            parse_chart_document(self._doc_text(mutate))

    @pytest.mark.parametrize("key", ["alphas", "ks"])
    @pytest.mark.parametrize("value", [1, None, "x", {"0": 1.0}])
    def test_sample_array_not_a_list_rejected(self, key, value):
        text = self._doc_text(lambda d: d["trajectories"][0].__setitem__(key, value))
        with pytest.raises(DocumentError, match=f"{key} must be a list"):
            parse_chart_document(text)

    @pytest.mark.parametrize("pair", [
        [1.0, "a"], ["1.0", 2.0], [None, 0.0], [True, 0.0], [0.0, False], [[1.0], 2.0],
    ])
    def test_momentum_pair_entries_must_be_numbers(self, pair):
        def mutate(d):
            d["trajectories"][0]["ks"][0] = pair
        with pytest.raises(DocumentError, match="pairs of numbers"):
            parse_chart_document(self._doc_text(mutate))

    def test_integer_pair_entries_accepted(self):
        # an integral float is written "N.0", but a hand-made document may
        # hold an int, which is a number
        def mutate(d):
            d["trajectories"][0]["ks"][0] = [0, -1]
        assert parse_chart_document(self._doc_text(mutate))["trajectories"][0]["ks"][0] == [0, -1]

    @pytest.mark.parametrize("value", ["a", None, True, [1.0]])
    def test_phases_must_be_numbers(self, value):
        def mutate(d):
            d["trajectories"][0]["alphas"][0] = value
        with pytest.raises(DocumentError, match="phases must be numbers"):
            parse_chart_document(self._doc_text(mutate))

    @pytest.mark.parametrize("key", ["m", "a", "U"])
    @pytest.mark.parametrize("value", ["deep", None, False, [2.0]])
    def test_potential_values_must_be_numbers(self, key, value):
        text = self._doc_text(lambda d: d["potential"].__setitem__(key, value))
        with pytest.raises(DocumentError, match="potential values must be numbers"):
            parse_chart_document(text)

    @pytest.mark.parametrize("key", ["seeds", "collisions", "warnings"])
    @pytest.mark.parametrize("value", [None, 7, {"0": {}}, [1.0], [{}, "x"]])
    def test_record_lists_must_hold_objects(self, key, value):
        text = self._doc_text(lambda d: d.__setitem__(key, value))
        with pytest.raises(DocumentError, match=f"{key} must be a list of objects"):
            parse_chart_document(text)

    @pytest.mark.parametrize("key", ["merged_seeds", "anchors", "axis_crossings"])
    @pytest.mark.parametrize("value", [None, 7, {"0": {}}, [1.0], [{}, "x"]])
    def test_trajectory_record_lists_must_hold_objects(self, key, value):
        text = self._doc_text(lambda d: d["trajectories"][0].__setitem__(key, value))
        with pytest.raises(DocumentError, match=f"{key} must be a list of objects"):
            parse_chart_document(text)

    @pytest.mark.parametrize("value", [
        None, [], 3, {"open": 1.0}, {"open": "1"}, {"open": True}, {"open": None},
    ])
    def test_topology_must_map_to_ints(self, value):
        text = self._doc_text(lambda d: d.__setitem__("topology", value))
        with pytest.raises(DocumentError, match="topology must be an object of ints"):
            parse_chart_document(text)

    @pytest.mark.parametrize("value", [[], 0, "complete", True])
    def test_completeness_must_be_null_or_an_object(self, value):
        text = self._doc_text(lambda d: d.__setitem__("completeness", value))
        with pytest.raises(DocumentError, match="completeness must be null or an object"):
            parse_chart_document(text)

    def test_uncertified_chart_parses(self):
        text = self._doc_text(lambda d: d.__setitem__("completeness", None))
        assert parse_chart_document(text)["completeness"] is None

    @pytest.mark.parametrize("channel,depth", sorted(_GOLDEN_SVG, key=repr))
    def test_golden_documents_round_trip(self, channel, depth):
        U = depth
        if isinstance(depth, str):
            U = critical_depth(Channel.parse(channel), depth == "attractive", 1.0, 1.5).U
        text = canonical_dumps(chart_document(_chart(channel, U)))
        assert parse_chart_document(text) == json.loads(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_json_constants_rejected(self, value):
        # json.loads takes NaN, Infinity and -Infinity by default; a document
        # holding one could not be written back by canonical_dumps
        text = self._doc_text(lambda d: d["trajectories"][0]["alphas"].__setitem__(0, value))
        with pytest.raises(DocumentError, match="is not a JSON number"):
            parse_chart_document(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            parse_chart_document("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(DocumentError, match="JSON object"):
            parse_chart_document("[1, 2]")


class TestCsvExport:
    def test_poles_csv_shape(self):
        chart = _chart("plus", 2.0)
        lines = axis_poles_csv(chart.channel.value, chart.seeds).splitlines()
        assert lines[0] == "channel,alpha,re_k,im_k,kind,multiplicity"
        assert len(lines) == 1 + len(chart.seeds)
        cells = lines[1].split(",")
        assert cells[0] == "plus"
        # full precision survives the text round trip
        assert complex(float(cells[2]), float(cells[3])) == chart.seeds[0].k

    def test_trajectories_csv_shape(self):
        chart = _chart("plus", 1.0)
        text = trajectories_csv(chart)
        lines = text.splitlines()
        assert lines[0] == "trajectory,closure,alpha,re_k,im_k"
        total = sum(len(t.alphas) for t in chart.trajectories)
        assert len(lines) == 1 + total
        assert "\r" not in text

    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        log_U=st.floats(math.log(1e-3), math.log(300.0)),
        channel=st.sampled_from(list(Channel)),
        alpha=st.sampled_from([0.0, math.pi]),
    )
    @settings(max_examples=60, deadline=None)
    def test_axis_poles_csv_matches_the_csv_module(self, m, a, log_U, channel, alpha):
        # the fields hold no comma, quote or newline, so joining them gives
        # the bytes csv.writer writes
        poles = scan_axis(PotentialSpec(m=m, a=a, U=math.exp(log_U)),
                          ComplexCoupling(alpha), channel)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["channel", "alpha", "re_k", "im_k", "kind", "multiplicity"])
        for p in poles:
            writer.writerow([channel.value, _fmt_float(p.coupling.alpha),
                             _fmt_float(p.k.real), _fmt_float(p.k.imag),
                             p.kind.value, p.multiplicity])
        assert axis_poles_csv(channel.value, poles) == buf.getvalue()

    def test_csv_closure_labels(self):
        chart = _chart("plus", 1.0)
        labels = {
            line.split(",")[1] for line in trajectories_csv(chart).splitlines()[1:]
        }
        assert labels <= {"closed_2pi", "closed_4pi", "open"}


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.m, cfg.a, cfg.U) == (1.0, 1.5, 1.0)
        assert cfg.channel == "plus" and cfg.gamma == 1
        assert cfg.alpha == 0.0

    def test_repulsive_alpha(self):
        assert RunConfig(gamma=-1).alpha == math.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(channel="even")
        with pytest.raises(ValueError):
            RunConfig(gamma=2)
        with pytest.raises(ValueError):
            RunConfig(m=0.0)
        with pytest.raises(ValueError):
            RunConfig(U=-1.0)
        with pytest.raises(ValueError):
            RunConfig(format="yaml")

    def test_to_dict_depths_as_list(self):
        d = RunConfig(depths=(1.0, 2.0)).to_dict(("depths",))
        assert d["depths"] == [1.0, 2.0]


class TestConfigFile:
    def test_load_and_merge(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"U": 2.0, "channel": "minus", "depths": [1.0, 2.0]}))
        values = load_config_file(path)
        assert values["depths"] == (1.0, 2.0)
        cfg = merge_config(values, {"channel": "plus", "U": None})
        # file sets the depth, the explicit flag wins the channel, None is unset
        assert cfg.U == 2.0 and cfg.channel == "plus"
        assert cfg.depths == (1.0, 2.0)

    def test_defaults_fill_the_rest(self):
        cfg = merge_config({}, {})
        assert cfg == RunConfig()

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"depth": 2.0}')
        with pytest.raises(DocumentError, match="unknown keys"):
            load_config_file(path)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1]")
        with pytest.raises(DocumentError, match="JSON object"):
            load_config_file(path)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken")
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_config_file(tmp_path / "absent.json")

    def test_unknown_merge_key(self):
        with pytest.raises(DocumentError, match="unknown configuration key"):
            merge_config({}, {"depth": 1.0})

    def test_bad_merged_value_raises(self):
        with pytest.raises(ValueError):
            merge_config({"channel": "odd"}, {})
