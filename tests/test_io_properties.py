"""Property tests of the motion file boundary.

``save_samples`` followed by ``load_samples`` returns finite motions bit
for bit, from the binary cache and from the JSON text, and a valid file
with one record damaged raises ``SchemaError`` carrying that record's line
number, never another exception.  Damage includes values that Python or
numpy would coerce: a float or boolean label or version, numbers written
as strings, a boolean among numbers, and a seed that is not a list of
integers.
"""

import copy
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from arflow import cache
from arflow import data as dt
from arflow.errors import SchemaError

SETTINGS = settings(deadline=None, max_examples=40, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PERSONS = ("actor", "reactor")
FRAME_KEYS = ("rot6d", "root_rot6d", "trans")
BASE_FRAMES = 4


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("io-properties")


@pytest.fixture(scope="module")
def base_records(workdir):
    path = workdir / "base.jsonl"
    dt.save_samples(str(path), dt.generate_mixed(3, frames=BASE_FRAMES, seed=5),
                    dt.default_skeleton())
    return [json.loads(line) for line in path.read_text().splitlines()]


@st.composite
def sample_files(draw):
    skel = dt.default_skeleton(draw(st.integers(3, 6)))
    samples = []
    for _ in range(draw(st.integers(1, 3))):
        shape = (draw(st.integers(1, 6)), skel.motion_dim)
        samples.append(dt.InteractionSample(
            draw(hnp.arrays(np.float64, shape, elements=FINITE)),
            draw(hnp.arrays(np.float64, shape, elements=FINITE)),
            draw(st.integers(0, len(dt.SCENARIOS) - 1)),
            tuple(draw(st.lists(st.integers(0, 2 ** 63), min_size=3, max_size=3)))))
    return skel, samples


# -0.0 and the smallest subnormal, which a reader that rounds tiny values loses
_SKEL3 = dt.default_skeleton(3)
SIGNED_ZERO_AND_SUBNORMAL = (_SKEL3, [dt.InteractionSample(
    np.full((2, _SKEL3.motion_dim), -0.0), np.full((2, _SKEL3.motion_dim), 5e-324),
    0, (0, 0, 0))])


@SETTINGS
@given(sample_files())
@example(SIGNED_ZERO_AND_SUBNORMAL)
def test_save_load_round_trip_is_bit_exact(workdir, case):
    skel, samples = case
    path = workdir / "round_trip.jsonl"
    dt.save_samples(str(path), samples, skel)
    # through the binary cache, then through the JSON reader
    for cached in (True, False):
        if not cached:
            os.remove(str(path) + cache.SUFFIX)
        loaded, loaded_skel = dt.load_samples(str(path))
        assert loaded_skel.parents == skel.parents
        assert np.array_equal(loaded_skel.offsets, skel.offsets)
        assert np.array_equal(loaded_skel.radii, skel.radii)
        assert len(loaded) == len(samples)
        for got, want in zip(loaded, samples):
            for a, b in ((got.actor, want.actor), (got.reactor, want.reactor)):
                assert a.dtype == np.float64 and a.shape == b.shape
                assert a.tobytes() == b.tobytes()  # tells -0.0 from 0.0
            assert got.label == want.label and got.seed_used == want.seed_used


def _required_paths(draw):
    """Every key the loader needs, down to one field of one frame."""
    person = draw(st.sampled_from(PERSONS))
    frame = (person, "frames", draw(st.integers(0, BASE_FRAMES - 1)))
    return [("version",), ("label",), ("actor",), ("reactor",),
            (person, "fps"), (person, "skeleton"), (person, "frames"), frame,
            *((person, "skeleton", key) for key in ("parents", "offsets", "radii")),
            *(frame + (key,) for key in FRAME_KEYS)]


def _parent(rec, path):
    for key in path[:-1]:
        rec = rec[key]
    return rec


def _damage(draw, rec):
    """One damaged copy of a valid record, as the text of its line."""
    kind = draw(st.sampled_from(["not-object", "missing", "wrong-type",
                                 "bad-parent", "ragged", "non-finite", "coercible",
                                 "boolean", "seed"]))
    if kind == "not-object":
        return draw(st.sampled_from(["[1, 2]", "3", '"text"', "null", "true", "[]"]))
    rec = copy.deepcopy(rec)
    person = draw(st.sampled_from(PERSONS))
    frames = rec[person]["frames"]
    frame = frames[draw(st.integers(0, len(frames) - 1))]
    if kind == "missing":
        path = draw(st.sampled_from(_required_paths(draw)))
        del _parent(rec, path)[path[-1]]
    elif kind == "wrong-type":
        path = draw(st.sampled_from(_required_paths(draw)))
        _parent(rec, path)[path[-1]] = draw(st.sampled_from(["x", None, {}, []]))
    elif kind == "bad-parent":
        parents = rec[person]["skeleton"]["parents"]
        parents[draw(st.integers(1, len(parents) - 1))] = draw(
            st.sampled_from([0.5, "0", None, [0]]))
    elif kind == "ragged":
        how = draw(st.sampled_from(["field", "joint", "frame-count"]))
        if how == "field":
            key = draw(st.sampled_from(FRAME_KEYS))
            frame[key] = frame[key][:-1]
        elif how == "joint":
            j = draw(st.integers(0, len(frame["rot6d"]) - 1))
            frame["rot6d"][j] = frame["rot6d"][j][:-1]
        else:
            del frames[-1]
    elif kind == "coercible":
        # a value of the wrong JSON type that int() or float() would accept
        where = draw(st.sampled_from(["label", "version", "number"]))
        if where == "label":
            rec["label"] = draw(st.sampled_from([1.7, 1.0, True, "1"]))
        elif where == "version":
            rec["version"] = draw(st.sampled_from([True, 1.0, "1"]))
        else:
            values = _numbers(draw, rec, person, frame)
            i = draw(st.integers(0, len(values) - 1))
            values[i] = str(values[i])
    elif kind == "boolean":
        # numpy would promote it to 1.0 or 0.0 among the numbers
        values = _numbers(draw, rec, person, frame)
        values[draw(st.integers(0, len(values) - 1))] = draw(st.booleans())
    elif kind == "seed":
        rec["seed"] = draw(st.sampled_from(["abc", [1.5, None], [1, True], ["1"],
                                            7, None, {"a": 1}]))
    else:
        values = _numbers(draw, rec, person, frame)
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    return json.dumps(rec)


def _numbers(draw, rec, person, frame):
    """One list of numbers in a person record: frame fields or skeleton arrays."""
    where = draw(st.sampled_from(["trans", "root_rot6d", "rot6d", "offsets", "radii"]))
    if where in ("offsets", "radii"):
        values = rec[person]["skeleton"][where]
    else:
        values = frame[where]
    if where in ("rot6d", "offsets"):
        values = values[draw(st.integers(0, len(values) - 1))]
    return values


@SETTINGS
@given(st.data())
def test_damaged_record_raises_schema_error_with_its_line(workdir, base_records,
                                                          data):
    index = data.draw(st.integers(0, len(base_records) - 1))
    lines = [json.dumps(rec) for rec in base_records]
    lines[index] = _damage(data.draw, base_records[index])
    path = workdir / "damaged.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == index + 1
