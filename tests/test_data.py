import json

import numpy as np
import pytest

from arflow import data as dt
from arflow import geometry as geo
from arflow import metrics as mx
from arflow.errors import InvalidConfig, SchemaError

from oracles import response_property


def test_scenario_config_validation():
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig("shake_hands")
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig("push_retreat", frames=1)
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig("push_retreat", contact_fraction=1.5)
    for noise in (float("nan"), float("inf"), -0.1):
        with pytest.raises(InvalidConfig, match="noise"):
            dt.ScenarioConfig("push_retreat", noise=noise)


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0, -1.0])
def test_save_samples_rejects_bad_fps(fps, tmp_path):
    path = tmp_path / "s.jsonl"
    with pytest.raises(InvalidConfig, match="fps"):
        dt.save_samples(str(path), dt.generate_mixed(1, frames=2), dt.default_skeleton(),
                        fps=fps)
    assert not path.exists()


def test_default_skeleton_shapes():
    skel = dt.default_skeleton()
    assert skel.joint_count == 5
    assert skel.motion_dim == 6 * 6 + 3
    chain = dt.default_skeleton(7)
    assert chain.joint_count == 7
    assert len(chain.radii) == 6


def test_generation_is_seed_deterministic():
    a = dt.generate_mixed(5, frames=8, scenario="push_retreat", seed=42)
    b = dt.generate_mixed(5, frames=8, scenario="push_retreat", seed=42)
    for s, t in zip(a, b):
        assert np.array_equal(s.actor, t.actor)
        assert np.array_equal(s.reactor, t.reactor)
        assert s.seed_used == t.seed_used


def test_distinct_seeds_differ():
    a = dt.generate_mixed(3, scenario="wave_mirror", seed=1)
    b = dt.generate_mixed(3, scenario="wave_mirror", seed=2)
    assert max(np.max(np.abs(x.actor - y.actor)) for x, y in zip(a, b)) > 0.0


def test_samples_decode_under_skeleton():
    skel = dt.default_skeleton()
    for s in dt.generate_mixed(4, frames=6, scenario="kick_dodge", seed=3):
        assert s.actor.shape == s.reactor.shape == (6, skel.motion_dim)
        geo.motion_joint_positions(skel, s.actor)
        geo.motion_joint_positions(skel, s.reactor)
        assert np.all(np.isfinite(s.actor)) and np.all(np.isfinite(s.reactor))


@pytest.mark.parametrize("scenario", dt.SCENARIOS)
def test_response_property_holds_everywhere(scenario):
    skel = dt.default_skeleton()
    samples = dt.generate_mixed(40, frames=12, contact_fraction=0.5, seed=7,
                                scenario=scenario)
    assert all(response_property(s, skel) for s in samples)


def test_zero_contact_fraction_never_intersects():
    samples = dt.generate_mixed(30, frames=8, contact_fraction=0.0, seed=5)
    skel = dt.default_skeleton()
    pairs = [(s.actor, s.reactor) for s in samples]
    assert mx.penetration_stats(pairs, skel, geo.DEFAULT_VOXEL_SIZE).if_frac == 0.0


def test_full_contact_fraction_produces_intersections():
    samples = dt.generate_mixed(30, frames=12, contact_fraction=1.0, seed=6)
    skel = dt.default_skeleton()
    pairs = [(s.actor, s.reactor) for s in samples]
    assert mx.penetration_stats(pairs, skel, geo.DEFAULT_VOXEL_SIZE).if_frac > 0.0


def test_mixed_round_robin_labels():
    samples = dt.generate_mixed(9, frames=4, seed=1)
    assert [s.label for s in samples] == [0, 1, 2] * 3


def test_single_scenario_keys_count_within_the_label():
    samples = dt.generate_mixed(4, frames=4, seed=5, scenario="kick_dodge")
    label = dt.SCENARIOS.index("kick_dodge")
    assert [s.seed_used for s in samples] == [(5, label, i) for i in range(4)]
    mixed = dt.generate_mixed(9, frames=4, seed=5)
    assert np.array_equal(mixed[label + 3].actor, samples[1].actor)


def test_equal_shape_chunks_group_in_input_order():
    arrays = [np.zeros((h, 2)) for h in (3, 5, 3, 3, 5, 3)] + [np.zeros((3, 4))]
    assert dt.equal_shape_chunks(arrays, 2) == [[0, 2], [3, 5], [1, 4], [6]]
    assert dt.equal_shape_chunks(arrays, 64) == [[0, 2, 3, 5], [1, 4], [6]]


def test_train_test_split_sizes():
    samples = dt.generate_mixed(50, frames=4, seed=2)
    train, test = dt.train_test_split(samples)
    assert len(train) == 45 and len(test) == 5
    assert train[0] is samples[0] and test[-1] is samples[-1]


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    samples = dt.generate_mixed(6, frames=5, seed=11)
    skel = dt.default_skeleton()
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), samples, skel)
    loaded, skel2 = dt.load_samples(str(path))
    assert skel2.parents == skel.parents
    assert np.array_equal(skel2.offsets, skel.offsets)
    assert len(loaded) == len(samples)
    for s, t in zip(samples, loaded):
        assert np.array_equal(s.actor, t.actor)
        assert np.array_equal(s.reactor, t.reactor)
        assert s.label == t.label and tuple(s.seed_used) == tuple(t.seed_used)


def test_save_load_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    dt.save_samples(str(path), [], dt.default_skeleton())
    loaded, skel = dt.load_samples(str(path))
    assert loaded == [] and skel is None


def test_truncated_file_names_offending_line(tmp_path):
    samples = dt.generate_mixed(3, frames=4, seed=13)
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), samples, dt.default_skeleton())
    text = path.read_text().splitlines()
    (tmp_path / "broken.jsonl").write_text("\n".join(text[:2] + [text[2][:50]]) + "\n")
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(tmp_path / "broken.jsonl"))
    assert err.value.line == 3


def test_invalid_utf8_raises_schema_error(tmp_path):
    samples = dt.generate_mixed(2, frames=4, seed=13)
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), samples, dt.default_skeleton())
    with open(path, "ab") as fh:
        fh.write(b'{"version": 1, "label": "\xff"}\n')
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == 3


def test_missing_field_raises_schema_error(tmp_path):
    (tmp_path / "bad.jsonl").write_text('{"version": 1, "label": 0}\n')
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(tmp_path / "bad.jsonl"))
    assert err.value.line == 1


def _edit_second_record(tmp_path, edit):
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), dt.generate_mixed(3, frames=4, seed=13),
                    dt.default_skeleton())
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_ragged_rot6d_frames_raise_schema_error(tmp_path):
    def edit(rec):
        frame = rec["reactor"]["frames"][2]
        frame["rot6d"] = frame["rot6d"][:-1]
    path = _edit_second_record(tmp_path, edit)
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == 2


@pytest.mark.parametrize("seed", ["abc", [1.5, None], [1, True], {"a": 1}])
def test_seed_not_a_list_of_integers_raises_schema_error(tmp_path, seed):
    path = _edit_second_record(tmp_path, lambda rec: rec.update(seed=seed))
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == 2


@pytest.mark.parametrize("field", ["trans", "root_rot6d", "rot6d"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_among_numbers_raises_schema_error(tmp_path, field, value):
    def edit(rec):
        values = rec["reactor"]["frames"][2][field]
        if field == "rot6d":
            values = values[1]
        values[1] = value
    path = _edit_second_record(tmp_path, edit)
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == 2


def _with_blank_lines(tmp_path, count):
    """A motion file of ``count`` records with blank lines among them."""
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), dt.generate_mixed(count, frames=4, seed=17),
                    dt.default_skeleton())
    lines = path.read_text().splitlines()
    path.write_text("\n" + "".join(line + ("\n \n\n" if i % 4 == 1 else "\n")
                                   for i, line in enumerate(lines)))
    return path


@pytest.mark.parametrize("limit", [0, 1, 3])
@pytest.mark.parametrize("split", ["test", "train", "all"])
def test_selected_records_equal_split_then_slice(tmp_path, split, limit):
    path = _with_blank_lines(tmp_path, 23)
    everything, skel = dt.load_samples(str(path))
    train, test = dt.train_test_split(everything)
    want = {"test": test, "train": train, "all": everything}[split]
    want = want[:limit] if limit else want
    got, got_skel = dt.load_samples(str(path), split, limit)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.actor.tobytes() == w.actor.tobytes()
        assert g.reactor.tobytes() == w.reactor.tobytes()
        assert g.label == w.label and g.seed_used == w.seed_used
    assert got_skel.parents == skel.parents
    assert np.array_equal(got_skel.offsets, skel.offsets)
    assert np.array_equal(got_skel.radii, skel.radii)


def test_only_the_selected_records_are_decoded(tmp_path):
    path = _with_blank_lines(tmp_path, 10)
    lines = path.read_text().split("\n")
    records = [i for i, line in enumerate(lines) if line.strip()]
    lines[records[0]] = "not json"
    path.write_text("\n".join(lines))
    assert len(dt.load_samples(str(path), "test")[0]) == 1
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path), "train", 1)
    assert err.value.line == records[0] + 1  # a file line, blank lines counted


def test_one_skeleton_per_file_of_equal_skeleton_blocks(tmp_path, monkeypatch):
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), dt.generate_mixed(5, frames=4, seed=13),
                    dt.default_skeleton())
    built, skeleton = [], geo.Skeleton
    monkeypatch.setattr(geo, "Skeleton", lambda *a: built.append(a) or skeleton(*a))
    assert len(dt.load_samples(str(path))[0]) == 5
    assert len(built) == 1


@pytest.mark.parametrize("parent", [1.0, True])
def test_non_integer_parent_equal_to_the_first_raises_schema_error(tmp_path, parent):
    def edit(rec):
        rec["actor"]["skeleton"]["parents"][2] = parent  # == 1 in Python
    path = _edit_second_record(tmp_path, edit)
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == 2


def test_boolean_equal_to_the_first_skeleton_value_raises_schema_error(tmp_path):
    def edit(rec):
        rec["reactor"]["skeleton"]["offsets"][0][0] = False  # == 0.0 in Python
    path = _edit_second_record(tmp_path, edit)
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(path))
    assert err.value.line == 2
