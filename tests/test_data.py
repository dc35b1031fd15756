import json

import numpy as np
import pytest

from arflow import data as dt
from arflow import geometry as geo
from arflow import metrics as mx
from arflow.errors import InvalidConfig, SchemaError


def test_scenario_config_validation():
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig("shake_hands")
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig("push_retreat", frames=1)
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig("push_retreat", contact_fraction=1.5)


def test_default_skeleton_shapes():
    skel = dt.default_skeleton()
    assert skel.joint_count == 5
    assert skel.motion_dim == 6 * 6 + 3
    chain = dt.default_skeleton(7)
    assert chain.joint_count == 7
    assert len(chain.radii) == 6


def test_generation_is_seed_deterministic():
    cfg = dt.ScenarioConfig("push_retreat", frames=8, seed=42)
    a = dt.generate_dataset(cfg, 5)
    b = dt.generate_dataset(cfg, 5)
    for s, t in zip(a, b):
        assert np.array_equal(s.actor, t.actor)
        assert np.array_equal(s.reactor, t.reactor)
        assert s.seed_used == t.seed_used


def test_distinct_seeds_differ():
    a = dt.generate_dataset(dt.ScenarioConfig("wave_mirror", seed=1), 3)
    b = dt.generate_dataset(dt.ScenarioConfig("wave_mirror", seed=2), 3)
    assert max(np.max(np.abs(x.actor - y.actor)) for x, y in zip(a, b)) > 0.0


def test_samples_decode_under_skeleton():
    cfg = dt.ScenarioConfig("kick_dodge", frames=6, seed=3)
    skel = dt.default_skeleton(cfg.joints)
    for s in dt.generate_dataset(cfg, 4):
        assert s.actor.shape == s.reactor.shape == (6, skel.motion_dim)
        geo.motion_joint_positions(skel, s.actor)
        geo.motion_joint_positions(skel, s.reactor)
        assert np.all(np.isfinite(s.actor)) and np.all(np.isfinite(s.reactor))


@pytest.mark.parametrize("scenario", dt.SCENARIOS)
def test_response_property_holds_everywhere(scenario):
    cfg = dt.ScenarioConfig(scenario, frames=12, seed=7, contact_fraction=0.5)
    skel = dt.default_skeleton(cfg.joints)
    samples = dt.generate_dataset(cfg, 40)
    assert all(dt.response_property(s, skel) for s in samples)


def test_zero_contact_fraction_never_intersects():
    samples = dt.generate_mixed(30, frames=8, contact_fraction=0.0, seed=5)
    skel = dt.default_skeleton()
    pairs = [(s.actor, s.reactor) for s in samples]
    assert mx.intersection_frequency(pairs, skel, geo.DEFAULT_VOXEL_SIZE) == 0.0


def test_full_contact_fraction_produces_intersections():
    samples = dt.generate_mixed(30, frames=12, contact_fraction=1.0, seed=6)
    skel = dt.default_skeleton()
    pairs = [(s.actor, s.reactor) for s in samples]
    assert mx.intersection_frequency(pairs, skel, geo.DEFAULT_VOXEL_SIZE) > 0.0


def test_mixed_round_robin_labels():
    samples = dt.generate_mixed(9, frames=4, seed=1)
    assert [s.label for s in samples] == [0, 1, 2] * 3


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


def test_missing_field_raises_schema_error(tmp_path):
    (tmp_path / "bad.jsonl").write_text('{"version": 1, "label": 0}\n')
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(tmp_path / "bad.jsonl"))
    assert err.value.line == 1


def test_ragged_rot6d_frames_raise_schema_error(tmp_path):
    samples = dt.generate_mixed(3, frames=4, seed=13)
    path = tmp_path / "motions.jsonl"
    dt.save_samples(str(path), samples, dt.default_skeleton())
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["reactor"]["frames"][2]["rot6d"] = rec["reactor"]["frames"][2]["rot6d"][:-1]
    lines[1] = json.dumps(rec)
    (tmp_path / "ragged.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        dt.load_samples(str(tmp_path / "ragged.jsonl"))
    assert err.value.line == 2
