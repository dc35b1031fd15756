import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from arflow import cache, cli
from arflow import data as dt
from arflow import geometry as geo
from arflow import metrics as mx
from arflow.errors import InvalidConfig, SchemaError

from oracles import response_property, rot6d
from test_metrics import frame_stacks


def _one_scenario(name, count, **kw):
    """The ``count`` pairs of scenario ``name`` among ``3 * count`` mixed
    ones: a pair depends only on its key (test_samples_depend_only_on_their_keys),
    so these are the pairs a generator of that scenario alone would draw."""
    label = dt.SCENARIOS.index(name)
    return dt.generate_mixed(len(dt.SCENARIOS) * count, **kw)[label::len(dt.SCENARIOS)]


def test_scenario_config_validation():
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig(frames=1)
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig(joints=2)
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig(contact_fraction=1.5)
    with pytest.raises(InvalidConfig):
        dt.ScenarioConfig(seed=-1)


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0, -1.0, True,
                                 pytest.param(10 ** 400, id="huge-int")])
def test_save_samples_rejects_bad_fps(fps, tmp_path):
    path = tmp_path / "s.jsonl"
    samples = dt.generate_mixed(2, frames=2)
    samples[1].fps = fps
    with pytest.raises(InvalidConfig, match="fps"):
        dt.save_samples(str(path), samples, dt.default_skeleton())
    assert not path.exists()


def _poked(motion, value):
    motion = motion.copy()
    motion[3, 5] = value
    return motion


@pytest.mark.parametrize("edit", [
    pytest.param({"reactor": lambda s: _poked(s.reactor, np.nan)}, id="reactor-nan"),
    pytest.param({"reactor": lambda s: _poked(s.reactor, np.inf)}, id="reactor-inf"),
    pytest.param({"reactor": lambda s: np.pad(s.reactor, ((0, 0), (0, 3)))},
                 id="reactor-42-wide"),
    pytest.param({"actor": lambda s: np.pad(s.actor, ((0, 0), (0, 3)))},
                 id="actor-42-wide"),
    pytest.param({"reactor": lambda s: s.reactor[:10]}, id="reactor-10-of-16-frames"),
    pytest.param({"actor": lambda s: s.actor[:0], "reactor": lambda s: s.reactor[:0]},
                 id="no-frames"),
    pytest.param({"label": lambda s: 1.5}, id="label-float"),
    pytest.param({"label": lambda s: True}, id="label-bool"),
    pytest.param({"seed_used": lambda s: (42, 0, 1.0)}, id="seed-float"),
])
def test_save_samples_refuses_what_load_samples_refuses(edit, tmp_path):
    # load_samples refuses each of these; an existing file stays as it was
    path = tmp_path / "s.jsonl"
    path.write_text("old\n")
    samples = dt.generate_mixed(2, frames=16)
    samples[1] = replace(samples[1], **{k: f(samples[1]) for k, f in edit.items()})
    with pytest.raises(InvalidConfig, match="sample 1"):
        dt.save_samples(str(path), samples, dt.default_skeleton())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]


@pytest.mark.parametrize("fps", ["30", True, None, 0, -1.0, 1e400, 10 ** 400],
                         ids=["string", "bool", "null", "zero", "negative", "inf",
                              "huge-int"])
def test_load_rejects_bad_fps_with_its_line(fps, tmp_path):
    path = tmp_path / "s.jsonl"
    dt.save_samples(str(path), dt.generate_mixed(3, frames=2), dt.default_skeleton())
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["reactor"]["fps"] = fps
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="fps") as err:
        dt.load_samples(str(path))
    assert err.value.line == 2


def test_load_keeps_fps_and_rejects_a_record_whose_persons_differ(tmp_path):
    path = tmp_path / "s.jsonl"
    samples = dt.generate_mixed(2, frames=2)
    samples[0].fps = 30
    dt.save_samples(str(path), samples, dt.default_skeleton())
    assert [s.fps for s in dt.load_samples(str(path))[0]] == [30.0, dt.DEFAULT_FPS]
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["actor"]["fps"] = 25.0
    path.write_text(json.dumps(rec) + "\n" + lines[1] + "\n")
    with pytest.raises(SchemaError, match="frame count or fps") as err:
        dt.load_samples(str(path))
    assert err.value.line == 1


def test_rotation_about_builds_rotations():
    # synthesis takes the 6D columns of these matrices without re-checking them
    rng = np.random.default_rng(4)
    angles = rng.uniform(-np.pi, np.pi, size=(5, 7))
    horizontal = np.concatenate([rng.normal(size=(5, 2)), np.zeros((5, 1))], axis=1)
    for axis in (dt._Y_AXIS, dt._Z_AXIS, dt._unit_rows(horizontal)[:, None]):
        m = dt._rotation_about(axis, angles)
        assert m.shape == (5, 7, 3, 3)
        gram = np.einsum("...ji,...jk->...ik", m, m)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(m) - 1.0)) <= 1e-12
        assert np.array_equal(dt._rot6d_about(axis, angles), rot6d(m))


def test_default_skeleton_shapes():
    skel = dt.default_skeleton()
    assert skel.joint_count == 5
    assert skel.motion_dim == 6 * 6 + 3
    chain = dt.default_skeleton(7)
    assert chain.joint_count == 7
    assert len(chain.radii) == 6


def test_generation_is_seed_deterministic():
    a = _one_scenario("push_retreat", 5, frames=8, seed=42)
    b = _one_scenario("push_retreat", 5, frames=8, seed=42)
    for s, t in zip(a, b):
        assert np.array_equal(s.actor, t.actor)
        assert np.array_equal(s.reactor, t.reactor)
        assert s.seed_used == t.seed_used


def test_distinct_seeds_differ():
    a = _one_scenario("wave_mirror", 3, seed=1)
    b = _one_scenario("wave_mirror", 3, seed=2)
    assert max(np.max(np.abs(x.actor - y.actor)) for x, y in zip(a, b)) > 0.0


def test_samples_decode_under_skeleton():
    skel = dt.default_skeleton()
    for s in _one_scenario("kick_dodge", 4, frames=6, seed=3):
        assert s.actor.shape == s.reactor.shape == (6, skel.motion_dim)
        geo.motion_joint_positions(skel, s.actor)
        geo.motion_joint_positions(skel, s.reactor)
        assert np.all(np.isfinite(s.actor)) and np.all(np.isfinite(s.reactor))


@pytest.mark.parametrize("scenario", dt.SCENARIOS)
def test_response_property_holds_everywhere(scenario):
    skel = dt.default_skeleton()
    samples = _one_scenario(scenario, 40, frames=12, contact_fraction=0.5, seed=7)
    assert all(response_property(s, skel) for s in samples)


def test_zero_contact_fraction_never_intersects():
    samples = dt.generate_mixed(30, frames=8, contact_fraction=0.0, seed=5)
    skel = dt.default_skeleton()
    pairs = [(s.actor, s.reactor) for s in samples]
    assert mx.penetration_stats(*frame_stacks(pairs), skel,
                                geo.DEFAULT_VOXEL_SIZE).if_frac == 0.0


def test_full_contact_fraction_produces_intersections():
    samples = dt.generate_mixed(30, frames=12, contact_fraction=1.0, seed=6)
    skel = dt.default_skeleton()
    pairs = [(s.actor, s.reactor) for s in samples]
    assert mx.penetration_stats(*frame_stacks(pairs), skel,
                                geo.DEFAULT_VOXEL_SIZE).if_frac > 0.0


def test_mixed_round_robin_labels():
    samples = dt.generate_mixed(9, frames=4, seed=1)
    assert [s.label for s in samples] == [0, 1, 2] * 3


def test_single_scenario_keys_count_within_the_label():
    label = dt.SCENARIOS.index("kick_dodge")
    samples = [s for s in dt.generate_mixed(10, frames=4, seed=5) if s.label == label]
    assert [s.seed_used for s in samples] == [(5, label, i) for i in range(3)]


def _near(sample) -> bool:
    """Whether the pair starts within interaction range (under 1 m apart)."""
    return float(np.linalg.norm(sample.actor[0, -3:] - sample.reactor[0, -3:])) < 1.0


def test_samples_depend_only_on_their_keys():
    kw = dict(frames=7, joints=5, contact_fraction=0.5, seed=8)
    mixed = dt.generate_mixed(60, **kw)
    # near and far pairs of every scenario share the batch
    assert {(s.label, _near(s)) for s in mixed} == {(label, near) for label in range(3)
                                                   for near in (False, True)}
    for m in (1, 2, 4, 31):
        for s, t in zip(dt.generate_mixed(m, **kw), mixed[:m], strict=True):
            assert s.actor.tobytes() == t.actor.tobytes()
            assert s.reactor.tobytes() == t.reactor.tobytes()
            assert (s.label, s.seed_used) == (t.label, t.seed_used)


def test_kick_dodge_lag_longer_than_the_clip():
    # lags of 2 or 3 frames on 2-frame clips: the dodge has not started
    skel = dt.default_skeleton()
    for s in _one_scenario("kick_dodge", 9, frames=2, seed=5):
        assert s.actor.shape == s.reactor.shape == (2, skel.motion_dim)
        assert np.array_equal(s.reactor[0, -3:], s.reactor[1, -3:])


# SHA-256 of a motion file of 9 pairs at seed 5, by (scenario, joints,
# frames, contact fraction): for "all" the file `arflow gen-data --pairs 9
# --seed 5` writes, for one scenario the file of its 9 pairs alone.
# Generation output is pinned byte for byte: a change to the draws, their
# order or the build arithmetic shows here.  The 2-frame files with
# kick_dodge pairs date from the fix of lags longer than the clip (those
# commands raised before it).
GEN_DATA_DIGESTS = {
    ("all", 3, 2, 0): "0fd6dedbc00819c337357b06d6f7a343c4c667995b241f467d0bbc86af485719",
    ("all", 3, 2, 0.5): "1606e4254278c2b6b13098c21e6806987f30358049d6ae8ba251cdff7f0c01c0",
    ("all", 3, 2, 1): "7141c146938b8eb61b16655e3b31cb839935eb32abee358d56f90db064998292",
    ("all", 3, 16, 0): "ca13437f2695f4acf90f427bf0d77b49c1dbce97992703e8b3c6a84ac643ccee",
    ("all", 3, 16, 0.5): "f132b2aa1f27b733b2601c24066da650fd91336ebc705a7d3a7c3413b83cf886",
    ("all", 3, 16, 1): "a4a8d77b47736c60f1d1f4b1750a4bd2b08f1b4c2e6615195b688e00378e14ad",
    ("all", 5, 2, 0): "43ecaa6147553d89386aa13336f0dd7ee49354d88749668f4524fae86204658d",
    ("all", 5, 2, 0.5): "20fe2a92be686ec371408721d135bc1c95f1b3e9e82f3598024cc737eb16407b",
    ("all", 5, 2, 1): "958645db010530e797aeba7c2f1f7bd7d9497601e3fbf28b24cdc6b5c0f4d982",
    ("all", 5, 16, 0): "caac73b16842f7733693ce388a6aed3c61277e39e37fa7253ddd30b2688240ca",
    ("all", 5, 16, 0.5): "71ba78982943eb238c5edf447377a9a191749ba860147d48acb1db0ce0dd24db",
    ("all", 5, 16, 1): "38e4d7da2cb5c4c4b61f1811ea47126f71280f559c45df188a96382002ef1104",
    ("all", 7, 2, 0): "d76e2844a0f8b660599e32242877c6e4f52e0ea642afafa2aae6e0edfd6d2056",
    ("all", 7, 2, 0.5): "e069d092e29becf0ca685e85c4818a0328f6561a8dd2be8903b60e7177303e06",
    ("all", 7, 2, 1): "40054b5edd72b851a46e3bd05b5206d96cb27f885e517427d82c67eceb8c6e76",
    ("all", 7, 16, 0): "6a38a1eb056296be9b1d52b90edbd3fa01e9bb96b7eb7de3ce625ff0e7c68812",
    ("all", 7, 16, 0.5): "c42e573bdd6fc5e5fc07022293453dd894d433a02961a5b3e548bfed1a20d624",
    ("all", 7, 16, 1): "1460474c15c03905c224cc70b027d603a4681138fe8b7791c5ab0999dbcb1e6d",
    ("push_retreat", 3, 2, 0): "ef5f01b65e458af19533967f6ffe929ed82ac35549743a5b93cd236d08613046",
    ("push_retreat", 3, 2, 0.5): "f121ea15662de60d8acfcf79578a760502e47d9ceb2d18110a95dfa2790aa535",
    ("push_retreat", 3, 2, 1): "7ab8bd3782094b0520ed861c33a7fbd8c69a915e97b47852434d109b69b8165f",
    ("push_retreat", 3, 16, 0): "8aa005c6d9994b188adc4d25303d2e17273b77e1b826414788460f74dd2d434f",
    ("push_retreat", 3, 16, 0.5): "c7b6da3e1e698080201444ae69fd4b5ba46d26854aad666999dedf9d29cee9b5",
    ("push_retreat", 3, 16, 1): "fa8176b7ffcef2cfb01c25c1b9502cf216087e054ad4151b8697cd26a8bef30c",
    ("push_retreat", 5, 2, 0): "0ca132683e8a4c08772ead4be1dbe604b29646403bbd2238ef964baaefe2515b",
    ("push_retreat", 5, 2, 0.5): "ff9e4116df4e682bcd58cd3384cf2ccc33337b6c90096600ceb3d339aa2ad3b3",
    ("push_retreat", 5, 2, 1): "ab0cbbcc088da705da26e5155fe7af921b2d0c81f65833e718acb9311a599640",
    ("push_retreat", 5, 16, 0): "0066f751035ab3a3caae994712265b16e00a3d888e552e5dedbfe07badb6a2ff",
    ("push_retreat", 5, 16, 0.5): "4a9c469a7e8a57179ff974f55cf94dd9f2be6504fe74e24c0c3a84de2f168d31",
    ("push_retreat", 5, 16, 1): "39db5470e7a90875d8a781ad6f66d3b110d3ce8af3e76a81e74dc7dd9763822d",
    ("push_retreat", 7, 2, 0): "9f3d954bec31c9ead0188cf25743619872e6280d627cea1ad740a93da99cad26",
    ("push_retreat", 7, 2, 0.5): "93555e106a70dd38bd66787062a8d66ae9bc4cebd8eac5643225e6e3f89797c4",
    ("push_retreat", 7, 2, 1): "ea49ae48319b050259368762814009fba91f336910b06b561d2c439c78474fca",
    ("push_retreat", 7, 16, 0): "bfe0b4c4a51f4c044e1e764311559a91308fbe81bc7362d8be6663ca8e79e14b",
    ("push_retreat", 7, 16, 0.5): "d750724f1cb85b042e536b8a196a3a3cca256e72c4c25708d65fab5e28bce703",
    ("push_retreat", 7, 16, 1): "3d3179f444d2708e8a83ae481a57c57a0ae1b2960e12d6a7937ab8a9face1cec",
    ("wave_mirror", 3, 2, 0): "1af9260267c54723a61c48f959ba2cb22bd139386bd1a5a45e04b51062f0607a",
    ("wave_mirror", 3, 2, 0.5): "74cb9ebbc30fc1d19514ad530862c13f95f8199df670270d877334c83c1cb189",
    ("wave_mirror", 3, 2, 1): "fca8774d0f97062d41d98f119288bfa8700be9b44f0497ee1d24b31862303485",
    ("wave_mirror", 3, 16, 0): "1a14f5c16cf8a18d830488f97c47e60857ecc0df4bf942116926b0390c0ad1b2",
    ("wave_mirror", 3, 16, 0.5): "01db28a2bcbffbdeac69f2cb0524692c1481b43a4c3f843d512d381995bb3a5b",
    ("wave_mirror", 3, 16, 1): "2dfe79c55d73125b35dc6a921e7f2efc5d9303bd5713804f8c2bcfcb5dbac24a",
    ("wave_mirror", 5, 2, 0): "adcff41023658b27372bec984448f428df1aa489f5734e3e52db833e510666a1",
    ("wave_mirror", 5, 2, 0.5): "c8115413844fb8830ea864abff69c5faf218cc5a33764120d126c1e555b41416",
    ("wave_mirror", 5, 2, 1): "ab048ffbaaaecab889c9f6c4f7a3950e2e404355f3269e3603db5a6481557764",
    ("wave_mirror", 5, 16, 0): "7f8fe40b0346bf940dc2578853f9b1ffc8e9d679f0b08752427b23a505a8de94",
    ("wave_mirror", 5, 16, 0.5): "863d9975f531d777715564c4fdcb67636067760ebc75235703f8e30e49569095",
    ("wave_mirror", 5, 16, 1): "97a2becc55c2a377c8dd615c014a8e001b5203849c78921c77e783dd46c32130",
    ("wave_mirror", 7, 2, 0): "b1272f56853888499c81340675a1205bf442c159a79e7130fff15c205bb1f80c",
    ("wave_mirror", 7, 2, 0.5): "1e9df28ca6357a3fbc7d2a655cda324363f1ca27d836370510a3fedadf165ea6",
    ("wave_mirror", 7, 2, 1): "4de1c7733ea44cbfea1b947dbaca38f1227913ec3c0c10a37b059d0d23c103a0",
    ("wave_mirror", 7, 16, 0): "51f204ae44a48d3c2f053128105428f6902e311c8404d8aca167ccfa5bbc95a3",
    ("wave_mirror", 7, 16, 0.5): "3e473f0ef2270896403ec71fa81292215ba7fd145079eacf346bd3639c240848",
    ("wave_mirror", 7, 16, 1): "d2858375212c458a7c12cc941f9b33b4b633faae9f9edcded5a86ab15de49deb",
    ("kick_dodge", 3, 2, 0): "db9409386612e2bbca372097391b0297270b6b68219a2f0ce7aa1deddec5eb23",
    ("kick_dodge", 3, 2, 0.5): "02e863af0ac823c38f21ada82e4006b5704e5aa01f29aa25df467687b6d8a0ee",
    ("kick_dodge", 3, 2, 1): "e8371cc45cbb5a395e7dbe4ad4c4a3dcfeda03517114e38309aad39da16d4d4b",
    ("kick_dodge", 3, 16, 0): "b152f2e7e5850bb05f6d9c457daae5728f305649849fda7016e2b4a378645413",
    ("kick_dodge", 3, 16, 0.5): "8a0818e9f7c935167eb6b14ce2fc6557b12371a34e8276fa2c70f46e7cb7e07b",
    ("kick_dodge", 3, 16, 1): "287d885e71ea5149c3c595fbf5879c7a193eb9684e330d9485e77a71d25568bd",
    ("kick_dodge", 5, 2, 0): "d36fe9e41baf576935801ec80a88091c37a30937f843d1e08990e964f34f6757",
    ("kick_dodge", 5, 2, 0.5): "890ff70e1dc760b89a31af7c2d0da6b0693dece3f7e296fdcd86bbc587a33721",
    ("kick_dodge", 5, 2, 1): "799f3112a9636330138e4cf7826c3254000f7421a8d1f7381c8911ebe416696d",
    ("kick_dodge", 5, 16, 0): "bf1b71569c8901655e32dae4bb187c256513dd4c12e1438f6b9f0f6587004564",
    ("kick_dodge", 5, 16, 0.5): "b658b0a477763a5dd093914e3f8f7f50838cc72ec0ef4325d3977618c47a10c7",
    ("kick_dodge", 5, 16, 1): "8ece8c72e65a457c0fef542e6582de8202525ff124893c67bf408e01968e85cd",
    ("kick_dodge", 7, 2, 0): "ca42d3439f1e928be8a20acd0840bed2f87d35633db10588d35b41525ba7052a",
    ("kick_dodge", 7, 2, 0.5): "e09df9961ac6b250c815b4c559f709ac80efe14bda0b041a3d7c6172897eb92b",
    ("kick_dodge", 7, 2, 1): "56309bb486972b562c60046c4e6e98a57d04dc043bd244f1f97191789a109d6e",
    ("kick_dodge", 7, 16, 0): "ca63066709f2cf38c0961a1e975ead376f770d57295a1a0ef4aee87779c0fd68",
    ("kick_dodge", 7, 16, 0.5): "f87575cb57480f4f25270f7296c53048197f9ff976aea029d1c6060c1124f130",
    ("kick_dodge", 7, 16, 1): "a728cee0a37340e54bc9441b45497b4941aa3595e0138ea390c21f3e25a51bbf",
}


@pytest.mark.parametrize("scenario", ("all",) + dt.SCENARIOS)
def test_gen_data_bytes_are_pinned(scenario, tmp_path, capsys):
    changed = []
    for (name, joints, frames, contact), digest in GEN_DATA_DIGESTS.items():
        if name != scenario:
            continue
        out = tmp_path / f"{joints}-{frames}-{contact}.jsonl"
        if name == "all":
            assert cli.main(["gen-data", "--pairs", "9", "--seed", "5",
                             "--joints", str(joints), "--frames", str(frames),
                             "--contact-fraction", str(contact), "--out", str(out)]) == 0
        else:
            samples = _one_scenario(name, 9, frames=frames, joints=joints,
                                    contact_fraction=contact, seed=5)
            dt.save_samples(str(out), samples, dt.default_skeleton(joints))
        if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            changed.append((joints, frames, contact))
    assert changed == []


def _write_mixed(path):
    assert cli.main(["gen-data", "--pairs", "9", "--seed", "5", "--contact-fraction", "0.5",
                     "--out", str(path)]) == 0


def _write_kick_dodge_30fps(path):
    samples = _one_scenario("kick_dodge", 9, joints=3, frames=2, seed=5)
    for s in samples:
        s.fps = 30.0
    dt.save_samples(str(path), samples, dt.default_skeleton(3))


@pytest.mark.parametrize("write", [_write_mixed, _write_kick_dodge_30fps],
                         ids=["mixed", "kick-dodge-30fps"])
def test_gen_data_file_round_trips_byte_for_byte(write, tmp_path, capsys):
    # save_samples(load_samples(f)) writes the very bytes that were written,
    # read through the binary cache and then through the JSON reader
    path, again = tmp_path / "data.jsonl", tmp_path / "again.jsonl"
    write(path)
    for cached in (True, False):
        if not cached:
            os.remove(str(path) + cache.SUFFIX)
        samples, skel = dt.load_samples(str(path))
        dt.save_samples(str(again), samples, skel)
        assert again.read_bytes() == path.read_bytes()


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
    # through the binary cache, then through the JSON reader
    for cached in (True, False):
        if not cached:
            os.remove(str(path) + cache.SUFFIX)
        loaded, skel2 = dt.load_samples(str(path))
        assert skel2.parents == skel.parents
        assert np.array_equal(skel2.offsets, skel.offsets)
        assert len(loaded) == len(samples)
        for s, t in zip(samples, loaded):
            assert s.actor.tobytes() == t.actor.tobytes()
            assert s.reactor.tobytes() == t.reactor.tobytes()
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


def test_a_second_skeleton_raises_schema_error_with_its_line(tmp_path):
    def edit(rec):
        rec["actor"]["skeleton"]["offsets"][1][2] = 0.31
    path = _edit_second_record(tmp_path, edit)
    with pytest.raises(SchemaError, match="skeleton differs from first record") as err:
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


def test_negative_limit_is_rejected(tmp_path):
    # a limit of -1 used to drop the last record silently
    path = _with_blank_lines(tmp_path, 5)
    with pytest.raises(InvalidConfig, match="limit"):
        dt.load_samples(str(path), limit=-1)


def test_unknown_split_is_rejected(tmp_path):
    path = _with_blank_lines(tmp_path, 5)
    with pytest.raises(InvalidConfig, match="split"):
        dt.load_samples(str(path), split="val")


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
    os.remove(str(path) + cache.SUFFIX)  # the JSON reader, not the cache, builds it
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
