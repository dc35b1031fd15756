"""The binary cache ``X.f8`` beside motion and model files: a loader that
reads it returns what parsing X returns, and any cache that cannot stand in
for X is passed over."""

import hashlib
import json
import os
import stat

import numpy as np
import pytest

from arflow import cache, cli
from arflow import data as dt
from arflow import model as mdl
from arflow.errors import InvalidConfig, SchemaError


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _samples(seed):
    # two frame counts and two frame rates, so records differ in size and fps
    samples = (dt.generate_mixed(7, frames=4, seed=seed)
               + dt.generate_mixed(6, frames=6, contact_fraction=1.0, seed=seed + 1))
    for s in samples[::3]:
        s.fps = 30.0
    return samples


def _params(seed):
    cfg = mdl.PredictorConfig(frame_dim=dt.default_skeleton().motion_dim, max_frames=8,
                              layers=1, width=8, heads=2)
    return mdl.init_params(cfg, seed=seed)


def _save(kind, path, seed=0):
    if kind == "motion":
        dt.save_samples(str(path), _samples(seed), dt.default_skeleton())
    else:
        mdl.save_params(str(path), _params(seed))


def _fail(*args, **kwargs):
    raise AssertionError("the JSON decoder ran")


def load_cached(monkeypatch, kind, path, *args):
    """Load ``path`` with the JSON decoders disabled: only the cache can answer."""
    with monkeypatch.context() as m:
        m.setattr(dt, "_person_motion", _fail)
        m.setattr(mdl, "_numbers", _fail)
        return _load(kind, path, *args)


def load_json(monkeypatch, kind, path, *args):
    """Load ``path`` with the cache disabled: the parent's JSON path."""
    with monkeypatch.context() as m:
        m.setattr(cache, "read", lambda *a, **k: None)
        return _load(kind, path, *args)


def _load(kind, path, *args):
    if kind == "motion":
        return dt.load_samples(str(path), *args)
    return mdl.load_params(str(path), *args)


def assert_same(kind, a, b):
    """Bit-equal arrays, equal non-array fields."""
    if kind == "model":
        assert a.config == b.config and list(a.arrays) == list(b.arrays)
        for name in a.arrays:
            assert a.arrays[name].dtype == b.arrays[name].dtype == np.float64
            assert a.arrays[name].tobytes() == b.arrays[name].tobytes()
        return
    (sa, ka), (sb, kb) = a, b
    assert (ka is None) == (kb is None) and len(sa) == len(sb)
    if ka is not None:
        assert ka.parents == kb.parents
        assert ka.offsets.tobytes() == kb.offsets.tobytes()
        assert ka.radii.tobytes() == kb.radii.tobytes()
    for x, y in zip(sa, sb):
        assert (x.label, x.seed_used, x.fps) == (y.label, y.seed_used, y.fps)
        assert type(x.fps) is type(y.fps) is float
        for who in ("actor", "reactor"):
            u, v = getattr(x, who), getattr(y, who)
            assert u.dtype == v.dtype == np.float64 and u.shape == v.shape
            assert u.tobytes() == v.tobytes()


@pytest.mark.parametrize("limit", [0, 1, 4, 100])
@pytest.mark.parametrize("split", ["train", "test", "all"])
def test_cache_decodes_the_motions_bit_equal(split, limit, tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    _save("motion", path)
    cached = load_cached(monkeypatch, "motion", path, split, limit)
    assert_same("motion", cached, load_json(monkeypatch, "motion", path, split, limit))
    assert len(cached[0]) == len(dt._selected(13, split, limit))


def test_cache_decodes_the_model_bit_equal(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    _save("model", path)
    assert_same("model", load_cached(monkeypatch, "model", path),
                load_json(monkeypatch, "model", path))


def test_loader_records_the_digest_it_took(tmp_path):
    for kind, name in (("motion", "s.jsonl"), ("model", "model.json")):
        path, digests = tmp_path / name, {}
        _save(kind, path)
        _load(kind, path, *(("all", 0) if kind == "motion" else ()), digests)
        assert digests == {str(path): sha(path)}


def _rewrite_header(f8, edit, resign=True):
    """Edit the header of cache ``f8``; re-sign its metadata unless told not
    to, so that the later checks must catch the edit."""
    line, payload = f8.read_bytes().split(b"\n", 1)
    head = json.loads(line)
    edit(head)
    if resign:
        head["meta_sha256"] = hashlib.sha256(json.dumps(head["meta"]).encode()).hexdigest()
    f8.write_bytes(json.dumps(head).encode() + b"\n" + payload)


def _flip_last_byte(f8):
    data = bytearray(f8.read_bytes())
    data[-1] ^= 0x01
    f8.write_bytes(bytes(data))


def _drop_entry(head):
    head["meta"]["records" if "records" in head["meta"] else "arrays"].pop()


def _change_meta(head):
    if "records" in head["meta"]:
        head["meta"]["records"][0][0] = 1 - head["meta"]["records"][0][0]
    else:
        head["meta"]["config"]["sigma_min"] = 0.5


def _stale(kind, x, f8):
    # X rewritten after its cache: the cache now describes another file
    saved = f8.read_bytes()
    _save(kind, x, seed=9)
    f8.write_bytes(saved)


DAMAGE = {
    "missing": lambda kind, x, f8: f8.unlink(),
    "stale": _stale,
    "payload-byte": lambda kind, x, f8: _flip_last_byte(f8),
    "truncated": lambda kind, x, f8: f8.write_bytes(f8.read_bytes()[:-8]),
    "version": lambda kind, x, f8: _rewrite_header(f8, lambda h: h.update(version=2)),
    "version-bool": lambda kind, x, f8: _rewrite_header(f8, lambda h: h.update(version=True)),
    "source-digest": lambda kind, x, f8: _rewrite_header(
        f8, lambda h: h.update(source_sha256="0" * 64)),
    "record-count": lambda kind, x, f8: _rewrite_header(f8, _drop_entry),
    "size": lambda kind, x, f8: f8.write_bytes(f8.read_bytes() + bytes(8)),
    "meta-unsigned": lambda kind, x, f8: _rewrite_header(f8, _change_meta, resign=False),
    "header-not-json": lambda kind, x, f8: f8.write_bytes(b"{" + f8.read_bytes()),
    "header-too-deep": lambda kind, x, f8: f8.write_bytes(b"[" * 100_000 + b"\n"),
    "empty": lambda kind, x, f8: f8.write_bytes(b""),
}


@pytest.mark.parametrize("damage", list(DAMAGE))
@pytest.mark.parametrize("kind", ["motion", "model"])
def test_an_unusable_cache_gives_the_json_result(kind, damage, tmp_path, monkeypatch):
    x = tmp_path / ("s.jsonl" if kind == "motion" else "model.json")
    _save(kind, x)
    DAMAGE[damage](kind, x, tmp_path / (x.name + cache.SUFFIX))
    args = ("all", 0) if kind == "motion" else ()
    expected = load_json(monkeypatch, kind, x, *args)
    assert_same(kind, _load(kind, x, *args), expected)
    with pytest.raises(AssertionError, match="JSON decoder"):
        load_cached(monkeypatch, kind, x, *args)


@pytest.mark.parametrize("kind", ["motion", "model"])
def test_a_damaged_file_beside_an_intact_cache_raises_the_json_error(kind, tmp_path,
                                                                     monkeypatch):
    x = tmp_path / ("s.jsonl" if kind == "motion" else "model.json")
    _save(kind, x)
    if kind == "motion":
        lines = x.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"label": ', b'"label": "', 1)
        x.write_bytes(b"".join(lines))
        error = SchemaError
    else:
        x.write_bytes(x.read_bytes()[:-1])
        error = InvalidConfig
    assert (tmp_path / (x.name + cache.SUFFIX)).exists()
    with pytest.raises(error) as with_cache:
        _load(kind, x)
    with pytest.raises(error) as without:
        load_json(monkeypatch, kind, x)
    assert str(with_cache.value) == str(without.value)
    if kind == "motion":
        assert with_cache.value.line == 3


@pytest.mark.parametrize("kind", ["motion", "model"])
def test_a_refused_save_leaves_file_and_cache_as_they_were(kind, tmp_path):
    x = tmp_path / ("s.jsonl" if kind == "motion" else "model.json")
    _save(kind, x)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(InvalidConfig):
        if kind == "motion":
            samples = _samples(0)
            samples[3].actor[1, 2] = np.nan
            dt.save_samples(str(x), samples, dt.default_skeleton())
        else:
            params = _params(0)
            params.arrays["out_proj_b"][0] = np.inf
            mdl.save_params(str(x), params)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_an_interrupted_atomic_write_leaves_the_old_bytes(tmp_path):
    path = tmp_path / "report.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with cache.atomic_open(str(path)) as fh:
            fh.write("new, half written")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize("kind", ["motion", "model"])
def test_two_saves_write_identical_cache_bytes(kind, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    name = "s.jsonl" if kind == "motion" else "model.json"
    for d in (first, second):
        d.mkdir()
        _save(kind, d / name)
    f8 = name + cache.SUFFIX
    assert (first / f8).read_bytes() == (second / f8).read_bytes()
    head = json.loads((first / f8).read_bytes().split(b"\n", 1)[0])
    assert head["format"] == cache.FORMAT and head["version"] == cache.VERSION
    assert head["source_sha256"] == sha(first / name)


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_artifacts_get_the_mode_open_would_give(umask, tmp_path):
    # mkstemp makes 0o600 files; every artifact used to keep that mode
    old = os.umask(umask)
    try:
        out = tmp_path / "d.jsonl"
        assert cli.main(["gen-data", "--pairs", "4", "--frames", "3", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["d.jsonl", "d.jsonl.f8", "d.jsonl.manifest.json"]
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


def _pipeline(d):
    """A perfbench-shaped pipeline in directory ``d``: every command's argv."""
    data, model = str(d / "data.jsonl"), str(d / "model.json")
    guided = ["--steps", "2", "--zeta", "0.5", "--w", "0.7", "--lambda-pene", "0.02"]
    runs = [["gen-data", "--pairs", "50", "--frames", "6", "--contact-fraction", "0.5",
             "--seed", "3", "--out", data],
            ["train", "--data", data, "--out", model, "--steps", "3", "--batch", "4",
             "--layers", "1", "--width", "8", "--heads", "2", "--seed", "0"]]
    for name, extra in (("none", []), ("vanilla", []), ("improved", []),
                        ("beta", ["--beta", "0.3"])):
        out = str(d / f"sample-{name}.jsonl")
        runs.append(["sample", "--model", model, "--data", data, "--out", out,
                     "--guidance", "improved" if name == "beta" else name, *guided, *extra])
        runs.append(["eval", "--inputs", out, "--out", str(d / f"report-{name}.txt")])
    runs.append(["eval", "--inputs", str(d / "sample-none.jsonl"), "--ref", data,
                 "--metrics", "fid,div", "--sd", "2", "--out", str(d / "report-fid.txt")])
    return runs


def test_the_cache_never_changes_a_pipeline_result(tmp_path, capsys):
    with_cache, without = tmp_path / "with", tmp_path / "without"
    for d in (with_cache, without):
        d.mkdir()
        for argv in _pipeline(d):
            if d is without:
                for f8 in d.glob("*" + cache.SUFFIX):
                    f8.unlink()
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # data, model and the four samples have caches that the later commands read
    assert len(list(with_cache.glob("*" + cache.SUFFIX))) == 6
    artifacts = sorted(p.name for p in with_cache.iterdir()
                       if not p.name.endswith((cache.SUFFIX, ".manifest.json")))
    assert len(artifacts) == 12  # data, model, loss.csv, 4 samples and 5 reports
    assert artifacts == sorted(p.name for p in without.iterdir()
                               if not p.name.endswith((cache.SUFFIX, ".manifest.json")))
    for name in artifacts:
        assert sha(with_cache / name) == sha(without / name), name
    # each manifest's checksums are the files' digests, reused or not
    for d in (with_cache, without):
        for manifest in d.glob("*.manifest.json"):
            doc = json.loads(manifest.read_text())
            for path, digest in {**doc["inputs"], **doc["outputs"]}.items():
                assert digest == sha(d / os.path.basename(path)), (manifest.name, path)
