import hashlib
import json
import math

import numpy as np
import pytest

from gesturegen import checkpoint
from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gesturegen.errors import InvalidConfig, IoFailure, MalformedFile
from gesturegen.lifting import init_lift_params, lift_forward
from gesturegen.model import ModelConfig, init_model
from gesturegen.pose import PcaModel, fit_pca
from gesturegen.render import pose_svg, render


def _full_checkpoint():
    rng = np.random.default_rng(0)
    poses = rng.normal(size=(30, 8, 2))
    pca = fit_pca(poses)
    model = init_model(ModelConfig(word_dim=6, hidden=5, att_dim=4, n_seed_poses=2, n_output_poses=3), seed=1)
    lift = init_lift_params(seed=2)
    lift.running["mean1"][...] = rng.normal(size=30)
    lift.running["var1"][...] = rng.uniform(0.5, 2.0, size=30)
    return Checkpoint(
        config={"epochs": 3, "seed": 1},
        pca=pca,
        model=model,
        lift=lift,
        embedding_ref={"path": "emb.txt", "sha256": "abc123"},
    )


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ck = _full_checkpoint()
        path = tmp_path / "model.ggck"
        save_checkpoint(ck, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.pca.mean, ck.pca.mean)
        assert np.array_equal(loaded.pca.components, ck.pca.components)
        assert np.array_equal(loaded.pca.explained_variance_ratio, ck.pca.explained_variance_ratio)
        for name, p in ck.model.store.items():
            assert np.array_equal(loaded.model.store[name].value, p.value), name
        for name, p in ck.lift.store.items():
            assert np.array_equal(loaded.lift.store[name].value, p.value), name
        for key, value in ck.lift.running.items():
            assert np.array_equal(loaded.lift.running[key], value)
        assert loaded.config == ck.config
        assert loaded.embedding_ref == ck.embedding_ref

    def test_save_is_deterministic(self, tmp_path):
        ck = _full_checkpoint()
        save_checkpoint(ck, tmp_path / "a.ggck")
        save_checkpoint(ck, tmp_path / "b.ggck")
        assert (tmp_path / "a.ggck").read_bytes() == (tmp_path / "b.ggck").read_bytes()

    def test_partial_checkpoint(self, tmp_path):
        ck = Checkpoint(config={}, pca=_full_checkpoint().pca)
        save_checkpoint(ck, tmp_path / "p.ggck")
        loaded = load_checkpoint(tmp_path / "p.ggck")
        assert loaded.model is None and loaded.lift is None
        assert loaded.pca is not None

    def test_loaded_lift_behaves_identically(self, tmp_path):
        ck = _full_checkpoint()
        save_checkpoint(ck, tmp_path / "m.ggck")
        loaded = load_checkpoint(tmp_path / "m.ggck")
        x = np.random.default_rng(3).normal(size=(4, 14))
        assert np.array_equal(lift_forward(ck.lift, x), lift_forward(loaded.lift, x))


class TestVersioning:
    def test_corrupt_version_rejected(self, tmp_path):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # stomp the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedFile, match="unsupported checkpoint format version 99"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ggck"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(MalformedFile, match="not a checkpoint file"):
            load_checkpoint(path)


    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(MalformedFile, match="its header implies"):
            load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MalformedFile, match="its header implies"):
            load_checkpoint(path)

    def test_missing_array_rejected(self, tmp_path):
        # a model with no lift arrays, relabelled as carrying a lift net
        ck = _full_checkpoint()
        ck.lift = None
        path = tmp_path / "m.ggck"
        save_checkpoint(ck, path)
        raw = path.read_bytes()
        old = b'"lift_cfg":null'
        new = b'"lift_cfg":{"bn_eps":1e-5,"bn_momentum":0.1}'
        header_len = int.from_bytes(raw[8:16], "little") + len(new) - len(old)
        path.write_bytes(raw[:8] + header_len.to_bytes(8, "little") + raw[16:].replace(old, new, 1))
        with pytest.raises(MalformedFile, match="missing array lift"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda h: h["model_cfg"].update(word_dxm=h["model_cfg"].pop("word_dim")), "model_cfg must have the keys"),
            (lambda h: h["model_cfg"].pop("dropout"), "model_cfg must have the keys"),
            (lambda h: h["lift_cfg"].update(bn_epsilon=1e-5), "lift_cfg must have the keys"),
            (lambda h: h["model_cfg"].update(hidden="5"), "model_cfg.hidden is not a number"),
            (lambda h: h.update(embedding_ref={"sha256": "x"}), "embedding_ref must be null or string path and sha256"),
            (lambda h: h.update(embedding_ref="emb.txt"), "embedding_ref must be null or string path and sha256"),
        ],
        ids=[
            "unknown_model_key",
            "missing_model_key",
            "unknown_lift_key",
            "non_numeric_model_value",
            "embedding_ref_without_path",
            "embedding_ref_string",
        ],
    )
    def test_bad_config_header_rejected(self, tmp_path, edit, reason):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        edit_header(path, edit)
        with pytest.raises(MalformedFile, match=f"corrupt checkpoint header: {reason}"):
            load_checkpoint(path)


class _FailAfterHeader:
    """A binary file whose writes fail once magic, version, header length and
    header have gone through."""

    def __init__(self, fh, error):
        self.fh, self.error, self.writes = fh, error, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 4:
            raise self.error
        return self.fh.write(data)


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "error, raised", [(OSError(28, "No space left on device"), IoFailure), (RuntimeError("interrupted"), RuntimeError)]
    )
    def test_failed_write_keeps_old_bytes(self, tmp_path, monkeypatch, error, raised):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        before = path.read_bytes()
        opened = []

        def failing_open(*args, **kwargs):
            opened.append(_FailAfterHeader(open(*args, **kwargs), error))
            return opened[-1]

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        ck = _full_checkpoint()
        ck.embedding_ref = None  # new content, unlike the file it would replace
        with pytest.raises(raised, match=str(error.args[-1])):
            save_checkpoint(ck, path)
        assert opened and opened[0].writes == 5  # the header went out before the failure
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ggck"]


def edit_header(path, edit):
    """Rewrite the JSON header of a saved checkpoint through ``edit(header)``,
    keeping the payload."""
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + header_len :])


def patch_array_value(path, name, value):
    """Overwrite the first value of the named payload array of a saved
    checkpoint in place, leaving the header as it is."""
    raw = bytearray(path.read_bytes())
    offset = 16 + int.from_bytes(raw[8:16], "little")
    for entry in json.loads(raw[16:offset])["arrays"]:
        if entry["name"] == name:
            raw[offset : offset + 8] = np.array([value], dtype="<f8").tobytes()
            path.write_bytes(bytes(raw))
            return
        offset += 8 * math.prod(entry["shape"])
    raise KeyError(name)


class TestFinite:
    def test_load_rejects_non_finite_payload(self, tmp_path):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        patch_array_value(path, "seq2seq.dec.post.b", np.nan)
        with pytest.raises(MalformedFile, match=r"^array seq2seq\.dec\.post\.b has non-finite values$"):
            load_checkpoint(path)

    def test_load_names_first_non_finite_array(self, tmp_path):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        patch_array_value(path, "lift.running.var1", -np.inf)
        patch_array_value(path, "seq2seq.enc.l1.bwd.u_r", np.inf)
        patch_array_value(path, "seq2seq.dec.post.b", np.nan)
        with pytest.raises(MalformedFile, match=r"^array seq2seq\.enc\.l1\.bwd\.u_r has non-finite values$"):
            load_checkpoint(path)

    def test_save_refuses_non_finite_and_keeps_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        before = path.read_bytes()
        ck = _full_checkpoint()
        ck.model.decoder[1][1].value[5, 0] = np.inf  # hidden 5: row 5 is u_r[0, 0]

        def no_open(*args, **kwargs):
            raise AssertionError("save_checkpoint opened a file")

        monkeypatch.setattr(checkpoint, "open", no_open, raising=False)
        with pytest.raises(InvalidConfig, match=r"^cannot save checkpoint: array seq2seq\.dec\.l1\.u_r has non-finite"):
            save_checkpoint(ck, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ggck"]


def _pinned_checkpoint():
    """Fixed tiny content whose saved bytes must never change under format 1.

    The pose basis is built by hand: fitted bases depend on the BLAS build.
    """
    pca = PcaModel(
        mean=np.linspace(-1.0, 1.0, 16),
        components=np.eye(16)[:3],
        explained_variance_ratio=np.array([0.5, 0.25, 0.125]),
    )
    cfg = ModelConfig(word_dim=6, hidden=5, att_dim=4, gesture_dim=3, n_seed_poses=2, n_output_poses=3, dropout=0.25)
    return Checkpoint(
        config={"epochs": 3, "seed": 1},
        pca=pca,
        model=init_model(cfg, seed=1),
        lift=init_lift_params(seed=2, bn_momentum=0.2, bn_eps=1e-4),
        embedding_ref={"path": "emb.txt", "sha256": "abc123"},
    )


def test_format_1_bytes_pinned(tmp_path):
    save_checkpoint(_pinned_checkpoint(), tmp_path / "pinned.ggck")
    digest = hashlib.sha256((tmp_path / "pinned.ggck").read_bytes()).hexdigest()
    assert digest == "10a3703ce876a9bed2fce742eaf7912e7d41c78c03133dee0747fd67830f1d81"


class TestRender:
    def test_files_and_manifest(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = rng.normal(size=(5, 8, 2))
        names = render(poses, tmp_path / "out")
        assert len(names) == 5
        assert (tmp_path / "out" / "manifest.json").exists()
        for name in names:
            assert (tmp_path / "out" / name).exists()

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        poses = rng.normal(size=(3, 8, 2))
        render(poses, tmp_path / "a")
        render(poses, tmp_path / "b")
        for name in ("frame_00000.svg", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_svg_is_wellformed(self):
        import xml.etree.ElementTree as ET

        pose = np.random.default_rng(3).normal(size=(8, 2))
        ET.fromstring(pose_svg(pose))
