import hashlib
import json
import math
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from gesturegen import checkpoint, errors
from gesturegen.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gesturegen.cli import main
from gesturegen.corpus import save_records_jsonl, synth_corpus
from gesturegen.errors import InvalidConfig, IoFailure, MalformedFile, write_rows
from gesturegen.lifting import init_lift_params, lift_forward
from gesturegen.model import ModelConfig, init_model
from gesturegen.pose import PcaModel, fit_pca
from gesturegen.render import pose_svg, render
from gesturegen.synthesis import TimedPoseTrack, save_track_csv


def _full_checkpoint():
    rng = np.random.default_rng(0)
    poses = rng.normal(size=(30, 8, 2))
    pca = fit_pca(poses)
    cfg = ModelConfig(word_dim=6, hidden=5, att_dim=4, n_seed_poses=2, n_output_poses=3, dropout=0.1)
    model = init_model(cfg, seed=1)
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

    def test_other_lift_settings_rejected(self, tmp_path, capsys):
        # the lift net's batch-norm settings are constants: a header that
        # records others is refused, and retarget says so in one line
        ck = _full_checkpoint()
        path, track = tmp_path / "m.ggck", tmp_path / "track.csv"
        save_checkpoint(ck, path)
        save_track_csv(TimedPoseTrack(frames=np.zeros((3, len(ck.pca.components)))), track)
        raw = path.read_bytes()
        old, new = b'"lift_cfg":{"bn_eps":1e-05,"bn_momentum":0.1}', b'"lift_cfg":{"bn_eps":1e-4,"bn_momentum":0.2}'
        header_len = int.from_bytes(raw[8:16], "little") + len(new) - len(old)
        path.write_bytes(raw[:8] + header_len.to_bytes(8, "little") + raw[16:].replace(old, new, 1))
        message = "corrupt checkpoint header: lift_cfg must be null or "
        with pytest.raises(MalformedFile, match=message):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(["retarget", "--checkpoint", str(path), "--track", str(track), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"retarget: {message}") and "Traceback" not in err, err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda h: h["model_cfg"].update(word_dxm=h["model_cfg"].pop("word_dim")), "model_cfg must have the keys"),
            (lambda h: h["model_cfg"].pop("dropout"), "model_cfg must have the keys"),
            (lambda h: h["lift_cfg"].update(bn_epsilon=1e-5), "lift_cfg must have the keys"),
            (lambda h: h["model_cfg"].update(hidden="5"), "model_cfg.hidden must be an integer, got '5'"),
            (lambda h: h["model_cfg"].update(hidden=1025), "model_cfg.hidden must be <= 1024, got 1025"),
            (lambda h: h["lift_cfg"].update(bn_eps=0.0), "lift_cfg must be null or "),
            (lambda h: h.update(embedding_ref={"sha256": "x"}), "embedding_ref must be null or string path and sha256"),
            (lambda h: h.update(embedding_ref="emb.txt"), "embedding_ref must be null or string path and sha256"),
        ],
        ids=[
            "unknown_model_key",
            "missing_model_key",
            "unknown_lift_key",
            "non_numeric_model_value",
            "model_value_above_bound",
            "lift_value_below_bound",
            "embedding_ref_without_path",
            "embedding_ref_string",
        ],
    )
    def test_bad_config_header_rejected(self, tmp_path, monkeypatch, edit, reason):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        edit_header(path, edit)
        monkeypatch.setattr(checkpoint, "build_model", None)  # refused before any model is built
        with pytest.raises(MalformedFile, match=f"corrupt checkpoint header: {reason}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "entry, drop",
        [
            ({"shape": [-2, 8]}, 32),
            ({"shape": ["16"]}, 0),
            ({"shape": [1.5]}, 0),
            ({"shape": [True]}, 0),
            ({"name": ["pca.mean"]}, 0),
        ],
        ids=["negative", "string", "float", "bool", "list_name"],
    )
    def test_bad_array_entry_rejected(self, tmp_path, entry, drop):
        """The first array entry of a pose-basis checkpoint edited; the
        payload loses ``drop`` values so that its size matches what the
        header implies ([-2, 8] counts -16 values where the mean had 16)."""
        path = tmp_path / "p.ggck"
        save_checkpoint(Checkpoint(config={}, pca=_full_checkpoint().pca), path)
        edit_header(path, lambda h: h["arrays"][0].update(entry))
        path.write_bytes(path.read_bytes()[: path.stat().st_size - 8 * drop])
        reason = "needs a string name and non-negative int dimensions, got shape "
        with pytest.raises(MalformedFile, match=f"^corrupt checkpoint header: array .* {reason}"):
            load_checkpoint(path)

    def test_duplicate_array_name_rejected(self, tmp_path):
        # a second pca.mean entry with a payload of its own: the sizes agree,
        # and no copy may win silently
        path = tmp_path / "p.ggck"
        save_checkpoint(Checkpoint(config={}, pca=_full_checkpoint().pca), path)
        edit_header(path, lambda h: h["arrays"].append({"name": "pca.mean", "shape": [16]}))
        path.write_bytes(path.read_bytes() + np.full(16, 7.0).astype("<f8").tobytes())
        with pytest.raises(MalformedFile, match=r"^corrupt checkpoint header: array 'pca\.mean' is listed more than once$"):
            load_checkpoint(path)

    def test_zero_size_arrays_take_no_bytes(self, tmp_path):
        # zero-size entries before and after the basis move no offset, and a
        # zero-size read still goes through its checks
        ck = _full_checkpoint()
        path = tmp_path / "p.ggck"
        save_checkpoint(Checkpoint(config={}, pca=ck.pca), path)
        edit_header(path, lambda h: h["arrays"].insert(0, {"name": "extra.empty", "shape": [0, 4]}))
        edit_header(path, lambda h: h["arrays"].append({"name": "extra.none", "shape": [3, 0]}))
        loaded = load_checkpoint(path).pca
        for key in ("mean", "components", "explained_variance_ratio"):
            assert getattr(loaded, key).tobytes() == getattr(ck.pca, key).tobytes()

    @pytest.mark.parametrize(
        "mean, components, ratio, reason",
        [
            ((3,), (2, 5), (2,), r"have shapes \(3,\), \(2, 5\), \(2,\), expected \(16,\), \(k, 16\), \(k,\)"),
            ((16,), (2, 16), (3,), r"have shapes \(16,\), \(2, 16\), \(3,\)"),
            ((16,), (0, 16), (0,), "gesture_dim must be >= 1, got 0"),
            ((16,), (17, 16), (17,), "gesture_dim must be <= 16, got 17"),
        ],
        ids=["misshapen", "ratio_length", "no_components", "too_many_components"],
    )
    def test_bad_pose_basis_rejected(self, tmp_path, mean, components, ratio, reason):
        pca = PcaModel(mean=np.zeros(mean), components=np.zeros(components), explained_variance_ratio=np.zeros(ratio))
        save_checkpoint(Checkpoint(config={}, pca=pca), tmp_path / "p.ggck")
        with pytest.raises(MalformedFile, match=f"^corrupt pose basis: .*{reason}"):
            load_checkpoint(tmp_path / "p.ggck")


class _FailingFile:
    """A file whose writes fail once ``allowed`` writes have gone through."""

    def __init__(self, fh, error, allowed):
        self.fh, self.error, self.allowed, self.writes = fh, error, allowed, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > self.allowed:
            raise self.error
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


_ERRORS = [(OSError(28, "No space left on device"), IoFailure), (RuntimeError("interrupted"), RuntimeError)]


def _fail_writes(monkeypatch, error, allowed):
    """Make every file open_for_write opens fail after ``allowed`` writes;
    returns the list of opened files."""
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(_FailingFile(open(*args, **kwargs), error, allowed))
        return opened[-1]

    monkeypatch.setattr(errors, "open", failing_open, raising=False)
    return opened


def _write_table(path, version, rows=2):
    write_rows(path, "table", np.full((rows, 2), float(version)), header="a,b")


def _write_long_table(path, version):
    """A table of several write blocks, so a write can fail partway through it."""
    _write_table(path, version, rows=3 * errors._BLOCK)


def _write_records(path, version):
    save_records_jsonl(synth_corpus(version, 3), path)


class TestAtomicWrite:
    @pytest.mark.parametrize("error, raised", _ERRORS)
    def test_failed_write_keeps_old_bytes(self, tmp_path, monkeypatch, error, raised):
        path = tmp_path / "m.ggck"
        save_checkpoint(_full_checkpoint(), path)
        before = path.read_bytes()
        opened = _fail_writes(monkeypatch, error, 4)  # magic, version, header length and header go through
        ck = _full_checkpoint()
        ck.embedding_ref = None  # new content, unlike the file it would replace
        with pytest.raises(raised, match=str(error.args[-1])):
            save_checkpoint(ck, path)
        assert opened and opened[0].writes == 5  # the header went out before the failure
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ggck"]

    @pytest.mark.parametrize("error, raised", _ERRORS)
    @pytest.mark.parametrize("writer, allowed", [(_write_long_table, 2), (_write_records, 1)], ids=["table", "records"])
    def test_failed_text_write_keeps_old_bytes(self, tmp_path, monkeypatch, writer, allowed, error, raised):
        path = tmp_path / "out.txt"
        writer(path, 1)
        before = path.read_bytes()
        opened = _fail_writes(monkeypatch, error, allowed)  # the header, if any, and the first row or block go through
        with pytest.raises(raised, match=str(error.args[-1])):
            writer(path, 2)
        assert opened and opened[0].writes == allowed + 1
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        _write_table(fifo, 1)
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [b"a,b\n1.0,1.0\n1.0,1.0\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_symlink_target_is_replaced(self, tmp_path):
        (tmp_path / "real.csv").write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        _write_table(link, 1)
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert (tmp_path / "real.csv").read_text() == "a,b\n1.0,1.0\n1.0,1.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_pipe_descriptor_is_written_in_place(self, tmp_path):
        # The way `--out /dev/stdout | consumer` reaches the writer, without touching stdout.
        read_end, write_end = os.pipe()
        try:
            link = tmp_path / "out.csv"
            link.symlink_to(f"/proc/self/fd/{write_end}")
            _write_table(link, 1)
            os.close(write_end)
            write_end = None
            assert os.read(read_end, 4096) == b"a,b\n1.0,1.0\n1.0,1.0\n"
            assert link.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
        finally:
            os.close(read_end)
            if write_end is not None:
                os.close(write_end)

    def test_file_descriptor_is_written_in_place(self, tmp_path):
        # As `--out /dev/stdout > file`: the open file is written, never renamed over.
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        fd = os.open(real, os.O_WRONLY)
        try:
            link = tmp_path / "out.csv"
            link.symlink_to(f"/proc/self/fd/{fd}")
            _write_table(link, 1)
            assert os.fstat(fd).st_ino == os.stat(real).st_ino and os.fstat(fd).st_nlink == 1
        finally:
            os.close(fd)
        assert real.read_text() == "a,b\n1.0,1.0\n1.0,1.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "real.csv"]

    def test_descriptor_is_written_at_its_offset(self, tmp_path):
        # As `generate --out /dev/stdout > file`: lines printed before and
        # after the table keep their bytes, in order.
        real = tmp_path / "real.csv"
        fd = os.open(real, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            os.write(fd, b"head\n")
            link = tmp_path / "out.csv"
            link.symlink_to(f"/proc/self/fd/{fd}")
            _write_table(link, 1)
            os.write(fd, b"tail\n")
        finally:
            os.close(fd)
        assert real.read_bytes() == b"head\na,b\n1.0,1.0\n1.0,1.0\ntail\n"

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, 1)
        path.chmod(0o600)
        _write_table(path, 2)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert path.read_text() == "a,b\n2.0,2.0\n2.0,2.0\n"


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


def test_load_peak_is_the_parameter_store(tmp_path):
    """Loading reads each array straight into the view it fills: the traced
    peak of loading a toy-shape model stays within 5% of the values and
    gradients its store allocates, with no copy of the file's bytes."""
    cfg = ModelConfig(word_dim=300, hidden=64, att_dim=64, n_seed_poses=10, n_output_poses=20, dropout=0.1)
    path = tmp_path / "m.ggck"
    save_checkpoint(Checkpoint(config={}, model=init_model(cfg, seed=0)), path)
    load_checkpoint(path)  # finish lazy imports before tracing
    tracemalloc.start()
    try:
        store = load_checkpoint(path).model.store
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (store.values.nbytes + store.grads.nbytes)


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
        lift=init_lift_params(seed=2),
        embedding_ref={"path": "emb.txt", "sha256": "abc123"},
    )


def test_format_1_bytes_pinned(tmp_path):
    save_checkpoint(_pinned_checkpoint(), tmp_path / "pinned.ggck")
    digest = hashlib.sha256((tmp_path / "pinned.ggck").read_bytes()).hexdigest()
    assert digest == "2815cd0d944233190930ef499bd2b46f67394fd8f2022cb9d14f05ec54e0c3b7"


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
