import hashlib
import importlib
import os
import re

import numpy as np
import pytest

from irunet import cli, layers, model
from irunet.checkpoint import load_checkpoint, save_checkpoint
from irunet.cli import main
from irunet.data import DatasetManifest
from irunet.imageio import load_image, save_image

from conftest import synth_image, write_corpus


def run_cli(args):
    """Invoke the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        return main(args)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0


def corrupt_corpus(tmp_path, count=6, size=32, sigmas="25", seed=3, train_frac=1.0):
    clean = tmp_path / "clean"
    write_corpus(clean, count, size=size)
    out = tmp_path / "noisy"
    code = run_cli(["corrupt", "--input", str(clean), "--output", str(out),
                    "--sigmas", sigmas, "--seed", str(seed),
                    "--train-frac", str(train_frac)])
    assert code == 0
    return clean, out, out / "manifest.csv"


def train_tiny(tmp_path, manifest_path, max_steps=4, extra=()):
    out = tmp_path / "run"
    args = ["train", "--manifest", str(manifest_path), "--out", str(out),
            "--set", "base_width=2", "--set", "stage_widths=2,2,2,2",
            "--set", "branch_width=1", "--set", "batch_size=3",
            "--set", f"max_steps={max_steps}", "--set", "checkpoint_every=100"]
    args.extend(extra)
    code = run_cli(args)
    return code, out


class TestCorrupt:
    def test_writes_noisy_files_and_manifest(self, tmp_path, capsys):
        clean, out, manifest_path = corrupt_corpus(tmp_path, count=4)
        manifest = DatasetManifest.load(manifest_path)
        assert len(manifest.rows) == 4
        assert all(r.sigma == 25 for r in manifest.rows)
        noisy_files = [n for n in os.listdir(out) if n.endswith(".png")]
        assert len(noisy_files) == 4
        assert "sigma 25: 4 image(s)" in capsys.readouterr().out

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        clean = tmp_path / "clean"
        write_corpus(clean, 3, size=16)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(["corrupt", "--input", str(clean), "--output", str(out),
                            "--sigmas", "30", "--seed", "9"]) == 0
            outs.append({n: (out / n).read_bytes() for n in os.listdir(out)})
        assert outs[0] == outs[1]

    def test_balanced_range_over_102_images(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        write_corpus(clean, 102, size=16)
        out = tmp_path / "noisy"
        assert run_cli(["corrupt", "--input", str(clean), "--output", str(out),
                        "--sigmas", "0..50", "--seed", "2"]) == 0
        manifest = DatasetManifest.load(out / "manifest.csv")
        counts = manifest.sigma_counts()
        assert sorted(counts) == list(range(51))
        assert all(c == 2 for c in counts.values())

    def test_unreadable_input_exits_2(self, tmp_path):
        assert run_cli(["corrupt", "--input", str(tmp_path / "missing"),
                        "--output", str(tmp_path / "o"), "--sigmas", "25"]) == 2

    def test_bad_sigma_list_exits_2(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        write_corpus(clean, 1, size=16)
        assert run_cli(["corrupt", "--input", str(clean),
                        "--output", str(tmp_path / "o"), "--sigmas", "60"]) == 2
        assert "sigma values must lie in 0..50, got 60" in capsys.readouterr().err

    @pytest.mark.parametrize("sigmas", ["abc", "50..0", ","])
    def test_unparsable_sigma_list_exits_2(self, tmp_path, capsys, sigmas):
        clean = tmp_path / "clean"
        write_corpus(clean, 1, size=16)
        assert run_cli(["corrupt", "--input", str(clean),
                        "--output", str(tmp_path / "o"), "--sigmas", sigmas]) == 2
        assert f"error: cannot parse sigma list {sigmas!r}" in capsys.readouterr().err


class TestTrain:
    def test_smoke_completes_and_checkpoints(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path)
        assert code == 0
        assert any(n.endswith(".ckpt") for n in os.listdir(out))
        assert (out / "train.log").exists()
        log = (out / "train.log").read_text()
        assert log.startswith("#")  # config echo header
        assert "base_width=2" in log

    def test_missing_manifest_exits_2(self, tmp_path):
        code = run_cli(["train", "--manifest", str(tmp_path / "no.csv"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, _ = train_tiny(tmp_path, manifest_path, extra=["--set", "bogus_key=1"])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_resume_reproduces_loss_column(self, tmp_path):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)

        code, full_out = train_tiny(tmp_path, manifest_path, max_steps=6)
        assert code == 0
        full_losses = [ln.split("\t")[1] for ln in
                       (full_out / "train.log").read_text().splitlines()
                       if ln and not ln.startswith("#")]

        half_out = tmp_path / "half"
        assert run_cli(["train", "--manifest", str(manifest_path),
                        "--out", str(half_out),
                        "--set", "base_width=2", "--set", "stage_widths=2,2,2,2",
                        "--set", "branch_width=1", "--set", "batch_size=3",
                        "--set", "max_steps=3", "--set", "checkpoint_every=3"]) == 0
        resumed_out = tmp_path / "resumed"
        assert run_cli(["train", "--manifest", str(manifest_path),
                        "--out", str(resumed_out),
                        "--resume", str(half_out / "step000003.ckpt"),
                        "--set", "base_width=2", "--set", "stage_widths=2,2,2,2",
                        "--set", "branch_width=1", "--set", "batch_size=3",
                        "--set", "max_steps=6", "--set", "checkpoint_every=100"]) == 0
        resumed_losses = [ln.split("\t")[1] for ln in
                          (resumed_out / "train.log").read_text().splitlines()
                          if ln and not ln.startswith("#")]
        assert resumed_losses == full_losses[3:]

    def test_resume_loads_checkpoint_once(self, tmp_path, monkeypatch):
        import irunet.checkpoint as checkpoint_mod
        import irunet.cli as cli_mod

        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        loads = []
        real_load = checkpoint_mod.load_checkpoint

        def counting_load(path, *args, **kwargs):
            loads.append(path)
            return real_load(path, *args, **kwargs)

        # the CLI binds the name at import; train.py looks it up on the module
        monkeypatch.setattr(cli_mod, "load_checkpoint", counting_load)
        monkeypatch.setattr(checkpoint_mod, "load_checkpoint", counting_load)
        code, _ = train_tiny(tmp_path, manifest_path, max_steps=3,
                             extra=["--resume", str(out / "step000002.ckpt")])
        assert code == 0
        assert loads == [str(out / "step000002.ckpt")]

    def test_resume_into_same_out_appends_and_echoes_checkpoint_config(self, tmp_path):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        # no model key set: the run takes the checkpoint's 2-wide model, not the default
        code = run_cli(["train", "--manifest", str(manifest_path), "--out", str(out),
                        "--resume", str(out / "step000002.ckpt"),
                        "--set", "batch_size=3", "--set", "max_steps=4",
                        "--set", "checkpoint_every=100"])
        assert code == 0
        lines = (out / "train.log").read_text().splitlines()
        steps = [ln.split("\t")[0] for ln in lines if not ln.startswith("#")]
        assert steps == ["0", "1", "2", "3"]
        first_segment_end = next(i for i, ln in enumerate(lines) if ln.startswith("1\t"))
        resumed_segment = lines[first_segment_end + 1:]
        assert "# max_steps=4" in resumed_segment
        assert "# base_width=2" in resumed_segment
        assert "# stage_widths=2,2,2,2" in resumed_segment
        assert "# base_width=16" not in lines

    def test_resume_past_max_steps_exits_2_leaving_files_intact(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=4,
                               extra=["--set", "checkpoint_every=2"])
        assert code == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        capsys.readouterr()
        code = run_cli(["train", "--manifest", str(manifest_path), "--out", str(out),
                        "--resume", str(out / "step000004.ckpt"),
                        "--set", "max_steps=2", "--set", "checkpoint_every=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "step000004.ckpt" in err and "step 4, past max_steps 2" in err
        # neither the older checkpoint nor the log gains a byte
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_non_utf8_manifest_exits_2_naming_file(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        manifest_path.write_bytes(manifest_path.read_bytes() + b"\xff\n")
        code, _ = train_tiny(tmp_path, manifest_path)
        assert code == 2
        assert f"{manifest_path}: not UTF-8 text" in capsys.readouterr().err

    def test_duplicate_manifest_row_exits_2_naming_file_and_line(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        lines = manifest_path.read_text().splitlines()
        manifest_path.write_text("\n".join(lines + [lines[1]]) + "\n")
        code, out = train_tiny(tmp_path, manifest_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest_path}:{len(lines) + 1}: duplicate row")
        assert err.rstrip().endswith("line 2")
        assert not out.exists()

    def test_resume_with_conflicting_model_key_exits_2(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text("stage_widths=2,2,2,4\n")
        fresh = tmp_path / "fresh"
        code = run_cli(["train", "--manifest", str(manifest_path), "--out", str(fresh),
                        "--config", str(config), "--resume", str(out / "step000002.ckpt"),
                        "--set", "base_width=8", "--set", "max_steps=4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "base_width=8 (checkpoint: 2)" in err
        assert "stage_widths=2,2,2,4 (checkpoint: 2,2,2,2)" in err
        assert "branch_width" not in err and "max_steps" not in err
        assert not fresh.exists()  # rejected before the log is opened

    def test_resume_with_config_file_conflict_keeps_log(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        log_before = (out / "train.log").read_bytes()
        config = tmp_path / "run.cfg"
        config.write_text("branch_width=3\n")
        code = run_cli(["train", "--manifest", str(manifest_path), "--out", str(out),
                        "--config", str(config), "--resume", str(out / "step000002.ckpt")])
        assert code == 2
        assert "branch_width=3 (checkpoint: 1)" in capsys.readouterr().err
        assert (out / "train.log").read_bytes() == log_before

    def test_resume_with_model_keys_equal_to_checkpoint_resumes(self, tmp_path):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        config = tmp_path / "run.cfg"
        config.write_text("base_width=2\nstage_widths=2,2,2,2\n")
        code = run_cli(["train", "--manifest", str(manifest_path), "--out", str(out),
                        "--config", str(config), "--resume", str(out / "step000002.ckpt"),
                        "--set", "branch_width=1", "--set", "batch_size=3",
                        "--set", "max_steps=3", "--set", "checkpoint_every=100"])
        assert code == 0
        steps = [ln.split("\t")[0] for ln in (out / "train.log").read_text().splitlines()
                 if not ln.startswith("#")]
        assert steps == ["0", "1", "2"]

    def test_invalid_train_value_exits_2(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, _ = train_tiny(tmp_path, manifest_path, extra=["--set", "learning_rate=0"])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_wrong_size_images_exit_2_naming_the_file(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, count=3, size=40)
        code, _ = train_tiny(tmp_path, manifest_path)
        assert code == 2
        err = capsys.readouterr().err
        manifest = DatasetManifest.load(manifest_path)
        assert "40x40 not divisible by 16" in err
        assert any(manifest.resolve(row) in err for row in manifest.rows)
        assert not (tmp_path / "run" / "train.log").exists()

    def test_resume_on_wrong_size_images_leaves_the_log_byte_identical(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        log_before = (out / "train.log").read_bytes()
        _, _, wrong_size = corrupt_corpus(tmp_path / "wrong", count=3, size=40)
        code, _ = train_tiny(tmp_path, wrong_size, max_steps=4,
                             extra=["--resume", str(out / "step000002.ckpt")])
        assert code == 2
        assert "40x40 not divisible by 16" in capsys.readouterr().err
        assert (out / "train.log").read_bytes() == log_before

    def test_resume_with_no_step_left_still_logs_its_header(self, tmp_path):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        log_before = (out / "train.log").read_text()
        code, _ = train_tiny(tmp_path, manifest_path, max_steps=2,
                             extra=["--resume", str(out / "step000002.ckpt")])
        assert code == 0
        appended = (out / "train.log").read_text()[len(log_before):]
        assert appended and all(line.startswith("# ") for line in appended.splitlines())

    def test_accepted_run_prints_its_15_header_lines(self, tmp_path, capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        capsys.readouterr()
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = (out / "train.log").read_text().splitlines()[:15]
        assert all(line.startswith("# ") for line in header)
        assert lines == header + [
            f"trained 2 step(s); final checkpoint {out / 'step000002.ckpt'}",
            f"log written to {out / 'train.log'}"]

    @pytest.mark.parametrize("rejection, message", [
        ("no_state", "not a training checkpoint (no optimizer state)"),
        ("past_max_steps", "checkpoint is at step 2, past max_steps 1"),
        ("model_key", "base_width=8 (checkpoint: 2)")])
    def test_rejected_resume_prints_nothing_on_stdout(self, tmp_path, capsys, rejection,
                                                      message):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        ckpt = out / "step000002.ckpt"
        extra = {"no_state": [], "past_max_steps": ["--set", "max_steps=1"],
                 "model_key": ["--set", "base_width=8"]}[rejection]
        if rejection == "no_state":
            loaded = load_checkpoint(ckpt)
            ckpt = tmp_path / "params_only.ckpt"
            save_checkpoint(loaded.params, loaded.config, ckpt)
        capsys.readouterr()
        code = run_cli(["train", "--manifest", str(manifest_path), "--out", str(tmp_path / "again"),
                        "--resume", str(ckpt), *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("setting", ["epsilon=inf", "learning_rate=nan"])
    def test_non_finite_train_float_exits_2_before_the_log(self, tmp_path, capsys, setting):
        _, _, manifest_path = corrupt_corpus(tmp_path, size=16)
        code, out = train_tiny(tmp_path, manifest_path, extra=["--set", setting])
        assert code == 2
        assert f"{setting.partition('=')[0]} must be finite" in capsys.readouterr().err
        assert not (out / "train.log").exists()


class TestDenoiseEvaluate:
    @pytest.fixture
    def trained(self, tmp_path):
        _, _, manifest_path = corrupt_corpus(tmp_path, count=4, size=32,
                                             sigmas="10,25", train_frac=0.5)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=2)
        assert code == 0
        return manifest_path, out / "step000002.ckpt"

    def test_denoise_single_image(self, tmp_path, trained, capsys):
        _, ckpt = trained
        img = synth_image(99, size=96)
        src = tmp_path / "in.png"
        save_image(img, src)
        dst = tmp_path / "out.png"
        assert run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src), "--output", str(dst)]) == 0
        restored = load_image(dst)
        assert restored.shape == (96, 96, 3)
        assert "in.png" in capsys.readouterr().out  # per-image wall time line

    def test_denoise_in_row_bands_writes_the_one_band_bytes(self, tmp_path, trained,
                                                            monkeypatch):
        _, ckpt = trained
        img = np.ascontiguousarray(synth_image(98, size=544)[:, :32])
        assert img.shape[0] > model._BAND_PIXELS // img.shape[1]  # taller than one band
        src = tmp_path / "tall.png"
        save_image(img, src)
        outputs = []
        for band_pixels in (model._BAND_PIXELS, img.shape[0] * img.shape[1]):
            monkeypatch.setattr(model, "_BAND_PIXELS", band_pixels)
            dst = tmp_path / f"out{band_pixels}.png"
            assert run_cli(["denoise", "--checkpoint", str(ckpt),
                            "--input", str(src), "--output", str(dst)]) == 0
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]

    def test_denoise_indivisible_dimensions_exit_2(self, tmp_path, trained, capsys):
        _, ckpt = trained
        odd = np.zeros((96, 97, 3), dtype=np.uint8)
        src = tmp_path / "odd.ppm"
        save_image(odd, src)
        code = run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src), "--output", str(tmp_path / "o.ppm")])
        assert code == 2
        assert "pad" in capsys.readouterr().err

    @pytest.mark.parametrize("directory_mode", [True, False], ids=["directory", "file"])
    def test_denoise_rejected_input_creates_no_output_directory(self, tmp_path, trained, capsys,
                                                                directory_mode):
        _, ckpt = trained
        src = tmp_path / "in" / "small.png"
        src.parent.mkdir()
        save_image(synth_image(5, size=20), src)
        out = tmp_path / "new"
        code = run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src.parent if directory_mode else src),
                        "--output", str(out if directory_mode else out / "small.png")])
        assert code == 2
        assert "20x20 not divisible by 16" in capsys.readouterr().err
        assert not out.exists()

    def test_denoise_unsupported_output_extension_exits_2_before_any_forward(
            self, tmp_path, trained, capsys, monkeypatch):
        _, ckpt = trained
        src = tmp_path / "a.png"
        save_image(synth_image(4, size=32), src)
        calls = []
        monkeypatch.setattr(cli, "forward", lambda *args: calls.append(args))
        code = run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src), "--output", str(tmp_path / "a.jpg")])
        assert code == 2
        assert "a.jpg: unsupported output extension (.png or .ppm)" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("directory_mode", [True, False], ids=["directory", "file"])
    def test_denoise_output_under_a_file_exits_2_before_any_forward(
            self, tmp_path, trained, capsys, monkeypatch, directory_mode):
        _, ckpt = trained
        src = tmp_path / "in" / "a.png"
        src.parent.mkdir()
        save_image(synth_image(4, size=32), src)
        blocker = tmp_path / "afile"
        blocker.write_text("a regular file")
        calls = []
        monkeypatch.setattr(cli, "forward", lambda *args: calls.append(args) or model.forward(*args))
        code = run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src.parent if directory_mode else src),
                        "--output", str(blocker if directory_mode else blocker / "a.png")])
        assert code == 2
        assert f"error: [Errno 17] File exists: '{blocker}'" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("kind", ["missing file", "directory without images"])
    def test_denoise_bad_input_exits_2_before_loading_the_checkpoint(
            self, tmp_path, trained, capsys, monkeypatch, kind):
        _, ckpt = trained
        src = tmp_path / "in"
        if kind == "directory without images":
            src.mkdir()
            (src / "notes.txt").write_text("not an image")
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda *args: loads.append(args))
        code = run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src), "--output", str(tmp_path / "out.png")])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"input not found: {src}" if kind == "missing file"
                else f"no supported images (png/ppm) in {src}") in err
        assert loads == []

    def test_denoise_directory_with_summary(self, tmp_path, trained, capsys):
        _, ckpt = trained
        src_dir = tmp_path / "batch"
        write_corpus(src_dir, 3, size=32, tag="d")
        (src_dir / "notes.txt").write_text("not an image")
        out_dir = tmp_path / "restored"
        assert run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src_dir), "--output", str(out_dir)]) == 0
        assert len(os.listdir(out_dir)) == 3
        printed = capsys.readouterr().out
        assert "denoised 3 image(s), skipped 1" in printed
        assert "notes.txt" in printed

    def test_denoise_directory_skips_subdirectory_named_like_an_image(self, tmp_path, trained,
                                                                      capsys):
        _, ckpt = trained
        src_dir = tmp_path / "batch"
        write_corpus(src_dir, 2, size=32, tag="d")
        (src_dir / "d0005.png").mkdir()  # sorts between d000.png and d001.png
        out_dir = tmp_path / "restored"
        assert run_cli(["denoise", "--checkpoint", str(ckpt),
                        "--input", str(src_dir), "--output", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == ["d000.png", "d001.png"]
        assert "denoised 2 image(s), skipped 0" in capsys.readouterr().out

    def test_denoise_bad_checkpoint_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        img = tmp_path / "i.png"
        save_image(synth_image(1, size=32), img)
        assert run_cli(["denoise", "--checkpoint", str(bad),
                        "--input", str(img), "--output", str(tmp_path / "o.png")]) == 2

    def test_evaluate_writes_tsv(self, tmp_path, trained):
        manifest_path, ckpt = trained
        report = tmp_path / "report.tsv"
        assert run_cli(["evaluate", "--checkpoint", str(ckpt),
                        "--manifest", str(manifest_path), "--split", "train",
                        "--out", str(report)]) == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "sigma\tn\tpsnr_mean\tssim_mean\tmae_mean"
        assert lines[-1].startswith("ALL\t")

    def test_evaluate_without_out_prints_the_report(self, tmp_path, trained, capsys):
        manifest_path, ckpt = trained
        args = ["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                "--split", "train"]
        report = tmp_path / "report.tsv"
        assert run_cli(args + ["--out", str(report)]) == 0
        capsys.readouterr()
        assert run_cli(args) == 0
        assert capsys.readouterr().out == report.read_text()

    def test_evaluate_creates_the_report_directory(self, tmp_path, trained):
        manifest_path, ckpt = trained
        report = tmp_path / "new" / "dir" / "report.tsv"
        assert run_cli(["evaluate", "--checkpoint", str(ckpt),
                        "--manifest", str(manifest_path), "--split", "train",
                        "--out", str(report)]) == 0
        assert report.read_text().startswith("sigma\tn\t")

    def test_evaluate_out_directory_exits_2_before_any_work(self, tmp_path, trained, capsys,
                                                            monkeypatch):
        manifest_path, ckpt = trained
        calls = []
        load, evaluate = cli.load_checkpoint, cli.evaluate_model
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda *args: calls.append("load") or load(*args))
        monkeypatch.setattr(cli, "evaluate_model",
                            lambda *args, **kw: calls.append("evaluate") or evaluate(*args, **kw))
        code = run_cli(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                        "--split", "train", "--out", str(tmp_path)])
        assert code == 2
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("below, error", [
        ("", "[Errno 17] File exists: '{}'"),
        ("sub", "[Errno 20] Not a directory: '{}/sub'"),
    ], ids=["file", "under a file"])
    def test_evaluate_out_under_a_file_exits_2_before_any_evaluation(
            self, tmp_path, trained, capsys, monkeypatch, below, error):
        manifest_path, ckpt = trained
        blocker = tmp_path / "afile"
        blocker.write_text("a regular file")
        calls = []
        evaluate = cli.evaluate_model
        monkeypatch.setattr(cli, "evaluate_model",
                            lambda *args, **kw: calls.append(args) or evaluate(*args, **kw))
        code = run_cli(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                        "--split", "train", "--out", str(blocker / below / "report.tsv")])
        assert code == 2
        assert f"error: {error.format(blocker)}" in capsys.readouterr().err
        assert calls == []

    def test_evaluate_unit_scale_psnr_changes_only_the_psnr_column(self, tmp_path, trained):
        manifest_path, ckpt = trained
        columns = []
        for flag in ([], ["--unit-scale-psnr"]):
            report = tmp_path / f"report{len(flag)}.tsv"
            assert run_cli(["evaluate", "--checkpoint", str(ckpt), "--manifest",
                            str(manifest_path), "--split", "train", "--out", str(report),
                            *flag]) == 0
            rows = [line.split("\t") for line in report.read_text().splitlines()[1:]]
            columns.append(list(zip(*rows)))
        default, unit = columns
        assert unit[2] != default[2]  # psnr_mean
        assert unit[:2] + unit[3:] == default[:2] + default[3:]

    def test_evaluate_wrong_size_images_exit_2_naming_the_file(self, tmp_path, trained, capsys):
        _, ckpt = trained
        _, _, manifest_path = corrupt_corpus(tmp_path / "odd", count=2, size=40)
        code = run_cli(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                        "--split", "train"])
        assert code == 2
        err = capsys.readouterr().err
        manifest = DatasetManifest.load(manifest_path)
        assert "40x40 not divisible by 16" in err
        assert manifest.resolve(manifest.rows[0]) in err

    def test_evaluate_empty_split_exit_2(self, tmp_path):
        _, _, manifest_path = corrupt_corpus(tmp_path, count=2, size=32,
                                             train_frac=1.0)
        code, out = train_tiny(tmp_path, manifest_path, max_steps=1)
        assert code == 0
        assert run_cli(["evaluate", "--checkpoint", str(out / "step000001.ckpt"),
                        "--manifest", str(manifest_path), "--split", "test"]) == 2


class TestParamsAndGradcheck:
    def test_params_default_total(self, capsys):
        assert run_cli(["params"]) == 0
        out = capsys.readouterr().out
        assert "total trainable parameters: 133971" in out
        assert "head" in out and "tail" in out

    @pytest.mark.parametrize("overrides, total, sha256", [
        ((), 133971, "b84c6efe36c7446276909d359c9d7dd8f4f68fb9090cce6a66c9b56743d1198c"),
        (("kernel=5", "base_width=8"), 265859,
         "939a545c8ac2e554012cd2602739ef9573c4d7efc29c1f0118f1be4baca49c55"),
    ])
    def test_params_output_pinned(self, overrides, total, sha256, capsys):
        # one line per layer in checkpoint order (58), then the total
        assert run_cli(["params"] + [a for kv in overrides for a in ("--set", kv)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 59 and lines[-1] == f"total trainable parameters: {total}"
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_params_override_changes_total(self, capsys):
        assert run_cli(["params", "--set", "base_width=32",
                        "--set", "stage_widths=48,64,96,128",
                        "--set", "branch_width=16"]) == 0
        out = capsys.readouterr().out
        assert "total trainable parameters: 133971" not in out

    def test_params_config_file_and_flag_priority(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nbase_width=8\n")
        assert run_cli(["params", "--config", str(cfg), "--set", "base_width=16"]) == 0
        total_flag_wins = capsys.readouterr().out
        assert "total trainable parameters: 133971" in total_flag_wins

    def test_params_ignores_train_keys_validity(self, capsys):
        assert run_cli(["params", "--set", "learning_rate=0"]) == 0
        assert "total trainable parameters: 133971" in capsys.readouterr().out

    def test_params_unknown_file_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("width=8\n")
        assert run_cli(["params", "--config", str(cfg)]) == 2
        assert "width" in capsys.readouterr().err

    def test_params_non_utf8_config_exits_2_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"kernel=3\n\xff\n")
        assert run_cli(["params", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("content, args, message", [
        ("kernel=3\nbase_width\n", ["--config", "{cfg}"],
         "error: {cfg}:2: expected key=value, got 'base_width'"),
        (None, ["--config", "{cfg}"], "error: cannot read config file {cfg}: "),
        ("", ["--set", "kernel"], "error: --set expects KEY=VALUE, got 'kernel'"),
    ], ids=["line without =", "unreadable file", "--set without ="])
    def test_params_malformed_config_exits_2(self, tmp_path, capsys, content, args, message):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_text(content)
        assert run_cli(["params"] + [a.format(cfg=cfg) for a in args]) == 2
        assert capsys.readouterr().err.startswith(message.format(cfg=cfg))

    def test_gradcheck_layer_exits_0(self, capsys):
        assert run_cli(["gradcheck", "--level", "layer"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_gradcheck_failure_exits_1_naming_the_failing_groups(self, capsys, monkeypatch):
        grad_w = layers._conv2d_grad_w
        monkeypatch.setattr(layers, "_conv2d_grad_w", lambda *args: 2 * grad_w(*args))
        assert run_cli(["gradcheck", "--level", "layer"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL  ")]
        assert len(failed) == 8  # every case with a weight; the pooling passes
        assert any(line.startswith("PASS  avg_pool_2x2") for line in lines)
        assert any(re.fullmatch(r"    weight +rel_err=5\.000e-01", line) for line in lines)
        assert lines[-1] == "8 gradient check(s) FAILED"

    def test_unknown_flag_exits_2(self):
        assert run_cli(["params", "--bogus"]) == 2

    def test_unknown_command_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    def test_help_documents_flags(self, capsys):
        for sub, flag in [("corrupt", "--sigmas"), ("train", "--resume"),
                          ("denoise", "--checkpoint"), ("evaluate", "--split"),
                          ("params", "--set"), ("gradcheck", "--level")]:
            assert run_cli([sub, "--help"]) == 0
            assert flag in capsys.readouterr().out


class TestAbortExitCode:
    def test_non_finite_loss_exits_3(self, tmp_path, monkeypatch, capsys):
        # the package re-exports the train() function under the module's name
        train_mod = importlib.import_module("irunet.train")
        from irunet.tensor import Tensor

        _, _, manifest_path = corrupt_corpus(tmp_path, count=2, size=16)
        monkeypatch.setattr(train_mod, "mae_loss",
                            lambda z, x: Tensor(np.array(np.nan, dtype=np.float32)))
        capsys.readouterr()
        code, out = train_tiny(tmp_path, manifest_path)
        assert code == 3
        out_text, err = capsys.readouterr()
        assert f"ABORT: non-finite loss at step 0; last good parameters saved to " \
               f"{out / 'abort_last_good.ckpt'}" in err
        assert load_checkpoint(out / "abort_last_good.ckpt").state.t == 0
        assert (out / "train.log").read_text() == out_text  # the header, and no step line
        assert out_text and all(line.startswith("# ") for line in out_text.splitlines())

    def test_non_finite_gradient_exits_3_saving_the_pre_step_state(self, tmp_path, monkeypatch,
                                                                   capsys):
        _, _, manifest_path = corrupt_corpus(tmp_path, count=2, size=16)
        grad_w = layers._conv2d_grad_w
        monkeypatch.setattr(layers, "_conv2d_grad_w", lambda *args: grad_w(*args) * np.nan)
        capsys.readouterr()
        code, out = train_tiny(tmp_path, manifest_path)
        assert code == 3
        saved = out / "abort_last_good.ckpt"
        assert f"ABORT: non-finite gradient at step 0; last good parameters saved to " \
               f"{saved}" in capsys.readouterr().err
        loaded = load_checkpoint(saved)
        assert loaded.state.t == 0
        initial = model.build_params(loaded.config, 1).named_tensors()  # init_seed's default
        for name, t in loaded.params.named_tensors().items():
            assert np.array_equal(t.data, initial[name].data)
            assert not loaded.state.m[name].any() and not loaded.state.v[name].any()

    def test_non_finite_parameter_exits_3_saving_no_checkpoint(self, tmp_path, monkeypatch,
                                                               capsys):
        train_mod = importlib.import_module("irunet.train")
        adam_step = train_mod.adam_step

        def poisoned_step(params, *args):
            adam_step(params, *args)
            next(iter(params.named_tensors().values())).data.flat[0] = np.nan

        _, _, manifest_path = corrupt_corpus(tmp_path, count=2, size=16)
        monkeypatch.setattr(train_mod, "adam_step", poisoned_step)
        capsys.readouterr()
        code, out = train_tiny(tmp_path, manifest_path)
        assert code == 3
        assert "ABORT: non-finite parameter after step 0\n" in capsys.readouterr().err
        assert not [name for name in os.listdir(out) if name.endswith(".ckpt")]
