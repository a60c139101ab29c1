import collections
import re

import numpy as np
import pytest

from irunet import data
from irunet.data import (DatasetManifest, ManifestRow, build_manifest, epoch_plan,
                         materialize_batch)

from conftest import seeded_mutations, write_corpus


class TestBuildManifest:
    def test_round_robin_balance_102_images(self, tmp_path):
        clean = tmp_path / "clean"
        write_corpus(clean, 102, size=16)
        manifest = build_manifest(clean, range(51), base_seed=5)
        counts = manifest.sigma_counts()
        assert sorted(counts) == list(range(51))
        assert all(c == 2 for c in counts.values())

    def test_deterministic_bytes(self, tmp_path, corpus8):
        clean_dir, _ = corpus8
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        build_manifest(clean_dir, [0, 10, 25], base_seed=9).save(a_path)
        build_manifest(clean_dir, [0, 10, 25], base_seed=9).save(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_split_ratio(self, tmp_path):
        clean = tmp_path / "clean"
        write_corpus(clean, 10, size=16)
        manifest = build_manifest(clean, [25], base_seed=1, split_ratio=0.8)
        assert len(manifest.split_rows("train")) == 8
        assert len(manifest.split_rows("test")) == 2

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ValueError, match="no readable images"):
            build_manifest(empty, [25], base_seed=1)

    def test_subdirectory_named_like_an_image_not_listed(self, corpus8):
        clean_dir, names = corpus8
        (clean_dir / "sub.png").mkdir()
        manifest = build_manifest(clean_dir, [25], base_seed=1)
        assert sorted(r.clean_path for r in manifest.rows) == sorted(names)

    def test_sigma_out_of_range_rejected(self, corpus8):
        clean_dir, _ = corpus8
        for sigma in (51, -1, np.int64(51)):
            with pytest.raises(ValueError, match=r"sigma values must lie in 0\.\.50, got"):
                build_manifest(clean_dir, [sigma], base_seed=1)
        for sigma in (51, -1, 25.5):  # 25.5 would be saved as a value load rejects
            with pytest.raises(ValueError, match="sigma must be an integer in 0..50"):
                ManifestRow("a.png", sigma, 1, "train")

    def test_non_integer_sigma_rejected(self, corpus8):
        clean_dir, _ = corpus8
        for sigma, shown in ((25.5, "25.5"), (25.0, "25.0"), ("7", "'7'"), (None, "None")):
            with pytest.raises(ValueError, match=re.escape(f"must be integers, got {shown}")):
                build_manifest(clean_dir, [10, sigma], base_seed=1)

    def test_numpy_integer_sigmas_become_plain_ints(self, corpus8):
        clean_dir, _ = corpus8
        plain = build_manifest(clean_dir, [10, 25], base_seed=1)
        wide = build_manifest(clean_dir, np.array([10, 25], dtype=np.int16), base_seed=1)
        assert wide.rows == plain.rows
        assert all(type(r.sigma) is int for r in wide.rows)

    def test_per_row_seeds_unique(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [25], base_seed=1)
        seeds = [r.seed for r in manifest.rows]
        assert len(seeds) == len(set(seeds))


class TestManifestIO:
    def test_save_load_round_trip(self, tmp_path, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [0, 25, 50], base_seed=3)
        path = tmp_path / "manifest.csv"
        manifest.save(path)
        loaded = DatasetManifest.load(path)
        assert [(r.sigma, r.seed, r.split) for r in loaded.rows] == \
               [(r.sigma, r.seed, r.split) for r in manifest.rows]
        # resolved paths point at the same files
        assert [loaded.resolve(r) for r in loaded.rows]

    def test_header_and_lf_endings(self, tmp_path, corpus8):
        clean_dir, _ = corpus8
        path = tmp_path / "m.csv"
        build_manifest(clean_dir, [25], base_seed=3).save(path)
        raw = path.read_bytes()
        assert raw.startswith(b"clean_path,sigma,seed,split\n")
        assert b"\r" not in raw

    def test_missing_file_listed_on_load(self, tmp_path, corpus8):
        clean_dir, names = corpus8
        path = tmp_path / "m.csv"
        build_manifest(clean_dir, [25], base_seed=3).save(path)
        (clean_dir / names[0]).unlink()
        with pytest.raises(FileNotFoundError, match=names[0]):
            DatasetManifest.load(path)

    def test_missing_files_message_lists_each_file_once(self, tmp_path, corpus8):
        clean_dir, names = corpus8
        path = tmp_path / "m.csv"
        path.write_text(f"clean_path,sigma,seed,split\nclean/{names[0]},10,1,train\n"
                        f"clean/{names[1]},10,2,test\nclean/{names[0]},25,3,test\n")
        (clean_dir / names[0]).unlink()
        with pytest.raises(FileNotFoundError) as err:
            DatasetManifest.load(path)
        missing = tmp_path / "clean" / names[0]
        assert str(err.value) == f"{path}: missing clean files:\n  {missing}"

    def test_duplicate_rows_rejected(self):
        row = ManifestRow("a.png", 25, 7, "train")
        with pytest.raises(ValueError, match="unique"):
            DatasetManifest([row, row])

    def test_duplicate_row_on_load_names_file_and_both_lines(self, tmp_path, corpus8):
        clean_dir, _ = corpus8
        path = tmp_path / "m.csv"
        build_manifest(clean_dir, [25], base_seed=3).save(path)
        lines = path.read_text().splitlines()
        # the same (clean_path, sigma, seed) in the other split is still a duplicate
        parts = lines[2].split(",")
        parts[3] = "test" if parts[3] == "train" else "train"
        lines.append(",".join(parts))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{len(lines)}: "
                                             f"duplicate row.* line 3$"):
            DatasetManifest.load(path)

    @pytest.mark.parametrize("spelling", ["./c/x.png", "c/../c/x.png", "absolute"])
    def test_rows_naming_one_file_twice_rejected(self, tmp_path, spelling):
        spelt = str(tmp_path / "c" / "x.png") if spelling == "absolute" else spelling
        rows = [ManifestRow("c/x.png", 25, 7, "train"), ManifestRow(spelt, 25, 7, "train")]
        with pytest.raises(ValueError, match="unique"):
            DatasetManifest(rows, root=str(tmp_path))
        path = tmp_path / "m.csv"
        path.write_text(f"clean_path,sigma,seed,split\nc/x.png,25,7,train\n{spelt},25,7,test\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                                             f"duplicate row.* line 2$"):
            DatasetManifest.load(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            DatasetManifest.load(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path, corpus8):
        clean_dir, _ = corpus8
        path = tmp_path / "m.csv"
        build_manifest(clean_dir, [25], base_seed=3).save(path)
        path.write_bytes(path.read_bytes().replace(b"img", b"im\xff", 1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            DatasetManifest.load(path)

    @pytest.mark.parametrize("field", [1, 2], ids=["sigma", "seed"])
    def test_non_integer_field_names_file_and_line(self, tmp_path, corpus8, field):
        clean_dir, _ = corpus8
        path = tmp_path / "m.csv"
        build_manifest(clean_dir, [25], base_seed=3).save(path)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[field] = "x"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*'x'"):
            DatasetManifest.load(path)

    def test_seeded_mutations_load_or_raise_an_error_naming_file(self, tmp_path, corpus8):
        clean_dir, _ = corpus8
        src = tmp_path / "src.csv"
        build_manifest(clean_dir, [0, 25], base_seed=3).save(src)
        path = tmp_path / "mutated.csv"
        loaded, rejected = 0, collections.Counter()
        for i, buf in seeded_mutations(src.read_bytes(), "manifest-fuzz"):
            path.write_bytes(buf)
            try:
                DatasetManifest.load(path)
            except (ValueError, FileNotFoundError) as e:  # a missing clean file is the latter
                assert str(e).startswith(f"{path}:"), (i, str(e))
                rejected[type(e)] += 1
                continue
            loaded += 1
        assert loaded > 0 and rejected[ValueError] > 100 and rejected[FileNotFoundError] > 0

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            ManifestRow("a.png", 25, 7, "validation")


def epoch_batches(manifest, split, batch_size, epoch_seed, cache=None):
    """One epoch as train() builds it: (rows, noisy, clean) per planned batch."""
    cache = {} if cache is None else cache
    for rows in epoch_plan(manifest.split_rows(split), batch_size, epoch_seed):
        yield (rows, *materialize_batch(manifest, rows, cache))


class TestBatchIter:
    """An epoch's batches as train() builds them: epoch_plan, then materialize_batch."""

    def test_identical_epochs_for_same_seed(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [10, 25], base_seed=4, split_ratio=1.0)
        a = list(epoch_batches(manifest, "train", 3, epoch_seed=7))
        b = list(epoch_batches(manifest, "train", 3, epoch_seed=7))
        assert len(a) == len(b) == 3  # 8 rows in batches of 3
        for (ra, na, ca), (rb, nb, cb) in zip(a, b):
            assert ra == rb
            assert np.array_equal(na.data, nb.data)
            assert np.array_equal(ca.data, cb.data)

    def test_different_epoch_seed_changes_order(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, list(range(8)), base_seed=4, split_ratio=1.0)
        a = [r.sigma for rows, _, _ in epoch_batches(manifest, "train", 2, 1) for r in rows]
        b = [r.sigma for rows, _, _ in epoch_batches(manifest, "train", 2, 2) for r in rows]
        assert a != b

    def test_values_normalized(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [50], base_seed=4, split_ratio=1.0)
        for _, noisy, clean in epoch_batches(manifest, "train", 4, epoch_seed=7):
            for t in (noisy, clean):
                assert t.data.min() >= 0.0 and t.data.max() <= 1.0
            assert noisy.shape == clean.shape == (4, 3, 32, 32)

    def test_epoch_sigma_multiset_matches_manifest(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [0, 10, 25, 40], base_seed=4, split_ratio=1.0)
        seen = [r.sigma for rows, _, _ in epoch_batches(manifest, "train", 3, 9) for r in rows]
        expected = sorted(r.sigma for r in manifest.split_rows("train"))
        assert sorted(seen) == expected

    def test_mixed_dimensions_rejected(self, tmp_path):
        clean = tmp_path / "clean"
        write_corpus(clean, 2, size=16, tag="s")
        write_corpus(clean, 2, size=32, tag="t")
        manifest = build_manifest(clean, [25], base_seed=1, split_ratio=1.0)
        with pytest.raises(ValueError, match="mixed dimensions"):
            for _ in epoch_batches(manifest, "train", 4, epoch_seed=1):
                pass

    def test_batch_size_validated(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [25], base_seed=1, split_ratio=1.0)
        with pytest.raises(ValueError, match="batch_size"):
            epoch_plan(manifest.rows, 0, 1)

    def test_empty_split_rejected(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [25], base_seed=1, split_ratio=1.0)
        with pytest.raises(ValueError, match="empty"):
            list(epoch_batches(manifest, "test", 2, epoch_seed=1))

    def test_cache_is_used(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [25], base_seed=1, split_ratio=1.0)
        cache = {}
        list(epoch_batches(manifest, "train", 4, epoch_seed=1, cache=cache))
        assert len(cache) == 8
        noisy, clean = materialize_batch(manifest, manifest.rows[:2], cache)
        assert noisy.shape == (2, 3, 32, 32)

    def test_warm_cache_batch_matches_cold_without_corrupting(self, corpus8, monkeypatch):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [10, 25, 50], base_seed=3, split_ratio=1.0)
        rows = manifest.rows[:5]
        cold = materialize_batch(manifest, rows, {})
        cache = {}
        materialize_batch(manifest, rows, cache)
        calls = []
        counted = data.corrupt

        def counting_corrupt(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(data, "corrupt", counting_corrupt)
        warm = materialize_batch(manifest, rows, cache)
        assert calls == []
        for c, w in zip(cold, warm):
            assert c.dtype == w.dtype and np.array_equal(c.data, w.data)
