import os
import stat

import numpy as np
import pytest

from qcfc import FileFormatError, HeadMotion, Parcellation
from qcfc.storage import (
    PARCELLATION_HEADER,
    atomic_write_text,
    format_float,
    read_json,
    read_matrix_csv,
    read_motion_csv,
    read_parcellation_csv,
    write_json,
    write_matrix_csv,
    write_motion_csv,
    write_parcellation_csv,
)


class TestMatrixRoundTrip:
    def test_awkward_floats_survive_exactly(self, tmp_path):
        values = np.array([[0.1, 1.0 / 3.0, 1e-300], [-0.0, 2.5, -1.7976931348623157e308]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, ["a", "b", "c"])
        back, header = read_matrix_csv(path)
        assert header == ("a", "b", "c")
        assert np.array_equal(back, values)
        assert np.signbit(back[1, 0])

    def test_zero_column_matrix(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_matrix_csv(path, np.zeros((3, 0)), [])
        back, header = read_matrix_csv(path)
        assert header == ()
        assert back.shape == (3, 0)

    def test_header_only_matrix(self, tmp_path):
        path = tmp_path / "h.csv"
        write_matrix_csv(path, np.zeros((0, 2)), ["a", "b"])
        back, header = read_matrix_csv(path)
        assert back.shape == (0, 2)
        assert header == ("a", "b")

    def test_rewrite_replaces_previous_content(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.ones((2, 1)), ["a"])
        write_matrix_csv(path, np.zeros((1, 1)), ["a"])
        back, _ = read_matrix_csv(path)
        assert np.array_equal(back, [[0.0]])

    def test_no_temp_file_left_behind(self, tmp_path):
        write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)), ["a", "b"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    def test_byte_identical_rewrites(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((4, 3))
        write_matrix_csv(tmp_path / "a.csv", values, ["x", "y", "z"])
        write_matrix_csv(tmp_path / "b.csv", values, ["x", "y", "z"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestMatrixErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(FileFormatError) as err:
            read_matrix_csv(path)
        assert "empty" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_matrix_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,oops\n")
        with pytest.raises(FileFormatError) as err:
            read_matrix_csv(path)
        assert "row 2" in str(err.value)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(FileFormatError) as err:
            read_matrix_csv(path)
        assert "row 2" in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a\ninf\n")
        with pytest.raises(FileFormatError) as err:
            read_matrix_csv(path)
        assert "non-finite" in str(err.value)


class TestMotionCsv:
    def test_round_trip(self, tmp_path):
        motion = HeadMotion(np.random.default_rng(1).standard_normal((5, 6)))
        path = tmp_path / "motion.csv"
        write_motion_csv(path, motion)
        back = read_motion_csv(path)
        assert np.array_equal(back.values, motion.values)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "motion.csv"
        path.write_text("a,b,c,d,e,f\n" + "0,0,0,0,0,0\n" * 2)
        with pytest.raises(FileFormatError) as err:
            read_motion_csv(path)
        assert "dx_mm" in str(err.value)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "motion.csv"
        path.write_text("dx_mm,dy_mm,dz_mm,rx_rad,ry_rad,rz_rad\n0,0,0,0,0,0\n")
        with pytest.raises(FileFormatError):
            read_motion_csv(path)


class TestParcellationCsv:
    def test_round_trip(self, tmp_path):
        parc = Parcellation(
            ("roi_a", "roi_b", "roi_c"),
            np.array([[0.1, -3.5, 2.0], [1.0 / 7.0, 0.0, -0.0], [5.0, 6.0, 7.0]]),
        )
        path = tmp_path / "parc.csv"
        write_parcellation_csv(path, parc)
        back = read_parcellation_csv(path)
        assert back.roi_labels == parc.roi_labels
        assert np.array_equal(back.centroids, parc.centroids)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "parc.csv"
        path.write_text("name,x,y,z\nroi_a,0,0,0\nroi_b,1,1,1\n")
        with pytest.raises(FileFormatError) as err:
            read_parcellation_csv(path)
        assert ",".join(PARCELLATION_HEADER) in str(err.value)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "parc.csv"
        path.write_text("roi,x_mm,y_mm,z_mm\nroi_a,0,0\nroi_b,1,1,1\n")
        with pytest.raises(FileFormatError) as err:
            read_parcellation_csv(path)
        assert "row 2" in str(err.value)

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "parc.csv"
        path.write_text("roi,x_mm,y_mm,z_mm\nroi_a,0,0,0\nroi_a,1,1,1\n")
        with pytest.raises(FileFormatError):
            read_parcellation_csv(path)


class TestJson:
    def test_round_trip_and_determinism(self, tmp_path):
        obj = {"b": [1, 2, 3], "a": {"nested": 0.25}}
        write_json(tmp_path / "x.json", obj)
        write_json(tmp_path / "y.json", obj)
        assert read_json(tmp_path / "x.json") == obj
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()
        text = (tmp_path / "x.json").read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_json(path)

    def test_missing_json(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_json(tmp_path / "nope.json")


class TestFormatFloat:
    def test_examples(self):
        assert format_float(0.5) == "0.5"
        assert float(format_float(0.1)) == 0.1
        assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0

    def test_atomic_write_creates_parented_file(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [target]


class TestAtomicWrite:
    def test_stale_temp_name_does_not_block(self, tmp_path):
        target = tmp_path / "run_info.json"
        (tmp_path / "run_info.json.tmp").mkdir()
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write_text(taken, "hello")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "unencodable.txt", "\udc80")
        assert list(tmp_path.iterdir()) == [taken]

    def test_mode_matches_plain_open(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("hello")
        atomic_write_text(tmp_path / "atomic.txt", "hello")
        def mode(name):
            return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

        assert mode("atomic.txt") == mode("plain.txt")
