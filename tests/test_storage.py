import errno
import math
import os
import shutil
import stat
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import qcfc.storage as storage
from qcfc import FileFormatError, HeadMotion, Parcellation, ValidationError
from qcfc.pipelines import HMP_PARAM_LABELS, MAX_ROTATION_RAD
from qcfc.storage import (
    PARCELLATION_HEADER,
    Record,
    atomic_write_text,
    csv_text,
    read_json,
    read_matrix_csv,
    read_motion_csv,
    read_parcellation_csv,
    record_from_json,
    temporary_name,
    write_json,
    write_matrix_csv,
    write_motion_csv,
    write_parcellation_csv,
)

from . import reformat_check
from .oracles import oracle_matrix_csv

EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072009e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("nan"),
    float("inf"),
    float("-inf"),
)
LABEL_TEXT = st.text(alphabet=st.sampled_from("ab,\"\n\r é"), max_size=4)
# Any float64: ordinary draws, the edge values, and raw bit patterns (NaN
# payloads, subnormals).
FLOAT64S = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))),
)
# Any float64 the reader takes back: finite, and 0 or normal.
READABLE_FLOATS = [
    x for x in EDGE_FLOATS if np.isfinite(x) and not 0 < abs(x) < np.finfo(float).tiny
]
READABLE_FLOAT64S = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False),
    st.sampled_from(READABLE_FLOATS),
)

# The magnitudes `%.17g` writes in plain decimal notation, 1e-4 <= |x| < 1e16,
# and a few just outside, drawn as bit patterns so every exponent and last
# digit is as likely; either sign.
PLAIN_BITS = np.array([1e-4, 1e16]).view(np.uint64).tolist()
PLAIN_FLOAT64S = st.builds(
    lambda bits, sign: sign * float(np.array(bits, dtype=np.uint64).view(np.float64)),
    st.integers(PLAIN_BITS[0] - 4, PLAIN_BITS[1] + 4),
    st.sampled_from([1.0, -1.0]),
)


def ties(exponent: int, count: int = 4) -> list:
    """Values of [10^exponent, 10^(exponent + 1)) that lie halfway between two
    17-digit decimals: odd multiples of 2^(exponent - 17), whose decimal
    expansions have 18 significant digits, the last a 5."""
    first = math.ceil(10.0**exponent * 2.0 ** (17 - exponent)) | 1
    return [(first + 2 * i) / 2.0 ** (17 - exponent) for i in range(count)]


# Where the matrix writer's exact decimal conversion is most likely to slip:
# ties, each power of ten and its neighbours, both ends of the plain range,
# zeros, subnormals and the smallest normal.
KERNEL_EDGE_FLOATS = sorted(
    {
        1 + 2**-17,
        *(t for exponent in range(-4, 16) for t in ties(exponent)),
        *(
            np.nextafter(10.0**k, toward)
            for k in range(-5, 18)
            for toward in (0.0, 10.0**k, np.inf)
        ),
        0.0,
        5e-324,
        2.2250738585072009e-308,
        2.2250738585072014e-308,
    }
)
KERNEL_EDGE_FLOATS += [-x for x in KERNEL_EDGE_FLOATS]


@st.composite
def plain_matrices(draw):
    """Mostly values of the plain range, with zeros and any other float in up to a
    quarter of the cells: so on either side of the eighth beyond which a block
    goes through the row format."""
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12))
    values = draw(arrays(np.float64, shape, elements=PLAIN_FLOAT64S))
    flat = values.ravel()
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=flat.size // 4)):
        flat[i] = draw(st.one_of(st.sampled_from([0.0, -0.0]), FLOAT64S))
    return values


@st.composite
def labelled_matrices(draw):
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6))
    values = draw(arrays(np.float64, shape, elements=FLOAT64S))
    labels = draw(st.lists(LABEL_TEXT, min_size=shape[1], max_size=shape[1]))
    return values, labels


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

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(LABEL_TEXT, min_size=1, max_size=5))
    @example(["a\rb", "c"])
    def test_any_labels_survive(self, tmp_path, labels):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.zeros((1, len(labels))), labels)
        assert read_matrix_csv(path)[1] == tuple(labels)

    def test_byte_identical_rewrites(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((4, 3))
        write_matrix_csv(tmp_path / "a.csv", values, ["x", "y", "z"])
        write_matrix_csv(tmp_path / "b.csv", values, ["x", "y", "z"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestMatrixBytes:
    @settings(
        deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(labelled_matrices())
    @example((np.array(EDGE_FLOATS).reshape(1, -1), [str(i) for i in range(len(EDGE_FLOATS))]))
    @example((np.zeros((0, 3)), ["a,b", 'q"d', "line\nbreak"]))
    @example((np.zeros((1, 2)), ["a\rb", "c\r\nd"]))
    @example((np.zeros((3, 0)), []))
    @example((np.array([[-0.0]]), [""]))
    def test_bytes_match_cell_by_cell_writer(self, tmp_path, matrix):
        values, labels = matrix
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, labels)
        assert path.read_bytes() == oracle_matrix_csv(values, labels).encode("utf-8")

    @settings(
        deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(plain_matrices())
    def test_plain_range_bytes_match_cell_by_cell_writer(self, tmp_path, values):
        path = tmp_path / "m.csv"
        labels = [str(j) for j in range(values.shape[1])]
        write_matrix_csv(path, values, labels)
        assert path.read_bytes() == oracle_matrix_csv(values, labels).encode("utf-8")

    def test_edge_values_among_plain_ones(self, tmp_path):
        """Each edge value in a row of eight plain ones, so a ninth of each
        block is outside the plain range at most; also under `np.errstate(all="raise")`,
        the state `run_guarded` sets."""
        edges = np.array(KERNEL_EDGE_FLOATS)
        values = np.random.default_rng(0).standard_normal((edges.size, 9))
        values[:, 0] = edges
        path = tmp_path / "m.csv"
        with np.errstate(all="raise"):
            write_matrix_csv(path, values, list("abcdefghi"))
        assert path.read_bytes() == oracle_matrix_csv(values, list("abcdefghi")).encode()

    @pytest.mark.parametrize("others", [0, 1, 1024, 1025, 8192])
    def test_a_block_with_cells_outside_the_plain_range(self, tmp_path, others):
        """One block of 8,192 cells (128 x 64) mixing plain values, zeros and
        `others` tiny, huge, subnormal or non-finite cells; past 1,024 (an eighth)
        the block goes through the row format."""
        rng = np.random.default_rng(others)
        values = rng.standard_normal(128 * 64) * 10.0 ** rng.integers(-4, 16, 128 * 64)
        values[rng.random(values.size) < 0.2] = 0.0
        outside = np.array([1e-5, -3e-300, 2e16, -1e308, 5e-324, np.nan, np.inf, -np.inf])
        values[rng.permutation(values.size)[:others]] = rng.choice(outside, others)
        values = values.reshape(128, 64)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, [f"c{j}" for j in range(64)])
        assert path.read_bytes() == oracle_matrix_csv(values, [f"c{j}" for j in range(64)]).encode()

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (1, 9000), (100, 100), (1200, 7)])
    def test_shapes_across_blocks(self, tmp_path, shape):
        """Zero rows or columns, a row longer than a block (8,192 cells), and
        matrices of more than one block."""
        values = np.random.default_rng(1).standard_normal(shape)
        labels = [f"c{j}" for j in range(shape[1])]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, labels)
        assert path.read_bytes() == oracle_matrix_csv(values, labels).encode()

    def test_memory_is_at_most_three_times_the_text(self, tmp_path):
        values = np.random.default_rng(2).standard_normal((1200, 333))
        labels = [f"roi_{j}" for j in range(333)]
        tracemalloc.start()
        try:
            write_matrix_csv(tmp_path / "m.csv", values, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (tmp_path / "m.csv").stat().st_size

    def test_literal_bytes(self, tmp_path):
        values = np.array([[0.1, -0.0, 5e-324], [1.0 / 3.0, -1.7976931348623157e308, 2.5e-7]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values, ["a", "b,c", 'q"d'])
        assert path.read_bytes() == (
            b'a,"b,c","q""d"\n'
            b"0.10000000000000001,-0,4.9406564584124654e-324\n"
            b"0.33333333333333331,-1.7976931348623157e+308,2.4999999999999999e-07\n"
        )


class TestReformatCheck:
    def test_a_run_matches_and_a_rewritten_cell_is_named(self, refusal_base, tmp_path, capsys):
        assert reformat_check.main([str(refusal_base)]) == 0
        # 4 files of each of 5 subjects, `truth_fc.csv` and 5 corrected files.
        assert capsys.readouterr().out == "26 matrix files match the row format's text\n"
        work = tmp_path / "base"
        shutil.copytree(refusal_base, work)
        ts = work / "cohort" / "sub-001" / "ts.csv"
        header, first, *rest = ts.read_text().split("\n")
        cell, *others = first.split(",")
        ts.write_text("\n".join([header, ",".join([f"{float(cell):.18g}", *others]), *rest]))
        assert reformat_check.main([str(work)]) == 1
        assert capsys.readouterr().out == f"error: {ts} differs from the row format's text\n"

    def test_a_directory_without_matrix_files_fails(self, tmp_path, capsys):
        assert reformat_check.main([str(tmp_path)]) == 1
        assert "no matrix file" in capsys.readouterr().out


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
        # Rotations (the last three columns) within MAX_ROTATION_RAD.
        scale = np.array([1.0, 1.0, 1.0, 0.1, 0.1, 0.1])
        motion = HeadMotion(np.random.default_rng(1).standard_normal((5, 6)) * scale)
        path = tmp_path / "motion.csv"
        write_motion_csv(path, motion)
        back = read_motion_csv(path)
        assert np.array_equal(back.values, motion.values)

    @pytest.mark.parametrize("column", range(3, 6))
    def test_rotation_beyond_the_bound_is_refused_naming_its_column(self, tmp_path, column):
        values = np.zeros((3, 6))
        values[1, column] = -np.nextafter(MAX_ROTATION_RAD, 1.0)
        path = tmp_path / "motion.csv"
        write_motion_csv(path, HeadMotion(values))
        with pytest.raises(FileFormatError) as err:
            read_motion_csv(path)
        assert str(err.value).startswith(f"{path}: {HMP_PARAM_LABELS[column]} reaches 0.5 rad")
        values[1, column] = -MAX_ROTATION_RAD
        write_motion_csv(path, HeadMotion(values))
        assert np.array_equal(read_motion_csv(path).values, values)

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

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(LABEL_TEXT, min_size=2, max_size=6, unique=True).flatmap(
            lambda labels: st.tuples(
                st.just(labels), arrays(np.float64, (len(labels), 3), elements=READABLE_FLOAT64S)
            )
        )
    )
    @example(
        (["a,b", 'q"d', "l\nf", "c\rr", "\r\n", ""], np.array([READABLE_FLOATS * 2] * 3).T[:6])
    )
    def test_any_labels_and_coordinates_survive(self, tmp_path, labelled_coords):
        labels, coords = labelled_coords
        path = tmp_path / "parc.csv"
        write_parcellation_csv(path, Parcellation(tuple(labels), coords))
        back = read_parcellation_csv(path)
        assert back.roi_labels == tuple(labels)
        assert back.centroids.tobytes() == coords.tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a,0,0\nb,1,1,1\n", "row 2 has 3 fields, header has 4"),
            ("a,0,oops,0\nb,1,1,1\n", "row 2, column 3: could not convert"),
            ("a,0,inf,0\nb,1,1,1\n", "contains non-finite values"),
            ("a,0,0,0\nb,1,-2.2e-308,1\n", "row 3, column 3: '-2.2e-308' is subnormal"),
        ],
        ids=["short-row", "bad-cell", "non-finite", "subnormal"],
    )
    def test_errors_read_as_the_matrix_reader_words_them(self, tmp_path, body, message):
        path = tmp_path / "parc.csv"
        path.write_text("roi,x_mm,y_mm,z_mm\n" + body)
        with pytest.raises(FileFormatError) as err:
            read_parcellation_csv(path)
        assert message in str(err.value)

    def test_header_checked_before_any_row(self, tmp_path):
        path = tmp_path / "parc.csv"
        path.write_text("name,x,y,z\na,oops,0\n")
        with pytest.raises(FileFormatError) as err:
            read_parcellation_csv(path)
        assert "header must be roi,x_mm,y_mm,z_mm, got name,x,y,z" in str(err.value)


@pytest.mark.parametrize(
    "reader, value_type, text",
    [
        (read_motion_csv, "HeadMotion", ",".join(HMP_PARAM_LABELS) + "\n" + "0,0,0,0,0,0\n" * 2),
        (read_parcellation_csv, "Parcellation", "roi,x_mm,y_mm,z_mm\na,0,0,0\nb,1,1,1\n"),
    ],
    ids=["motion", "parcellation"],
)
def test_only_a_refused_value_is_a_malformed_file(monkeypatch, tmp_path, reader, value_type, text):
    """A failure that is not a validation error is not reported as a malformed file."""

    def out_of_memory(*args):
        raise MemoryError("out of memory")

    monkeypatch.setattr(storage, value_type, out_of_memory)
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(MemoryError):
        reader(path)


@dataclass(frozen=True)
class Point(Record):
    label: str
    xyz: tuple[float, float, float]


@dataclass(frozen=True)
class Track(Record):
    count: int
    points: tuple[Point, ...]


class TestRecord:
    def test_json_values_become_the_annotated_types(self):
        raw = {"count": 2, "points": [{"label": "a", "xyz": [1, 2.5, -3]}]}
        track = record_from_json(Track, raw)
        assert track == Track(2, (Point("a", (1.0, 2.5, -3.0)),))
        assert type(track.points[0].xyz[0]) is float

    @pytest.mark.parametrize(
        "count, points, message",
        [
            (True, (), "count must be an integer, got True"),
            (2.0, (), "count must be an integer, got 2.0"),
            (1, "ab", "points must be a list, got 'ab'"),
            (1, {"label": "a"}, "points must be a list"),
            (1, ({"label": "a", "xyz": "abc"},), "points[0]: xyz must be a list, got 'abc'"),
            (1, ({"label": "a", "xyz": [1, 2]},), "points[0]: xyz must be a list of 3 items"),
            (1, (Point("a", (0, 0, 0)), 5), "points[1]: a record must be a JSON object, got int"),
            (1, ({"label": None, "xyz": [0, 0, 0]},), "points[0]: label must be a string"),
            (1, ({"label": "a", "xyz": [0, float("nan"), 0]},), "xyz[1] must be finite, got nan"),
            (1, ({"label": "a", "xyz": [0, 10**400, 0]},), "beyond float range"),
            (1, ({"label": "a", "xyz": [0, 0, 0], "w": 1},), "points[0]: unknown field 'w'"),
            (1, ({"xyz": [0, 0, 0]},), "points[0]: missing field 'label'"),
        ],
    )
    def test_a_python_caller_meets_the_same_check(self, count, points, message):
        with pytest.raises(ValidationError) as err:
            Track(count, points)
        assert message in str(err.value)

    def test_only_an_object_holding_exactly_the_fields(self):
        with pytest.raises(ValidationError, match="a record must be a JSON object, got list"):
            record_from_json(Track, [])
        with pytest.raises(ValidationError, match="unknown field 'extra'"):
            record_from_json(Track, {"count": 0, "points": [], "extra": 1})
        with pytest.raises(ValidationError, match="missing field 'points'"):
            record_from_json(Track, {"count": 0})


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
    @given(st.lists(FLOAT64S, min_size=1, max_size=6))
    @example([0.5, 0.1, 1.0 / 3.0, *EDGE_FLOATS])
    def test_examples(self, row):
        """`csv_text` writes every float64 cell, `float` or `np.float64`, as `%.17g`."""
        text = ",".join(format(x, ".17g") for x in row) + "\n"
        assert csv_text([row]) == text
        assert csv_text([[np.float64(x) for x in row]]) == text
        back = np.array([float(cell) for cell in text[:-1].split(",")])
        assert np.array_equal(back, row, equal_nan=True)
        assert np.array_equal(np.signbit(back[back == 0]), np.signbit(np.array(row)[back == 0]))

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

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "new" / "dir" / "out.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("blocker", ["target is a directory", "parent is a file"])
    def test_a_failure_names_the_target_not_its_temporary_file(self, tmp_path, blocker):
        if blocker == "target is a directory":
            target, code, kind = tmp_path / "taken", errno.EISDIR, IsADirectoryError
            target.mkdir()
        else:
            (tmp_path / "afile").write_text("")
            target, code, kind = tmp_path / "afile" / "c.csv", errno.ENOTDIR, NotADirectoryError
        for _ in range(2):
            with pytest.raises(kind) as info:
                atomic_write_text(target, "hello")
            assert str(info.value) == f"[Errno {code}] {os.strerror(code)}: {str(target)!r}"
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("name", ["c" * 255, "é" * 127 + "c", "€" * 85])
    def test_a_target_of_the_longest_name_is_written(self, tmp_path, name):
        target = tmp_path / name
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("name", ["c" * 255, "é" * 127 + "c", "€" * 85, "x", "b\udcff" * 120])
    @pytest.mark.parametrize("suffix", [".tmp", ".old.tmp"])
    def test_temporary_names_are_fresh_short_and_end_in_their_suffix(self, name, suffix):
        names = {temporary_name(Path("/d") / name, suffix) for _ in range(100)}
        assert len(names) == 100
        for tmp in names:
            assert tmp.parent == Path("/d") and tmp.name.endswith(suffix)
            assert len(tmp.name.encode()) <= 255
            assert tmp.name.startswith(name[:10].encode("utf-8", "ignore").decode())

    def test_mode_matches_plain_open(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("hello")
        atomic_write_text(tmp_path / "atomic.txt", "hello")
        def mode(name):
            return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

        assert mode("atomic.txt") == mode("plain.txt")
