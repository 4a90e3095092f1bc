import hashlib
import json
import os
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shb.io
import shb.linalg
import shb.problems
from shb.errors import BundleError, EmptyFile, Inconsistent, MalformedLine, NonMonotoneIndices, OutOfRange
from shb.io import (
    _parse_line,
    atomic_write,
    parse_libsvm,
    read_bundle,
    read_csv_matrix,
    write_bundle,
)
from shb.problems import Problem, gen_problem


def assert_same_problem(got, want):
    """a, b and the planted solution equal byte for byte (or both absent),
    and the same source."""
    assert got.a.shape == want.a.shape and got.a.tobytes() == want.a.tobytes()
    assert got.b.tobytes() == want.b.tobytes()
    if want.planted_solution is None:
        assert got.planted_solution is None
    else:
        assert got.planted_solution.tobytes() == want.planted_solution.tobytes()
    assert got.source == want.source


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseLibsvm:
    def test_minimal_two_lines(self, tmp_path):
        p = write(tmp_path, "a.txt", "1 1:1.0\n0 2:2.0\n")
        np.testing.assert_array_equal(parse_libsvm(p), [[1.0, 0.0], [0.0, 2.0]])

    def test_index_gap_fills_zeros(self, tmp_path):
        p = write(tmp_path, "a.txt", "1 3:5\n")
        np.testing.assert_array_equal(parse_libsvm(p), [[0.0, 0.0, 5.0]])

    def test_width_is_global_max_index(self, tmp_path):
        p = write(tmp_path, "a.txt", "1 5:1\n-1 1:2\n")
        got = parse_libsvm(p)
        assert got.shape == (2, 5)
        assert got[1, 0] == 2.0

    def test_label_only_line_gives_zero_row(self, tmp_path):
        p = write(tmp_path, "a.txt", "1\n-1 2:3\n")
        np.testing.assert_array_equal(parse_libsvm(p), [[0.0, 0.0], [0.0, 3.0]])

    def test_scientific_notation_values(self, tmp_path):
        p = write(tmp_path, "a.txt", "+1 1:-1.5e-3 4:2E2\n")
        got = parse_libsvm(p)
        assert got[0, 0] == pytest.approx(-1.5e-3)
        assert got[0, 3] == 200.0

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        p = write(tmp_path, "a.txt", "1 1:1\n\n\n")
        assert parse_libsvm(p).shape == (1, 1)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_libsvm(write(tmp_path, "a.txt", ""))

    def test_blank_only_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_libsvm(write(tmp_path, "a.txt", "\n\n"))

    def test_interior_blank_line(self, tmp_path):
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm(write(tmp_path, "a.txt", "1 1:1\n\n1 1:1\n"))
        assert exc.value.line_no == 2

    def test_bad_label(self, tmp_path):
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm(write(tmp_path, "a.txt", "abc 1:1\n"))
        assert exc.value.token == "abc"

    def test_token_without_colon(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_libsvm(write(tmp_path, "a.txt", "1 5\n"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm(write(tmp_path, "a.txt", "1 1:x\n"))
        assert exc.value.line_no == 1

    def test_zero_index_not_one_based(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_libsvm(write(tmp_path, "a.txt", "1 0:1\n"))

    def test_duplicate_index(self, tmp_path):
        with pytest.raises(NonMonotoneIndices):
            parse_libsvm(write(tmp_path, "a.txt", "1 2:1 2:2\n"))

    def test_decreasing_index(self, tmp_path):
        with pytest.raises(NonMonotoneIndices) as exc:
            parse_libsvm(write(tmp_path, "a.txt", "1 1:1\n1 3:1 2:1\n"))
        assert exc.value.line_no == 2

    def test_width_over_budget_rejected_before_allocating(self, tmp_path):
        text = "1 1:1\n1 1:1 1000000000000:1\n1 2:1\n"
        with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
            with pytest.raises(MalformedLine) as exc:
                parse_libsvm(write(tmp_path, "a.txt", text))
        assert exc.value.line_no == 2  # the line holding the largest index
        assert "1000000000000" in str(exc.value)

    def test_width_budget_boundary(self, tmp_path):
        path = write(tmp_path, "a.txt", "1 1:1\n1 4:1\n")  # 2 x 4 = 8 entries
        with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 8):
            assert parse_libsvm(path).shape == (2, 4)
        with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 7):
            with pytest.raises(MalformedLine) as exc:
                parse_libsvm(path)
        assert exc.value.line_no == 2

    def test_shuffled_lines_permute_rows(self, tmp_path):
        text = "1 1:1 3:2\n0 2:5\n1 1:7\n"
        lines = text.strip().split("\n")
        shuffled = "\n".join([lines[2], lines[0], lines[1]]) + "\n"
        a = parse_libsvm(write(tmp_path, "a.txt", text))
        b = parse_libsvm(write(tmp_path, "b.txt", shuffled))
        rows_a = sorted(map(tuple, a.tolist()))
        rows_b = sorted(map(tuple, b.tolist()))
        assert rows_a == rows_b


# the spellings a LIBSVM file can hold: valid ones in every form int and
# float take (signs, underscores, Unicode digits, inf, wide and padded
# indices, tabs and other whitespace), and every malformed token kind
GOOD_LABELS = ["1", "-1", "+1", "0.5", "2e3", "\u0663", " 1"]
BAD_LABELS = ["abc", "1:2", "nan1", "\u0663x"]
VALUES = ["0", "1", "-2.5", ".5", "5.", "1e5", "1E-3", "+2", "1_0", "inf", "-inf", "nan", "1e400", "\u0663.5"]
BAD_TOKENS = [
    "7", "1:2:3", ":5", "4:", "0:1", "-3:1", "x:1", "1e3:1", "2:abc", "0x10:1",
    "99999999999999999999:1", "9223372036854775808:1", "9223372036854775807:1",
]
SEPARATORS = [" ", "  ", "\t", " \t", "\u3000", "\x0b"]


def spell_index(i: int, style: int) -> str:
    return {0: str(i), 1: f"+{i}", 2: f"{i:0>20}", 3: "".join(chr(0x660 + int(c)) for c in str(i))}[style]


@st.composite
def libsvm_lines(draw) -> str:
    """One line: usually a valid one, else blank or with a bad label, a bad
    token or indices out of order."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(["", " \t", "\u3000"]))
    label = draw(st.sampled_from(BAD_LABELS if kind == 1 else GOOD_LABELS))
    indices = sorted(draw(st.sets(st.integers(1, 30), max_size=6)))
    tokens = [
        f"{spell_index(i, draw(st.sampled_from([0, 0, 0, 1, 2, 3])))}:{draw(st.sampled_from(VALUES))}"
        for i in indices
    ]
    if kind == 2:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
    elif kind == 3:
        tokens.reverse()
    sep = draw(st.sampled_from(SEPARATORS))
    return sep.join([label, *tokens]) + draw(st.sampled_from(["", "", sep]))


def reference_parse(path) -> np.ndarray:
    """_parse_line over every line in order, then the budget rule."""
    lines = path.read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise EmptyFile(f"{path}: no data rows")
    feats = [_parse_line(path, i + 1, line) for i, line in enumerate(lines)]
    max_index = max((j for line in feats for j, _ in line), default=0)
    widest = next((i + 1 for i, line in enumerate(feats) if any(j == max_index for j, _ in line)), 0)
    if len(lines) * max_index > shb.linalg.MAX_DENSE_ELEMENTS:
        raise MalformedLine(
            f"{path}:{widest}: index {max_index} makes a {len(lines)}x{max_index} matrix,"
            f" over the limit of {shb.linalg.MAX_DENSE_ELEMENTS} entries",
            line_no=widest,
        )
    mat = np.zeros((len(lines), max_index))
    for i, line in enumerate(feats):
        for j, val in line:
            mat[i, j - 1] = val
    return mat


def outcome(parse, path):
    """The matrix's shape and bytes, or the error's class, message, line and token."""
    try:
        mat = parse(path)
    except (EmptyFile, MalformedLine, NonMonotoneIndices) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "token", None)
    return mat.shape, mat.tobytes()


class TestParseLibsvmAgainstTheLineReference:
    @settings(max_examples=400)
    @given(
        lines=st.lists(libsvm_lines(), max_size=8),
        trailing=st.sampled_from(["", "\n", "\r\n", "\n\n", "\n \n"]),
    )
    def test_one_pass_equals_parse_line_over_every_line(self, tmp_path_factory, lines, trailing):
        path = tmp_path_factory.mktemp("libsvm") / "f.txt"
        path.write_text("\n".join(lines) + trailing, newline="")
        assert outcome(parse_libsvm, path) == outcome(reference_parse, path)

    def test_two_colons_and_none_on_one_line_are_refused(self, tmp_path):
        """1:2:3 and 5 hold as many colons as tokens, and split into twice
        as many words, so only a count per token refuses the line."""
        path = write(tmp_path, "a.txt", "1 1:1\n1 1:2:3 5\n")
        assert outcome(parse_libsvm, path) == outcome(reference_parse, path)
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm(path)
        assert (exc.value.line_no, exc.value.token) == (2, "1:2:3")

    def test_first_bad_line_wins_over_an_index_past_int64(self, tmp_path):
        """The 20-digit index is valid by the line rules, so line 3's bad
        token is the file's first error; alone, the index is refused by
        the budget on its own line."""
        path = write(tmp_path, "a.txt", "1 99999999999999999999:1\n1 1:1\n1 2:x\n")
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm(path)
        assert (exc.value.line_no, exc.value.token) == (3, "2:x")
        assert "cannot parse token '2:x'" in str(exc.value)
        path = write(tmp_path, "b.txt", "1 1:1\n1 2:1 99999999999999999999:1\n")
        with pytest.raises(MalformedLine) as exc:
            parse_libsvm(path)
        assert exc.value.line_no == 2 and "index 99999999999999999999 makes a 2x" in str(exc.value)


class TestCsvMatrix:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        lines = ["c1,c2,c3"] + [",".join(repr(float(v)) for v in row) for row in a]
        path = write(tmp_path, "m.csv", "\n".join(lines) + "\n")
        np.testing.assert_array_equal(read_csv_matrix(path), a)

    def test_non_numeric_cell_reports_its_line(self, tmp_path):
        p = write(tmp_path, "m.csv", "c1,c2\n1.0,2.0\n3.0,x\n4.0,5.0\n")
        with pytest.raises(MalformedLine, match=r":3: non-numeric cell") as err:
            read_csv_matrix(p)
        assert err.value.line_no == 3

    def test_budget_boundary(self, tmp_path):
        """2 rows of 2 cells fit a budget of 4 entries; at 3 the file is
        refused at the row that crosses it, before the bad cells after it."""
        path = write(tmp_path, "m.csv", "c1,c2\n1.0,2.0\n3.0,4.0\n")
        with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 4):
            np.testing.assert_array_equal(read_csv_matrix(path), [[1.0, 2.0], [3.0, 4.0]])
        bad_after = write(tmp_path, "n.csv", "c1,c2\n1.0,2.0\n3.0,4.0\nx,y\n")
        for p in (path, bad_after):
            with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 3):
                with pytest.raises(MalformedLine, match=r":3: 2 rows of 2 cells are over the limit of 3 entries") as exc:
                    read_csv_matrix(p)
            assert exc.value.line_no == 3

    def test_ragged_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", "c1,c2\n1.0,2.0\n3.0\n")
        with pytest.raises(MalformedLine):
            read_csv_matrix(p)

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(EmptyFile):
            read_csv_matrix(write(tmp_path, "m.csv", "c1,c2\n"))


class TestBundle:
    def test_round_trip_bit_identical(self, tmp_path):
        problem = gen_problem(7, 4, seed=99)
        manifest = write_bundle(problem, tmp_path / "prob.json")
        back = read_bundle(manifest)
        assert_same_problem(back, problem)

    def test_round_trip_without_planted(self, tmp_path):
        problem = Problem(a=np.eye(3), b=np.array([1.0, 2.0, 3.0]), source="hand")
        back = read_bundle(write_bundle(problem, tmp_path / "p.json"))
        assert_same_problem(back, problem)

    def test_checksum_detects_corruption(self, tmp_path):
        problem = gen_problem(3, 2, seed=1)
        manifest = write_bundle(problem, tmp_path / "p.json")
        payload = tmp_path / "p.bin"
        raw = bytearray(payload.read_bytes())
        raw[0] ^= 0xFF
        payload.write_bytes(bytes(raw))
        with pytest.raises(BundleError):
            read_bundle(manifest)

    def test_wrong_kind_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(BundleError):
            read_bundle(p)

    def test_truncated_payload_rejected(self, tmp_path):
        problem = gen_problem(3, 2, seed=2)
        manifest = write_bundle(problem, tmp_path / "p.json")
        payload = tmp_path / "p.bin"
        raw = payload.read_bytes()[:-8]
        payload.write_bytes(raw)
        meta = json.loads(manifest.read_text())
        meta["checksum_sha256"] = hashlib.sha256(raw).hexdigest()
        manifest.write_text(json.dumps(meta))
        with pytest.raises(BundleError):
            read_bundle(manifest)

    def test_overlong_payload_rejected(self, tmp_path):
        manifest = write_bundle(gen_problem(3, 2, seed=2), tmp_path / "p.json")
        payload = tmp_path / "p.bin"
        raw = payload.read_bytes() + bytes(8)
        payload.write_bytes(raw)
        meta = json.loads(manifest.read_text())
        meta["checksum_sha256"] = hashlib.sha256(raw).hexdigest()
        manifest.write_text(json.dumps(meta))
        with pytest.raises(BundleError, match="not the 88 bytes"):
            read_bundle(manifest)


MANIFEST_FAULTS = [
    ("payload", None),
    ("payload", 7),
    ("payload", "../p.bin"),
    ("payload", "sub/p.bin"),
    ("payload", ".."),
    ("payload", "p\0.bin"),
    ("checksum_sha256", None),
    ("checksum_sha256", 12),
    ("rows", None),
    ("rows", "3"),
    ("rows", True),
    ("rows", -3),
    ("cols", None),
    ("cols", 2.0),
    ("cols", -2),
    ("has_planted", None),
    ("has_planted", "yes"),
    ("source", None),
]


@contextmanager
def allocates_at_most(limit: int):
    """Fail unless the block's traced peak stays within limit bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def faulty_manifest(tmp_path, key, value):
    """A valid bundle whose manifest has key removed (None) or set to value."""
    manifest = write_bundle(gen_problem(3, 2, seed=4), tmp_path / "p.json")
    meta = json.loads(manifest.read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    manifest.write_text(json.dumps(meta))
    return manifest


class TestBundleManifest:
    @pytest.mark.parametrize("key,value", MANIFEST_FAULTS)
    def test_bad_field_rejected(self, tmp_path, key, value):
        with pytest.raises(BundleError):
            read_bundle(faulty_manifest(tmp_path, key, value))

    def test_payload_outside_directory_never_read(self, tmp_path):
        inner = tmp_path / "inner"
        inner.mkdir()
        manifest = write_bundle(gen_problem(3, 2, seed=4), inner / "p.json")
        outside = write_bundle(gen_problem(3, 2, seed=4), tmp_path / "q.json")
        meta = json.loads(manifest.read_text())
        meta["payload"] = "../" + outside.with_suffix(".bin").name  # same bytes, valid checksum
        manifest.write_text(json.dumps(meta))
        with pytest.raises(BundleError, match="manifest's directory"):
            read_bundle(manifest)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_payload_linked_out_of_directory_never_read(self, tmp_path):
        """A payload that is a symlink to an endless device is refused
        before a byte of it is read."""
        manifest = write_bundle(gen_problem(4, 3, seed=0), tmp_path / "p.json")
        payload = tmp_path / "p.bin"
        payload.unlink()
        payload.symlink_to("/dev/zero")
        with allocates_at_most(16 * 1024), pytest.raises(BundleError, match="manifest's directory"):
            read_bundle(manifest)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_payload_fifo_never_opened(self, tmp_path):
        """Opening a FIFO would wait for a writer forever."""
        manifest = write_bundle(gen_problem(4, 3, seed=0), tmp_path / "p.json")
        (tmp_path / "p.bin").unlink()
        os.mkfifo(tmp_path / "p.bin")
        with pytest.raises(BundleError, match="manifest's directory"):
            read_bundle(manifest)

    def test_payload_linked_inside_directory_read(self, tmp_path):
        problem = gen_problem(4, 3, seed=0)
        manifest = write_bundle(problem, tmp_path / "p.json")
        (tmp_path / "p.bin").rename(tmp_path / "data.bin")
        (tmp_path / "p.bin").symlink_to("data.bin")
        assert_same_problem(read_bundle(manifest), problem)

    def test_shape_over_budget_refused_before_the_payload(self, tmp_path):
        manifest = faulty_manifest(tmp_path, "rows", 2**20)
        meta = json.loads(manifest.read_text())
        meta["cols"] = 2**20
        manifest.write_text(json.dumps(meta))
        with allocates_at_most(16 * 1024), pytest.raises(BundleError, match="over the limit"):
            read_bundle(manifest)

    @pytest.mark.parametrize("text", ["[]", '"shb-problem"', "\xff"])
    def test_manifest_not_an_object(self, tmp_path, text):
        p = tmp_path / "x.json"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(BundleError):
            read_bundle(p)


class TestAtomicWrite:
    def test_failure_midway_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("partial\n")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_failure_midway_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("new\n")
                raise RuntimeError("interrupted")
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_write(target, "wb") as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]


class TestProblem:
    def test_planted_consistency_enforced(self):
        with pytest.raises(Inconsistent):
            Problem(
                a=np.eye(2),
                b=np.array([1.0, 1.0]),
                planted_solution=np.array([5.0, 5.0]),
            )

    def test_generation_is_deterministic(self):
        p1 = gen_problem(10, 6, seed=123)
        p2 = gen_problem(10, 6, seed=123)
        assert_same_problem(p1, p2)
        p3 = gen_problem(10, 6, seed=124)
        assert not np.array_equal(p1.a, p3.a)

    def test_generation_budget(self):
        """rows * cols is checked against the dense-array budget before
        anything is drawn: 12 entries fit a budget of 12, 13 do not."""
        with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 12):
            for rows, cols in ((3, 4), (12, 1), (1, 12)):
                assert gen_problem(rows, cols, seed=0).shape == (rows, cols)
            failing = mock.Mock(side_effect=AssertionError("drawn before the budget check"))
            with mock.patch.object(shb.problems, "derive_stream", failing):
                for rows, cols in ((13, 1), (1, 13), (2, 7)):
                    with pytest.raises(OutOfRange, match="over the limit"):
                        gen_problem(rows, cols, seed=0)
            failing.assert_not_called()

    def test_generated_problem_is_consistent(self):
        p = gen_problem(20, 8, seed=5)
        resid = np.linalg.norm(p.a @ p.planted_solution - p.b)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(p.b))

    def test_generated_full_column_rank(self):
        from shb.sketch import row_sampling, spectrum_and_gram

        p = gen_problem(100, 50, seed=7)
        spec, _ = spectrum_and_gram(p.a, row_sampling(p.a))
        assert spec.rank == 50
