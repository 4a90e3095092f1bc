import json
from unittest import mock

import numpy as np
import pytest

import shb.io
import shb.problems
from shb.errors import BundleError, EmptyFile, Inconsistent, MalformedLine, NonMonotoneIndices, OutOfRange
from shb.io import (
    atomic_write,
    parse_libsvm,
    read_bundle,
    read_csv_matrix,
    write_bundle,
)
from shb.problems import Problem, gen_problem


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
        assert problem.a.tobytes() == back.a.tobytes()
        assert problem.b.tobytes() == back.b.tobytes()
        assert problem.planted_solution.tobytes() == back.planted_solution.tobytes()
        assert problem.source == back.source
        assert problem == back

    def test_round_trip_without_planted(self, tmp_path):
        problem = Problem(a=np.eye(3), b=np.array([1.0, 2.0, 3.0]), source="hand")
        back = read_bundle(write_bundle(problem, tmp_path / "p.json"))
        assert back.planted_solution is None
        assert problem == back

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
        import hashlib

        meta["checksum_sha256"] = hashlib.sha256(raw).hexdigest()
        manifest.write_text(json.dumps(meta))
        with pytest.raises(BundleError):
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
        assert p1 == p2
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
