import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coalex import AttributeSubset, ConfigError, DataError, Dataset, load_csv
from coalex.dataset import subsets_by_size

from conftest import class_prior, dataset_from


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "a,b,y\n1,2,p\n3,4,q\n")
        d = load_csv(p, "y")
        assert d.n_attributes == 2 and d.n_instances == 2
        assert d.attribute_names == ("a", "b")
        assert d.class_set == ("p", "q")
        assert d.labels == ("p", "q")
        np.testing.assert_array_equal(d.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "a,b,y\n1,2,p\n3,abc,q\n")
        with pytest.raises(DataError, match=r"line 3.*column 'b'.*'abc'"):
            load_csv(p, "y")

    def test_covid_use_case_shape(self, tmp_path):
        # 409 patients, 10 attributes, binary outcome with 176 positives
        rng = np.random.default_rng(0)
        header = ",".join([f"x{j}" for j in range(10)] + ["worse"])
        rows = []
        for i in range(409):
            label = "1" if i < 176 else "0"
            rows.append(",".join(f"{v:.4f}" for v in rng.normal(size=10)) + "," + label)
        p = write(tmp_path, header + "\n" + "\n".join(rows) + "\n")
        d = load_csv(p, "worse")
        assert d.n_attributes == 10 and d.n_instances == 409
        assert len(d.class_set) == 2
        assert class_prior(d, d.class_target("1")) == pytest.approx(176 / 409)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_missing_target(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="target column 'y' not found"):
            load_csv(p, "y")

    def test_digit_like_target_name_not_found(self, tmp_path):
        # '²' is a digit to str.isdigit but not a column index
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(p, "\u00b2")

    def test_target_by_index(self, tmp_path):
        p = write(tmp_path, "y,a\np,1\nq,2\n")
        d = load_csv(p, 0)
        assert d.attribute_names == ("a",)
        assert d.labels == ("p", "q")

    def test_empty_data_section(self, tmp_path):
        p = write(tmp_path, "a,b,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, "y")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(p, "y")

    def test_missing_value_rejected(self, tmp_path):
        p = write(tmp_path, "a,b,y\n1,,p\n")
        with pytest.raises(DataError, match="line 2, column 'b'"):
            load_csv(p, "y")

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path, "a,b,y\n1,inf,p\n")
        with pytest.raises(DataError, match="finite"):
            load_csv(p, "y")
        p = write(tmp_path, "a,b,y\n1,nan,p\n", name="d2.csv")
        with pytest.raises(DataError, match="finite"):
            load_csv(p, "y")

    def test_duplicate_header(self, tmp_path):
        p = write(tmp_path, "a,a,y\n1,2,p\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(p, "y")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "a,b,y\n1,2,p\n1,q\n")
        with pytest.raises(DataError, match="line 3 has 2 fields"):
            load_csv(p, "y")

    def test_custom_delimiter(self, tmp_path):
        p = write(tmp_path, "a;b;y\n1;2;p\n3;4;q\n")
        d = load_csv(p, "y", delimiter=";")
        assert d.n_attributes == 2

    def test_quoted_fields(self, tmp_path):
        p = write(tmp_path, 'a,b,y\n"1","2.5","with, comma"\n3,4,q\n')
        d = load_csv(p, "y")
        assert d.labels[0] == "with, comma"
        assert d.features[0, 1] == 2.5

    def test_deterministic(self, tmp_path):
        text = "a,b,y\n1,2,p\n3,4,q\n"
        d1 = load_csv(write(tmp_path, text, "one.csv"), "y")
        d2 = load_csv(write(tmp_path, text, "two.csv"), "y")
        assert d1.attribute_names == d2.attribute_names
        assert d1.labels == d2.labels
        np.testing.assert_array_equal(d1.features, d2.features)

    def test_utf8_bom_is_skipped(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfy,a,b\np,1,2\nq,3,4\n")
        d = load_csv(p, "y")
        assert d.attribute_names == ("a", "b")
        assert d.labels == ("p", "q")

    def test_single_class_loads(self, tmp_path):
        p = write(tmp_path, "a,y\n1,p\n2,p\n")
        d = load_csv(p, "y")
        assert d.class_set == ("p",)

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        p = write(tmp_path, "a,b,y\n1,2,p\n")
        with pytest.raises(ConfigError, match="delimiter must be a single character"):
            load_csv(p, "y", delimiter=delimiter)

    def test_non_utf8_file_names_the_path(self, tmp_path):
        p = tmp_path / "utf16.csv"
        p.write_bytes("a,y\n1,p\n".encode("utf-16"))  # starts with FF FE
        with pytest.raises(DataError, match="utf16.csv: not UTF-8 text"):
            load_csv(p, "y")

    def test_oversized_field_is_a_data_error(self, tmp_path):
        p = write(tmp_path, "a,y\n" + "1" * 200_000 + ",p\n")
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv(p, "y")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from([b"y", b"a", b"1", b"2.5", b"-", b"nan", b",", b";", b'"',
                                  b"\n", b"\r\n", b" ", b"\xef\xbb\xbf", b"\xff\xfe",
                                  b"\x00"]), max_size=40).map(b"".join)))
    def test_arbitrary_bytes_load_or_raise_data_error(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("fuzz") / "f.csv"
        p.write_bytes(raw)
        try:
            d = load_csv(p, "y")
        except DataError:
            return
        assert d.n_instances >= 1 and d.n_attributes >= 1


class TestDatasetInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="non-finite"):
            dataset_from([[1.0, np.nan]], ["p"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="unique"):
            dataset_from([[1.0, 2.0]], ["p"], names=("a", "a"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DataError):
            dataset_from([[1.0], [2.0]], ["p"])

    def test_rejects_unknown_label(self):
        with pytest.raises(DataError, match="not in class_set"):
            dataset_from([[1.0]], ["r"], class_set=("p", "q"))

    def test_features_immutable(self, xor4):
        with pytest.raises(ValueError):
            xor4.features[0, 0] = 9.0

    def test_class_target(self, xor4):
        c = xor4.class_target("q")
        assert c.index == 1 and c.class_id == "q"
        with pytest.raises(DataError, match="unknown class"):
            xor4.class_target("z")


class TestAttributeSubset:
    def test_canonical_equality(self):
        a = AttributeSubset.from_indices([2, 0], 4)
        b = AttributeSubset.from_indices([0, 2], 4)
        assert a == b and hash(a) == hash(b)
        assert a.indices() == (0, 2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            AttributeSubset.from_indices([4], 4)
        with pytest.raises(ValueError):
            AttributeSubset(1 << 5, 4)

    def test_set_operations(self):
        s = AttributeSubset.from_indices([1, 3], 5)
        assert s.indices() == (1, 3)
        assert s.without_index(3).indices() == (1,)

    @given(st.sets(st.integers(min_value=0, max_value=7)))
    def test_roundtrip(self, idx):
        s = AttributeSubset.from_indices(idx, 8)
        assert set(s.indices()) == idx
        assert s.size == len(idx)

    def test_subsets_by_size_order_and_count(self):
        subs = [AttributeSubset(mask, 4) for mask in subsets_by_size([0, 2, 3])]
        assert len(subs) == 8
        sizes = [s.size for s in subs]
        assert sizes == sorted(sizes)
        # lexicographic within each size
        assert [s.indices() for s in subs[1:4]] == [(0,), (2,), (3,)]
        assert [s.indices() for s in subs[4:7]] == [(0, 2), (0, 3), (2, 3)]

    def test_subsets_by_size_max_size(self):
        assert list(subsets_by_size([0, 1, 2], max_size=1)) == [0b000, 0b001, 0b010, 0b100]
