import pytest

from wmhkit.cohort import (
    CohortParseWarning,
    SubjectRecord,
    parse_cohort_csv,
    parse_numeric_columns,
    resolve_field,
    summarize,
    synthetic_cohort,
    write_cohort_csv,
)
from wmhkit.errors import DuplicateId, EmptyCohort, FormatError, InputError, MissingHeader, UnknownDiagnosis

HEADER = (
    "id,age,sex,education,apoe4,diagnosis,icv_ml,"
    "wmh_stackgen_ml,wmh_adni_ml,adni_ef,adni_mem,adni_lan"
)


class TestParse:
    def test_header_only_is_empty(self):
        assert parse_cohort_csv(HEADER + "\n") == []

    def test_typed_row(self):
        text = HEADER + "\nS1,72,F,16,1,CN,1432.5,4.2,5.0,0.3,-0.1,0.2\n"
        (rec,) = parse_cohort_csv(text)
        assert rec == SubjectRecord(
            id="S1", age=72.0, sex="F", education=16.0, apoe4=1, diagnosis="CN",
            icv_ml=1432.5, wmh_stackgen_ml=4.2, wmh_adni_ml=5.0,
            adni_ef=0.3, adni_mem=-0.1, adni_lan=0.2,
        )

    @pytest.mark.parametrize("raw,expect", [("female", "F"), ("M", "M"), ("Male", "M"), ("f", "F")])
    def test_sex_synonyms(self, raw, expect):
        text = f"id,sex,diagnosis\nS1,{raw},CN\n"
        assert parse_cohort_csv(text)[0].sex == expect

    def test_case_insensitive_headers(self):
        text = "ID,Age,Diagnosis\nS1,70,cn\n"
        (rec,) = parse_cohort_csv(text)
        assert rec.age == 70.0 and rec.diagnosis == "CN"

    def test_unparseable_numeric_warns_and_missing(self):
        text = HEADER + "\nS1,abc,F,16,1,CN,1400,4,5,0,0,0\n"
        with pytest.warns(CohortParseWarning):
            (rec,) = parse_cohort_csv(text)
        assert rec.age is None

    def test_out_of_range_apoe4_warns(self):
        text = "id,apoe4,diagnosis\nS1,3,CN\n"
        with pytest.warns(CohortParseWarning):
            (rec,) = parse_cohort_csv(text)
        assert rec.apoe4 is None

    def test_unknown_diagnosis_raises(self):
        with pytest.raises(UnknownDiagnosis):
            parse_cohort_csv("id,diagnosis\nS1,dementia\n")

    def test_duplicate_id_raises(self):
        with pytest.raises(DuplicateId):
            parse_cohort_csv("id,diagnosis\nS1,CN\nS1,AD\n")

    def test_missing_required_columns(self):
        with pytest.raises(MissingHeader):
            parse_cohort_csv("age,sex\n70,F\n")

    def test_empty_file(self):
        with pytest.raises(MissingHeader):
            parse_cohort_csv("")

    def test_round_trip_synthetic_cohort(self):
        records = synthetic_cohort(seed=9)
        assert parse_cohort_csv(write_cohort_csv(records)) == records

    def test_numeric_columns_reader(self):
        text = "x,y\n1.5,2\n,3\n4,5\n"
        assert parse_numeric_columns(text, ["x", "y"]) == [(1.5, 2.0), (4.0, 5.0)]
        with pytest.raises(InputError):
            parse_numeric_columns(text, ["z"])
        with pytest.raises(MissingHeader):
            parse_numeric_columns("", ["x"])

    def test_byte_order_mark_is_dropped(self):
        # Excel's "CSV UTF-8" starts with one; it once stuck to the first header name
        bom = b"\xef\xbb\xbf"
        text = HEADER + "\nS1,72,F,16,1,CN,1432.5,4.2,5.0,0.3,-0.1,0.2\n"
        assert parse_cohort_csv(bom + text.encode()) == parse_cohort_csv(text)
        assert parse_numeric_columns(bom + b"x,y\n1,2\n", ["x", "y"]) == [(1.0, 2.0)]

    @pytest.mark.parametrize("parse", [parse_cohort_csv, lambda data: parse_numeric_columns(data, ["id"])],
                             ids=["cohort", "numeric"])
    def test_bytes_that_are_not_utf8_are_a_format_error(self, parse):
        # a Latin-1 é once escaped as an uncaught UnicodeDecodeError
        with pytest.raises(FormatError, match="CSV is not UTF-8"):
            parse("id,diagnosis\nJos\xe9,CN\n".encode("latin-1"))


class TestResolveField:
    def test_aliases(self):
        assert resolve_field("icv") == "icv_ml"
        assert resolve_field("wmh_stackgen") == "wmh_stackgen_ml"
        assert resolve_field("adni_ef") == "adni_ef"

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_field("nope")


class TestSummarize:
    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            summarize([])

    def test_single_subject(self):
        rec = SubjectRecord(id="S1", age=70.0, sex="M", education=12.0, diagnosis="AD")
        summary = summarize([rec])
        g = summary.groups["AD"]
        assert (g.n, g.sex_m, g.sex_f) == (1, 1, 0)
        assert g.age_mean == g.age_min == g.age_max == 70.0

    def test_reference_cohort_counts(self):
        records = synthetic_cohort(seed=0)
        summary = summarize(records)
        assert summary.overall_n == 290
        assert summary.groups["CN"].n == 193
        assert (summary.groups["CN"].sex_f, summary.groups["CN"].sex_m) == (111, 82)
        assert summary.groups["MCI"].n == 73
        assert (summary.groups["MCI"].sex_f, summary.groups["MCI"].sex_m) == (30, 43)
        assert summary.groups["AD"].n == 24
        assert (summary.groups["AD"].sex_f, summary.groups["AD"].sex_m) == (8, 16)
        assert 56 <= summary.groups["CN"].age_min <= summary.groups["CN"].age_max <= 86

    def test_group_ns_sum_to_overall(self):
        records = synthetic_cohort(n_per_group=(10, 5, 3), f_per_group=(5, 2, 1), seed=1)
        records.append(SubjectRecord(id="X1", age=60.0))
        summary = summarize(records)
        assert sum(g.n for g in summary.groups.values()) == summary.overall_n == 19
        assert "NA" in summary.groups

    def test_permutation_invariant(self, rng):
        records = synthetic_cohort(n_per_group=(20, 8, 4), f_per_group=(9, 4, 2), seed=3)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_round_trip_then_summarize(self):
        records = synthetic_cohort(n_per_group=(25, 10, 5), f_per_group=(12, 5, 2), seed=4)
        direct = summarize(records)
        via_csv = summarize(parse_cohort_csv(write_cohort_csv(records)))
        assert direct == via_csv


class TestSyntheticCohort:
    def test_deterministic(self):
        assert synthetic_cohort(seed=11) == synthetic_cohort(seed=11)

    def test_field_ranges(self):
        for rec in synthetic_cohort(seed=2):
            assert rec.age > 0
            assert rec.apoe4 in (0, 1, 2)
            assert rec.diagnosis in ("CN", "MCI", "AD")
            assert rec.icv_ml > 0
            assert rec.wmh_stackgen_ml > 0
            assert rec.adni_ef is not None
